#include "analysis/economics.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace solarnet::analysis {

const std::vector<RegionalEconomy>& regional_economies() {
  static const std::vector<RegionalEconomy> table = {
      // USD billions per day of full disconnection; anchored on the
      // paper's "$7B/day for the US" with the rest scaled by
      // digital-economy size.
      {geo::Continent::kNorthAmerica, 8.5},
      {geo::Continent::kEurope, 6.5},
      {geo::Continent::kAsia, 9.5},
      {geo::Continent::kSouthAmerica, 1.2},
      {geo::Continent::kAfrica, 0.8},
      {geo::Continent::kOceania, 0.6},
  };
  return table;
}

EconomicImpact estimate_internet_impact(
    const topo::InfrastructureNetwork& net,
    const util::Bitset& cable_dead,
    const recovery::RecoveryTimeline& timeline, double step_days) {
  if (step_days <= 0.0) {
    throw std::invalid_argument("estimate_internet_impact: bad step");
  }
  if (cable_dead.size() != net.cable_count() ||
      timeline.restore_day.size() != net.cable_count()) {
    throw std::invalid_argument("estimate_internet_impact: size mismatch");
  }

  // Group cable-bearing nodes by continent once.
  std::map<geo::Continent, std::vector<topo::NodeId>> nodes_by_continent;
  for (topo::NodeId n = 0; n < net.node_count(); ++n) {
    if (net.cables_at(n).empty()) continue;
    nodes_by_continent[geo::continent_at(net.node(n).location)].push_back(n);
  }

  double horizon = 0.0;
  for (const recovery::CableRepairJob& j : timeline.jobs) {
    horizon = std::max(horizon, j.completion_day);
  }

  auto severity_at = [&](geo::Continent continent, double day) {
    const auto it = nodes_by_continent.find(continent);
    if (it == nodes_by_continent.end() || it->second.empty()) return 0.0;
    std::size_t dark = 0;
    for (topo::NodeId n : it->second) {
      bool any_alive = false;
      for (topo::CableId c : net.cables_at(n)) {
        const bool dead_now =
            cable_dead[c] && timeline.restore_day[c] > day;
        if (!dead_now) {
          any_alive = true;
          break;
        }
      }
      if (!any_alive) ++dark;
    }
    return static_cast<double>(dark) /
           static_cast<double>(it->second.size());
  };

  EconomicImpact impact;
  for (const RegionalEconomy& econ : regional_economies()) {
    impact.initial_severity.push_back(
        {econ.continent, severity_at(econ.continent, 0.0)});
  }

  // Trapezoidal integration of cost over the recovery horizon.
  double severity_days = 0.0;
  for (double day = 0.0; day < horizon + step_days; day += step_days) {
    const double dt = std::min(step_days, horizon + step_days - day);
    double mean_severity = 0.0;
    for (const RegionalEconomy& econ : regional_economies()) {
      const double s0 = severity_at(econ.continent, day);
      const double s1 = severity_at(econ.continent, day + dt);
      const double avg = 0.5 * (s0 + s1);
      impact.internet_cost_busd +=
          avg * econ.internet_outage_cost_per_day_busd * dt;
      mean_severity += avg / static_cast<double>(regional_economies().size());
    }
    severity_days += mean_severity * dt;
  }
  impact.outage_days_integral = severity_days;
  return impact;
}

}  // namespace solarnet::analysis
