// §5.5 extension: traffic shifts after regional failure. The paper: "when
// all submarine cables connecting to NY fail, there will be significant
// shifts in BGP paths and potential overload in Internet cables in
// California". We route a gravity demand matrix, kill every cable landing
// in the US North-East, and measure where the load goes.
#include <algorithm>
#include <iostream>

#include "datasets/submarine.h"
#include "routing/assignment.h"
#include "util/bitset.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace solarnet;

  const auto net = datasets::make_submarine_network({});
  const auto demands = routing::gravity_demands(net);
  const routing::TrafficEngine engine(net, demands);

  const auto baseline = engine.assign_baseline();
  util::print_banner(std::cout, "Baseline traffic assignment");
  std::cout << "offered: "
            << util::format_fixed(
                   (baseline.delivered_gbps + baseline.undeliverable_gbps) /
                       1000.0,
                   0)
            << " Tbps, delivered: "
            << util::format_fixed(100.0 * baseline.delivered_fraction(), 1)
            << "%, mean path "
            << util::format_fixed(baseline.mean_path_km, 0)
            << " km, max utilization "
            << util::format_fixed(baseline.max_utilization, 2) << ", "
            << baseline.overloaded_cables << " overloaded cables\n";

  // Kill every cable with a landing in the US North-East (lat > 38, lon in
  // [-76, -69]) — the paper's "all submarine cables connecting to NY fail".
  util::Bitset dead(net.cable_count());
  std::size_t killed = 0;
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    for (topo::NodeId n : net.cable(c).endpoints()) {
      const auto& p = net.node(n).location;
      if (net.node(n).country_code == "US" && p.lat_deg > 38.0 &&
          p.lon_deg > -76.0 && p.lon_deg < -69.0) {
        dead.set(c);
        ++killed;
        break;
      }
    }
  }
  const auto after = engine.assign(dead);
  util::print_banner(std::cout,
                     "After killing all " + std::to_string(killed) +
                         " cables landing in the US North-East");
  std::cout << "delivered: "
            << util::format_fixed(100.0 * after.delivered_fraction(), 1)
            << "%, mean path "
            << util::format_fixed(after.mean_path_km, 0)
            << " km (baseline "
            << util::format_fixed(baseline.mean_path_km, 0)
            << "), max utilization "
            << util::format_fixed(after.max_utilization, 2) << ", "
            << after.overloaded_cables << " overloaded cables\n";

  const auto shift = routing::TrafficEngine::load_shift(baseline, after);
  std::vector<std::pair<double, topo::CableId>> gainers;
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    if (shift[c] > 0.0) gainers.push_back({shift[c], c});
  }
  std::sort(gainers.rbegin(), gainers.rend());
  util::print_banner(std::cout, "Top 10 cables by gained load");
  util::TextTable t({"cable", "gained Gbps", "utilization before",
                     "utilization after"});
  for (std::size_t i = 0; i < 10 && i < gainers.size(); ++i) {
    const topo::CableId c = gainers[i].second;
    t.add_row({net.cable(c).name, util::format_fixed(gainers[i].first, 0),
               util::format_fixed(baseline.loads[c].utilization(), 2),
               util::format_fixed(after.loads[c].utilization(), 2)});
  }
  t.print(std::cout);

  // Capacity-aware comparison: with spill routing, how much demand is
  // actually placeable on the surviving plant?
  const auto aware_before =
      engine.assign_capacity_aware(util::Bitset(net.cable_count()));
  const auto aware_after = engine.assign_capacity_aware(dead);
  util::print_banner(std::cout,
                     "Capacity-aware routing (utilization capped at 1)");
  util::TextTable cap({"state", "placed %", "blocked Tbps", "mean path km"});
  for (const auto& [label, r] :
       std::initializer_list<
           std::pair<const char*, const routing::AssignmentResult*>>{
           {"baseline", &aware_before}, {"NE-US cables dead", &aware_after}}) {
    cap.add_row({label, util::format_fixed(100.0 * r->delivered_fraction(), 1),
                 util::format_fixed(r->undeliverable_gbps / 1000.0, 1),
                 util::format_fixed(r->mean_path_km, 0)});
  }
  cap.print(std::cout);
  std::cout << "\npaper §5.5: regional cable failures shift load onto "
               "surviving corridors (e.g. West-coast routes) — the Internet "
               "is global where power grids are regional\n";
  return 0;
}
