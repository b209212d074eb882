#include "analysis/country.h"

#include <algorithm>

#include "util/checkpoint.h"

namespace solarnet::analysis {

namespace {

bool cable_touches_country(const topo::InfrastructureNetwork& net,
                           const topo::Cable& cable,
                           const std::vector<std::string>& countries) {
  for (topo::NodeId n : cable.endpoints()) {
    const std::string& cc = net.node(n).country_code;
    if (std::find(countries.begin(), countries.end(), cc) !=
        countries.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<topo::CableId> international_cables(
    const topo::InfrastructureNetwork& net, const std::string& country) {
  std::vector<topo::CableId> out;
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    bool touches = false;
    bool leaves = false;
    for (topo::NodeId n : net.cable(c).endpoints()) {
      const std::string& cc = net.node(n).country_code;
      if (cc == country) {
        touches = true;
      } else if (!cc.empty()) {
        leaves = true;
      }
    }
    if (touches && leaves) out.push_back(c);
  }
  return out;
}

std::vector<topo::CableId> corridor_cables(
    const topo::InfrastructureNetwork& net,
    const std::vector<std::string>& countries_a,
    const std::vector<std::string>& countries_b) {
  std::vector<topo::CableId> out;
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    const topo::Cable& cable = net.cable(c);
    if (cable_touches_country(net, cable, countries_a) &&
        cable_touches_country(net, cable, countries_b)) {
      out.push_back(c);
    }
  }
  return out;
}

std::vector<topo::CableId> cables_at_named_node(
    const topo::InfrastructureNetwork& net, const std::string& node_name) {
  const auto id = net.find_node(node_name);
  if (!id) return {};
  return net.cables_at(*id);
}

double all_fail_probability(const sim::FailureSimulator& simulator,
                            const gic::RepeaterFailureModel& model,
                            const std::vector<topo::CableId>& cables) {
  double p = 1.0;
  for (topo::CableId c : cables) {
    p *= simulator.cable_death_probability(c, model);
    if (p == 0.0) break;
  }
  return p;
}

double expected_survivors(const sim::FailureSimulator& simulator,
                          const gic::RepeaterFailureModel& model,
                          const std::vector<topo::CableId>& cables) {
  double expected = 0.0;
  for (topo::CableId c : cables) {
    expected += 1.0 - simulator.cable_death_probability(c, model);
  }
  return expected;
}

std::vector<CableRisk> rank_cable_risk(
    const sim::FailureSimulator& simulator,
    const gic::RepeaterFailureModel& model,
    const std::vector<topo::CableId>& cables) {
  std::vector<CableRisk> out;
  out.reserve(cables.size());
  const topo::InfrastructureNetwork& net = simulator.network();
  for (topo::CableId c : cables) {
    out.push_back({c, net.cable(c).name, net.cable(c).total_length_km(),
                   simulator.cable_death_probability(c, model)});
  }
  std::sort(out.begin(), out.end(), [](const CableRisk& a, const CableRisk& b) {
    return a.death_probability > b.death_probability;
  });
  return out;
}

CountryConnectivity country_connectivity(
    const topo::InfrastructureNetwork& net,
    const sim::FailureSimulator& simulator,
    const gic::RepeaterFailureModel& model, const std::string& country) {
  CountryConnectivity result;
  result.country = country;
  const auto cables = international_cables(net, country);
  result.international_cable_count = cables.size();
  result.all_fail_probability = all_fail_probability(simulator, model, cables);
  result.expected_surviving_cables =
      expected_survivors(simulator, model, cables);
  return result;
}

CountryIsolationObserver::CountryIsolationObserver(
    const topo::InfrastructureNetwork& net,
    std::vector<std::string> countries)
    : countries_(std::move(countries)) {
  cables_.reserve(countries_.size());
  for (const std::string& country : countries_) {
    cables_.push_back(international_cables(net, country));
  }
}

void CountryIsolationObserver::begin_run(
    const sim::TrialPipeline& /*pipeline*/, std::size_t /*workers*/,
    std::size_t chunks) {
  chunks_.assign(chunks * countries_.size(), {});
  results_.clear();
}

void CountryIsolationObserver::record(std::size_t chunk, std::size_t i,
                                      std::size_t survivors) {
  Slot& slot = chunks_[chunk * countries_.size() + i];
  slot.survivors.add(static_cast<double>(survivors));
  // A country with no international cables is vacuously "all failed"
  // (matching all_fail_probability's empty-set convention of 1.0).
  if (survivors == 0) ++slot.isolated;
}

void CountryIsolationObserver::observe(const sim::TrialView& view,
                                       std::size_t /*worker*/,
                                       std::size_t chunk) {
  const util::Bitset& dead = *view.cable_dead;
  for (std::size_t i = 0; i < countries_.size(); ++i) {
    std::size_t survivors = 0;
    for (topo::CableId c : cables_[i]) {
      if (!dead[c]) ++survivors;
    }
    record(chunk, i, survivors);
  }
}

void CountryIsolationObserver::observe_batch(const sim::BatchTrialView& view,
                                             std::size_t /*worker*/,
                                             std::size_t first_chunk) {
  // Each country's slots see their trials in ascending order, exactly the
  // sequence the scalar observe() calls add.
  const std::uint64_t* dead = view.batch->cable_dead.data();
  for (std::size_t i = 0; i < countries_.size(); ++i) {
    for (unsigned lane = 0; lane < view.lanes; ++lane) {
      std::size_t survivors = 0;
      for (topo::CableId c : cables_[i]) {
        survivors += ((dead[c] >> lane) & 1u) ^ 1u;
      }
      record(first_chunk + lane / sim::TrialPipeline::kTrialChunk, i,
             survivors);
    }
  }
}

std::string CountryIsolationObserver::checkpoint_id() const {
  std::string id = "country-isolation/v1";
  for (const std::string& country : countries_) {
    id += '/';
    id += country;
  }
  return id;
}

void CountryIsolationObserver::save_chunk(std::size_t chunk,
                                          util::ByteWriter& out) const {
  // chunks_ is laid out chunk-major (chunk * countries + i), so the number
  // of chunk slots is the flat size divided by the country count.
  const std::size_t chunk_slots =
      countries_.empty() ? 0 : chunks_.size() / countries_.size();
  sim::check_chunk_slot("CountryIsolationObserver", "save_chunk", chunk,
                        chunk_slots);
  for (std::size_t i = 0; i < countries_.size(); ++i) {
    const Slot& slot = chunks_[chunk * countries_.size() + i];
    out.u64(slot.isolated);
    util::write_stats(out, slot.survivors);
  }
}

void CountryIsolationObserver::load_chunk(std::size_t chunk,
                                          util::ByteReader& in) {
  const std::size_t chunk_slots =
      countries_.empty() ? 0 : chunks_.size() / countries_.size();
  sim::check_chunk_slot("CountryIsolationObserver", "load_chunk", chunk,
                        chunk_slots);
  for (std::size_t i = 0; i < countries_.size(); ++i) {
    Slot& slot = chunks_[chunk * countries_.size() + i];
    slot.isolated = in.u64();
    slot.survivors = util::read_stats(in);
  }
}

void CountryIsolationObserver::end_run() {
  results_.assign(countries_.size(), {});
  for (std::size_t i = 0; i < countries_.size(); ++i) {
    results_[i].country = countries_[i];
    results_[i].international_cable_count = cables_[i].size();
  }
  const std::size_t chunks =
      countries_.empty() ? 0 : chunks_.size() / countries_.size();
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    for (std::size_t i = 0; i < countries_.size(); ++i) {
      const Slot& slot = chunks_[chunk * countries_.size() + i];
      results_[i].isolated_trials += slot.isolated;
      results_[i].surviving_cables.merge(slot.survivors);
    }
  }
  for (CountryIsolationResult& r : results_) {
    r.trials = r.surviving_cables.count();
  }
  chunks_.clear();
}

}  // namespace solarnet::analysis
