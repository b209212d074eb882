#include "sim/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/pipeline.h"
#include "topology/repeater.h"

namespace solarnet::sim {

void validate_trial_config(const TrialConfig& config) {
  // Negated comparisons so NaN fails each check: NaN <= 0.0 is false, which
  // the old spacing check silently accepted.
  if (!std::isfinite(config.repeater_spacing_km) ||
      !(config.repeater_spacing_km > 0.0)) {
    throw std::invalid_argument(
        "TrialConfig: repeater_spacing_km must be finite and positive, got " +
        std::to_string(config.repeater_spacing_km));
  }
  if (config.rule == CableDeathRule::kFractionFails &&
      !(config.death_fraction > 0.0 && config.death_fraction <= 1.0)) {
    throw std::invalid_argument(
        "TrialConfig: death_fraction must be in (0, 1], got " +
        std::to_string(config.death_fraction));
  }
  if (config.threads > kMaxReasonableThreads) {
    throw std::invalid_argument(
        "TrialConfig: threads must be <= " +
        std::to_string(kMaxReasonableThreads) + ", got " +
        std::to_string(config.threads));
  }
}

FailureSimulator::FailureSimulator(const topo::InfrastructureNetwork& net,
                                   TrialConfig config)
    : net_(net), config_(config) {
  validate_trial_config(config_);
  cable_offset_.reserve(net.cable_count() + 1);
  cable_offset_.push_back(0);
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    const double max_abs_lat = net.cable_max_abs_latitude(c);
    const auto positions = topo::repeater_positions(
        net.cable(c), c, net.nodes(), config_.repeater_spacing_km);
    for (const topo::Repeater& r : positions) {
      repeaters_.push_back({r.location, max_abs_lat});
    }
    if (positions.empty()) {
      ++repeaterless_cables_;
    } else {
      mortal_.push_back(static_cast<std::uint32_t>(c));
    }
    total_repeaters_ += positions.size();
    cable_offset_.push_back(repeaters_.size());
  }
  connected_nodes_ = net.connected_node_count();
}

double FailureSimulator::average_repeaters_per_cable() const noexcept {
  if (net_.cable_count() == 0) return 0.0;
  return static_cast<double>(total_repeaters_) /
         static_cast<double>(net_.cable_count());
}

std::size_t FailureSimulator::lethal_failures(std::size_t repeaters) const {
  if (config_.rule == CableDeathRule::kAnyRepeaterFails || repeaters == 0) {
    return 1;
  }
  // The rule compares double(failed) / double(repeaters) against the
  // fraction, so search around the ceil with that exact comparison.
  const double n = static_cast<double>(repeaters);
  std::size_t k = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(config_.death_fraction * n)), 1,
      repeaters);
  while (k > 1 && static_cast<double>(k - 1) / n >= config_.death_fraction) {
    --k;
  }
  while (k < repeaters && static_cast<double>(k) / n < config_.death_fraction) {
    ++k;
  }
  return k;
}

double FailureSimulator::cable_death_probability(
    topo::CableId cable, const gic::RepeaterFailureModel& model) const {
  if (cable + 1 >= cable_offset_.size()) {
    throw std::out_of_range("cable_death_probability: cable id");
  }
  const std::size_t begin = cable_offset_[cable];
  const std::size_t end = cable_offset_[cable + 1];
  const std::size_t lethal = lethal_failures(end - begin);
  // k = 1 needs only the survival product: a one-state counter the
  // compiler keeps in a register, with an early exit.
  if (lethal == 1) {
    RepeaterFailureCount count(1);
    for (std::size_t i = begin; i < end; ++i) {
      count.add(model.failure_probability(repeaters_[i]));
      // Once 1 - survive rounds to 1, the shrinking survival product can
      // no longer change the result.
      if (count.at_least(1) == 1.0) break;
    }
    return count.at_least(1);
  }
  RepeaterFailureCount count(end - begin + 1);
  for (std::size_t i = begin; i < end; ++i) {
    count.add(model.failure_probability(repeaters_[i]));
  }
  return count.at_least(lethal);
}

DeathProbabilityTable FailureSimulator::death_probability_table(
    const gic::RepeaterFailureModel& model) const {
  DeathProbabilityTable table;
  table.probability.reserve(net_.cable_count());
  for (topo::CableId c = 0; c < net_.cable_count(); ++c) {
    table.probability.push_back(cable_death_probability(c, model));
  }
  return table;
}

void FailureSimulator::sample_cable_failures(const DeathProbabilityTable& table,
                                             util::Rng& rng,
                                             util::Bitset& dead) const {
  if (table.probability.size() != net_.cable_count()) {
    throw std::invalid_argument("sample_cable_failures: table size mismatch");
  }
  dead.assign(net_.cable_count(), false);
  for (const std::uint32_t c : mortal_) {
    dead.set(c, rng.uniform() < table.probability[c]);
  }
}

util::Bitset FailureSimulator::sample_cable_failures(
    const gic::RepeaterFailureModel& model, util::Rng& rng) const {
  util::Bitset dead;
  sample_cable_failures(model, rng, dead);
  return dead;
}

void FailureSimulator::sample_cable_failures(
    const gic::RepeaterFailureModel& model, util::Rng& rng,
    util::Bitset& dead) const {
  sample_cable_failures(death_probability_table(model), rng, dead);
}

TrialResult FailureSimulator::run_trial(const gic::RepeaterFailureModel& model,
                                        util::Rng& rng) const {
  TrialResult result;
  sample_cable_failures(model, rng, result.cable_dead);
  result.cables_failed = result.cable_dead.count();
  result.nodes_unreachable = net_.unreachable_nodes(result.cable_dead).size();
  result.cables_failed_pct =
      net_.cable_count() > 0
          ? 100.0 * static_cast<double>(result.cables_failed) /
                static_cast<double>(net_.cable_count())
          : 0.0;
  result.nodes_unreachable_pct =
      connected_nodes_ > 0
          ? 100.0 * static_cast<double>(result.nodes_unreachable) /
                static_cast<double>(connected_nodes_)
          : 0.0;
  return result;
}

namespace {

// run_trials' metric: the two per-trial percentages, accumulated per chunk.
// It reads no component decomposition and takes whole batches on the
// bit-parallel path, so the pipeline runs only the draw and the two count
// kernels for it.
class TrialPercentagesObserver final : public TrialObserver {
 public:
  bool needs_components() const override { return false; }
  void begin_run(const TrialPipeline& /*pipeline*/, std::size_t /*workers*/,
                 std::size_t chunks) override {
    chunks_.assign(chunks, {});
  }
  void observe(const TrialView& view, std::size_t /*worker*/,
               std::size_t chunk) override {
    chunks_[chunk].cables.add(view.cables_failed_pct);
    chunks_[chunk].nodes.add(view.nodes_unreachable_pct);
  }
  bool supports_batch() const override { return true; }
  void observe_batch(const BatchTrialView& view, std::size_t /*worker*/,
                     std::size_t first_chunk) override {
    for (unsigned lane = 0; lane < view.lanes; ++lane) {
      Chunk& slot = chunks_[first_chunk + lane / TrialPipeline::kTrialChunk];
      slot.cables.add(view.cables_failed_pct[lane]);
      slot.nodes.add(view.nodes_unreachable_pct[lane]);
    }
  }
  void end_run() override {
    for (const Chunk& slot : chunks_) {
      result_.cables_failed_pct.merge(slot.cables);
      result_.nodes_unreachable_pct.merge(slot.nodes);
    }
    chunks_.clear();
  }

  const AggregateResult& result() const noexcept { return result_; }

 private:
  struct Chunk {
    util::RunningStats cables;
    util::RunningStats nodes;
  };
  std::vector<Chunk> chunks_;
  AggregateResult result_;
};

}  // namespace

AggregateResult FailureSimulator::run_trials(
    const gic::RepeaterFailureModel& model, std::size_t trials,
    std::uint64_t seed) const {
  // The pipeline folds the death table once, so every trial is O(cables);
  // a lone chunk merges into the empty aggregate by copy, so the paper's
  // 10-trial runs are bit-identical to a plain serial loop.
  TrialPipeline pipeline(*this, model);
  TrialPercentagesObserver percentages;
  pipeline.add_observer(percentages);
  pipeline.run(trials, seed);
  AggregateResult agg = percentages.result();
  agg.trials = trials;
  return agg;
}

}  // namespace solarnet::sim
