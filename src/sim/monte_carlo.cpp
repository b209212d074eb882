#include "sim/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/trial_batch.h"
#include "topology/repeater.h"
#include "util/parallel.h"

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

std::vector<bool> FailureSimulator::sample_cable_failures(
    const gic::RepeaterFailureModel& model, util::Rng& rng) const {
  std::vector<bool> dead;
  sample_cable_failures(model, rng, dead);
  return dead;
}

void FailureSimulator::sample_cable_failures(
    const gic::RepeaterFailureModel& model, util::Rng& rng,
    std::vector<bool>& dead) const {
  util::Bitset bits;
  sample_cable_failures(death_probability_table(model), rng, bits);
  dead.assign(net_.cable_count(), false);
  for (const std::uint32_t c : mortal_) dead[c] = bits.test(c);
}

void FailureSimulator::sample_cable_failures(
    const gic::RepeaterFailureModel& model, util::Rng& rng,
    util::Bitset& dead) const {
  sample_cable_failures(death_probability_table(model), rng, dead);
}

void FailureSimulator::trial_percentages(const DeathProbabilityTable& table,
                                         util::Rng& rng, TrialScratch& scratch,
                                         double& cables_failed_pct,
                                         double& nodes_unreachable_pct) const {
  sample_cable_failures(table, rng, scratch.cable_dead);
  const std::size_t failed = scratch.cable_dead.count();
  net_.unreachable_nodes(scratch.cable_dead, scratch.unreachable);
  cables_failed_pct = net_.cable_count() > 0
                          ? 100.0 * static_cast<double>(failed) /
                                static_cast<double>(net_.cable_count())
                          : 0.0;
  nodes_unreachable_pct =
      connected_nodes_ > 0
          ? 100.0 * static_cast<double>(scratch.unreachable.size()) /
                static_cast<double>(connected_nodes_)
          : 0.0;
}

TrialResult FailureSimulator::run_trial(const gic::RepeaterFailureModel& model,
                                        util::Rng& rng) const {
  TrialResult result;
  sample_cable_failures(model, rng, result.cable_dead);
  for (bool d : result.cable_dead) {
    if (d) ++result.cables_failed;
  }
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

AggregateResult FailureSimulator::run_trials(
    const gic::RepeaterFailureModel& model, std::size_t trials,
    std::uint64_t seed) const {
  AggregateResult agg;
  agg.trials = trials;
  if (trials == 0) return agg;

  // The per-cable probabilities are a pure function of (simulator, model):
  // fold them once so every trial is O(cables) instead of O(repeaters).
  const DeathProbabilityTable table = death_probability_table(model);

  // Determinism: trials are grouped into fixed-size chunks whose boundaries
  // depend only on `trials`, never on the thread count. Each chunk
  // accumulates its own RunningStats (trial t always draws from child
  // stream t), workers claim whole chunks, and the chunk accumulators are
  // merged in ascending chunk order — so the aggregate is bit-identical for
  // every thread count, and (because a lone chunk merges into the empty
  // aggregate by copy) bit-identical to a plain serial loop whenever
  // trials <= kTrialChunk, which covers the paper's 10-trial runs.
  constexpr std::size_t kTrialChunk = 32;
  const std::size_t chunks = (trials + kTrialChunk - 1) / kTrialChunk;
  struct ChunkStats {
    util::RunningStats cables;
    util::RunningStats nodes;
  };
  std::vector<ChunkStats> per_chunk(chunks);
  const util::Rng base(seed);

  if (config_.engine != TrialEngine::kScalar) {
    // Bit-parallel path: one 64-lane batch covers exactly two chunks
    // (kLanes == 2 * kTrialChunk), so each batch task owns whole chunks and
    // the per-chunk accumulators — filled in ascending lane order from
    // integer counts, with the same percentage arithmetic as the scalar
    // loop — stay bit-identical for every thread count and to kScalar.
    static_assert(TrialBatchKernel::kLanes == 2 * kTrialChunk);
    const TrialBatchKernel kernel(*this, table);
    const std::size_t tasks =
        (trials + TrialBatchKernel::kLanes - 1) / TrialBatchKernel::kLanes;
    const std::size_t workers =
        std::min(util::resolve_thread_count(config_.threads), tasks);
    struct BatchScratch {
      TrialBatch batch;
      std::uint32_t cables[TrialBatchKernel::kLanes];
      std::uint32_t nodes[TrialBatchKernel::kLanes];
    };
    std::vector<BatchScratch> scratch(workers);
    const std::size_t cable_count = net_.cable_count();
    util::parallel_for(
        tasks, workers, [&](std::size_t task, std::size_t worker) {
          BatchScratch& s = scratch[worker];
          const std::size_t first = task * TrialBatchKernel::kLanes;
          const auto lanes = static_cast<unsigned>(std::min<std::size_t>(
              TrialBatchKernel::kLanes, trials - first));
          kernel.sample(base, first, lanes, s.batch);
          kernel.count_cables_failed(s.batch, s.cables);
          kernel.count_unreachable_nodes(s.batch, s.nodes);
          for (unsigned lane = 0; lane < lanes; ++lane) {
            ChunkStats& out = per_chunk[(first + lane) / kTrialChunk];
            out.cables.add(cable_count > 0
                               ? 100.0 * static_cast<double>(s.cables[lane]) /
                                     static_cast<double>(cable_count)
                               : 0.0);
            out.nodes.add(connected_nodes_ > 0
                              ? 100.0 * static_cast<double>(s.nodes[lane]) /
                                    static_cast<double>(connected_nodes_)
                              : 0.0);
          }
        });
  } else {
    const std::size_t workers =
        std::min(util::resolve_thread_count(config_.threads), chunks);
    std::vector<TrialScratch> scratch(workers);
    util::parallel_for(
        chunks, workers, [&](std::size_t chunk, std::size_t worker) {
          TrialScratch& s = scratch[worker];
          ChunkStats& out = per_chunk[chunk];
          const std::size_t begin = chunk * kTrialChunk;
          const std::size_t end = std::min(begin + kTrialChunk, trials);
          for (std::size_t t = begin; t < end; ++t) {
            util::Rng rng = base.split(t);
            double cables_pct = 0.0;
            double nodes_pct = 0.0;
            trial_percentages(table, rng, s, cables_pct, nodes_pct);
            out.cables.add(cables_pct);
            out.nodes.add(nodes_pct);
          }
        });
  }

  for (const ChunkStats& c : per_chunk) {
    agg.cables_failed_pct.merge(c.cables);
    agg.nodes_unreachable_pct.merge(c.nodes);
  }
  return agg;
}

}  // namespace solarnet::sim
