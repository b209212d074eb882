// Monte-Carlo failure simulation (§4.3 of the paper).
//
// The experiment: place repeaters on every cable at a fixed spacing, let
// each repeater fail according to a RepeaterFailureModel, kill a cable when
// its repeaters fail (by default: any single failure kills the cable — "even
// a single repeater failure can leave all parallel fibers in the cable
// unusable"), then measure the share of failed cables and of nodes that
// lost all their cables. Repeat and aggregate.
//
// FailureSimulator precomputes the repeater layout (positions and the
// per-cable max-endpoint latitude) once per (network, spacing). Cables are
// independent, so under either death rule a cable's fate in one draw is a
// single Bernoulli trial whose probability depends only on the (simulator,
// model) pair: P(at least k of its repeaters fail), a Poisson-binomial tail
// with k = 1 under the any-failure rule. run_trials folds these into a
// DeathProbabilityTable once up front and every trial is O(cables).
//
// The one draw: trial randomness is one uniform u per repeater-bearing
// cable (mortal_cables(), ascending), and the cable is dead iff u < p. Every
// engine — TrialPipeline, TrialBatchKernel, SweepEngine, TimelineEngine —
// consumes the stream this way, so one seed means one storm everywhere. A
// draw's dead set is a util::Bitset indexed by CableId, the one dead-set
// type every layer takes.
//
// run_trials is a sim::TrialPipeline run with a cables/nodes-only observer:
// trial t always draws from Rng child stream t, trials are accumulated in
// fixed-size chunks whose boundaries do not depend on the thread count, and
// the per-chunk RunningStats are merged in ascending chunk order — so the
// aggregate is bit-identical for every thread count (and to the serial
// loop for the paper's trial counts).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gic/failure_model.h"
#include "sim/outcome.h"
#include "topology/network.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace solarnet::sim {

enum class CableDeathRule {
  kAnyRepeaterFails,  // the paper's rule
  kFractionFails,     // extension: dies when >= death_fraction of repeaters fail
};

// Which engine run_trials (and TrialPipeline::run) uses for the trial loop.
// kAuto picks the bit-parallel TrialBatch kernel; the result is
// bit-identical to the scalar loop, so kScalar exists for benchmarks and
// A/B verification, not for correctness.
enum class TrialEngine {
  kAuto,
  kScalar,
};

struct TrialConfig {
  double repeater_spacing_km = 150.0;
  CableDeathRule rule = CableDeathRule::kAnyRepeaterFails;
  // Only used (and only validated) by kFractionFails.
  double death_fraction = 0.5;
  // Worker threads for run_trials: 0 = hardware concurrency, 1 = serial.
  // The aggregate is bit-identical for every value (see run_trials).
  std::size_t threads = 0;
  TrialEngine engine = TrialEngine::kAuto;
};

// Validates a TrialConfig up front, throwing std::invalid_argument with a
// field-by-field message on the first problem found:
//   - repeater_spacing_km must be finite and strictly positive (NaN and
//     Inf are rejected, not just non-positive values),
//   - death_fraction must be in (0, 1] and finite when the rule is
//     kFractionFails,
//   - threads must be <= kMaxReasonableThreads (a fat-finger guard: a
//     parsed-garbage thread count would otherwise try to spawn billions of
//     workers).
// FailureSimulator's constructor calls this on every config it accepts.
inline constexpr std::size_t kMaxReasonableThreads = 65536;
void validate_trial_config(const TrialConfig& config);

// Per-cable death probabilities under the simulator's rule, fixed for a
// given (simulator, model) pair. Building it costs one O(repeaters) pass
// (O(n^2) per n-repeater cable under kFractionFails); sampling against it
// is O(cables) per draw.
struct DeathProbabilityTable {
  std::vector<double> probability;  // indexed by CableId
};

// Poisson-binomial count of failed repeaters on one cable: P(exactly j of
// the repeaters added so far failed), for j < states. Adding a repeater is
// one convolution step.
//   - at_least(1) = 1 - P(0) needs one state: the survival product
//     prod(1 - p_i), multiplied in the order the repeaters are added, so
//     the any-failure rule costs O(n) and allocates nothing.
//   - at_least(k >= 2) sums the upper tail P(k) + P(k+1) + ... directly
//     (no cancellation, so tiny tails keep their relative precision) and
//     needs states > repeaters added: O(n^2) for an n-repeater cable. The
//     sum reads only states <= n, so extra states do not change it.
class RepeaterFailureCount {
 public:
  explicit RepeaterFailureCount(std::size_t states)
      : more_(states > 1 ? states - 1 : 0, 0.0) {}

  void add(double p) noexcept {
    const double q = 1.0 - p;
    for (std::size_t j = more_.size(); j > 1; --j) {
      more_[j - 1] = more_[j - 1] * q + more_[j - 2] * p;
    }
    if (!more_.empty()) more_[0] = more_[0] * q + none_ * p;
    none_ *= q;
  }

  // P(at least k of the added repeaters failed), k >= 1.
  double at_least(std::size_t k) const noexcept {
    if (k <= 1) return 1.0 - none_;
    double tail = 0.0;
    for (std::size_t j = more_.size(); j >= k; --j) tail += more_[j - 1];
    return tail;
  }

 private:
  double none_ = 1.0;          // P(no repeater failed)
  std::vector<double> more_;   // more_[j - 1] = P(exactly j failed)
};

class FailureSimulator {
 public:
  // Builds the repeater layout for `net` at the config's spacing. The
  // network must outlive the simulator.
  FailureSimulator(const topo::InfrastructureNetwork& net, TrialConfig config);

  const topo::InfrastructureNetwork& network() const noexcept { return net_; }
  const TrialConfig& config() const noexcept { return config_; }

  std::size_t total_repeaters() const noexcept { return total_repeaters_; }
  std::size_t repeaterless_cables() const noexcept {
    return repeaterless_cables_;
  }
  // Repeaters laid on one cable at the config's spacing. Cables with zero
  // repeaters can never die of GIC and take no draw.
  std::size_t cable_repeater_count(topo::CableId cable) const {
    if (cable + 1 >= cable_offset_.size()) {
      throw std::out_of_range("cable_repeater_count: cable id");
    }
    return cable_offset_[cable + 1] - cable_offset_[cable];
  }
  double average_repeaters_per_cable() const noexcept;
  // Nodes with >= 1 cable (the denominator of "% unreachable"), counted
  // once at construction.
  std::size_t connected_node_count() const noexcept { return connected_nodes_; }
  // Repeater-bearing cables in ascending id order: the cables that take
  // one uniform each per draw.
  const std::vector<std::uint32_t>& mortal_cables() const noexcept {
    return mortal_;
  }
  // The fewest failed repeaters that kill a cable carrying `repeaters`
  // repeaters: 1 under the any-failure rule, the smallest k with
  // k / repeaters >= death_fraction under kFractionFails (1 for a
  // repeaterless cable, which then never dies). Non-decreasing in
  // `repeaters`.
  std::size_t lethal_failures(std::size_t repeaters) const;

  // Exact per-cable death probability under the config's rule: P(at least
  // lethal_failures(n) of the cable's n repeaters fail). Under the
  // any-failure rule this is 1 - prod(1 - p_i).
  double cable_death_probability(topo::CableId cable,
                                 const gic::RepeaterFailureModel& model) const;

  // All cables' death probabilities in one pass; run_trials builds this
  // once and reuses it across trials.
  DeathProbabilityTable death_probability_table(
      const gic::RepeaterFailureModel& model) const;

  // The draw: resizes and fills `dead` with one uniform per mortal cable in
  // ascending order, dead iff u < table.probability[c]. O(cables).
  void sample_cable_failures(const DeathProbabilityTable& table,
                             util::Rng& rng, util::Bitset& dead) const;
  // Model overloads: fold the table for `model`, then the same draw.
  util::Bitset sample_cable_failures(const gic::RepeaterFailureModel& model,
                                     util::Rng& rng) const;
  void sample_cable_failures(const gic::RepeaterFailureModel& model,
                             util::Rng& rng, util::Bitset& dead) const;

  TrialResult run_trial(const gic::RepeaterFailureModel& model,
                        util::Rng& rng) const;

  // `trials` independent draws; trial t uses a child stream of `seed` so
  // results are reproducible and order-independent. One TrialPipeline run
  // on config().threads workers with an observer that reads only the
  // cable and node counts (no component build); the aggregate does not
  // depend on the thread count (fixed chunking + in-order
  // RunningStats::merge reduction).
  AggregateResult run_trials(const gic::RepeaterFailureModel& model,
                             std::size_t trials, std::uint64_t seed) const;

 private:
  const topo::InfrastructureNetwork& net_;
  TrialConfig config_;
  // Flattened repeater contexts: per cable, [offset, offset+count).
  std::vector<gic::RepeaterContext> repeaters_;
  std::vector<std::size_t> cable_offset_;  // size cables+1
  std::vector<std::uint32_t> mortal_;
  std::size_t total_repeaters_ = 0;
  std::size_t repeaterless_cables_ = 0;
  std::size_t connected_nodes_ = 0;
};

}  // namespace solarnet::sim
