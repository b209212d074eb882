// Post-storm repair modelling (§3.2.2). Submarine repairs need a cable
// ship on site: faults are located from the landing stations, a ship is
// dispatched, and each fault takes days-to-weeks. The global repair fleet
// is tiny (~60 vessels), so a storm that damages hundreds of cables at
// once — unlike the localized anchor/fishing faults the fleet is sized
// for — queues repairs for months. This module turns a failure draw into
// fault counts, schedules the fleet, and produces restoration timelines.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/monte_carlo.h"
#include "topology/network.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace solarnet::recovery {

struct RepairFleetParams {
  std::size_t cable_ships = 60;
  // Dispatch + transit to the fault area.
  double mobilization_days = 12.0;
  // On-site work per fault (splice + burial + tests).
  double repair_days_per_fault = 9.0;
  // Land cables are far easier (§4.2.2: submarine cables are "more
  // difficult to repair"); a land crew fixes a cable in a couple of days
  // and crews are plentiful.
  double land_repair_days = 2.0;
  std::size_t land_crews = 400;
};

struct CableRepairJob {
  topo::CableId cable = topo::kInvalidCable;
  std::size_t faults = 0;     // destroyed repeaters
  double work_days = 0.0;     // mobilization + per-fault work
  double completion_day = 0.0;
};

struct RecoveryTimeline {
  // Indexed by cable id; 0 for cables that never failed.
  std::vector<double> restore_day;
  std::vector<CableRepairJob> jobs;  // failed cables only, schedule order

  // Day by which `fraction` of failed cables are restored (inf-free: the
  // schedule always completes). Returns 0 when nothing failed.
  double days_to_restore_fraction(double fraction) const;
  // (day, fraction restored) samples every `step_days` until completion.
  std::vector<std::pair<double, double>> restoration_curve(
      double step_days = 10.0) const;
};

// Samples per-cable fault counts for a failure draw (one FaultSampler
// draw over death_probability_table(model)): a dead cable has at least the
// k repeaters that killed it, plus Binomial(repeaters - k, p) more — the
// storm hit every repeater, not just k, so multi-fault cables are the norm.
std::vector<std::size_t> sample_fault_counts(
    const sim::FailureSimulator& simulator,
    const gic::RepeaterFailureModel& model, const util::Bitset& cable_dead,
    util::Rng& rng);

// Greedy fleet scheduling: highest-priority cables first (priority =
// number of landing points, a proxy for restored connectivity), each
// assigned to the earliest-free ship/crew.
RecoveryTimeline schedule_repairs(const topo::InfrastructureNetwork& net,
                                  const util::Bitset& cable_dead,
                                  const std::vector<std::size_t>& faults,
                                  const RepairFleetParams& params = {});

// The fault draw, allocation-free for hot trial loops (sim::TimelineEngine
// runs one per Monte-Carlo trial). A dead cable with n repeaters, killed by
// k = FailureSimulator::lethal_failures(n) failures, gets
// k + Binomial(n - k, p) faults, where p is the uniform per-repeater
// probability that reproduces the cable's death probability:
// P(Binomial(n, p) >= k) = death. The constructor solves p once per cable
// (closed form 1 - (1 - death)^(1/n) for k = 1, bisection for k >= 2);
// sample() then takes n - k bernoullis per dead cable, dead cables
// ascending, into a caller-owned buffer.
class FaultSampler {
 public:
  FaultSampler(const sim::FailureSimulator& simulator,
               const sim::DeathProbabilityTable& table);

  // `faults` is indexed by cable and must match the network size, like
  // `dead`; faults[c] is 0 for alive cables.
  void sample(const util::Bitset& dead, util::Rng& rng,
              std::span<std::uint32_t> faults) const;

 private:
  std::vector<std::uint32_t> repeaters_;
  std::vector<std::uint32_t> lethal_;
  std::vector<double> per_repeater_;
};

// Allocation-free form of schedule_repairs for hot trial loops. The
// constructor resolves the priority order once (stable sort of all cables
// by landing-point count, descending — filtering that order by the
// per-trial dead set reproduces schedule_repairs' stable_sort over the
// per-trial job list exactly); schedule() then runs the greedy
// earliest-free-worker assignment with an explicit binary heap in warm
// scratch storage. Completion days are bit-identical to schedule_repairs
// (asserted in tests/recovery/repair_test.cpp).
class RepairScheduler {
 public:
  struct Scratch {
    std::vector<double> free_at;  // worker free-time heap storage
  };

  RepairScheduler(const topo::InfrastructureNetwork& net,
                  RepairFleetParams params = {});

  const RepairFleetParams& params() const noexcept { return params_; }

  // Writes each dead cable's completion day into restore_day (0.0 for
  // cables that never failed). `faults` entries are clamped to >= 1 for
  // dead cables, like schedule_repairs.
  void schedule(const util::Bitset& dead,
                std::span<const std::uint32_t> faults, Scratch& scratch,
                std::span<double> restore_day) const;

 private:
  RepairFleetParams params_;
  std::vector<std::uint32_t> submarine_order_;  // priority order, all cables
  std::vector<std::uint32_t> land_order_;
};

// Connectivity restoration: fraction of nodes reachable (paper definition:
// has >= 1 live cable) as repairs complete, sampled at `step_days`.
std::vector<std::pair<double, double>> node_restoration_curve(
    const topo::InfrastructureNetwork& net, const util::Bitset& cable_dead,
    const RecoveryTimeline& timeline, double step_days = 10.0);

}  // namespace solarnet::recovery
