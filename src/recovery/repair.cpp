#include "recovery/repair.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <stdexcept>


namespace solarnet::recovery {

double RecoveryTimeline::days_to_restore_fraction(double fraction) const {
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("days_to_restore_fraction: bad fraction");
  }
  if (jobs.empty()) return 0.0;
  std::vector<double> completions;
  completions.reserve(jobs.size());
  for (const CableRepairJob& j : jobs) completions.push_back(j.completion_day);
  std::sort(completions.begin(), completions.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(completions.size())));
  if (idx == 0) return 0.0;
  return completions[idx - 1];
}

std::vector<std::pair<double, double>> RecoveryTimeline::restoration_curve(
    double step_days) const {
  std::vector<std::pair<double, double>> curve;
  if (step_days <= 0.0) {
    throw std::invalid_argument("restoration_curve: bad step");
  }
  if (jobs.empty()) {
    curve.push_back({0.0, 1.0});
    return curve;
  }
  const double end = days_to_restore_fraction(1.0);
  const auto total = static_cast<double>(jobs.size());
  for (double day = 0.0; day <= end + step_days; day += step_days) {
    std::size_t done = 0;
    for (const CableRepairJob& j : jobs) {
      if (j.completion_day <= day) ++done;
    }
    curve.push_back({day, static_cast<double>(done) / total});
    if (done == jobs.size()) break;
  }
  return curve;
}

std::vector<std::size_t> sample_fault_counts(
    const sim::FailureSimulator& simulator,
    const gic::RepeaterFailureModel& model, const util::Bitset& cable_dead,
    util::Rng& rng) {
  if (cable_dead.size() != simulator.network().cable_count()) {
    throw std::invalid_argument("sample_fault_counts: size mismatch");
  }
  const FaultSampler sampler(simulator,
                             simulator.death_probability_table(model));
  std::vector<std::uint32_t> faults(cable_dead.size());
  sampler.sample(cable_dead, rng, faults);
  return {faults.begin(), faults.end()};
}

RecoveryTimeline schedule_repairs(const topo::InfrastructureNetwork& net,
                                  const util::Bitset& cable_dead,
                                  const std::vector<std::size_t>& faults,
                                  const RepairFleetParams& params) {
  if (cable_dead.size() != net.cable_count() ||
      faults.size() != net.cable_count()) {
    throw std::invalid_argument("schedule_repairs: size mismatch");
  }
  if (params.cable_ships == 0 || params.land_crews == 0) {
    throw std::invalid_argument("schedule_repairs: empty fleet");
  }

  RecoveryTimeline timeline;
  timeline.restore_day.assign(net.cable_count(), 0.0);

  // Build jobs, submarine and land pools separately.
  std::vector<CableRepairJob> submarine_jobs;
  std::vector<CableRepairJob> land_jobs;
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    if (!cable_dead[c]) continue;
    CableRepairJob job;
    job.cable = c;
    job.faults = std::max<std::size_t>(1, faults[c]);
    if (net.cable(c).kind == topo::CableKind::kSubmarine) {
      job.work_days = params.mobilization_days +
                      params.repair_days_per_fault *
                          static_cast<double>(job.faults);
      submarine_jobs.push_back(job);
    } else {
      job.work_days =
          params.land_repair_days * static_cast<double>(job.faults);
      land_jobs.push_back(job);
    }
  }

  // Priority: cables touching more landing points restore more
  // connectivity per ship-day.
  auto priority = [&](const CableRepairJob& j) {
    return net.cable(j.cable).endpoints().size();
  };
  auto schedule_pool = [&](std::vector<CableRepairJob>& jobs,
                           std::size_t workers) {
    std::stable_sort(jobs.begin(), jobs.end(),
                     [&](const CableRepairJob& a, const CableRepairJob& b) {
                       return priority(a) > priority(b);
                     });
    // Min-heap of worker free times.
    std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
    for (std::size_t w = 0; w < workers; ++w) free_at.push(0.0);
    for (CableRepairJob& job : jobs) {
      const double start = free_at.top();
      free_at.pop();
      job.completion_day = start + job.work_days;
      free_at.push(job.completion_day);
      timeline.restore_day[job.cable] = job.completion_day;
      timeline.jobs.push_back(job);
    }
  };
  schedule_pool(submarine_jobs, params.cable_ships);
  schedule_pool(land_jobs, params.land_crews);
  return timeline;
}

namespace {

// P(Binomial(n, p) >= k) for 1 <= k <= n and 0 < p < 1, each term summed
// in log space so no factor under- or overflows: O(n).
double binomial_tail(std::size_t n, std::size_t k, double p) {
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  const double dn = static_cast<double>(n);
  double log_choose = std::lgamma(dn + 1.0) -
                      std::lgamma(static_cast<double>(k) + 1.0) -
                      std::lgamma(static_cast<double>(n - k) + 1.0);
  double tail = 0.0;
  for (std::size_t j = k;; ++j) {
    const double dj = static_cast<double>(j);
    tail += std::exp(log_choose + dj * log_p + (dn - dj) * log_q);
    if (j == n) break;
    log_choose += std::log(dn - dj) - std::log(dj + 1.0);
  }
  return tail;
}

// The uniform per-repeater probability p with P(Binomial(n, p) >= k) =
// death. k = 1 is the closed form 1 - (1 - death)^(1/n), with 1 - death
// clamped to >= 1e-12 so a certain death leaves p just below 1; k >= 2
// bisects the tail, which is increasing in p.
double per_repeater_probability(std::size_t n, std::size_t k, double death) {
  if (k <= 1) {
    return 1.0 - std::pow(std::max(1e-12, 1.0 - death),
                          1.0 / static_cast<double>(n));
  }
  double lo = 0.0;
  double hi = 1.0;
  for (int i = 0; i < 64; ++i) {
    const double mid = 0.5 * (lo + hi);
    (binomial_tail(n, k, mid) < death ? lo : hi) = mid;
  }
  return hi;
}

}  // namespace

FaultSampler::FaultSampler(const sim::FailureSimulator& simulator,
                           const sim::DeathProbabilityTable& table) {
  const std::size_t cables = simulator.network().cable_count();
  if (table.probability.size() != cables) {
    throw std::invalid_argument("FaultSampler: table size mismatch");
  }
  repeaters_.resize(cables);
  lethal_.resize(cables);
  per_repeater_.assign(cables, 0.0);
  for (topo::CableId c = 0; c < cables; ++c) {
    const std::size_t repeaters = simulator.cable_repeater_count(c);
    const std::size_t lethal = simulator.lethal_failures(repeaters);
    repeaters_[c] = static_cast<std::uint32_t>(repeaters);
    // A dead repeaterless cable (defensive: it cannot die of GIC) gets the
    // one fault lethal_failures(0) == 1 stands for.
    lethal_[c] = static_cast<std::uint32_t>(lethal);
    if (repeaters == 0) continue;
    per_repeater_[c] =
        per_repeater_probability(repeaters, lethal, table.probability[c]);
  }
}

void FaultSampler::sample(const util::Bitset& dead, util::Rng& rng,
                          std::span<std::uint32_t> faults) const {
  if (dead.size() != repeaters_.size() || faults.size() != repeaters_.size()) {
    throw std::invalid_argument("FaultSampler::sample: size mismatch");
  }
  std::fill(faults.begin(), faults.end(), 0u);
  dead.for_each_set([&](std::size_t c) {
    const double per_repeater = per_repeater_[c];
    const std::uint32_t lethal = lethal_[c];
    const std::uint32_t repeaters = repeaters_[c];
    std::uint32_t count = lethal;
    for (std::uint32_t r = lethal; r < repeaters; ++r) {
      if (rng.bernoulli(per_repeater)) ++count;
    }
    faults[c] = count;
  });
}

RepairScheduler::RepairScheduler(const topo::InfrastructureNetwork& net,
                                 RepairFleetParams params)
    : params_(params) {
  if (params_.cable_ships == 0 || params_.land_crews == 0) {
    throw std::invalid_argument("RepairScheduler: empty fleet");
  }
  // One stable sort of *all* cables by priority (landing points,
  // descending). schedule_repairs stable-sorts the per-trial dead-job list
  // built in ascending cable order; a stable sort of the ascending full
  // list filtered by the dead set yields the identical sequence, so the
  // order can be resolved once per network instead of once per trial.
  std::vector<std::uint32_t> order(net.cable_count());
  for (std::size_t c = 0; c < order.size(); ++c) {
    order[c] = static_cast<std::uint32_t>(c);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return net.cable(a).endpoints().size() >
                            net.cable(b).endpoints().size();
                   });
  for (const std::uint32_t c : order) {
    if (net.cable(c).kind == topo::CableKind::kSubmarine) {
      submarine_order_.push_back(c);
    } else {
      land_order_.push_back(c);
    }
  }
}

void RepairScheduler::schedule(const util::Bitset& dead,
                               std::span<const std::uint32_t> faults,
                               Scratch& scratch,
                               std::span<double> restore_day) const {
  const std::size_t cables = submarine_order_.size() + land_order_.size();
  if (dead.size() != cables || faults.size() != cables ||
      restore_day.size() != cables) {
    throw std::invalid_argument("RepairScheduler::schedule: size mismatch");
  }
  std::fill(restore_day.begin(), restore_day.end(), 0.0);

  // Greedy earliest-free-worker assignment with an explicit min-heap over
  // warm storage — same values, same pop/push sequence as the
  // priority_queue in schedule_repairs.
  std::vector<double>& heap = scratch.free_at;
  const auto run_pool = [&](std::span<const std::uint32_t> order,
                            std::size_t workers, bool submarine) {
    heap.assign(workers, 0.0);
    for (const std::uint32_t c : order) {
      if (!dead[c]) continue;
      const double job_faults =
          static_cast<double>(std::max<std::uint32_t>(1, faults[c]));
      const double work =
          submarine ? params_.mobilization_days +
                          params_.repair_days_per_fault * job_faults
                    : params_.land_repair_days * job_faults;
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const double start = heap.back();
      heap.back() = start + work;
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
      restore_day[c] = start + work;
    }
  };
  run_pool(submarine_order_, params_.cable_ships, /*submarine=*/true);
  run_pool(land_order_, params_.land_crews, /*submarine=*/false);
}

std::vector<std::pair<double, double>> node_restoration_curve(
    const topo::InfrastructureNetwork& net,
    const util::Bitset& cable_dead, const RecoveryTimeline& timeline,
    double step_days) {
  if (step_days <= 0.0) {
    throw std::invalid_argument("node_restoration_curve: bad step");
  }
  if (cable_dead.size() != net.cable_count() ||
      timeline.restore_day.size() != net.cable_count()) {
    throw std::invalid_argument("node_restoration_curve: size mismatch");
  }
  const std::size_t connected = net.connected_node_count();
  std::vector<std::pair<double, double>> curve;
  if (connected == 0) {
    curve.push_back({0.0, 1.0});
    return curve;
  }
  double end = 0.0;
  for (const CableRepairJob& j : timeline.jobs) {
    end = std::max(end, j.completion_day);
  }
  util::Bitset still_dead;
  for (double day = 0.0; day <= end + step_days; day += step_days) {
    still_dead.assign(net.cable_count(), false);
    cable_dead.for_each_set([&](std::size_t c) {
      if (timeline.restore_day[c] > day) still_dead.set(c);
    });
    const std::size_t unreachable = net.unreachable_nodes(still_dead).size();
    curve.push_back({day, 1.0 - static_cast<double>(unreachable) /
                                    static_cast<double>(connected)});
    if (unreachable == 0) break;
  }
  return curve;
}

}  // namespace solarnet::recovery
