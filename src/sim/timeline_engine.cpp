#include "sim/timeline_engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/parallel.h"

namespace solarnet::sim {

std::size_t TimelineConfig::profile_step_count(
    const gic::StormPhaseProfile& profile, double step_hours) {
  if (!(step_hours > 0.0) || !std::isfinite(step_hours)) {
    throw std::invalid_argument(
        "TimelineConfig::from_profile: step_hours must be finite and > 0");
  }
  if (!(profile.total_hours > 0.0)) {
    throw std::invalid_argument(
        "TimelineConfig::from_profile: profile.total_hours must be > 0");
  }
  // Hour 0 and total_hours, plus the interior steps from_profile's loop
  // visits (the same accumulation, so the same count).
  std::size_t count = 2;
  for (double h = step_hours; h < profile.total_hours; h += step_hours) {
    if (++count > kMaxStormSteps) break;
  }
  return count;
}

TimelineConfig TimelineConfig::from_profile(
    const gic::StormPhaseProfile& profile, double step_hours) {
  const std::size_t steps = profile_step_count(profile, step_hours);
  if (steps > kMaxStormSteps) {
    throw std::invalid_argument(
        "TimelineConfig::from_profile: step_hours gives more than 4096 "
        "storm steps");
  }
  TimelineConfig config;
  config.storm_hours.reserve(steps);
  config.dose_share.reserve(steps);
  config.storm_hours.push_back(0.0);
  config.dose_share.push_back(0.0);
  for (double h = step_hours; h < profile.total_hours; h += step_hours) {
    config.storm_hours.push_back(h);
    config.dose_share.push_back(gic::damage_fraction_by(profile, h));
  }
  // The final step lands exactly on total_hours, where damage_fraction_by
  // is dose(total)/dose(total) == 1.0 exactly — the normalization the
  // engine requires.
  config.storm_hours.push_back(profile.total_hours);
  config.dose_share.push_back(1.0);
  return config;
}

TimelineConfig TimelineConfig::from_dose_schedule(std::vector<double> hours,
                                                  std::vector<double> share) {
  TimelineConfig config;
  config.storm_hours = std::move(hours);
  config.dose_share = std::move(share);
  return config;
}

TimelineEngine::TimelineEngine(const FailureSimulator& simulator,
                               DeathProbabilityTable table,
                               TimelineConfig config)
    : sim_(simulator),
      table_(std::move(table)),
      config_(std::move(config)),
      inc_(simulator.network()),
      fault_sampler_(simulator, table_),
      scheduler_(simulator.network(), config_.fleet) {
  const std::size_t cables = sim_.network().cable_count();
  if (table_.probability.size() != cables) {
    throw std::invalid_argument("TimelineEngine: table size mismatch");
  }
  const std::size_t steps = config_.storm_hours.size();
  if (steps == 0) {
    throw std::invalid_argument("TimelineEngine: empty storm axis");
  }
  if (config_.dose_share.size() != steps) {
    throw std::invalid_argument(
        "TimelineEngine: dose_share size mismatches storm_hours");
  }
  for (std::size_t g = 0; g < steps; ++g) {
    const double h = config_.storm_hours[g];
    if (!std::isfinite(h) || h < 0.0 ||
        (g > 0 && h <= config_.storm_hours[g - 1])) {
      throw std::invalid_argument(
          "TimelineEngine: storm_hours must be finite, >= 0 and strictly "
          "increasing");
    }
    const double s = config_.dose_share[g];
    if (!(s >= 0.0 && s <= 1.0) ||
        (g > 0 && s < config_.dose_share[g - 1])) {
      throw std::invalid_argument(
          "TimelineEngine: dose_share must be non-decreasing within [0, 1]");
    }
  }
  if (config_.dose_share.back() != 1.0) {
    throw std::invalid_argument(
        "TimelineEngine: dose_share must end at exactly 1.0 (the end of "
        "the storm reproduces the end-state draw)");
  }
  if (config_.repair_steps == 0) {
    throw std::invalid_argument("TimelineEngine: repair_steps must be >= 1");
  }
  if (!(config_.repair_step_hours > 0.0) ||
      !std::isfinite(config_.repair_step_hours)) {
    throw std::invalid_argument(
        "TimelineEngine: repair_step_hours must be finite and > 0");
  }

  log_survival_.assign(cables, 0.0);
  for (topo::CableId c = 0; c < cables; ++c) {
    const double p = table_.probability[c];
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument(
          "TimelineEngine: death probability outside [0, 1]");
    }
    log_survival_[c] = std::log1p(-p);
  }

  step_hour_ = config_.storm_hours;
  step_hour_.reserve(steps + config_.repair_steps);
  const double storm_end = config_.storm_hours.back();
  for (std::size_t r = 0; r < config_.repair_steps; ++r) {
    step_hour_.push_back(storm_end + static_cast<double>(r + 1) *
                                         config_.repair_step_hours);
  }

  // Pre-storm largest component, via a one-step walk with every cable in
  // the always-alive bucket — the partition observer's reference size.
  {
    IncrementalScratch scratch;
    const std::vector<std::uint32_t> alive(cables, 1);
    inc_.bucket_by_first_dead(alive, 1, scratch);
    const std::size_t connected = inc_.connected_node_count();
    inc_.walk(1, scratch,
              [&](std::size_t, const IncrementalAggregates& agg) {
                baseline_largest_pct_ =
                    connected > 0 ? 100.0 * static_cast<double>(agg.largest) /
                                        static_cast<double>(connected)
                                  : 0.0;
              });
  }
}

void TimelineEngine::add_observer(TimelineObserver& observer) {
  observers_.push_back(&observer);
}

void TimelineEngine::playback(util::Rng& rng, TimelineScratch& s) const {
  const std::size_t cables = sim_.network().cable_count();
  const std::size_t storm_steps = storm_step_count();
  const std::size_t repair_steps = config_.repair_steps;
  const std::size_t total_steps = storm_steps + repair_steps;

  // 1. CRN draw — one uniform per mortal cable, ascending, exactly like
  // SweepEngine::run_trial (serial rng chain first, thresholds after).
  const std::vector<std::uint32_t>& mortal = sim_.mortal_cables();
  s.uniforms.resize(mortal.size());
  for (std::size_t i = 0; i < mortal.size(); ++i) {
    s.uniforms[i] = rng.uniform();
  }

  // 2. Per-cable first dead step. The cable is dead at step g iff
  // dose_share[g] > log1p(-u) / log1p(-p) (proportional hazard, logs taken
  // once); the share row is non-decreasing so the suffix count gives the
  // first dead step, `storm_steps` meaning it survives the storm. The
  // storm's last step (share 1.0) must decide exactly u < p, the end-state
  // draw every other engine makes, so that test is taken directly: the
  // guard skips u >= p, and a dead cable is dead at the last step at least
  // even where rounding puts the log ratio at 1.0. The cables past the
  // guard are exactly the end-of-storm dead set.
  s.fail_step.assign(cables, static_cast<std::uint32_t>(storm_steps));
  s.dead.assign(cables, false);
  const double* share = config_.dose_share.data();
  for (std::size_t i = 0; i < mortal.size(); ++i) {
    const std::uint32_t c = mortal[i];
    const double u = s.uniforms[i];
    if (!(u < table_.probability[c])) continue;
    const double threshold = std::log1p(-u) / log_survival_[c];
    std::uint32_t dead_steps = 0;
    for (std::size_t g = 0; g < storm_steps; ++g) {
      dead_steps += share[g] > threshold ? 1u : 0u;
    }
    s.fail_step[c] =
        static_cast<std::uint32_t>(storm_steps) - std::max(dead_steps, 1u);
    s.dead.set(c);
  }

  // 3. Storm walk: failures accumulate forward in time, so the
  // resurrection walk runs the axis backward, recording in place.
  s.cables_dead_pct.resize(total_steps);
  s.nodes_unreachable_pct.resize(total_steps);
  s.largest_component_pct.resize(total_steps);
  const std::size_t connected = inc_.connected_node_count();
  const auto record = [&](std::size_t at, const IncrementalAggregates& agg) {
    const std::size_t dead = cables - agg.alive_cables;
    s.cables_dead_pct[at] = cables > 0 ? 100.0 * static_cast<double>(dead) /
                                             static_cast<double>(cables)
                                       : 0.0;
    const std::size_t unreachable = connected - agg.lit_nodes;
    s.nodes_unreachable_pct[at] =
        connected > 0 ? 100.0 * static_cast<double>(unreachable) /
                            static_cast<double>(connected)
                      : 0.0;
    s.largest_component_pct[at] =
        connected > 0 ? 100.0 * static_cast<double>(agg.largest) /
                            static_cast<double>(connected)
                      : 0.0;
  };
  inc_.bucket_by_first_dead(s.fail_step, storm_steps, s.inc);
  inc_.walk(storm_steps, s.inc,
            [&](std::size_t g, const IncrementalAggregates& agg) {
              record(g, agg);
            });

  // 4. End-of-storm dead set → fault counts (split substream: the CRN draw
  // stays byte-identical whether or not repairs are modelled) → fleet
  // schedule.
  util::Rng repair_rng = rng.split(kRepairStream);
  s.faults.resize(cables);
  fault_sampler_.sample(s.dead, repair_rng, s.faults);
  s.restore_day.resize(cables);
  scheduler_.schedule(s.dead, s.faults, s.repair, s.restore_day);

  // 5. Repair axis, reversed. A dead cable is still dead at repair step r
  // iff step_hour < restore_hour; repairs heal monotonically, so on the
  // *reversed* axis (g' = repair_steps-1-r) the dead sets nest again and
  // the same walk applies. reversed_first_dead = repair_steps - (number of
  // repair steps the cable is dead at); never-failed cables sit in the
  // always-alive bucket.
  const double storm_end = storm_end_hour();
  s.restore_hour.assign(cables, 0.0);
  s.reversed_first_dead.assign(cables,
                               static_cast<std::uint32_t>(repair_steps));
  const double* repair_hour = step_hour_.data() + storm_steps;
  s.dead.for_each_set([&](std::size_t c) {
    const double hour = storm_end + s.restore_day[c] * 24.0;
    s.restore_hour[c] = hour;
    std::uint32_t dead_steps = 0;
    for (std::size_t r = 0; r < repair_steps; ++r) {
      dead_steps += repair_hour[r] < hour ? 1u : 0u;
    }
    s.reversed_first_dead[c] =
        static_cast<std::uint32_t>(repair_steps) - dead_steps;
  });
  inc_.bucket_by_first_dead(s.reversed_first_dead, repair_steps, s.inc);
  inc_.walk(repair_steps, s.inc,
            [&](std::size_t g, const IncrementalAggregates& agg) {
              record(total_steps - 1 - g, agg);
            });
}

void TimelineEngine::run_trial(std::size_t trial, const util::Rng& base,
                               TimelineScratch& s, std::size_t worker,
                               std::size_t chunk) const {
  util::Rng rng = base.split(trial);
  playback(rng, s);
  TimelineView view;
  view.trial = trial;
  view.engine = this;
  view.fail_step = s.fail_step;
  view.restore_hour = s.restore_hour;
  view.cables_dead_pct = s.cables_dead_pct;
  view.nodes_unreachable_pct = s.nodes_unreachable_pct;
  view.largest_component_pct = s.largest_component_pct;
  view.rng = &rng;
  for (TimelineObserver* observer : observers_) {
    observer->observe(view, worker, chunk);
  }
}

void TimelineEngine::run(std::size_t trials, std::uint64_t seed) const {
  run(trials, seed, sim_.config().threads);
}

void TimelineEngine::run(std::size_t trials, std::uint64_t seed,
                         std::size_t threads) const {
  const std::size_t chunks = chunk_count(trials);
  const std::size_t workers = std::min(util::resolve_thread_count(threads),
                                       std::max<std::size_t>(chunks, 1));
  for (TimelineObserver* observer : observers_) {
    observer->begin_run(*this, workers, chunks);
  }
  if (trials > 0) {
    std::vector<TimelineScratch> scratch(workers);
    const util::Rng base(seed);
    util::parallel_for(chunks, workers,
                       [&](std::size_t chunk, std::size_t worker) {
                         TimelineScratch& s = scratch[worker];
                         const std::size_t begin = chunk * kTrialChunk;
                         const std::size_t end =
                             std::min(begin + kTrialChunk, trials);
                         for (std::size_t t = begin; t < end; ++t) {
                           run_trial(t, base, s, worker, chunk);
                         }
                       });
  }
  for (TimelineObserver* observer : observers_) {
    observer->end_run();
  }
}

TimelineConnectivityObserver::TimelineConnectivityObserver(
    double partition_threshold_pct)
    : threshold_(partition_threshold_pct) {
  if (!(threshold_ >= 0.0 && threshold_ <= 100.0)) {
    throw std::invalid_argument(
        "TimelineConnectivityObserver: partition threshold outside "
        "[0, 100]");
  }
}

void TimelineConnectivityObserver::begin_run(const TimelineEngine& engine,
                                             std::size_t /*workers*/,
                                             std::size_t chunks) {
  engine_ = &engine;
  cutoff_pct_ = threshold_ / 100.0 * engine.baseline_largest_pct();
  slots_.assign(chunks, Slot{});
  for (Slot& slot : slots_) {
    slot.steps.assign(engine.step_count(), TimelineStepStats{});
  }
  result_ = TimelineConnectivityResult{};
  result_.partition_threshold_pct = threshold_;
}

void TimelineConnectivityObserver::observe(const TimelineView& view,
                                           std::size_t /*worker*/,
                                           std::size_t chunk) {
  Slot& slot = slots_[chunk];
  double peak = 0.0;
  bool partitioned = false;
  for (std::size_t i = 0; i < slot.steps.size(); ++i) {
    TimelineStepStats& stats = slot.steps[i];
    stats.cables_dead_pct.add(view.cables_dead_pct[i]);
    stats.nodes_unreachable_pct.add(view.nodes_unreachable_pct[i]);
    stats.largest_component_pct.add(view.largest_component_pct[i]);
    peak = std::max(peak, view.nodes_unreachable_pct[i]);
    if (!partitioned && view.largest_component_pct[i] < cutoff_pct_) {
      partitioned = true;
      ++slot.partitioned;
      slot.time_to_partition.add(engine_->step_hour(i));
    }
  }
  slot.peak_unreachable.add(peak);
}

void TimelineConnectivityObserver::end_run() {
  result_.steps.assign(engine_->step_count(), TimelineStepStats{});
  for (std::size_t i = 0; i < result_.steps.size(); ++i) {
    result_.steps[i].hour = engine_->step_hour(i);
  }
  for (const Slot& slot : slots_) {
    for (std::size_t i = 0; i < result_.steps.size(); ++i) {
      result_.steps[i].cables_dead_pct.merge(slot.steps[i].cables_dead_pct);
      result_.steps[i].nodes_unreachable_pct.merge(
          slot.steps[i].nodes_unreachable_pct);
      result_.steps[i].largest_component_pct.merge(
          slot.steps[i].largest_component_pct);
    }
    result_.partitioned_trials += slot.partitioned;
    result_.time_to_partition_hours.merge(slot.time_to_partition);
    result_.peak_nodes_unreachable_pct.merge(slot.peak_unreachable);
  }
  result_.trials = result_.peak_nodes_unreachable_pct.count();
  slots_.clear();
}

}  // namespace solarnet::sim
