// Cross-engine oracle: one seed is one storm in every engine.
//
// Per trial, the scalar table draw (FailureSimulator::sample_cable_failures),
// the TrialBatchKernel lanes, the report pipeline (batched and scalar), a
// single-point SweepEngine (death_index == 0) and the storm-end step of a
// TimelineEngine must realize the same dead set and the same cables-failed
// and unreachable-node counts. Percentages are compared bit for bit: every
// engine applies the same formula to the same integers.
//
// CrossEngineAxes extends it along both axes: at every point of the
// paper's sweep grid the sweep's dead set is that point's scalar table
// draw and its percentages are a from-scratch recompute, and every storm
// and repair step of a timeline playback equals a per-step mask
// recompute of the dead set its events imply.
//
// CrossEngineObservers extends the oracle to the report's observers: the
// five report observers (connectivity, Google and Facebook availability,
// DNS resolution, country isolation) — batch-capable, reading the 64-lane
// component labels and dead words — must produce bit-identical results on
// the default engine and on TrialEngine::kScalar, for every thread count,
// alone and alongside a scalar-only TrafficObserver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/connectivity.h"
#include "analysis/country.h"
#include "analysis/dns_resolution.h"
#include "datasets/datacenters.h"
#include "datasets/infra_points.h"
#include "datasets/submarine.h"
#include "gic/efield.h"
#include "gic/failure_model.h"
#include "gic/storm.h"
#include "gic/timeline.h"
#include "graph/components.h"
#include "routing/demand.h"
#include "routing/traffic_observer.h"
#include "services/availability.h"
#include "sim/monte_carlo.h"
#include "sim/pipeline.h"
#include "sim/sweep.h"
#include "sim/timeline_engine.h"
#include "sim/trial_batch.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace solarnet::sim {
namespace {

constexpr std::size_t kTrials = 2 * TrialBatchKernel::kLanes;
constexpr std::uint64_t kSeed = 2021;

const topo::InfrastructureNetwork& submarine() {
  static const topo::InfrastructureNetwork net =
      datasets::make_submarine_network({});
  return net;
}

double pct(std::size_t count, std::size_t total) {
  return total > 0 ? 100.0 * static_cast<double>(count) /
                         static_cast<double>(total)
                   : 0.0;
}

// Per-trial scalar reference: the table draw and its two counts.
struct Reference {
  std::vector<util::Bitset> dead;
  std::vector<std::size_t> cables_failed;
  std::vector<std::size_t> unreachable;
};

Reference scalar_reference(const FailureSimulator& sim,
                           const DeathProbabilityTable& table) {
  Reference ref;
  const util::Rng base(kSeed);
  std::vector<topo::NodeId> unreachable;
  for (std::size_t t = 0; t < kTrials; ++t) {
    util::Rng rng = base.split(t);
    util::Bitset dead;
    sim.sample_cable_failures(table, rng, dead);
    sim.network().unreachable_nodes(dead, unreachable);
    ref.cables_failed.push_back(dead.count());
    ref.unreachable.push_back(unreachable.size());
    ref.dead.push_back(std::move(dead));
  }
  return ref;
}

// Records every trial's dead set and counts as the pipeline hands them out.
// A scalar observer, so the batched pipeline reconstructs each lane for it.
class RecordingObserver final : public TrialObserver {
 public:
  bool needs_components() const override { return false; }
  void begin_run(const TrialPipeline&, std::size_t, std::size_t) override {
    dead_.assign(kTrials, {});
    cables_failed_.assign(kTrials, 0);
    unreachable_.assign(kTrials, 0);
  }
  void observe(const TrialView& view, std::size_t, std::size_t) override {
    dead_[view.trial] = *view.cable_dead;
    cables_failed_[view.trial] = view.cables_failed;
    unreachable_[view.trial] = view.unreachable->size();
  }
  void end_run() override {}

  std::vector<util::Bitset> dead_;
  std::vector<std::size_t> cables_failed_;
  std::vector<std::size_t> unreachable_;
};

void expect_engines_agree(const TrialConfig& config,
                          const gic::RepeaterFailureModel& model) {
  const topo::InfrastructureNetwork& net = submarine();
  const FailureSimulator sim(net, config);
  const DeathProbabilityTable table = sim.death_probability_table(model);
  const Reference ref = scalar_reference(sim, table);
  const std::size_t cables = net.cable_count();
  const std::size_t connected = net.connected_node_count();
  const util::Rng base(kSeed);

  // TrialBatchKernel lanes.
  const TrialBatchKernel kernel(sim, table);
  TrialBatch batch;
  std::uint32_t lane_cables[TrialBatchKernel::kLanes];
  std::uint32_t lane_nodes[TrialBatchKernel::kLanes];
  util::Bitset lane_dead;
  for (std::size_t first = 0; first < kTrials;
       first += TrialBatchKernel::kLanes) {
    kernel.sample(base, first, TrialBatchKernel::kLanes, batch);
    kernel.count_cables_failed(batch, lane_cables);
    kernel.count_unreachable_nodes(batch, lane_nodes);
    for (unsigned lane = 0; lane < TrialBatchKernel::kLanes; ++lane) {
      const std::size_t t = first + lane;
      kernel.extract_lane(batch, lane, lane_dead);
      EXPECT_EQ(lane_dead, ref.dead[t]) << "batch lane, trial " << t;
      EXPECT_EQ(lane_cables[lane], ref.cables_failed[t]) << "trial " << t;
      EXPECT_EQ(lane_nodes[lane], ref.unreachable[t]) << "trial " << t;
    }
  }

  // The report pipeline, batched and scalar.
  for (const TrialEngine engine : {TrialEngine::kAuto, TrialEngine::kScalar}) {
    TrialConfig pipeline_config = config;
    pipeline_config.engine = engine;
    const FailureSimulator pipeline_sim(net, pipeline_config);
    TrialPipeline pipeline(pipeline_sim, model);
    RecordingObserver recorder;
    pipeline.add_observer(recorder);
    pipeline.run(kTrials, kSeed, 2);
    for (std::size_t t = 0; t < kTrials; ++t) {
      EXPECT_EQ(recorder.dead_[t], ref.dead[t]) << "pipeline, trial " << t;
      EXPECT_EQ(recorder.cables_failed_[t], ref.cables_failed[t]);
      EXPECT_EQ(recorder.unreachable_[t], ref.unreachable[t]);
    }
  }

  // Single-point sweep: dead iff the first dead grid index is 0.
  const SweepEngine sweep(sim, {table});
  SweepScratch sweep_scratch;
  std::vector<std::uint32_t> death_index;
  for (std::size_t t = 0; t < kTrials; ++t) {
    util::Rng rng = base.split(t);
    sweep.sample_death_grid_indices(rng, death_index);
    for (topo::CableId c = 0; c < cables; ++c) {
      EXPECT_EQ(death_index[c] == 0, ref.dead[t].test(c))
          << "sweep, trial " << t << " cable " << c;
    }
    util::Rng walk_rng = base.split(t);
    sweep.run_trial(walk_rng, sweep_scratch);
    EXPECT_EQ(sweep_scratch.cables_pct[0], pct(ref.cables_failed[t], cables))
        << "sweep, trial " << t;
    EXPECT_EQ(sweep_scratch.nodes_pct[0], pct(ref.unreachable[t], connected))
        << "sweep, trial " << t;
  }

  // Timeline storm end: the last storm step is the end-state draw.
  const TimelineEngine timeline(
      sim, table, TimelineConfig::from_profile(gic::StormPhaseProfile{}, 6.0));
  const std::size_t end = timeline.storm_step_count() - 1;
  TimelineScratch timeline_scratch;
  for (std::size_t t = 0; t < kTrials; ++t) {
    util::Rng rng = base.split(t);
    timeline.playback(rng, timeline_scratch);
    for (topo::CableId c = 0; c < cables; ++c) {
      EXPECT_EQ(timeline_scratch.fail_step[c] <= end, ref.dead[t].test(c))
          << "timeline, trial " << t << " cable " << c;
    }
    EXPECT_EQ(timeline_scratch.cables_dead_pct[end],
              pct(ref.cables_failed[t], cables))
        << "timeline, trial " << t;
    EXPECT_EQ(timeline_scratch.nodes_unreachable_pct[end],
              pct(ref.unreachable[t], connected))
        << "timeline, trial " << t;
  }
}

TEST(CrossEngine, S1) {
  expect_engines_agree({}, gic::LatitudeBandFailureModel::s1());
}

TEST(CrossEngine, S2) {
  expect_engines_agree({}, gic::LatitudeBandFailureModel::s2());
}

TEST(CrossEngine, Uniform001) {
  expect_engines_agree({}, gic::UniformFailureModel(0.01));
}

TEST(CrossEngine, FieldDrivenCarrington) {
  const gic::FieldDrivenFailureModel carrington{
      gic::GeoelectricFieldModel(gic::carrington_1859())};
  expect_engines_agree({}, carrington);
}

TEST(CrossEngine, FractionHalfS1) {
  TrialConfig config;
  config.rule = CableDeathRule::kFractionFails;
  config.death_fraction = 0.5;
  expect_engines_agree(config, gic::LatitudeBandFailureModel::s1());
}

TEST(CrossEngine, FractionHalfUniform) {
  TrialConfig config;
  config.rule = CableDeathRule::kFractionFails;
  config.death_fraction = 0.5;
  expect_engines_agree(config, gic::UniformFailureModel(0.3));
}

// --- every sweep point and every timeline step ------------------------------

// From-scratch percentages of one dead set: cables failed, nodes
// unreachable, and the largest component (singleton floor on non-empty
// graphs) over the masked graph.
struct StepPercentages {
  double cables = 0.0;
  double nodes = 0.0;
  double largest = 0.0;
};

StepPercentages recompute(const topo::InfrastructureNetwork& net,
                          const util::Bitset& dead) {
  const std::size_t connected = net.connected_node_count();
  const auto components =
      graph::connected_components(net.graph(), net.mask_for_failures(dead));
  const std::size_t largest = std::max<std::size_t>(
      components.largest_component_size(), net.node_count() > 0 ? 1 : 0);
  return {pct(dead.count(), net.cable_count()),
          pct(net.unreachable_nodes(dead).size(), connected),
          pct(largest, connected)};
}

void expect_sweep_points_agree(const TrialConfig& config) {
  const topo::InfrastructureNetwork& net = submarine();
  const FailureSimulator sim(net, config);
  const std::vector<double> grid = analysis::default_probability_grid();
  const SweepEngine sweep = SweepEngine::uniform(sim, grid);
  std::vector<DeathProbabilityTable> tables;
  for (const double p : grid) {
    tables.push_back(sim.death_probability_table(gic::UniformFailureModel(p)));
  }
  const util::Rng base(kSeed);
  SweepScratch scratch;
  std::vector<std::uint32_t> death_index;
  util::Bitset dead;
  for (std::size_t t = 0; t < kTrials; ++t) {
    util::Rng rng = base.split(t);
    sweep.sample_death_grid_indices(rng, death_index);
    util::Rng walk_rng = base.split(t);
    sweep.run_trial(walk_rng, scratch);
    for (std::size_t g = 0; g < grid.size(); ++g) {
      util::Rng scalar_rng = base.split(t);
      sim.sample_cable_failures(tables[g], scalar_rng, dead);
      std::size_t mismatched = 0;
      for (topo::CableId c = 0; c < net.cable_count(); ++c) {
        mismatched += (death_index[c] <= g) != dead.test(c) ? 1 : 0;
      }
      EXPECT_EQ(mismatched, 0u) << "trial " << t << " point " << g;
      const StepPercentages want = recompute(net, dead);
      EXPECT_EQ(scratch.cables_pct[g], want.cables)
          << "trial " << t << " point " << g;
      EXPECT_EQ(scratch.nodes_pct[g], want.nodes)
          << "trial " << t << " point " << g;
      EXPECT_EQ(scratch.largest_pct[g], want.largest)
          << "trial " << t << " point " << g;
    }
  }
}

void expect_timeline_steps_agree(const gic::RepeaterFailureModel& model,
                                 TimelineConfig config) {
  const topo::InfrastructureNetwork& net = submarine();
  const FailureSimulator sim(net, {});
  const TimelineEngine timeline(sim, sim.death_probability_table(model),
                                std::move(config));
  const std::size_t storm_steps = timeline.storm_step_count();
  const util::Rng base(kSeed);
  TimelineScratch scratch;
  util::Bitset dead(net.cable_count());
  for (std::size_t t = 0; t < kTrials; ++t) {
    util::Rng rng = base.split(t);
    timeline.playback(rng, scratch);
    for (std::size_t i = 0; i < timeline.step_count(); ++i) {
      // Storm step i: every cable that failed by then. Repair step i:
      // every cable down at the storm's end and not yet restored.
      for (topo::CableId c = 0; c < net.cable_count(); ++c) {
        const bool failed = i < storm_steps
                                ? scratch.fail_step[c] <= i
                                : scratch.fail_step[c] < storm_steps &&
                                      timeline.step_hour(i) <
                                          scratch.restore_hour[c];
        dead.set(c, failed);
      }
      const StepPercentages want = recompute(net, dead);
      EXPECT_EQ(scratch.cables_dead_pct[i], want.cables)
          << "trial " << t << " step " << i;
      EXPECT_EQ(scratch.nodes_unreachable_pct[i], want.nodes)
          << "trial " << t << " step " << i;
      EXPECT_EQ(scratch.largest_component_pct[i], want.largest)
          << "trial " << t << " step " << i;
    }
  }
}

TEST(CrossEngineAxes, SweepPaperGridEveryPoint) {
  expect_sweep_points_agree({});
}

TEST(CrossEngineAxes, SweepPaperGridEveryPointFractionRule) {
  TrialConfig config;
  config.rule = CableDeathRule::kFractionFails;
  config.death_fraction = 0.5;
  expect_sweep_points_agree(config);
}

TEST(CrossEngineAxes, TimelineEveryStepS1) {
  expect_timeline_steps_agree(
      gic::LatitudeBandFailureModel::s1(),
      TimelineConfig::from_profile(gic::StormPhaseProfile{}, 6.0));
}

TEST(CrossEngineAxes, TimelineEveryStepS2) {
  expect_timeline_steps_agree(
      gic::LatitudeBandFailureModel::s2(),
      TimelineConfig::from_profile(gic::StormPhaseProfile{}, 3.0));
}

TEST(CrossEngineAxes, TimelineEveryStepObservedDoseSchedule) {
  // An observed-style axis: uneven hours, flat stretches in the dose.
  expect_timeline_steps_agree(
      gic::UniformFailureModel(0.3),
      TimelineConfig::from_dose_schedule(
          {0.0, 1.5, 2.0, 7.0, 7.5, 20.0, 33.0},
          {0.0, 0.1, 0.1, 0.45, 0.45, 0.9, 1.0}));
}

// --- the report's observers across engines -----------------------------------

const std::vector<datasets::DnsRootInstance>& dns_roots() {
  static const std::vector<datasets::DnsRootInstance> roots =
      datasets::make_dns_dataset({});
  return roots;
}

services::ServiceSpec datacenter_service(datasets::DataCenterOperator op) {
  services::ServiceSpec spec;
  spec.name = std::string(datasets::to_string(op));
  for (const datasets::DataCenter& dc : datasets::datacenters_of(op)) {
    spec.replicas.push_back(dc.location);
  }
  spec.write_quorum = 2;
  return spec;
}

// One pipeline carrying the report's five observers (plus, optionally, a
// scalar-only traffic observer) for one engine.
class ReportRun {
 public:
  ReportRun(const topo::InfrastructureNetwork& net, const TrialConfig& config,
            const gic::RepeaterFailureModel& model,
            const routing::TrafficEngine* traffic)
      : sim_(net, config),
        pipeline_(sim_, model),
        google_(net, datacenter_service(datasets::DataCenterOperator::kGoogle)),
        facebook_(net,
                  datacenter_service(datasets::DataCenterOperator::kFacebook)),
        dns_(net, dns_roots(), 10.0),
        isolation_(net, {"US", "GB", "CN", "IN", "SG", "ZA", "AU", "NZ",
                         "BR"}) {
    pipeline_.add_observer(connectivity_);
    pipeline_.add_observer(google_);
    pipeline_.add_observer(facebook_);
    if (traffic != nullptr) {
      traffic_.emplace(*traffic);
      pipeline_.add_observer(*traffic_);  // between batch observers
    }
    pipeline_.add_observer(dns_);
    pipeline_.add_observer(isolation_);
  }

  void run(std::size_t trials, std::uint64_t seed, std::size_t threads) {
    pipeline_.run(trials, seed, threads);
  }

  // Every field of every observer's result, bit for bit.
  void expect_equal(const ReportRun& ref, const std::string& where) const {
    SCOPED_TRACE(where);
    const ConnectivityObserver::Result& c = connectivity_.result();
    const ConnectivityObserver::Result& rc = ref.connectivity_.result();
    EXPECT_EQ(c.trials, rc.trials);
    expect_stats_eq(c.cables_failed_pct, rc.cables_failed_pct);
    expect_stats_eq(c.nodes_unreachable_pct, rc.nodes_unreachable_pct);
    expect_stats_eq(c.largest_component_pct, rc.largest_component_pct);
    for (const auto& [got, want] :
         {std::pair{&google_, &ref.google_},
          std::pair{&facebook_, &ref.facebook_}}) {
      EXPECT_EQ(got->result().service, want->result().service);
      EXPECT_EQ(got->result().draws, want->result().draws);
      expect_stats_eq(got->result().read_availability,
                      want->result().read_availability);
      expect_stats_eq(got->result().write_availability,
                      want->result().write_availability);
    }
    const analysis::DnsResolutionSweep& d = dns_.result();
    const analysis::DnsResolutionSweep& rd = ref.dns_.result();
    EXPECT_EQ(d.trials, rd.trials);
    expect_stats_eq(d.resolution_availability, rd.resolution_availability);
    expect_stats_eq(d.mean_letters_reachable, rd.mean_letters_reachable);
    EXPECT_EQ(d.cable_loss_threshold_pct, rd.cable_loss_threshold_pct);
    EXPECT_EQ(d.degraded_trials, rd.degraded_trials);
    EXPECT_EQ(d.heavy_loss_trials, rd.heavy_loss_trials);
    EXPECT_EQ(d.joint_trials, rd.joint_trials);
    const auto& iso = isolation_.results();
    const auto& riso = ref.isolation_.results();
    ASSERT_EQ(iso.size(), riso.size());
    for (std::size_t i = 0; i < iso.size(); ++i) {
      EXPECT_EQ(iso[i].country, riso[i].country);
      EXPECT_EQ(iso[i].international_cable_count,
                riso[i].international_cable_count);
      EXPECT_EQ(iso[i].trials, riso[i].trials);
      EXPECT_EQ(iso[i].isolated_trials, riso[i].isolated_trials);
      expect_stats_eq(iso[i].surviving_cables, riso[i].surviving_cables);
    }
    ASSERT_EQ(traffic_.has_value(), ref.traffic_.has_value());
    if (traffic_) {
      const routing::TrafficSweep& t = traffic_->result();
      const routing::TrafficSweep& rt = ref.traffic_->result();
      EXPECT_EQ(t.trials, rt.trials);
      expect_stats_eq(t.delivered_fraction, rt.delivered_fraction);
      expect_stats_eq(t.stranded_gbps, rt.stranded_gbps);
      expect_stats_eq(t.max_utilization, rt.max_utilization);
      expect_stats_eq(t.overloaded_cables, rt.overloaded_cables);
      expect_stats_eq(t.mean_path_km, rt.mean_path_km);
    }
  }

 private:
  static void expect_stats_eq(const util::RunningStats& a,
                              const util::RunningStats& b) {
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.sample_stddev(), b.sample_stddev());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
  }

  FailureSimulator sim_;
  TrialPipeline pipeline_;
  ConnectivityObserver connectivity_;
  services::AvailabilityObserver google_;
  services::AvailabilityObserver facebook_;
  analysis::DnsResolutionObserver dns_;
  analysis::CountryIsolationObserver isolation_;
  std::optional<routing::TrafficObserver> traffic_;
};

// The scalar engine on one thread is the reference; the default engine
// must match it for every trial count (partial batches, a batch plus one
// lane, several batches) and thread count.
void expect_report_engines_agree(TrialConfig config,
                                 const gic::RepeaterFailureModel& model,
                                 const std::vector<std::size_t>& trial_counts,
                                 const std::vector<std::size_t>& threads,
                                 const routing::TrafficEngine* traffic) {
  const topo::InfrastructureNetwork& net = submarine();
  config.engine = TrialEngine::kScalar;
  ReportRun scalar(net, config, model, traffic);
  config.engine = TrialEngine::kAuto;
  ReportRun batched(net, config, model, traffic);
  for (const std::size_t trials : trial_counts) {
    const std::uint64_t seed = kSeed + trials;
    scalar.run(trials, seed, 1);
    for (const std::size_t t : threads) {
      batched.run(trials, seed, t);
      batched.expect_equal(scalar, std::to_string(trials) + " trials, " +
                                       std::to_string(t) + " threads");
    }
  }
}

const std::vector<std::size_t> kOracleTrials = {1, 31, 64, 65, 200};
const std::vector<std::size_t> kOracleThreads = {1, 2, 4, 0};

TEST(CrossEngineObservers, S1) {
  expect_report_engines_agree({}, gic::LatitudeBandFailureModel::s1(),
                              kOracleTrials, kOracleThreads, nullptr);
}

TEST(CrossEngineObservers, S2) {
  expect_report_engines_agree({}, gic::LatitudeBandFailureModel::s2(),
                              kOracleTrials, kOracleThreads, nullptr);
}

TEST(CrossEngineObservers, Uniform001) {
  expect_report_engines_agree({}, gic::UniformFailureModel(0.01),
                              kOracleTrials, kOracleThreads, nullptr);
}

TEST(CrossEngineObservers, FieldDrivenCarrington) {
  const gic::FieldDrivenFailureModel carrington{
      gic::GeoelectricFieldModel(gic::carrington_1859())};
  expect_report_engines_agree({}, carrington, kOracleTrials, kOracleThreads,
                              nullptr);
}

TEST(CrossEngineObservers, FractionHalfS1) {
  TrialConfig config;
  config.rule = CableDeathRule::kFractionFails;
  config.death_fraction = 0.5;
  expect_report_engines_agree(config, gic::LatitudeBandFailureModel::s1(),
                              kOracleTrials, kOracleThreads, nullptr);
}

// A scalar-only observer in the set: the batch observers keep the 64-lane
// path while the traffic observer gets per-lane reconstructed TrialViews.
TEST(CrossEngineObservers, MixedWithTrafficObserver) {
  const routing::TrafficEngine traffic(
      submarine(), routing::sampled_node_demands(submarine(), 64, 40.0, 3));
  expect_report_engines_agree({}, gic::LatitudeBandFailureModel::s1(),
                              {1, 65}, {1, 2}, &traffic);
}

}  // namespace
}  // namespace solarnet::sim
