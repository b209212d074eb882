// Cross-engine oracle: one seed is one storm in every engine.
//
// Per trial, the scalar table draw (FailureSimulator::sample_cable_failures),
// the TrialBatchKernel lanes, the report pipeline (batched and scalar), a
// single-point SweepEngine (death_index == 0) and the storm-end step of a
// TimelineEngine must realize the same dead set and the same cables-failed
// and unreachable-node counts. Percentages are compared bit for bit: every
// engine applies the same formula to the same integers.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "datasets/submarine.h"
#include "gic/efield.h"
#include "gic/failure_model.h"
#include "gic/storm.h"
#include "gic/timeline.h"
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

}  // namespace
}  // namespace solarnet::sim
