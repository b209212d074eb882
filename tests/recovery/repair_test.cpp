#include "recovery/repair.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "datasets/submarine.h"
#include "topology/repeater.h"
#include "util/bitset.h"

namespace solarnet::recovery {
namespace {

// Dead set from per-cable flags, cable 0 first.
util::Bitset dead_set(std::initializer_list<bool> flags) {
  util::Bitset out(flags.size());
  std::size_t i = 0;
  for (const bool flag : flags) out.set(i++, flag);
  return out;
}

// The any-failure fault draw as it was written before the draw learned the
// lethal count, kept as an independent reference: per-repeater probability
// 1 - (1 - death)^(1/n) by inverting the cable's death probability, then
// 1 + Binomial(n - 1, p) faults per dead cable, dead cables ascending.
std::vector<std::size_t> any_rule_fault_counts(
    const sim::FailureSimulator& simulator,
    const gic::RepeaterFailureModel& model, const util::Bitset& dead,
    util::Rng& rng) {
  const topo::InfrastructureNetwork& net = simulator.network();
  std::vector<std::size_t> faults(net.cable_count(), 0);
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    if (!dead[c]) continue;
    const std::size_t repeaters = topo::cable_repeater_count(
        net.cable(c), simulator.config().repeater_spacing_km);
    if (repeaters == 0) {
      faults[c] = 1;
      continue;
    }
    const double death = simulator.cable_death_probability(c, model);
    const double per_repeater =
        1.0 - std::pow(std::max(1e-12, 1.0 - death),
                       1.0 / static_cast<double>(repeaters));
    std::size_t extra = 0;
    for (std::size_t r = 1; r < repeaters; ++r) {
      if (rng.bernoulli(per_repeater)) ++extra;
    }
    faults[c] = 1 + extra;
  }
  return faults;
}

// Two submarine cables (10 repeaters each) and one land cable.
class RepairTest : public ::testing::Test {
 protected:
  RepairTest() : net_("repair") {
    for (int i = 0; i < 4; ++i) {
      net_.add_node({"N" + std::to_string(i),
                     {50.0, static_cast<double>(i) * 15.0},
                     "",
                     topo::NodeKind::kLandingPoint,
                     true});
    }
    sub1_ = add_cable("sub1", 0, 1, topo::CableKind::kSubmarine, 1500.0);
    sub2_ = add_cable("sub2", 1, 2, topo::CableKind::kSubmarine, 1500.0);
    land_ = add_cable("land", 2, 3, topo::CableKind::kLandLongHaul, 1500.0);
  }
  topo::CableId add_cable(const char* name, topo::NodeId a, topo::NodeId b,
                          topo::CableKind kind, double len) {
    topo::Cable c;
    c.name = name;
    c.kind = kind;
    c.segments = {{a, b, len}};
    return net_.add_cable(std::move(c));
  }
  topo::InfrastructureNetwork net_;
  topo::CableId sub1_{}, sub2_{}, land_{};
};

TEST_F(RepairTest, FaultCountsOnlyOnDeadCables) {
  const sim::FailureSimulator simulator(net_, {});
  const gic::UniformFailureModel m(0.3);
  util::Rng rng(3);
  const util::Bitset dead = dead_set({true, false, true});
  const auto faults = sample_fault_counts(simulator, m, dead, rng);
  EXPECT_GE(faults[sub1_], 1u);
  EXPECT_EQ(faults[sub2_], 0u);
  EXPECT_GE(faults[land_], 1u);
  EXPECT_LE(faults[sub1_], 10u);
}

TEST_F(RepairTest, HigherModelProbabilityMeansMoreFaults) {
  const sim::FailureSimulator simulator(net_, {});
  util::Rng rng(11);
  const util::Bitset dead = dead_set({true, true, true});
  double low_total = 0.0;
  double high_total = 0.0;
  for (int i = 0; i < 300; ++i) {
    const gic::UniformFailureModel low(0.05);
    const gic::UniformFailureModel high(0.8);
    for (auto f : sample_fault_counts(simulator, low, dead, rng)) {
      low_total += static_cast<double>(f);
    }
    for (auto f : sample_fault_counts(simulator, high, dead, rng)) {
      high_total += static_cast<double>(f);
    }
  }
  EXPECT_GT(high_total, 2.0 * low_total);
}

TEST_F(RepairTest, ScheduleCompletesAllJobs) {
  const util::Bitset dead = dead_set({true, true, true});
  const std::vector<std::size_t> faults = {2, 3, 1};
  const RecoveryTimeline timeline = schedule_repairs(net_, dead, faults, {});
  EXPECT_EQ(timeline.jobs.size(), 3u);
  for (const CableRepairJob& j : timeline.jobs) {
    EXPECT_GT(j.completion_day, 0.0);
  }
  EXPECT_GT(timeline.restore_day[sub1_], 0.0);
  EXPECT_DOUBLE_EQ(timeline.days_to_restore_fraction(0.0), 0.0);
  EXPECT_GE(timeline.days_to_restore_fraction(1.0),
            timeline.days_to_restore_fraction(0.5));
}

TEST_F(RepairTest, LandRepairsAreFaster) {
  const util::Bitset dead = dead_set({true, false, true});
  const std::vector<std::size_t> faults = {1, 0, 1};
  const RecoveryTimeline timeline = schedule_repairs(net_, dead, faults, {});
  EXPECT_LT(timeline.restore_day[land_], timeline.restore_day[sub1_]);
}

TEST_F(RepairTest, SingleShipSerializesSubmarineWork) {
  RepairFleetParams fleet;
  fleet.cable_ships = 1;
  const util::Bitset dead = dead_set({true, true, false});
  const std::vector<std::size_t> faults = {1, 1, 0};
  const RecoveryTimeline one = schedule_repairs(net_, dead, faults, fleet);
  fleet.cable_ships = 2;
  const RecoveryTimeline two = schedule_repairs(net_, dead, faults, fleet);
  EXPECT_GT(one.days_to_restore_fraction(1.0),
            two.days_to_restore_fraction(1.0));
}

TEST_F(RepairTest, MoreFaultsMeansLongerRepair) {
  const util::Bitset dead = dead_set({true, false, false});
  const RecoveryTimeline few =
      schedule_repairs(net_, dead, {1, 0, 0}, {});
  const RecoveryTimeline many =
      schedule_repairs(net_, dead, {8, 0, 0}, {});
  EXPECT_GT(many.restore_day[sub1_], few.restore_day[sub1_]);
}

TEST_F(RepairTest, RestorationCurveMonotone) {
  const util::Bitset dead = dead_set({true, true, true});
  const RecoveryTimeline timeline =
      schedule_repairs(net_, dead, {2, 3, 1}, {});
  const auto curve = timeline.restoration_curve(5.0);
  ASSERT_FALSE(curve.empty());
  double prev = -1.0;
  for (const auto& [day, frac] : curve) {
    EXPECT_GE(frac, prev);
    prev = frac;
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST_F(RepairTest, NodeRestorationReachesFull) {
  const util::Bitset dead = dead_set({true, true, true});
  const RecoveryTimeline timeline =
      schedule_repairs(net_, dead, {2, 3, 1}, {});
  const auto curve = node_restoration_curve(net_, dead, timeline, 5.0);
  ASSERT_FALSE(curve.empty());
  EXPECT_LT(curve.front().second, 1.0);  // nodes dark at day 0
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST_F(RepairTest, Validation) {
  EXPECT_THROW(schedule_repairs(net_, dead_set({true}), {1, 0, 0}, {}),
               std::invalid_argument);
  RepairFleetParams fleet;
  fleet.cable_ships = 0;
  EXPECT_THROW(
      schedule_repairs(net_, dead_set({true, false, false}), {1, 0, 0},
                       fleet),
      std::invalid_argument);
  const util::Bitset dead = dead_set({true, false, false});
  const RecoveryTimeline t = schedule_repairs(net_, dead, {1, 0, 0}, {});
  EXPECT_THROW(t.days_to_restore_fraction(1.5), std::invalid_argument);
  EXPECT_THROW(t.restoration_curve(0.0), std::invalid_argument);
}

// The allocation-free trial-loop forms must replay the one-shot APIs'
// exact draw sequences and schedules — sim::TimelineEngine leans on this
// parity for its determinism contract.
TEST_F(RepairTest, FaultSamplerMatchesSampleFaultCounts) {
  const sim::FailureSimulator simulator(net_, {});
  const gic::UniformFailureModel model(0.35);
  const FaultSampler sampler(simulator,
                             simulator.death_probability_table(model));
  const std::vector<util::Bitset> dead_sets = {
      dead_set({true, false, true}), dead_set({true, true, true}),
      dead_set({false, false, false})};
  for (const util::Bitset& dead : dead_sets) {
    util::Rng one_shot_rng(97);
    const auto expected =
        sample_fault_counts(simulator, model, dead, one_shot_rng);
    std::vector<std::uint32_t> faults(dead.size(), 777);
    util::Rng loop_rng(97);
    sampler.sample(dead, loop_rng, faults);
    ASSERT_EQ(expected.size(), faults.size());
    for (std::size_t c = 0; c < faults.size(); ++c) {
      EXPECT_EQ(faults[c], expected[c]) << "cable " << c;
    }
    // Identical rng consumption: the next draw from both streams agrees.
    EXPECT_EQ(one_shot_rng.uniform(), loop_rng.uniform());
  }
}

TEST_F(RepairTest, RepairSchedulerMatchesScheduleRepairs) {
  RepairFleetParams fleets[3];
  fleets[1].cable_ships = 1;
  fleets[2].cable_ships = 2;
  fleets[2].land_crews = 1;
  const std::vector<util::Bitset> dead_sets = {
      dead_set({true, true, true}), dead_set({true, false, true}),
      dead_set({false, true, false})};
  const std::vector<std::size_t> faults = {2, 3, 1};
  for (const RepairFleetParams& fleet : fleets) {
    const RepairScheduler scheduler(net_, fleet);
    RepairScheduler::Scratch scratch;
    for (const util::Bitset& dead : dead_sets) {
      const RecoveryTimeline expected =
          schedule_repairs(net_, dead, faults, fleet);
      std::vector<std::uint32_t> faults_u32(faults.begin(), faults.end());
      std::vector<double> restore(dead.size(), -1.0);
      scheduler.schedule(dead, faults_u32, scratch, restore);
      for (std::size_t c = 0; c < restore.size(); ++c) {
        EXPECT_EQ(restore[c], expected.restore_day[c])
            << "cable " << c << " ships " << fleet.cable_ships;
      }
    }
  }
}

TEST(RepairFullScale, SchedulerParityOnFullNetwork) {
  // Bit-parity at scale: a storm-sized dead set over the full generated
  // network, fault counts drawn through both paths, completion days
  // compared exactly.
  const auto net = datasets::make_submarine_network({});
  const sim::FailureSimulator simulator(net, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  util::Rng rng(77);
  const auto dead = simulator.sample_cable_failures(s1, rng);

  util::Rng fault_rng_a(5);
  const auto faults = sample_fault_counts(simulator, s1, dead, fault_rng_a);
  const FaultSampler sampler(simulator, simulator.death_probability_table(s1));
  std::vector<std::uint32_t> faults_u32(dead.size());
  util::Rng fault_rng_b(5);
  sampler.sample(dead, fault_rng_b, faults_u32);
  for (std::size_t c = 0; c < dead.size(); ++c) {
    EXPECT_EQ(faults_u32[c], faults[c]) << "cable " << c;
  }
  ASSERT_GT(dead.count(), 50u);

  const RecoveryTimeline expected = schedule_repairs(net, dead, faults, {});
  const RepairScheduler scheduler(net, {});
  RepairScheduler::Scratch scratch;
  std::vector<double> restore(dead.size());
  scheduler.schedule(dead, faults_u32, scratch, restore);
  for (std::size_t c = 0; c < restore.size(); ++c) {
    EXPECT_EQ(restore[c], expected.restore_day[c]) << "cable " << c;
  }
}

TEST(RepairFullScale, AnyRuleFaultCountsMatchTheClosedFormLoop) {
  // Under the any-failure rule the lethal count is 1 and the draw is the
  // closed-form 1 + Binomial(n - 1, p): bit-equal to the reference loop,
  // rng consumption included, for the band models and a uniform one.
  const auto net = datasets::make_submarine_network({});
  const sim::FailureSimulator simulator(net, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const auto s2 = gic::LatitudeBandFailureModel::s2();
  const gic::UniformFailureModel uniform(0.3);
  for (const gic::RepeaterFailureModel* model :
       {static_cast<const gic::RepeaterFailureModel*>(&s1),
        static_cast<const gic::RepeaterFailureModel*>(&s2),
        static_cast<const gic::RepeaterFailureModel*>(&uniform)}) {
    util::Rng draw_rng(19);
    const util::Bitset dead = simulator.sample_cable_failures(*model, draw_rng);
    ASSERT_GT(dead.count(), 0u);
    util::Rng reference_rng(23);
    util::Rng rng(23);
    EXPECT_EQ(sample_fault_counts(simulator, *model, dead, rng),
              any_rule_fault_counts(simulator, *model, dead, reference_rng))
        << model->name();
    EXPECT_EQ(rng.uniform(), reference_rng.uniform()) << model->name();
  }
}

TEST(RepairFullScale, FractionRuleFaultsCoverTheLethalCount) {
  // Under kFractionFails a dead cable lost at least the k repeaters that
  // killed it. With a uniform per-repeater probability q the death
  // probability is P(Binomial(n, q) >= k), so the solved per-repeater p is
  // q again and the extra faults average q * (n - k).
  const auto net = datasets::make_submarine_network({});
  sim::TrialConfig config;
  config.rule = sim::CableDeathRule::kFractionFails;
  config.death_fraction = 0.5;
  const sim::FailureSimulator simulator(net, config);
  const gic::UniformFailureModel model(0.3);
  const FaultSampler sampler(simulator,
                             simulator.death_probability_table(model));

  util::Rng draw_rng(7);
  const util::Bitset drawn = simulator.sample_cable_failures(model, draw_rng);
  util::Bitset every_mortal(net.cable_count());
  for (const std::uint32_t c : simulator.mortal_cables()) every_mortal.set(c);
  ASSERT_GT(drawn.count(), 0u);

  std::vector<std::uint32_t> faults(net.cable_count());
  for (const util::Bitset* dead :
       std::initializer_list<const util::Bitset*>{&drawn, &every_mortal}) {
    util::Rng rng(7);
    sampler.sample(*dead, rng, faults);
    std::size_t below_lethal = 0;
    for (topo::CableId c = 0; c < net.cable_count(); ++c) {
      if (!(*dead)[c]) {
        EXPECT_EQ(faults[c], 0u);
        continue;
      }
      const std::size_t n = simulator.cable_repeater_count(c);
      if (faults[c] < simulator.lethal_failures(n)) ++below_lethal;
      EXPECT_LE(faults[c], n);
    }
    EXPECT_EQ(below_lethal, 0u);
  }

  constexpr int kDraws = 200;
  double extra = 0.0;
  double expected = 0.0;
  double variance = 0.0;
  util::Rng rng(11);
  for (int d = 0; d < kDraws; ++d) {
    sampler.sample(every_mortal, rng, faults);
    for (const std::uint32_t c : simulator.mortal_cables()) {
      const std::size_t n = simulator.cable_repeater_count(c);
      const std::size_t k = simulator.lethal_failures(n);
      extra += static_cast<double>(faults[c] - k);
      expected += 0.3 * static_cast<double>(n - k);
      variance += 0.3 * 0.7 * static_cast<double>(n - k);
    }
  }
  EXPECT_NEAR(extra, expected, 5.0 * std::sqrt(variance));
}

TEST(RepairFullScale, StormRecoveryTakesMonths) {
  // §3.2.2's punchline: the global fleet is sized for isolated faults, so
  // a storm that kills a third of all submarine cables queues repairs for
  // months.
  const auto net = datasets::make_submarine_network({});
  const sim::FailureSimulator simulator(net, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  util::Rng rng(1859);
  const auto dead = simulator.sample_cable_failures(s1, rng);
  const auto faults = sample_fault_counts(simulator, s1, dead, rng);
  const RecoveryTimeline timeline = schedule_repairs(net, dead, faults, {});
  ASSERT_GT(timeline.jobs.size(), 50u);
  EXPECT_GT(timeline.days_to_restore_fraction(0.9), 60.0);
  // And a bigger fleet helps.
  RepairFleetParams big;
  big.cable_ships = 200;
  const RecoveryTimeline fast = schedule_repairs(net, dead, faults, big);
  EXPECT_LT(fast.days_to_restore_fraction(0.9),
            timeline.days_to_restore_fraction(0.9));
}

}  // namespace
}  // namespace solarnet::recovery
