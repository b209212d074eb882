#include "sim/monte_carlo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "topology/repeater.h"
#include "util/bitset.h"

namespace solarnet::sim {
namespace {

// A small deterministic network:
//   long-high: 1500 km cable topping at 65N  (10 repeaters @150)
//   long-low:  1500 km cable at the equator  (10 repeaters @150)
//   short:      100 km cable                  (0 repeaters)
class SimTest : public ::testing::Test {
 protected:
  SimTest() : net_("sim") {
    const auto a = net_.add_node(
        {"A", {65.0, 0.0}, "NO", topo::NodeKind::kLandingPoint, true});
    const auto b = net_.add_node(
        {"B", {55.0, 0.0}, "NO", topo::NodeKind::kLandingPoint, true});
    const auto c = net_.add_node(
        {"C", {0.0, 0.0}, "", topo::NodeKind::kLandingPoint, true});
    const auto d = net_.add_node(
        {"D", {0.0, 13.0}, "", topo::NodeKind::kLandingPoint, true});
    const auto e = net_.add_node(
        {"E", {0.5, 13.0}, "", topo::NodeKind::kLandingPoint, true});
    topo::Cable high;
    high.name = "long-high";
    high.segments = {{a, b, 1500.0}};
    high_ = net_.add_cable(std::move(high));
    topo::Cable low;
    low.name = "long-low";
    low.segments = {{c, d, 1500.0}};
    low_ = net_.add_cable(std::move(low));
    topo::Cable shorty;
    shorty.name = "short";
    shorty.segments = {{d, e, 100.0}};
    short_ = net_.add_cable(std::move(shorty));
  }

  topo::InfrastructureNetwork net_;
  topo::CableId high_{}, low_{}, short_{};
};

TEST_F(SimTest, RepeaterLayout) {
  const FailureSimulator sim(net_, {});
  EXPECT_EQ(sim.total_repeaters(), 20u);
  EXPECT_EQ(sim.repeaterless_cables(), 1u);
  EXPECT_NEAR(sim.average_repeaters_per_cable(), 20.0 / 3.0, 1e-9);
}

TEST_F(SimTest, SpacingChangesLayout) {
  TrialConfig cfg;
  cfg.repeater_spacing_km = 50.0;
  const FailureSimulator sim(net_, cfg);
  EXPECT_EQ(sim.total_repeaters(), 30u + 30u + 2u);
  EXPECT_EQ(sim.repeaterless_cables(), 0u);
}

TEST_F(SimTest, DeathProbabilityExactForUniform) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel m(0.1);
  // 10 repeaters, p=0.1: death = 1 - 0.9^10.
  EXPECT_NEAR(sim.cable_death_probability(high_, m),
              1.0 - std::pow(0.9, 10), 1e-12);
  EXPECT_DOUBLE_EQ(sim.cable_death_probability(short_, m), 0.0);
  EXPECT_THROW(sim.cable_death_probability(99, m), std::out_of_range);
}

TEST_F(SimTest, DeathProbabilityBandModel) {
  const FailureSimulator sim(net_, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  // high cable max lat 65 -> band prob 1.0 per repeater -> certain death.
  EXPECT_DOUBLE_EQ(sim.cable_death_probability(high_, s1), 1.0);
  // low cable max lat 0.5 -> 0.01 per repeater over 10 repeaters.
  EXPECT_NEAR(sim.cable_death_probability(low_, s1),
              1.0 - std::pow(0.99, 10), 1e-12);
}

TEST_F(SimTest, RepeaterlessCablesNeverDie) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel certain(1.0);
  util::Rng rng(1);
  const auto dead = sim.sample_cable_failures(certain, rng);
  EXPECT_TRUE(dead[high_]);
  EXPECT_TRUE(dead[low_]);
  EXPECT_FALSE(dead[short_]);
}

TEST_F(SimTest, ZeroProbabilityKillsNothing) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel never(0.0);
  util::Rng rng(1);
  const auto dead = sim.sample_cable_failures(never, rng);
  EXPECT_EQ(dead.size(), net_.cable_count());
  EXPECT_TRUE(dead.none());
}

TEST_F(SimTest, TrialCountsNodesPerPaperDefinition) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel certain(1.0);
  util::Rng rng(1);
  const TrialResult r = sim.run_trial(certain, rng);
  EXPECT_EQ(r.cables_failed, 2u);
  // A and B lose their only cable; C loses its only cable; D and E keep
  // the short one.
  EXPECT_EQ(r.nodes_unreachable, 3u);
  EXPECT_NEAR(r.cables_failed_pct, 100.0 * 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(r.nodes_unreachable_pct, 100.0 * 3.0 / 5.0, 1e-9);
}

TEST_F(SimTest, TrialFrequencyMatchesDeathProbability) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel m(0.05);
  const double expected = sim.cable_death_probability(high_, m);
  util::Rng rng(42);
  int deaths = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    deaths += sim.sample_cable_failures(m, rng)[high_] ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(deaths) / kN, expected, 0.01);
}

TEST_F(SimTest, AggregateReproducibleAcrossRuns) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel m(0.3);
  const AggregateResult a = sim.run_trials(m, 10, 7);
  const AggregateResult b = sim.run_trials(m, 10, 7);
  EXPECT_DOUBLE_EQ(a.cables_failed_pct.mean(), b.cables_failed_pct.mean());
  EXPECT_DOUBLE_EQ(a.nodes_unreachable_pct.mean(),
                   b.nodes_unreachable_pct.mean());
  EXPECT_EQ(a.trials, 10u);
}

TEST_F(SimTest, AggregateDiffersAcrossSeeds) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel m(0.3);
  const AggregateResult a = sim.run_trials(m, 10, 7);
  const AggregateResult b = sim.run_trials(m, 10, 8);
  EXPECT_NE(a.cables_failed_pct.mean(), b.cables_failed_pct.mean());
}

TEST_F(SimTest, FractionRuleRequiresMoreFailures) {
  TrialConfig any_cfg;
  TrialConfig frac_cfg;
  frac_cfg.rule = CableDeathRule::kFractionFails;
  frac_cfg.death_fraction = 0.5;
  const FailureSimulator any_sim(net_, any_cfg);
  const FailureSimulator frac_sim(net_, frac_cfg);
  const gic::UniformFailureModel m(0.1);
  const AggregateResult any_r = any_sim.run_trials(m, 200, 3);
  const AggregateResult frac_r = frac_sim.run_trials(m, 200, 3);
  // Needing half the repeaters to fail is strictly harder than needing one.
  EXPECT_LT(frac_r.cables_failed_pct.mean(), any_r.cables_failed_pct.mean());
}

TEST_F(SimTest, FractionRuleOneMeansAllRepeaters) {
  TrialConfig cfg;
  cfg.rule = CableDeathRule::kFractionFails;
  cfg.death_fraction = 1.0;
  const FailureSimulator sim(net_, cfg);
  const gic::UniformFailureModel certain(1.0);
  util::Rng rng(1);
  const auto dead = sim.sample_cable_failures(certain, rng);
  EXPECT_TRUE(dead[high_]);  // all repeaters fail at p=1
}

TEST_F(SimTest, ConfigValidation) {
  TrialConfig bad;
  bad.repeater_spacing_km = 0.0;
  EXPECT_THROW(FailureSimulator(net_, bad), std::invalid_argument);
  bad = TrialConfig{};
  bad.rule = CableDeathRule::kFractionFails;
  bad.death_fraction = 0.0;
  EXPECT_THROW(FailureSimulator(net_, bad), std::invalid_argument);
  bad.death_fraction = 1.5;
  EXPECT_THROW(FailureSimulator(net_, bad), std::invalid_argument);
}

TEST_F(SimTest, ValidationRejectsNonFiniteSpacing) {
  // NaN slips through a naive `spacing <= 0` check (every comparison with
  // NaN is false) and would poison repeater counts downstream.
  TrialConfig bad;
  bad.repeater_spacing_km = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate_trial_config(bad), std::invalid_argument);
  bad.repeater_spacing_km = std::numeric_limits<double>::infinity();
  EXPECT_THROW(validate_trial_config(bad), std::invalid_argument);
  bad.repeater_spacing_km = -150.0;
  EXPECT_THROW(validate_trial_config(bad), std::invalid_argument);
}

TEST_F(SimTest, ValidationRejectsNonFiniteDeathFraction) {
  TrialConfig bad;
  bad.rule = CableDeathRule::kFractionFails;
  bad.death_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate_trial_config(bad), std::invalid_argument);
}

TEST_F(SimTest, ValidationRejectsAbsurdThreadCounts) {
  TrialConfig bad;
  bad.threads = kMaxReasonableThreads + 1;
  EXPECT_THROW(validate_trial_config(bad), std::invalid_argument);
  bad.threads = kMaxReasonableThreads;
  EXPECT_NO_THROW(validate_trial_config(bad));
}

TEST_F(SimTest, ValidationMessagesNameTheValue) {
  TrialConfig bad;
  bad.repeater_spacing_km = -1.0;
  try {
    validate_trial_config(bad);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("-1"), std::string::npos);
  }
}

TEST_F(SimTest, ValidationAcceptsDefaults) {
  EXPECT_NO_THROW(validate_trial_config(TrialConfig{}));
}

TEST_F(SimTest, DeathFractionIgnoredUnderAnyRule) {
  // death_fraction is documented as unused by kAnyRepeaterFails, so any
  // value must be accepted there.
  TrialConfig cfg;
  cfg.rule = CableDeathRule::kAnyRepeaterFails;
  cfg.death_fraction = 0.0;
  EXPECT_NO_THROW(FailureSimulator(net_, cfg));
  cfg.death_fraction = 1.5;
  EXPECT_NO_THROW(FailureSimulator(net_, cfg));
}

TEST_F(SimTest, DeathProbabilityTableMatchesPerCableComputation) {
  const FailureSimulator sim(net_, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const gic::UniformFailureModel uniform(0.07);
  for (const gic::RepeaterFailureModel* model :
       {static_cast<const gic::RepeaterFailureModel*>(&s1),
        static_cast<const gic::RepeaterFailureModel*>(&uniform)}) {
    const DeathProbabilityTable table = sim.death_probability_table(*model);
    ASSERT_EQ(table.probability.size(), net_.cable_count());
    for (topo::CableId c = 0; c < net_.cable_count(); ++c) {
      EXPECT_DOUBLE_EQ(table.probability[c],
                       sim.cable_death_probability(c, *model));
    }
  }
}

TEST_F(SimTest, InPlaceSamplingMatchesAllocatingOverload) {
  const FailureSimulator sim(net_, {});
  const gic::UniformFailureModel m(0.3);
  util::Rng a(11);
  util::Rng b(11);
  util::Bitset reused(99, true);  // wrong size + stale contents on entry
  for (int i = 0; i < 5; ++i) {
    sim.sample_cable_failures(m, a, reused);
    EXPECT_EQ(reused, sim.sample_cable_failures(m, b));
  }
}

TEST_F(SimTest, AggregateBitIdenticalAcrossThreadCounts) {
  // 100 trials spans several accumulation chunks, so this exercises the
  // chunked merge reduction, not just the single-chunk copy path.
  const gic::UniformFailureModel m(0.3);
  AggregateResult serial;
  for (std::size_t threads : {1u, 2u, 8u}) {
    TrialConfig cfg;
    cfg.threads = threads;
    const FailureSimulator sim(net_, cfg);
    const AggregateResult agg = sim.run_trials(m, 100, 7);
    if (threads == 1u) {
      serial = agg;
      continue;
    }
    EXPECT_EQ(agg.trials, serial.trials);
    EXPECT_EQ(agg.cables_failed_pct.mean(), serial.cables_failed_pct.mean());
    EXPECT_EQ(agg.cables_failed_pct.stddev(),
              serial.cables_failed_pct.stddev());
    EXPECT_EQ(agg.cables_failed_pct.sample_stddev(),
              serial.cables_failed_pct.sample_stddev());
    EXPECT_EQ(agg.cables_failed_pct.min(), serial.cables_failed_pct.min());
    EXPECT_EQ(agg.cables_failed_pct.max(), serial.cables_failed_pct.max());
    EXPECT_EQ(agg.nodes_unreachable_pct.mean(),
              serial.nodes_unreachable_pct.mean());
    EXPECT_EQ(agg.nodes_unreachable_pct.stddev(),
              serial.nodes_unreachable_pct.stddev());
  }
}

TEST_F(SimTest, AggregateBitIdenticalAcrossThreadCountsFractionRule) {
  // Under kFractionFails the table holds the rule's tail probabilities;
  // the parallel loop must still be thread-count independent.
  const gic::UniformFailureModel m(0.4);
  TrialConfig cfg;
  cfg.rule = CableDeathRule::kFractionFails;
  cfg.death_fraction = 0.3;
  cfg.threads = 1;
  const FailureSimulator serial_sim(net_, cfg);
  const AggregateResult serial = serial_sim.run_trials(m, 100, 13);
  cfg.threads = 4;
  const FailureSimulator parallel_sim(net_, cfg);
  const AggregateResult parallel = parallel_sim.run_trials(m, 100, 13);
  EXPECT_EQ(parallel.cables_failed_pct.mean(),
            serial.cables_failed_pct.mean());
  EXPECT_EQ(parallel.cables_failed_pct.sample_stddev(),
            serial.cables_failed_pct.sample_stddev());
  EXPECT_EQ(parallel.nodes_unreachable_pct.mean(),
            serial.nodes_unreachable_pct.mean());
}

TEST_F(SimTest, RunTrialsMatchesIndependentTrialStreams) {
  // The aggregate must be built from exactly trial-t-uses-stream-t draws,
  // regardless of chunking: recompute the trials by hand and compare.
  TrialConfig cfg;
  cfg.threads = 2;
  const FailureSimulator sim(net_, cfg);
  const gic::UniformFailureModel m(0.3);
  constexpr std::size_t kTrials = 100;
  const AggregateResult agg = sim.run_trials(m, kTrials, 21);
  const util::Rng base(21);
  double min_pct = 1e300;
  double max_pct = -1e300;
  double sum = 0.0;
  for (std::size_t t = 0; t < kTrials; ++t) {
    util::Rng rng = base.split(t);
    const TrialResult r = sim.run_trial(m, rng);
    min_pct = std::min(min_pct, r.cables_failed_pct);
    max_pct = std::max(max_pct, r.cables_failed_pct);
    sum += r.cables_failed_pct;
  }
  EXPECT_EQ(agg.cables_failed_pct.min(), min_pct);
  EXPECT_EQ(agg.cables_failed_pct.max(), max_pct);
  EXPECT_NEAR(agg.cables_failed_pct.mean(), sum / kTrials, 1e-9);
}

TEST_F(SimTest, EmptyNetworkSafe) {
  const topo::InfrastructureNetwork empty("empty");
  const FailureSimulator sim(empty, {});
  const gic::UniformFailureModel m(0.5);
  const AggregateResult r = sim.run_trials(m, 5, 1);
  EXPECT_DOUBLE_EQ(r.cables_failed_pct.mean(), 0.0);
}

// --- the fraction rule folded into the death table --------------------------

// Per-repeater probabilities that differ along a cable, so the
// Poisson-binomial tail is exercised with unequal p_i.
class VaryingFailureModel final : public gic::RepeaterFailureModel {
 public:
  double failure_probability(const gic::RepeaterContext& ctx) const override {
    const double x = std::sin(ctx.location.lat_deg * 12.9898 +
                              ctx.location.lon_deg * 78.233);
    return 0.05 + 0.9 * x * x;
  }
  std::string name() const override { return "varying"; }
};

// P(at least k of the Bernoulli(p_i) fail), summed over all 2^n outcomes.
double brute_force_tail(const std::vector<double>& p, std::size_t k) {
  double tail = 0.0;
  for (std::uint32_t outcome = 0; outcome < (1u << p.size()); ++outcome) {
    double prob = 1.0;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const bool fails = (outcome >> i) & 1u;
      prob *= fails ? p[i] : 1.0 - p[i];
      failed += fails ? 1 : 0;
    }
    if (failed >= k) tail += prob;
  }
  return tail;
}

// The repeater contexts a simulator builds for `cable`, rebuilt here so the
// references below do not read the simulator's internals.
std::vector<double> repeater_probabilities(
    const topo::InfrastructureNetwork& net, topo::CableId cable,
    double spacing_km, const gic::RepeaterFailureModel& model) {
  std::vector<double> p;
  for (const topo::Repeater& r : topo::repeater_positions(
           net.cable(cable), cable, net.nodes(), spacing_km)) {
    p.push_back(model.failure_probability(
        {r.location, net.cable_max_abs_latitude(cable)}));
  }
  return p;
}

// The smallest k with double(k) / n >= fraction, by linear search.
std::size_t lethal_by_search(std::size_t n, double fraction) {
  std::size_t k = 0;
  while (static_cast<double>(k) / static_cast<double>(n) < fraction) ++k;
  return k;
}

TEST(RepeaterFailureCountTest, TailMatchesBruteForceEnumeration) {
  util::Rng rng(12);
  for (std::size_t n = 1; n <= 12; ++n) {
    for (int round = 0; round < 4; ++round) {
      std::vector<double> p(n);
      for (double& v : p) v = rng.uniform();
      if (round == 1) p[0] = 1.0;  // certain and impossible repeaters
      if (round == 2) p[n - 1] = 0.0;
      RepeaterFailureCount count(n + 1);
      for (const double v : p) count.add(v);
      // More states than repeaters leave every tail unchanged.
      RepeaterFailureCount wide(n + 5);
      for (const double v : p) wide.add(v);
      for (std::size_t k = 1; k <= n; ++k) {
        EXPECT_NEAR(count.at_least(k), brute_force_tail(p, k), 1e-12)
            << "n " << n << " k " << k;
        EXPECT_EQ(wide.at_least(k), count.at_least(k));
      }
    }
  }
}

TEST(RepeaterFailureCountTest, TinyTailsKeepRelativePrecision) {
  // Six of twelve 1e-3 repeaters: the tail is ~9e-16, below the rounding
  // error of 1 - P(fewer than six), and must still come out to ~1e-9
  // relative accuracy.
  const std::vector<double> p(12, 1e-3);
  RepeaterFailureCount count(p.size() + 1);
  for (const double v : p) count.add(v);
  for (std::size_t k = 2; k <= p.size(); ++k) {
    const double expected = brute_force_tail(p, k);
    EXPECT_NEAR(count.at_least(k), expected, 1e-9 * expected) << "k " << k;
  }
}

TEST(RepeaterFailureCountTest, CapOneIsTheSurvivalProduct) {
  // The any-failure rule's probability is bit-identical to
  // 1 - prod(1 - p_i) multiplied in repeater order.
  util::Rng rng(3);
  for (int round = 0; round < 100; ++round) {
    RepeaterFailureCount count(1);
    double survive = 1.0;
    for (int i = 0; i < 1 + round % 40; ++i) {
      const double p = rng.uniform() * 0.2;
      count.add(p);
      survive *= 1.0 - p;
    }
    EXPECT_EQ(count.at_least(1), 1.0 - survive);
  }
}

TEST_F(SimTest, LethalFailuresFollowsTheRule) {
  const FailureSimulator any(net_, {});
  TrialConfig cfg;
  cfg.rule = CableDeathRule::kFractionFails;
  for (const double fraction : {0.1, 0.3, 0.5, 0.7, 1.0}) {
    cfg.death_fraction = fraction;
    const FailureSimulator frac(net_, cfg);
    EXPECT_EQ(frac.lethal_failures(0), 1u);
    std::size_t previous = 1;
    for (std::size_t n = 1; n <= 200; ++n) {
      EXPECT_EQ(any.lethal_failures(n), 1u);
      const std::size_t k = frac.lethal_failures(n);
      EXPECT_EQ(k, lethal_by_search(n, fraction)) << "n " << n;
      EXPECT_GE(k, previous);
      previous = k;
    }
  }
}

TEST_F(SimTest, FractionDeathProbabilityMatchesBruteForce) {
  const VaryingFailureModel model;
  TrialConfig cfg;
  cfg.rule = CableDeathRule::kFractionFails;
  for (const double spacing : {150.0, 125.0, 300.0}) {
    for (const double fraction : {0.2, 0.5, 0.75, 1.0}) {
      cfg.repeater_spacing_km = spacing;
      cfg.death_fraction = fraction;
      const FailureSimulator sim(net_, cfg);
      for (const topo::CableId c : {high_, low_, short_}) {
        const auto p = repeater_probabilities(net_, c, spacing, model);
        ASSERT_LE(p.size(), 12u);
        const double expected =
            p.empty()
                ? 0.0
                : brute_force_tail(p, lethal_by_search(p.size(), fraction));
        EXPECT_NEAR(sim.cable_death_probability(c, model), expected, 1e-12)
            << "cable " << c << " spacing " << spacing << " fraction "
            << fraction;
      }
    }
  }
}

TEST_F(SimTest, FractionRuleStricterThanAnyRule) {
  TrialConfig cfg;
  cfg.rule = CableDeathRule::kFractionFails;
  cfg.death_fraction = 0.5;
  const FailureSimulator frac(net_, cfg);
  const FailureSimulator any(net_, {});
  const gic::UniformFailureModel m(0.1);
  EXPECT_LT(frac.cable_death_probability(low_, m),
            any.cable_death_probability(low_, m));
  // Certain failure kills under both rules; repeaterless never dies.
  EXPECT_EQ(frac.cable_death_probability(low_, gic::UniformFailureModel(1.0)),
            1.0);
  EXPECT_EQ(frac.cable_death_probability(short_, m), 0.0);
}

// The sampler the fraction rule used before it was folded into the table:
// every repeater drawn individually, the cable dead once the failed share
// reaches the fraction.
util::Bitset per_repeater_draw(const FailureSimulator& sim,
                               const gic::RepeaterFailureModel& model,
                               util::Rng& rng) {
  const topo::InfrastructureNetwork& net = sim.network();
  util::Bitset dead(net.cable_count());
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    const auto p = repeater_probabilities(
        net, c, sim.config().repeater_spacing_km, model);
    if (p.empty()) continue;
    std::size_t failed = 0;
    for (const double v : p) failed += rng.bernoulli(v) ? 1 : 0;
    dead.set(c, static_cast<double>(failed) / static_cast<double>(p.size()) >=
                    sim.config().death_fraction);
  }
  return dead;
}

TEST_F(SimTest, FractionTableDrawAgreesWithPerRepeaterSampler) {
  const VaryingFailureModel model;
  TrialConfig cfg;
  cfg.rule = CableDeathRule::kFractionFails;
  cfg.death_fraction = 0.5;
  const FailureSimulator sim(net_, cfg);
  const DeathProbabilityTable table = sim.death_probability_table(model);
  constexpr std::size_t kDraws = 20000;
  std::vector<double> old_hits(net_.cable_count(), 0.0);
  std::vector<double> new_hits(net_.cable_count(), 0.0);
  const util::Rng old_base(101);
  const util::Rng new_base(202);
  util::Bitset dead;
  for (std::size_t d = 0; d < kDraws; ++d) {
    util::Rng old_rng = old_base.split(d);
    const auto reference = per_repeater_draw(sim, model, old_rng);
    util::Rng new_rng = new_base.split(d);
    sim.sample_cable_failures(table, new_rng, dead);
    for (topo::CableId c = 0; c < net_.cable_count(); ++c) {
      old_hits[c] += reference[c] ? 1.0 : 0.0;
      new_hits[c] += dead.test(c) ? 1.0 : 0.0;
    }
  }
  for (topo::CableId c = 0; c < net_.cable_count(); ++c) {
    const double p = table.probability[c];
    const double se = std::sqrt(p * (1.0 - p) / kDraws);
    // Both samplers estimate the table's probability (5 standard errors),
    // and hence each other.
    EXPECT_NEAR(old_hits[c] / kDraws, p, 5.0 * se + 1e-12) << "cable " << c;
    EXPECT_NEAR(new_hits[c] / kDraws, p, 5.0 * se + 1e-12) << "cable " << c;
  }
  EXPECT_GT(table.probability[high_], 0.05);
  EXPECT_LT(table.probability[high_], 0.95);
}

}  // namespace
}  // namespace solarnet::sim
