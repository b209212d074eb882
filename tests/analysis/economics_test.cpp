#include "analysis/economics.h"

#include <gtest/gtest.h>

#include "datasets/submarine.h"
#include "sim/monte_carlo.h"

namespace solarnet::analysis {
namespace {

TEST(RegionalEconomies, AnchoredOnPaperFigure) {
  // §1: US internet outage > $7B/day; North America's entry must sit just
  // above that anchor, and every entry must be positive.
  bool na_found = false;
  for (const RegionalEconomy& e : regional_economies()) {
    EXPECT_GT(e.internet_outage_cost_per_day_busd, 0.0);
    if (e.continent == geo::Continent::kNorthAmerica) {
      na_found = true;
      EXPECT_GE(e.internet_outage_cost_per_day_busd, 7.0);
      EXPECT_LE(e.internet_outage_cost_per_day_busd, 12.0);
    }
  }
  EXPECT_TRUE(na_found);
  EXPECT_EQ(regional_economies().size(), 6u);
}

class EconomicsTest : public ::testing::Test {
 protected:
  EconomicsTest() : net_("econ") {
    // Two NA landing points on one cable, two EU points on another.
    ny_ = add_node("NY", {40.7, -74.0});
    bos_ = add_node("Boston", {42.4, -71.1});
    bude_ = add_node("Bude", {50.8, -4.5});
    brest_ = add_node("Brest", {48.4, -4.5});
    na_cable_ = add_cable("na", ny_, bos_);
    eu_cable_ = add_cable("eu", bude_, brest_);
  }
  topo::NodeId add_node(const char* name, geo::GeoPoint p) {
    return net_.add_node({name, p, "", topo::NodeKind::kLandingPoint, true});
  }
  topo::CableId add_cable(const char* name, topo::NodeId a, topo::NodeId b) {
    topo::Cable c;
    c.name = name;
    c.segments = {{a, b, 500.0}};
    return net_.add_cable(std::move(c));
  }
  topo::InfrastructureNetwork net_;
  topo::NodeId ny_{}, bos_{}, bude_{}, brest_{};
  topo::CableId na_cable_{}, eu_cable_{};
};

TEST_F(EconomicsTest, NoFailureNoCost) {
  const util::Bitset none(net_.cable_count());
  recovery::RecoveryTimeline timeline;
  timeline.restore_day.assign(net_.cable_count(), 0.0);
  const EconomicImpact impact =
      estimate_internet_impact(net_, none, timeline);
  EXPECT_DOUBLE_EQ(impact.internet_cost_busd, 0.0);
  for (const auto& [cont, sev] : impact.initial_severity) {
    EXPECT_DOUBLE_EQ(sev, 0.0);
  }
}

TEST_F(EconomicsTest, CostScalesWithOutageDuration) {
  util::Bitset dead(net_.cable_count());
  dead.set(na_cable_);
  recovery::RecoveryTimeline short_fix;
  short_fix.restore_day.assign(net_.cable_count(), 0.0);
  short_fix.restore_day[na_cable_] = 10.0;
  short_fix.jobs.push_back({na_cable_, 1, 10.0, 10.0});
  recovery::RecoveryTimeline long_fix = short_fix;
  long_fix.restore_day[na_cable_] = 40.0;
  long_fix.jobs[0].completion_day = 40.0;

  const auto cheap = estimate_internet_impact(net_, dead, short_fix, 1.0);
  const auto expensive = estimate_internet_impact(net_, dead, long_fix, 1.0);
  EXPECT_GT(cheap.internet_cost_busd, 0.0);
  EXPECT_NEAR(expensive.internet_cost_busd / cheap.internet_cost_busd, 4.0,
              0.5);
}

TEST_F(EconomicsTest, InitialSeverityReflectsGeography) {
  util::Bitset dead(net_.cable_count());
  dead.set(na_cable_);  // NA fully dark, EU untouched
  recovery::RecoveryTimeline timeline;
  timeline.restore_day.assign(net_.cable_count(), 0.0);
  timeline.restore_day[na_cable_] = 20.0;
  timeline.jobs.push_back({na_cable_, 1, 20.0, 20.0});
  const auto impact = estimate_internet_impact(net_, dead, timeline, 1.0);
  for (const auto& [cont, sev] : impact.initial_severity) {
    if (cont == geo::Continent::kNorthAmerica) {
      EXPECT_DOUBLE_EQ(sev, 1.0);
    } else if (cont == geo::Continent::kEurope) {
      EXPECT_DOUBLE_EQ(sev, 0.0);
    }
  }
  // 20 days x full NA outage x $8.5B/day = $170B (trapezoid edges shave a
  // little).
  EXPECT_NEAR(impact.internet_cost_busd, 170.0, 12.0);
}

TEST_F(EconomicsTest, Validation) {
  const util::Bitset none(net_.cable_count());
  recovery::RecoveryTimeline timeline;
  timeline.restore_day.assign(net_.cable_count(), 0.0);
  EXPECT_THROW(estimate_internet_impact(net_, none, timeline, 0.0),
               std::invalid_argument);
  EXPECT_THROW(estimate_internet_impact(net_, util::Bitset(1), timeline),
               std::invalid_argument);
}

TEST(EconomicsFullScale, CarringtonCostIsHundredsOfBillions) {
  // Order-of-magnitude check against §2.2's grid figure ($0.6-2.6T): the
  // Internet-only cost of a severe storm over a months-long repair
  // campaign lands in the hundreds of billions.
  const auto net = datasets::make_submarine_network({});
  const sim::FailureSimulator simulator(net, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  util::Rng rng(1859);
  const auto dead = simulator.sample_cable_failures(s1, rng);
  const auto faults =
      recovery::sample_fault_counts(simulator, s1, dead, rng);
  const auto timeline = recovery::schedule_repairs(net, dead, faults, {});
  const auto impact = estimate_internet_impact(net, dead, timeline, 10.0);
  EXPECT_GT(impact.internet_cost_busd, 20.0);
  EXPECT_LT(impact.internet_cost_busd, 3000.0);
  EXPECT_GT(impact.outage_days_integral, 1.0);
}

}  // namespace
}  // namespace solarnet::analysis
