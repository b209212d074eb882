#include "core/planner.h"

#include <gtest/gtest.h>

#include "datasets/submarine.h"

namespace solarnet::core {
namespace {

// A minimal world where the US-Europe corridor is one risky northern cable
// and Brazil offers a low-latitude alternative.
topo::InfrastructureNetwork tiny_net() {
  topo::InfrastructureNetwork net("tiny");
  net.add_node({"NY", {40.7, -74.0}, "US", topo::NodeKind::kLandingPoint,
                true});
  net.add_node({"Miami", {25.8, -80.2}, "US", topo::NodeKind::kLandingPoint,
                true});
  net.add_node({"Bude", {50.8, -4.5}, "GB", topo::NodeKind::kLandingPoint,
                true});
  net.add_node({"Lisbon", {38.7, -9.1}, "PT", topo::NodeKind::kLandingPoint,
                true});
  topo::Cable c;
  c.name = "northern";
  c.segments = {{*net.find_node("NY"), *net.find_node("Bude"), 6000.0}};
  net.add_cable(std::move(c));
  return net;
}

TEST(TopologyPlanner, CandidateReducesCorridorRisk) {
  const TopologyPlanner planner(tiny_net(), {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const CandidateEvaluation eval = planner.evaluate(
      {"Miami", "Lisbon", 0.0}, s1, {"US"}, {"GB", "PT"});
  EXPECT_GT(eval.corridor_cutoff_before, 0.9);  // one mid-band cable
  EXPECT_LT(eval.corridor_cutoff_after, eval.corridor_cutoff_before);
  EXPECT_GT(eval.risk_reduction(), 0.0);
  EXPECT_GT(eval.length_km, 5000.0);  // Miami-Lisbon is transatlantic
  EXPECT_GT(eval.death_probability, 0.0);
  EXPECT_LT(eval.death_probability, 1.0);
}

TEST(TopologyPlanner, LowLatitudeBeatsNorthernCandidate) {
  const TopologyPlanner planner(tiny_net(), {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const auto ranked = planner.rank(
      {{"NY", "Bude", 0.0}, {"Miami", "Lisbon", 0.0}}, s1, {"US"},
      {"GB", "PT"});
  ASSERT_EQ(ranked.size(), 2u);
  // The low-latitude Miami-Lisbon candidate must rank first: its own
  // death probability is lower (low band), so it protects the corridor
  // better than a second northern cable.
  EXPECT_EQ(ranked[0].candidate.from_node, "Miami");
  EXPECT_GE(ranked[0].risk_reduction(), ranked[1].risk_reduction());
}

TEST(TopologyPlanner, DeathRuleChangesEvaluation) {
  // Ablation of the cable-death rule: under ">= 50% of repeaters fail" the
  // northern cable and the candidate are both far likelier to survive, so
  // the planner sees a different corridor than under any-repeater-fails.
  sim::TrialConfig frac_cfg;
  frac_cfg.rule = sim::CableDeathRule::kFractionFails;
  frac_cfg.death_fraction = 0.5;
  const TopologyPlanner any_planner(tiny_net(), {});
  const TopologyPlanner frac_planner(tiny_net(), frac_cfg);
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const CandidateCable candidate{"Miami", "Lisbon", 0.0};
  const CandidateEvaluation any =
      any_planner.evaluate(candidate, s1, {"US"}, {"GB", "PT"});
  const CandidateEvaluation frac =
      frac_planner.evaluate(candidate, s1, {"US"}, {"GB", "PT"});
  EXPECT_LT(frac.corridor_cutoff_before, any.corridor_cutoff_before);
  EXPECT_LT(frac.corridor_cutoff_after, any.corridor_cutoff_after);
  EXPECT_LT(frac.death_probability, any.death_probability);
}

TEST(TopologyPlanner, ExplicitLengthRespected) {
  const TopologyPlanner planner(tiny_net(), {});
  const auto s2 = gic::LatitudeBandFailureModel::s2();
  const CandidateEvaluation eval = planner.evaluate(
      {"Miami", "Lisbon", 9000.0}, s2, {"US"}, {"PT"});
  EXPECT_DOUBLE_EQ(eval.length_km, 9000.0);
}

TEST(TopologyPlanner, UnknownEndpointThrows) {
  const TopologyPlanner planner(tiny_net(), {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  EXPECT_THROW(
      planner.evaluate({"Atlantis", "Lisbon", 0.0}, s1, {"US"}, {"PT"}),
      std::invalid_argument);
}

TEST(TopologyPlanner, DefaultCandidatesResolveOnDefaultNetwork) {
  const auto net = datasets::make_submarine_network({});
  for (const CandidateCable& c :
       TopologyPlanner::default_low_latitude_candidates()) {
    EXPECT_TRUE(net.find_node(c.from_node).has_value()) << c.from_node;
    EXPECT_TRUE(net.find_node(c.to_node).has_value()) << c.to_node;
  }
}

TEST(WithCable, AugmentsACopy) {
  const auto base = tiny_net();
  double length = 0.0;
  const auto augmented =
      with_cable(base, {"Miami", "Lisbon", 0.0}, &length);
  EXPECT_EQ(augmented.cable_count(), base.cable_count() + 1);
  EXPECT_EQ(augmented.node_count(), base.node_count());
  EXPECT_GT(length, 5000.0);
  EXPECT_NEAR(augmented.cable(augmented.cable_count() - 1).total_length_km(),
              length, 1e-9);
  // Explicit lengths pass through untouched.
  const auto fixed = with_cable(base, {"Miami", "Lisbon", 1234.0});
  EXPECT_DOUBLE_EQ(fixed.cable(fixed.cable_count() - 1).total_length_km(),
                   1234.0);
  EXPECT_THROW(with_cable(base, {"Nowhere", "Lisbon", 0.0}),
               std::invalid_argument);
}

TEST(TopologyPlanner, ArcticCandidatesResolveOnDefaultNetwork) {
  const auto net = datasets::make_submarine_network({});
  for (const CandidateCable& c : TopologyPlanner::arctic_candidates()) {
    EXPECT_TRUE(net.find_node(c.from_node).has_value()) << c.from_node;
    EXPECT_TRUE(net.find_node(c.to_node).has_value()) << c.to_node;
    EXPECT_GT(c.length_km, 10000.0);  // trans-Arctic scale
  }
}

TEST(TopologyPlanner, BaseNetworkUnchangedByEvaluation) {
  const auto base = tiny_net();
  const TopologyPlanner planner(base, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  planner.evaluate({"Miami", "Lisbon", 0.0}, s1, {"US"}, {"PT"});
  // Evaluating again gives identical "before" — no state leaked.
  const auto e1 = planner.evaluate({"Miami", "Lisbon", 0.0}, s1, {"US"},
                                   {"GB", "PT"});
  const auto e2 = planner.evaluate({"Miami", "Lisbon", 0.0}, s1, {"US"},
                                   {"GB", "PT"});
  EXPECT_DOUBLE_EQ(e1.corridor_cutoff_before, e2.corridor_cutoff_before);
  EXPECT_DOUBLE_EQ(e1.corridor_cutoff_after, e2.corridor_cutoff_after);
}

}  // namespace
}  // namespace solarnet::core
