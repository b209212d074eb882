// §5.1 extension: topology-planning ablation. Ranks candidate new cables by
// how much they reduce the probability that the US is fully cut off from
// Europe under the S1 state, and ablates the cable-death rule
// (any-repeater-fails vs half-repeaters-fail; DESIGN.md design-choice #2).
#include <cstdio>
#include <iostream>
#include <string>

#include "analysis/latency.h"
#include "core/planner.h"
#include "datasets/submarine.h"
#include "sim/monte_carlo.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace solarnet;

  const auto net = datasets::make_submarine_network({});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const std::vector<std::string> us = {"US"};
  const std::vector<std::string> europe = {"GB", "IE", "FR", "NL", "BE",
                                           "DE", "DK", "NO", "PT", "ES"};

  const auto candidates = core::TopologyPlanner::default_low_latitude_candidates();

  util::print_banner(std::cout,
                     "Planner: candidate cables ranked by US<->Europe "
                     "cut-off risk reduction under S1 (any-repeater rule)");
  {
    const core::TopologyPlanner planner(net, {});
    const auto ranked = planner.rank(candidates, s1, us, europe);
    util::TextTable t({"candidate", "length km", "P(cable dies)",
                       "P(cutoff) before", "P(cutoff) after",
                       "risk reduction"});
    for (const auto& e : ranked) {
      t.add_row({e.candidate.from_node + " - " + e.candidate.to_node,
                 util::format_fixed(e.length_km, 0),
                 util::format_fixed(e.death_probability, 3),
                 util::format_fixed(e.corridor_cutoff_before, 3),
                 util::format_fixed(e.corridor_cutoff_after, 3),
                 util::format_fixed(e.risk_reduction(), 3)});
    }
    t.print(std::cout);
  }

  util::print_banner(std::cout,
                     "Ablation: cable-death rule (any repeater vs >= 50% of "
                     "repeaters), best candidate under each");
  {
    // Under the fraction rule a cable dies only once half its repeaters
    // fail, so the probabilities span many orders of magnitude: print
    // three significant digits instead of three decimals.
    const auto sig = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3g", v);
      return std::string(buf);
    };
    sim::TrialConfig frac_cfg;
    frac_cfg.rule = sim::CableDeathRule::kFractionFails;
    frac_cfg.death_fraction = 0.5;
    const core::TopologyPlanner any_planner(net, {});
    const core::TopologyPlanner frac_planner(net, frac_cfg);
    util::TextTable t({"rule", "P(cutoff) before", "best candidate",
                       "P(cable dies)", "P(cutoff) after"});
    const auto add = [&](const char* rule, const core::CandidateEvaluation& e) {
      t.add_row({rule, sig(e.corridor_cutoff_before),
                 e.candidate.from_node + " - " + e.candidate.to_node,
                 sig(e.death_probability), sig(e.corridor_cutoff_after)});
    };
    add("any repeater fails", any_planner.rank(candidates, s1, us, europe)[0]);
    add(">= 50% repeaters fail",
        frac_planner.rank(candidates, s1, us, europe)[0]);
    t.print(std::cout);
  }
  // §5.1's other trade-off: trans-Arctic systems cut Europe<->Asia latency
  // but route through the auroral oval. Latency via analysis/latency,
  // risk via the field-driven model (which sees the repeaters' actual
  // path latitudes, unlike the endpoint-band model).
  util::print_banner(std::cout,
                     "Arctic trade-off: London<->Tokyo RTT vs survival "
                     "(field-driven Carrington)");
  {
    const gic::FieldDrivenFailureModel field_model{
        gic::GeoelectricFieldModel(gic::carrington_1859())};
    const auto base_rtt = analysis::route_latency(net, "Bude", "Tokyo");
    util::TextTable t({"candidate", "length km", "RTT after ms",
                       "RTT saved ms", "P(dies, Carrington)"});
    auto candidates = core::TopologyPlanner::arctic_candidates();
    candidates.push_back({"Fortaleza", "Lagos", 15500.0});  // low-lat control
    for (const auto& candidate : candidates) {
      const auto augmented = core::with_cable(net, candidate);
      const auto rtt =
          analysis::route_latency(augmented, "Bude", "Tokyo");
      const sim::FailureSimulator simulator(augmented, {});
      const auto id =
          static_cast<topo::CableId>(augmented.cable_count() - 1);
      t.add_row({candidate.from_node + " - " + candidate.to_node,
                 util::format_fixed(candidate.length_km, 0),
                 util::format_fixed(rtt.rtt_ms, 1),
                 util::format_fixed(base_rtt.rtt_ms - rtt.rtt_ms, 1),
                 util::format_fixed(
                     simulator.cable_death_probability(id, field_model),
                     3)});
    }
    t.print(std::cout);
    std::cout << "baseline London<->Tokyo RTT: "
              << util::format_fixed(base_rtt.rtt_ms, 1)
              << " ms — the Arctic builds buy tens of milliseconds and die "
                 "almost surely in a Carrington event (§5.1's warning)\n";
  }

  std::cout << "\npaper §5.1: add capacity in lower latitudes; links to "
               "Central/South America help maintain global connectivity\n";
  return 0;
}
