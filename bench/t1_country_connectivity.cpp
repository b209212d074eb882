// §4.3.4 (the paper's country-scale "table", narrated in text): per-country
// international connectivity under the S1 (high) and S2 (low) non-uniform
// states — exact analytic probabilities, no Monte-Carlo noise.
#include <iostream>

#include "analysis/country.h"
#include "datasets/submarine.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace solarnet;

  const auto net = datasets::make_submarine_network({});
  const sim::FailureSimulator simulator(net, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const auto s2 = gic::LatitudeBandFailureModel::s2();

  const std::vector<std::string> countries = {
      "US", "CA", "GB", "FR", "PT", "ES", "NO", "CN", "IN", "SG", "JP",
      "ZA",  "AU", "NZ", "BR", "AR", "CL"};

  util::print_banner(std::cout,
                     "Country international connectivity under S1/S2 "
                     "(P = probability ALL international cables fail)");
  util::TextTable t({"country", "intl cables", "P(cutoff) S1",
                     "E[survivors] S1", "P(cutoff) S2", "E[survivors] S2"});
  for (const std::string& cc : countries) {
    const auto r1 = analysis::country_connectivity(net, simulator, s1, cc);
    const auto r2 = analysis::country_connectivity(net, simulator, s2, cc);
    t.add_row({cc, std::to_string(r1.international_cable_count),
               util::format_fixed(r1.all_fail_probability, 3),
               util::format_fixed(r1.expected_surviving_cables, 1),
               util::format_fixed(r2.all_fail_probability, 3),
               util::format_fixed(r2.expected_surviving_cables, 1)});
  }
  t.print(std::cout);

  // Corridors the paper narrates.
  struct Corridor {
    const char* label;
    std::vector<std::string> a;
    std::vector<std::string> b;
  };
  const std::vector<Corridor> corridors = {
      {"US/CA <-> N. Europe", {"US", "CA"},
       {"GB", "IE", "FR", "NL", "BE", "DE", "DK", "NO", "ES"}},
      {"US <-> S. America", {"US"}, {"BR", "CO", "VE", "AR", "CL", "PE"}},
      {"Brazil <-> Europe", {"BR"}, {"PT", "ES", "FR"}},
      {"US <-> Asia (Pacific)", {"US"},
       {"JP", "CN", "HK", "TW", "SG", "PH", "ID"}},
      {"Australia <-> Singapore", {"AU"}, {"SG"}},
      {"NZ <-> Australia", {"NZ"}, {"AU"}},
      {"India <-> Singapore", {"IN"}, {"SG"}},
      {"S. Africa <-> Europe", {"ZA"}, {"PT", "ES", "GB"}},
  };
  // Corridor risk depends strongly on repeater spacing (more repeaters =
  // more chances to die); print both ends of the deployed range.
  sim::TrialConfig dense_cfg;
  dense_cfg.repeater_spacing_km = 50.0;
  const sim::FailureSimulator dense(net, dense_cfg);
  util::print_banner(std::cout,
                     "Corridor cut-off probabilities (150 km / 50 km "
                     "repeater spacing)");
  util::TextTable c({"corridor", "cables", "S1 @150", "S1 @50", "S2 @150",
                     "S2 @50"});
  for (const Corridor& corr : corridors) {
    const auto cables = analysis::corridor_cables(net, corr.a, corr.b);
    c.add_row({corr.label, std::to_string(cables.size()),
               util::format_fixed(
                   analysis::all_fail_probability(simulator, s1, cables), 3),
               util::format_fixed(
                   analysis::all_fail_probability(dense, s1, cables), 3),
               util::format_fixed(
                   analysis::all_fail_probability(simulator, s2, cables), 3),
               util::format_fixed(
                   analysis::all_fail_probability(dense, s2, cables), 3)});
  }
  c.print(std::cout);

  // City-level highlights from §4.3.4.
  util::print_banner(std::cout, "City-level highlights");
  util::TextTable city({"city", "cables", "P(all cables fail) S1",
                        "P(all fail) S2"});
  for (const char* name :
       {"Shanghai", "Mumbai", "Chennai", "Singapore", "Honolulu",
        "Anchorage", "Auckland"}) {
    const auto cables = analysis::cables_at_named_node(net, name);
    city.add_row(
        {name, std::to_string(cables.size()),
         util::format_fixed(
             analysis::all_fail_probability(simulator, s1, cables), 3),
         util::format_fixed(
             analysis::all_fail_probability(simulator, s2, cables), 3)});
  }
  city.print(std::cout);

  // The paper narrates per-trial outcomes ("with a probability of 0.2,
  // connectivity of all but one cable is lost"); reproduce that style with
  // 10 S1 draws and cross-check the analytic products.
  util::print_banner(std::cout,
                     "Per-trial view: 10 S1 draws (MC frequency vs analytic "
                     "P(cutoff))");
  util::TextTable mc({"country", "draws fully cut /10", "analytic P"});
  util::Rng rng(1859);
  std::vector<util::Bitset> draws;
  for (int t = 0; t < 10; ++t) {
    draws.push_back(simulator.sample_cable_failures(s1, rng));
  }
  for (const char* cc : {"US", "CA", "ZA", "NZ", "AR", "SG"}) {
    const auto cables = analysis::international_cables(net, cc);
    int cut = 0;
    for (const auto& dead : draws) {
      bool all = true;
      for (topo::CableId c : cables) {
        if (!dead[c]) {
          all = false;
          break;
        }
      }
      cut += all ? 1 : 0;
    }
    mc.add_row({cc, std::to_string(cut),
                util::format_fixed(
                    analysis::all_fail_probability(simulator, s1, cables),
                    3)});
  }
  mc.print(std::cout);

  std::cout << "\npaper narrative: US-Europe lost w.p. 1.0 under S1 (0.8 "
               "under S2); Shanghai loses all long-distance connectivity "
               "even under S2; Mumbai/Chennai/Singapore retain "
               "connectivity under S1; Brazil keeps Europe\n";
  return 0;
}
