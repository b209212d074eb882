// Economic impact model. §1 of the paper: "the economic impact of an
// Internet disruption for a day in the US is estimated to be over
// $7 billion" (NetBlocks COST); §5.5 adds >$40B/day for a US grid failure
// and §2.2 cites $0.6-2.6T total for a Carrington repeat of the grid.
// This module turns outage severity and recovery timelines into dollar
// estimates per region and in aggregate.
#pragma once

#include <string>
#include <vector>

#include "geo/regions.h"
#include "recovery/repair.h"
#include "topology/network.h"
#include "util/bitset.h"

namespace solarnet::analysis {

struct RegionalEconomy {
  geo::Continent continent;
  // Full-disconnection cost per day, USD billions (scaled from the paper's
  // US anchor by rough digital-economy size).
  double internet_outage_cost_per_day_busd = 0.0;
};

// The per-continent cost table (US anchor: North America ~ $8.5B/day, of
// which the paper's $7B/day is the US share).
const std::vector<RegionalEconomy>& regional_economies();

struct EconomicImpact {
  // Integrated over the recovery timeline: sum of (continent outage
  // severity x cost/day x days).
  double internet_cost_busd = 0.0;
  // Mean outage severity (fraction of nodes dark) per continent at t=0.
  std::vector<std::pair<geo::Continent, double>> initial_severity;
  double outage_days_integral = 0.0;  // severity-weighted days, global mean
};

// Integrates Internet-outage cost over a repair campaign. Severity of a
// continent at time t = fraction of its cable-bearing landing points that
// are still dark (all incident cables unrepaired). Sampling step in days.
EconomicImpact estimate_internet_impact(
    const topo::InfrastructureNetwork& net, const util::Bitset& cable_dead,
    const recovery::RecoveryTimeline& timeline, double step_days = 5.0);

}  // namespace solarnet::analysis
