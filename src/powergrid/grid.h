// Power-grid interdependence (§5.5). The paper stresses that grids and the
// Internet now fail together: GIC destroys HV transformers (the 1989
// Quebec collapse; 0.6-2.6 trillion USD for a Carrington repeat), and
// landing stations, IXPs and data centers need grid power. This module
// models regional grids, storm-driven transformer losses, restoration
// timelines (transformer manufacturing is the §5.5 roadblock), and the
// coupled network+power failure picture.
#pragma once

#include <string>
#include <vector>

#include "geo/regions.h"
#include "gic/efield.h"
#include "topology/network.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace solarnet::powergrid {

struct GridRegion {
  std::string name;
  geo::GeoBox footprint;
  // Representative point for field evaluation (load-weighted centroid).
  geo::GeoPoint centroid;
  double peak_load_gw = 0.0;
  // High-voltage transformers in service (order-of-magnitude figures).
  std::size_t hv_transformers = 0;
};

// Curated regional grids (the three US interconnections the paper names,
// plus the other major systems the datasets touch).
const std::vector<GridRegion>& grid_regions();

// Region containing a point (footprint box first, nearest centroid as the
// fallback). Always returns a valid index into grid_regions().
std::size_t region_index_at(const geo::GeoPoint& p);

struct TransformerFailureParams {
  // GIC-vulnerability logistic on the local geoelectric field: fields
  // around `field_at_half` V/km give a 50% per-transformer failure rate.
  double field_at_half_v_per_km = 12.0;
  double steepness = 2.0;
  // Grid-level collapse threshold: losing this fraction of HV transformers
  // takes the region down (cascading separation).
  double blackout_fraction = 0.20;
  // Restoration: crews fix `daily_repair_fraction` of failed units per day
  // from spares, but only `spare_fraction` have spares — the rest wait on
  // manufacturing (months, §5.5).
  double spare_fraction = 0.3;
  double days_per_spare_swap = 10.0;
  double manufacturing_days = 365.0;
};

struct GridOutcome {
  std::string region;
  double field_v_per_km = 0.0;
  double transformer_failure_fraction = 0.0;
  bool blackout = false;
  // Days until the region recovers enough transformers to re-energize.
  double restoration_days = 0.0;
};

// Deterministic expected-value evaluation of a storm against every region.
std::vector<GridOutcome> evaluate_grid(
    const gic::GeoelectricFieldModel& field,
    const TransformerFailureParams& params = {});

struct CoupledImpact {
  // Network nodes whose region is blacked out (and lack backup power).
  std::size_t nodes_without_power = 0;
  // Nodes unreachable from cable damage alone.
  std::size_t nodes_unreachable_cables = 0;
  // Nodes out of service for either reason.
  std::size_t nodes_down_combined = 0;
  double combined_down_fraction = 0.0;  // of cable-bearing nodes
  double amplification() const noexcept {
    return nodes_unreachable_cables > 0
               ? static_cast<double>(nodes_down_combined) /
                     static_cast<double>(nodes_unreachable_cables)
               : 0.0;
  }
};

// Couples a cable-failure draw with the grid outcomes: a node is down when
// all its cables failed OR its grid region is dark and the node lost the
// backup-power lottery (backup_probability per node).
CoupledImpact analyze_coupled_failure(const topo::InfrastructureNetwork& net,
                                      const util::Bitset& cable_dead,
                                      const std::vector<GridOutcome>& grid,
                                      double backup_probability,
                                      util::Rng& rng);

}  // namespace solarnet::powergrid
