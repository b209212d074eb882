// Partitioned-Internet analysis (§5.3): after an event kills a set of
// cables, which landmasses can still talk to each other? Used to reason
// about "piecing together a partitioned Internet" — which partitions
// (N. America, Eurasia, Oceania, ...) must function independently.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "geo/regions.h"
#include "topology/network.h"
#include "util/bitset.h"

namespace solarnet::core {

struct PartitionReport {
  std::size_t components = 0;          // among nodes with >= 1 alive cable
  std::size_t isolated_nodes = 0;      // nodes that lost every cable
  std::size_t surviving_nodes = 0;     // cable-bearing nodes not isolated
  double largest_component_share = 0.0;  // of surviving nodes
  // Unordered pairs of surviving nodes left without a connecting path,
  // derived in closed form from the component sizes
  // ((S^2 - sum n_i^2) / 2 = sum_{i<j} n_i * n_j) rather than a node-pair
  // scan.
  std::size_t disconnected_pairs = 0;
  // connected[a][b]: some surviving path links continent a to continent b
  // (indices follow geo::Continent order).
  std::array<std::array<bool, 7>, 7> continent_connected{};

  bool continents_linked(geo::Continent a, geo::Continent b) const {
    return continent_connected[static_cast<std::size_t>(a)]
                              [static_cast<std::size_t>(b)];
  }
};

// Analyzes the surviving topology given per-cable death flags (size must
// equal net.cable_count()).
PartitionReport analyze_partition(const topo::InfrastructureNetwork& net,
                                  const util::Bitset& cable_dead);

// Renders the continent connectivity matrix as text.
std::string render_partition(const PartitionReport& report);

}  // namespace solarnet::core
