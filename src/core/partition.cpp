#include "core/partition.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <tuple>

#include "graph/components.h"

namespace solarnet::core {

PartitionReport analyze_partition(const topo::InfrastructureNetwork& net,
                                  const util::Bitset& cable_dead) {
  PartitionReport report;
  const graph::AliveMask mask = net.mask_for_failures(cable_dead);
  // Decompose over the cached CSR; produces the same dense labeling as the
  // adjacency-list overload.
  graph::ComponentScratch scratch;
  graph::ComponentResult cc;
  graph::connected_components(net.csr(), mask, scratch, cc);

  // Restrict to nodes that still have at least one alive cable.
  const auto isolated = net.unreachable_nodes(cable_dead);
  report.isolated_nodes = isolated.size();
  std::vector<bool> is_isolated(net.node_count(), false);
  for (topo::NodeId n : isolated) is_isolated[n] = true;

  // Components among surviving (non-isolated, cable-bearing) nodes.
  std::vector<std::size_t> component_sizes(cc.component_count(), 0);
  std::size_t surviving = 0;
  for (topo::NodeId n = 0; n < net.node_count(); ++n) {
    if (net.cables_at(n).empty() || is_isolated[n]) continue;
    const auto comp = cc.component[n];
    if (comp == graph::ComponentResult::kNoComponent) continue;
    ++component_sizes[comp];
    ++surviving;
  }
  std::size_t largest = 0;
  std::size_t sum_squares = 0;
  for (std::size_t size : component_sizes) {
    if (size > 0) ++report.components;
    largest = std::max(largest, size);
    sum_squares += size * size;
  }
  report.surviving_nodes = surviving;
  report.largest_component_share =
      surviving > 0 ? static_cast<double>(largest) /
                          static_cast<double>(surviving)
                    : 0.0;
  // Pairwise disconnection in closed form: of the S*(S-1)/2 surviving-node
  // pairs, the connected ones are exactly the within-component pairs, so
  // the disconnected count is sum_{i<j} n_i n_j = (S^2 - sum n_i^2) / 2.
  report.disconnected_pairs = (surviving * surviving - sum_squares) / 2;

  // Continent pair connectivity: two continents are linked when any two
  // surviving nodes, one on each, share a component. One O(nodes) pass
  // folds each component's continents into a bitmask; expanding the masks
  // costs O(components * continents^2) — the same matrix the old quadratic
  // node-pair scan produced.
  std::vector<std::uint16_t> component_continents(cc.component_count(), 0);
  for (topo::NodeId n = 0; n < net.node_count(); ++n) {
    if (net.cables_at(n).empty() || is_isolated[n]) continue;
    const auto comp = cc.component[n];
    if (comp == graph::ComponentResult::kNoComponent) continue;
    const auto cont =
        static_cast<std::size_t>(geo::continent_at(net.node(n).location));
    component_continents[comp] |= static_cast<std::uint16_t>(1u << cont);
  }
  constexpr std::size_t kContinents =
      std::tuple_size<decltype(report.continent_connected)>::value;
  for (const std::uint16_t mask : component_continents) {
    if (mask == 0) continue;
    for (std::size_t a = 0; a < kContinents; ++a) {
      if (!(mask & (1u << a))) continue;
      for (std::size_t b = 0; b < kContinents; ++b) {
        if (mask & (1u << b)) report.continent_connected[a][b] = true;
      }
    }
  }
  return report;
}

std::string render_partition(const PartitionReport& report) {
  static constexpr std::array<geo::Continent, 6> kContinents = {
      geo::Continent::kNorthAmerica, geo::Continent::kSouthAmerica,
      geo::Continent::kEurope,       geo::Continent::kAfrica,
      geo::Continent::kAsia,         geo::Continent::kOceania,
  };
  std::ostringstream os;
  os << "components: " << report.components
     << ", isolated nodes: " << report.isolated_nodes
     << ", largest component share: " << report.largest_component_share
     << ", disconnected pairs: " << report.disconnected_pairs << "\n";
  os << "continent connectivity (1 = linked):\n        ";
  for (geo::Continent c : kContinents) {
    os << std::string(geo::to_string(c)).substr(0, 5) << " ";
  }
  os << "\n";
  for (geo::Continent a : kContinents) {
    os << std::string(geo::to_string(a)).substr(0, 7);
    os << std::string(8 - std::min<std::size_t>(
                              7, std::string(geo::to_string(a)).size()),
                      ' ');
    for (geo::Continent b : kContinents) {
      os << "  " << (report.continents_linked(a, b) ? "1" : ".") << "   ";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace solarnet::core
