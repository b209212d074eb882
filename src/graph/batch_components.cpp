#include "graph/batch_components.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "util/bitset.h"

namespace solarnet::graph {

void batch_largest_components(const Csr& csr,
                              std::span<const std::uint64_t> edge_dead,
                              unsigned lanes, BatchComponentScratch& scratch,
                              std::uint32_t* largest,
                              std::uint32_t* labels) {
  const std::size_t n = csr.vertex_count();
  const std::size_t m = csr.edge_count();
  if (edge_dead.size() != m) {
    throw std::invalid_argument(
        "batch_largest_components: edge_dead size mismatches edge count");
  }
  if (lanes == 0 || lanes > kBatchLanes) {
    throw std::invalid_argument(
        "batch_largest_components: lanes must be in [1, 64]");
  }
  const std::uint64_t lane_mask =
      lanes == kBatchLanes ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << lanes) - 1;

  // Backbone: one union per edge alive in every lane; edges dead in every
  // lane never participate; the rest are variable and handled per lane.
  scratch.backbone.reset(n);
  for (std::size_t e = 0; e < m; ++e) {
    if ((edge_dead[e] & lane_mask) == 0) {
      scratch.backbone.unite(csr.edge_u(e), csr.edge_v(e));
    }
  }

  // Map every vertex to its backbone root and record each component's size
  // at its root. The backbone's largest component is the floor every lane
  // starts from (lane unions only grow components).
  scratch.root.resize(n);
  scratch.base_size.resize(n);
  std::uint32_t backbone_largest = n > 0 ? 1 : 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto r = static_cast<std::uint32_t>(scratch.backbone.find(v));
    scratch.root[v] = r;
    const auto size = static_cast<std::uint32_t>(scratch.backbone.set_size(r));
    scratch.base_size[v] = size;
    backbone_largest = std::max(backbone_largest, size);
  }

  // Variable edges as backbone-root pairs; one whose endpoints already share
  // a backbone component can never merge anything and is dropped.
  scratch.variable_edges.clear();
  for (std::size_t e = 0; e < m; ++e) {
    const std::uint64_t dead = edge_dead[e] & lane_mask;
    if (dead == 0 || dead == lane_mask) continue;
    const std::uint32_t a = scratch.root[csr.edge_u(e)];
    const std::uint32_t b = scratch.root[csr.edge_v(e)];
    if (a != b) scratch.variable_edges.push_back({dead, a, b});
  }

  // Transpose the variable edges' dead words block by block, so each lane
  // walks just its alive edges instead of testing every edge's bit.
  const std::size_t blocks = (scratch.variable_edges.size() + 63) / 64;
  scratch.lane_alive.resize(blocks * kBatchLanes);
  for (std::size_t block = 0; block < blocks; ++block) {
    std::uint64_t* words = scratch.lane_alive.data() + block * kBatchLanes;
    const std::size_t first = block * kBatchLanes;
    const std::size_t count =
        std::min<std::size_t>(kBatchLanes, scratch.variable_edges.size() - first);
    for (std::size_t j = 0; j < kBatchLanes; ++j) {
      words[j] = j < count ? ~scratch.variable_edges[first + j].dead : 0;
    }
    util::transpose_64x64(words);
  }

  // Lane union-find over backbone roots. Finds only ever start at backbone
  // roots, so entries of other vertices are never read; every entry a lane
  // changes belongs to a root it merged away (parent) or absorbed into
  // (size), and the merge log restores exactly those.
  scratch.lane_parent.resize(n);
  std::iota(scratch.lane_parent.begin(), scratch.lane_parent.end(), 0u);
  scratch.lane_size.assign(scratch.base_size.begin(), scratch.base_size.end());
  scratch.merges.resize(scratch.variable_edges.size());
  std::uint32_t* parent = scratch.lane_parent.data();
  std::uint32_t* size = scratch.lane_size.data();
  std::pair<std::uint32_t, std::uint32_t>* merges = scratch.merges.data();
  const std::uint32_t* root = scratch.root.data();
  const auto find = [parent](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  };
  for (unsigned t = 0; t < lanes; ++t) {
    std::uint32_t lane_largest = backbone_largest;
    std::size_t merged = 0;
    for (std::size_t block = 0; block < blocks; ++block) {
      const BatchComponentScratch::VariableEdge* edges =
          scratch.variable_edges.data() + block * kBatchLanes;
      for (std::uint64_t alive = scratch.lane_alive[block * kBatchLanes + t];
           alive != 0; alive &= alive - 1) {
        const BatchComponentScratch::VariableEdge& edge =
            edges[std::countr_zero(alive)];
        std::uint32_t ra = find(edge.a);
        std::uint32_t rb = find(edge.b);
        if (ra == rb) continue;
        if (size[ra] < size[rb]) std::swap(ra, rb);
        parent[rb] = ra;
        size[ra] += size[rb];
        lane_largest = std::max(lane_largest, size[ra]);
        merges[merged++] = {rb, ra};
      }
    }
    largest[t] = lane_largest;

    if (labels != nullptr) {
      // Point every merged-away root straight at its lane root. A root's
      // ancestors were all merged later than it (or are the lane root), so
      // walking the log backwards finds each parent already final.
      for (std::size_t k = merged; k-- > 0;) {
        const std::uint32_t child = merges[k].first;
        parent[child] = parent[parent[child]];
      }
      std::uint32_t* row = labels + static_cast<std::size_t>(t) * n;
      for (std::size_t v = 0; v < n; ++v) row[v] = parent[root[v]];
    }
    for (std::size_t k = 0; k < merged; ++k) {
      const auto [child, absorbing] = merges[k];
      parent[child] = child;
      size[absorbing] = scratch.base_size[absorbing];
    }
  }
}

}  // namespace solarnet::graph
