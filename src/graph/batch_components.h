// 64-way batched largest-component kernel over a Csr.
//
// The Monte-Carlo batch layout (sim::TrialBatch) stores one u64 per cable
// whose bit t says "dead in trial lane t". Mapped down to edges, a whole
// batch of 64 trials becomes one `edge_dead` word per edge, and the lanes
// share almost all of their structure: an edge that is alive in every lane
// belongs to every lane's subgraph. This kernel exploits that with a
// shared-backbone union-find:
//
//   1. one "backbone" union-find unites every edge whose dead word is zero
//      (alive in all lanes) — paid once per batch instead of once per lane;
//   2. every vertex is mapped to its backbone root, and each *variable* edge
//      (dead in some lanes, alive in others) that joins two different
//      backbone components is kept as a pair of backbone roots;
//   3. per lane, those pairs alive in the lane (found by walking set bits of
//      the transposed dead words) are united in a small union-find over
//      backbone roots, whose merges are logged and undone before the next
//      lane.
//
// Per lane the cost is one union per alive variable edge plus O(merges) to
// undo them — no mask building, no dense relabel, no per-lane full edge
// scan or vertex copy. The per-lane largest component size
// is bit-identical (it is an integer) to
// ComponentResult::largest_component_size() of the scalar masked kernel
// with all vertices alive, which is what the connectivity observers need.
//
// On request the same pass also writes per-lane component labels: lane t's
// label of vertex v is the lane-t root of v's backbone root. Two vertices
// share a label iff they share a component — the relation
// ComponentResult::component encodes — but the values themselves are
// arbitrary vertex ids, not the scalar kernel's dense first-seen indices.
// Labels cost one pass over the lane's merge log plus a gather per vertex
// per lane, and lanes x vertices words of output, so callers ask for them
// only when something reads them.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/union_find.h"

namespace solarnet::graph {

// Reusable working storage; allocation-free once warm (the trial loops
// keep one per worker).
struct BatchComponentScratch {
  // A variable edge between two backbone components: its dead-lane word
  // and the two backbone roots it would join.
  struct VariableEdge {
    std::uint64_t dead;
    std::uint32_t a;
    std::uint32_t b;
  };
  UnionFind backbone;
  std::vector<std::uint32_t> root;       // backbone root per vertex
  std::vector<std::uint32_t> base_size;  // backbone component size, valid at roots
  std::vector<VariableEdge> variable_edges;
  // Lane-major alive bits of the variable edges, 64 edges per block:
  // bit j of lane_alive[block * 64 + t] = edge block * 64 + j alive in t.
  std::vector<std::uint64_t> lane_alive;
  // The per-lane union-find over backbone roots (identity / base_size
  // between lanes) and the lane's merge log (child root, absorbing root).
  std::vector<std::uint32_t> lane_parent;
  std::vector<std::uint32_t> lane_size;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> merges;
};

inline constexpr unsigned kBatchLanes = 64;

// Computes, for every lane t < lanes, the size of the largest connected
// component of the subgraph of `csr` whose edges are those with bit t of
// `edge_dead[e]` clear (all vertices alive; isolated vertices count as
// size-1 components, matching the scalar components kernel under a
// cable-failure mask). `edge_dead.size()` must equal `csr.edge_count()`;
// bits at lane positions >= lanes are ignored. `largest` must have room
// for `lanes` entries. When `labels` is non-null it must have room for
// lanes * csr.vertex_count() entries; row t (labels + t * vertex_count())
// receives lane t's component label per vertex (see the header comment).
// Throws std::invalid_argument on a size mismatch or lanes outside [1, 64].
void batch_largest_components(const Csr& csr,
                              std::span<const std::uint64_t> edge_dead,
                              unsigned lanes, BatchComponentScratch& scratch,
                              std::uint32_t* largest,
                              std::uint32_t* labels = nullptr);

}  // namespace solarnet::graph
