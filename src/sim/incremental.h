// Shared incremental-connectivity core: the reusable union-find
// resurrection walk that prices a whole axis of nested dead-cable sets at
// the cost of ~one component build.
//
// SweepEngine (probability axis, PR 4) and TimelineEngine (time axis) both
// evaluate sequences of *monotone nested* dead sets: dead(0) ⊆ dead(1) ⊆ …
// along severity, or failures accumulating during a storm and healing
// during repair. The trick is identical in every case: walk the axis from
// the most severe step to the least severe, *resurrecting* cables into an
// insert-only union-find, and read the aggregates (alive cables, nodes with
// >= 1 alive cable, largest component) after each resurrection batch. This
// header owns that walk so every axis-shaped workload shares one
// implementation — and one set of bit-identity gates (bench/perf_sweep,
// bench/perf_timeline).
//
// The protocol:
//   1. Compute, per cable, its *first dead step* on the axis: the smallest
//      step index at which the cable is dead, or `steps` when it is alive
//      everywhere. Nesting means the dead set at step g is exactly
//      {c : first_dead[c] <= g}.
//   2. bucket_by_first_dead() counting-sorts cables into buckets by that
//      index (ascending cable order preserved inside each bucket).
//   3. walk() activates bucket `steps` (the always-alive cables), then
//      iterates g = steps-1 … 0, reporting step g's aggregates *before*
//      resurrecting bucket g — so the callback observes exactly
//      {c : first_dead[c] > g}, step g's alive set.
//
// The contraction. Most landing points lie on exactly one cable (1,084 of
// the 1,188 nodes of the 470-cable submarine network), and such a
// *private* node can only ever join the component of its own cable's
// segments. So the constructor contracts the network, once, to the cable
// hypergraph over its *hubs*: the nodes that two or more cables touch,
// counting both cables_at(n) and the cables whose segment edges end at n
// (104 hubs on that network). Each cable's segments are split into pieces
// by a local union-find over that cable's own edges, so a cable whose
// segments do not connect all its landing points stays exact. Activating a
// cable then
//   * adds its count of private landing points to lit_nodes, and marks its
//     hub landing points lit;
//   * raises `largest` to the size of its largest piece with no hub (such
//     a piece is a whole component);
//   * unites each hub-touching piece's hubs in a graph::UnionFind over the
//     hubs only, adding the piece's private-node count to the merged set
//     with add_size().
// The aggregates are the same integers the full-vertex walk (every edge
// united over every node) produces; bench/reference_walk.h keeps that
// walk as the baseline perf_sweep and perf_timeline gate against.
//
// All state lives in IncrementalScratch; a warm scratch makes the
// bucket+walk pair allocation-free (asserted by the perf benches).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/union_find.h"
#include "topology/network.h"

namespace solarnet::sim {

// Aggregates maintained by the walk, updated after every resurrection.
struct IncrementalAggregates {
  std::size_t alive_cables = 0;
  std::size_t lit_nodes = 0;  // nodes with >= 1 alive cable
  // Largest component over *all* graph nodes; isolated vertices count as
  // singleton components, hence the 1 floor on non-empty graphs.
  std::size_t largest = 0;
};

// Reusable buffers for one walk. Sized on first use, never shrunk.
struct IncrementalScratch {
  std::vector<std::uint32_t> bucket_start;   // counting-sort offsets, S+2
  std::vector<std::uint32_t> bucket_cursor;  // counting-sort fill cursors
  std::vector<std::uint32_t> bucket_cables;  // cables grouped by first-dead
  // Union-find over the hubs; a set's size counts nodes (its hubs plus
  // every private node added to it).
  graph::UnionFind hubs;
  std::vector<std::uint8_t> hub_lit;  // 1 once an alive cable lands there
};

// Immutable per-network geometry for the resurrection walk, contracted
// once at construction to flat per-cable and per-piece arrays over the
// hubs (O(nodes + edges)). The network must outlive this object.
class IncrementalConnectivity {
 public:
  explicit IncrementalConnectivity(const topo::InfrastructureNetwork& net);

  std::size_t cable_count() const noexcept { return cables_; }
  std::size_t node_count() const noexcept { return nodes_; }
  // Nodes touched by two or more cables — the union-find's domain.
  std::size_t hub_count() const noexcept { return hubs_; }
  // Nodes with >= 1 registered cable — the denominator the engines use for
  // unreachable / largest-component percentages.
  std::size_t connected_node_count() const noexcept { return connected_nodes_; }

  // Counting-sorts cables into buckets by first-dead step index. Each
  // first_dead[c] must be in [0, steps]; bucket `steps` holds the cables
  // alive across the whole axis. Ascending cable order is preserved inside
  // each bucket, so activation order is a pure function of the first_dead
  // array.
  void bucket_by_first_dead(std::span<const std::uint32_t> first_dead,
                            std::size_t steps,
                            IncrementalScratch& scratch) const;

  // The resurrection walk over a bucketed scratch. Calls
  // `on_step(g, aggregates)` for g = steps-1 … 0 with the aggregates of
  // step g's alive set {c : first_dead[c] > g}. With steps == 0 the
  // callback is never invoked (an empty axis has no steps to report).
  // Header-inline so the per-cable activation loop inlines into each
  // engine's callback.
  template <typename OnStep>
  void walk(std::size_t steps, IncrementalScratch& s, OnStep&& on_step) const {
    s.hubs.reset(hubs_);
    s.hub_lit.assign(hubs_, 0);
    std::uint8_t* const lit = s.hub_lit.data();
    IncrementalAggregates agg;
    agg.largest = nodes_ > 0 ? 1 : 0;

    const auto activate_bucket = [&](std::size_t bucket) {
      for (std::uint32_t i = s.bucket_start[bucket];
           i < s.bucket_start[bucket + 1]; ++i) {
        const std::uint32_t c = s.bucket_cables[i];
        const CableSummary& cable = cable_[c];
        const CableSummary& next = cable_[c + 1];
        ++agg.alive_cables;
        agg.lit_nodes += cable.private_lit;
        agg.largest = std::max<std::size_t>(agg.largest, cable.solo_largest);
        for (std::uint32_t k = cable.lit_hub_begin; k < next.lit_hub_begin;
             ++k) {
          const std::uint32_t h = lit_hubs_[k];
          agg.lit_nodes += lit[h] ^ 1u;
          lit[h] = 1;
        }
        for (std::uint32_t p = cable.piece_begin; p < next.piece_begin; ++p) {
          const Piece& piece = piece_[p];
          const std::uint32_t first = piece_hubs_[piece.hub_begin];
          for (std::uint32_t k = piece.hub_begin + 1;
               k < piece_[p + 1].hub_begin; ++k) {
            s.hubs.unite(first, piece_hubs_[k]);
          }
          agg.largest = std::max(agg.largest,
                                 s.hubs.add_size(first, piece.weight));
        }
      }
    };

    activate_bucket(steps);
    for (std::size_t g = steps; g-- > 0;) {
      on_step(g, static_cast<const IncrementalAggregates&>(agg));
      if (g > 0) activate_bucket(g);
    }
  }

 private:
  // Per cable, with a sentinel after the last so [x_begin of c, x_begin of
  // c+1) is cable c's range.
  struct CableSummary {
    std::uint32_t private_lit = 0;    // private landing points (cables_at)
    std::uint32_t solo_largest = 0;   // largest hubless piece, in nodes
    std::uint32_t lit_hub_begin = 0;  // into lit_hubs_
    std::uint32_t piece_begin = 0;    // into piece_
  };
  // A hub-touching piece of one cable: its hubs and its private nodes.
  struct Piece {
    std::uint32_t hub_begin = 0;  // into piece_hubs_, sentinel-terminated
    std::uint32_t weight = 0;     // private nodes in the piece
  };

  std::size_t cables_ = 0;
  std::size_t nodes_ = 0;
  std::size_t connected_nodes_ = 0;
  std::uint32_t hubs_ = 0;
  std::vector<CableSummary> cable_;        // cables + 1
  std::vector<std::uint32_t> lit_hubs_;    // hub landing points, per cable
  std::vector<Piece> piece_;               // pieces + 1
  std::vector<std::uint32_t> piece_hubs_;  // hub ids, per piece
};

}  // namespace solarnet::sim
