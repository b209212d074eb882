// Reference resurrection walk: the full-vertex form of
// sim::IncrementalConnectivity::walk, kept only as a bench baseline.
//
// Activating a cable here bumps an alive-cable counter for every
// cable-node incidence and unites every one of the cable's graph edges in
// a union-find over all network nodes. sim::IncrementalConnectivity
// contracts single-cable nodes out of that work; perf_sweep and
// perf_timeline run both walks on identical first-dead arrays, require
// bit-identical aggregates, and time one against the other.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "graph/union_find.h"
#include "sim/incremental.h"
#include "topology/network.h"

namespace solarnet::benchutil {

class ReferenceWalk {
 public:
  struct Scratch {
    std::vector<std::uint32_t> alive_cables_at_node;
    graph::UnionFind uf;
  };

  explicit ReferenceWalk(const topo::InfrastructureNetwork& net)
      : cables_(net.cable_count()), nodes_(net.node_count()) {
    edge_offset_.reserve(cables_ + 1);
    edge_offset_.push_back(0);
    for (topo::CableId c = 0; c < cables_; ++c) {
      for (const graph::EdgeId e : net.edges_of_cable(c)) {
        const graph::Edge& ed = net.graph().edge(e);
        edge_u_.push_back(ed.u);
        edge_v_.push_back(ed.v);
      }
      edge_offset_.push_back(static_cast<std::uint32_t>(edge_u_.size()));
    }
    // Per-cable unique incident nodes, inverted from cables_at(n).
    node_offset_.assign(cables_ + 1, 0);
    for (topo::NodeId n = 0; n < nodes_; ++n) {
      for (const topo::CableId c : net.cables_at(n)) ++node_offset_[c + 1];
    }
    for (topo::CableId c = 0; c < cables_; ++c) {
      node_offset_[c + 1] += node_offset_[c];
    }
    node_ids_.resize(node_offset_[cables_]);
    std::vector<std::uint32_t> cursor(node_offset_.begin(),
                                      node_offset_.end() - 1);
    for (topo::NodeId n = 0; n < nodes_; ++n) {
      for (const topo::CableId c : net.cables_at(n)) {
        node_ids_[cursor[c]++] = static_cast<std::uint32_t>(n);
      }
    }
  }

  // Same protocol as IncrementalConnectivity::walk, over buckets filled by
  // IncrementalConnectivity::bucket_by_first_dead into `buckets`.
  template <typename OnStep>
  void walk(std::size_t steps, const sim::IncrementalScratch& buckets,
            Scratch& s, OnStep&& on_step) const {
    s.alive_cables_at_node.assign(nodes_, 0);
    s.uf.reset(nodes_);
    sim::IncrementalAggregates agg;
    agg.largest = nodes_ > 0 ? 1 : 0;

    const auto activate_bucket = [&](std::size_t bucket) {
      for (std::uint32_t i = buckets.bucket_start[bucket];
           i < buckets.bucket_start[bucket + 1]; ++i) {
        const std::uint32_t c = buckets.bucket_cables[i];
        ++agg.alive_cables;
        for (std::uint32_t k = node_offset_[c]; k < node_offset_[c + 1];
             ++k) {
          if (s.alive_cables_at_node[node_ids_[k]]++ == 0) ++agg.lit_nodes;
        }
        for (std::uint32_t k = edge_offset_[c]; k < edge_offset_[c + 1];
             ++k) {
          const std::size_t merged =
              s.uf.unite_returning_size(edge_u_[k], edge_v_[k]);
          agg.largest = std::max(agg.largest, merged);
        }
      }
    };

    activate_bucket(steps);
    for (std::size_t g = steps; g-- > 0;) {
      on_step(g, static_cast<const sim::IncrementalAggregates&>(agg));
      if (g > 0) activate_bucket(g);
    }
  }

 private:
  std::size_t cables_ = 0;
  std::size_t nodes_ = 0;
  std::vector<std::uint32_t> edge_offset_;
  std::vector<std::uint32_t> edge_u_;
  std::vector<std::uint32_t> edge_v_;
  std::vector<std::uint32_t> node_offset_;
  std::vector<std::uint32_t> node_ids_;
};

// One axis of nested dead sets, as the engines hand it to the walk.
struct WalkAxis {
  std::vector<std::uint32_t> first_dead;
  std::size_t steps = 0;
};

struct WalkComparison {
  bool identical = true;  // every step's aggregates equal on every axis
  double ref_us = 0.0;    // reference bucket+walk, µs per axis (median round)
  double walk_us = 0.0;   // contracted bucket+walk, µs per axis
  double speedup = 0.0;   // median over rounds of the round's ref / walk
  std::size_t checksum = 0;  // keeps the timed walks observable
};

// Runs both walks over every axis, first comparing every step's
// aggregates, then timing `rounds` alternating passes (reference, then
// contracted, over all axes) on one thread. Each path's per-axis time is
// the median over rounds. The speedup is the median of the per-round
// ratios: the two passes of a round run back to back, so a shift in the
// host's speed between rounds cancels out of the ratio.
inline WalkComparison compare_walks(const topo::InfrastructureNetwork& net,
                                    const std::vector<WalkAxis>& axes,
                                    std::size_t rounds) {
  const sim::IncrementalConnectivity inc(net);
  const ReferenceWalk ref(net);
  sim::IncrementalScratch buckets;
  ReferenceWalk::Scratch ref_scratch;
  WalkComparison out;

  std::vector<sim::IncrementalAggregates> expected;
  for (const WalkAxis& axis : axes) {
    inc.bucket_by_first_dead(axis.first_dead, axis.steps, buckets);
    expected.assign(axis.steps, {});
    ref.walk(axis.steps, buckets, ref_scratch,
             [&](std::size_t g, const sim::IncrementalAggregates& agg) {
               expected[g] = agg;
             });
    inc.walk(axis.steps, buckets,
             [&](std::size_t g, const sim::IncrementalAggregates& agg) {
               const sim::IncrementalAggregates& want = expected[g];
               if (agg.alive_cables != want.alive_cables ||
                   agg.lit_nodes != want.lit_nodes ||
                   agg.largest != want.largest) {
                 out.identical = false;
               }
             });
  }

  const auto sink = [&](std::size_t, const sim::IncrementalAggregates& agg) {
    out.checksum += agg.largest + agg.lit_nodes;
  };
  const auto time_us = [&](auto&& walk_axis) {
    const auto start = std::chrono::steady_clock::now();
    for (const WalkAxis& axis : axes) walk_axis(axis);
    const std::chrono::duration<double, std::micro> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() / static_cast<double>(axes.size());
  };
  std::vector<double> ref_us;
  std::vector<double> walk_us;
  std::vector<double> ratio;
  for (std::size_t r = 0; r < rounds; ++r) {
    ref_us.push_back(time_us([&](const WalkAxis& axis) {
      inc.bucket_by_first_dead(axis.first_dead, axis.steps, buckets);
      ref.walk(axis.steps, buckets, ref_scratch, sink);
    }));
    walk_us.push_back(time_us([&](const WalkAxis& axis) {
      inc.bucket_by_first_dead(axis.first_dead, axis.steps, buckets);
      inc.walk(axis.steps, buckets, sink);
    }));
    ratio.push_back(ref_us.back() / walk_us.back());
  }
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  out.ref_us = median(ref_us);
  out.walk_us = median(walk_us);
  out.speedup = median(ratio);
  return out;
}

}  // namespace solarnet::benchutil
