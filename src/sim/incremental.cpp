#include "sim/incremental.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace solarnet::sim {

IncrementalConnectivity::IncrementalConnectivity(
    const topo::InfrastructureNetwork& net)
    : cables_(net.cable_count()),
      nodes_(net.node_count()),
      connected_nodes_(net.connected_node_count()) {
  if (nodes_ >= UINT32_MAX - 1) {
    throw std::length_error("IncrementalConnectivity: too many nodes");
  }
  constexpr std::uint32_t kNone = UINT32_MAX;
  constexpr std::uint32_t kShared = UINT32_MAX - 1;

  // Which cable touches each node, through cables_at(n) or through its
  // segment edges: kNone, the one cable, or kShared. Shared nodes are hubs.
  std::vector<std::uint32_t> owner(nodes_, kNone);
  const auto touch = [&](std::uint32_t n, std::uint32_t c) {
    if (owner[n] == kNone) {
      owner[n] = c;
    } else if (owner[n] != c) {
      owner[n] = kShared;
    }
  };
  for (topo::NodeId n = 0; n < nodes_; ++n) {
    for (const topo::CableId c : net.cables_at(n)) touch(n, c);
  }
  for (topo::CableId c = 0; c < cables_; ++c) {
    for (const graph::EdgeId e : net.edges_of_cable(c)) {
      touch(net.graph().edge(e).u, c);
      touch(net.graph().edge(e).v, c);
    }
  }
  std::vector<std::uint32_t> hub_of(nodes_, kNone);
  for (topo::NodeId n = 0; n < nodes_; ++n) {
    if (owner[n] == kShared) hub_of[n] = hubs_++;
  }

  // cables_at inverted: each cable's registered landing points, in two
  // counting passes.
  std::vector<std::uint32_t> landing_offset(cables_ + 1, 0);
  for (topo::NodeId n = 0; n < nodes_; ++n) {
    for (const topo::CableId c : net.cables_at(n)) ++landing_offset[c + 1];
  }
  for (topo::CableId c = 0; c < cables_; ++c) {
    landing_offset[c + 1] += landing_offset[c];
  }
  std::vector<std::uint32_t> landing(landing_offset[cables_]);
  {
    std::vector<std::uint32_t> cursor(landing_offset.begin(),
                                      landing_offset.end() - 1);
    for (topo::NodeId n = 0; n < nodes_; ++n) {
      for (const topo::CableId c : net.cables_at(n)) {
        landing[cursor[c]++] = static_cast<std::uint32_t>(n);
      }
    }
  }

  // Per cable: a union-find over the nodes it touches (numbered locally),
  // united along its own edges, splits it into pieces. member_of stamps
  // each node with the cable that last numbered it.
  std::vector<std::uint32_t> member_of(nodes_, kNone);
  std::vector<std::uint32_t> local_index(nodes_);
  std::vector<std::uint32_t> members;
  graph::UnionFind pieces;
  std::vector<std::uint32_t> piece_of_root;
  std::vector<std::uint32_t> member_piece;
  std::vector<std::uint32_t> local_weight;
  std::vector<std::uint32_t> local_hubs;
  std::vector<std::uint32_t> hub_cursor;

  cable_.resize(cables_ + 1);
  for (std::uint32_t c = 0; c < cables_; ++c) {
    CableSummary& summary = cable_[c];
    summary.lit_hub_begin = static_cast<std::uint32_t>(lit_hubs_.size());
    summary.piece_begin = static_cast<std::uint32_t>(piece_.size());

    members.clear();
    // Returns true when n is new to this cable.
    const auto add_member = [&](std::uint32_t n) {
      if (member_of[n] == c) return false;
      member_of[n] = c;
      local_index[n] = static_cast<std::uint32_t>(members.size());
      members.push_back(n);
      return true;
    };
    for (std::uint32_t k = landing_offset[c]; k < landing_offset[c + 1];
         ++k) {
      const std::uint32_t n = landing[k];
      if (!add_member(n)) continue;
      if (hub_of[n] == kNone) {
        ++summary.private_lit;
      } else {
        lit_hubs_.push_back(hub_of[n]);
      }
    }
    const auto& edges = net.edges_of_cable(c);
    for (const graph::EdgeId e : edges) {
      add_member(net.graph().edge(e).u);
      add_member(net.graph().edge(e).v);
    }
    pieces.reset(members.size());
    for (const graph::EdgeId e : edges) {
      const graph::Edge& edge = net.graph().edge(e);
      pieces.unite(local_index[edge.u], local_index[edge.v]);
    }

    // Number the pieces in order of first member and tally each piece's
    // private weight and hub count.
    member_piece.resize(members.size());
    piece_of_root.assign(members.size(), kNone);
    local_weight.clear();
    local_hubs.clear();
    for (std::size_t i = 0; i < members.size(); ++i) {
      const std::size_t root = pieces.find(i);
      if (piece_of_root[root] == kNone) {
        piece_of_root[root] = static_cast<std::uint32_t>(local_weight.size());
        local_weight.push_back(0);
        local_hubs.push_back(0);
      }
      const std::uint32_t piece = piece_of_root[root];
      member_piece[i] = piece;
      if (hub_of[members[i]] == kNone) {
        ++local_weight[piece];
      } else {
        ++local_hubs[piece];
      }
    }

    // A piece with no hub is a whole component; every other piece gets a
    // range of hub ids, grouped by a counting sort.
    hub_cursor.resize(local_weight.size());
    for (std::size_t piece = 0; piece < local_weight.size(); ++piece) {
      if (local_hubs[piece] == 0) {
        summary.solo_largest =
            std::max(summary.solo_largest, local_weight[piece]);
        continue;
      }
      const auto hub_begin = static_cast<std::uint32_t>(piece_hubs_.size());
      piece_.push_back({hub_begin, local_weight[piece]});
      hub_cursor[piece] = hub_begin;
      piece_hubs_.resize(hub_begin + local_hubs[piece]);
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      const std::uint32_t hub = hub_of[members[i]];
      if (hub != kNone) piece_hubs_[hub_cursor[member_piece[i]]++] = hub;
    }
  }
  cable_[cables_].lit_hub_begin = static_cast<std::uint32_t>(lit_hubs_.size());
  cable_[cables_].piece_begin = static_cast<std::uint32_t>(piece_.size());
  piece_.push_back({static_cast<std::uint32_t>(piece_hubs_.size()), 0});
}

void IncrementalConnectivity::bucket_by_first_dead(
    std::span<const std::uint32_t> first_dead, std::size_t steps,
    IncrementalScratch& s) const {
  if (first_dead.size() != cables_) {
    throw std::invalid_argument(
        "IncrementalConnectivity: first_dead size mismatches network");
  }
  s.bucket_start.assign(steps + 2, 0);
  for (std::size_t c = 0; c < cables_; ++c) {
    ++s.bucket_start[first_dead[c] + 1];
  }
  for (std::size_t g = 1; g <= steps + 1; ++g) {
    s.bucket_start[g] += s.bucket_start[g - 1];
  }
  s.bucket_cursor.assign(s.bucket_start.begin(), s.bucket_start.end() - 1);
  s.bucket_cables.resize(cables_);
  for (std::size_t c = 0; c < cables_; ++c) {
    s.bucket_cables[s.bucket_cursor[first_dead[c]]++] =
        static_cast<std::uint32_t>(c);
  }
}

}  // namespace solarnet::sim
