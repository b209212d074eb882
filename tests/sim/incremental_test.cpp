#include "sim/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/components.h"
#include "topology/network.h"
#include "util/rng.h"

namespace solarnet::sim {
namespace {

// Same random-network generator as sweep_test: `nodes` random points,
// `cables` random cables with lengths spanning repeaterless (< 150 km)
// through dozens-of-repeaters, including occasional duplicate endpoints
// (parallel cables). With max_segments > 1 a cable gets 1..max_segments
// segments between independently drawn node pairs, so its segments may
// form several disconnected pieces; max_segments == 1 keeps the original
// point-to-point draw sequence.
topo::InfrastructureNetwork random_network(util::Rng& rng, std::size_t nodes,
                                           std::size_t cables,
                                           std::size_t max_segments = 1) {
  topo::InfrastructureNetwork net("random");
  for (std::size_t i = 0; i < nodes; ++i) {
    net.add_node({"n" + std::to_string(i),
                  {rng.uniform(-70.0, 70.0), rng.uniform(-180.0, 180.0)},
                  "",
                  topo::NodeKind::kLandingPoint,
                  true});
  }
  for (std::size_t i = 0; i < cables; ++i) {
    const std::size_t segments =
        max_segments > 1 ? 1 + rng.uniform_below(max_segments) : 1;
    topo::Cable cable;
    cable.name = "c" + std::to_string(i);
    for (std::size_t k = 0; k < segments; ++k) {
      const auto a = static_cast<topo::NodeId>(rng.uniform_below(nodes));
      auto b = static_cast<topo::NodeId>(rng.uniform_below(nodes));
      if (b == a) b = (b + 1) % nodes;
      cable.segments.push_back({a, b, rng.uniform(40.0, 4000.0)});
    }
    net.add_cable(std::move(cable));
  }
  return net;
}

// `count` nodes on a small grid of coordinates, named n0, n1, ...
topo::InfrastructureNetwork grid_nodes(std::size_t count) {
  topo::InfrastructureNetwork net("explicit");
  for (std::size_t i = 0; i < count; ++i) {
    net.add_node({"n" + std::to_string(i),
                  {static_cast<double>(i % 7), static_cast<double>(i / 7)},
                  "",
                  topo::NodeKind::kLandingPoint,
                  true});
  }
  return net;
}

// Adds one cable made of the given (a, b) segments.
void add_cable(topo::InfrastructureNetwork& net,
               std::vector<std::pair<topo::NodeId, topo::NodeId>> segments) {
  topo::Cable cable;
  cable.name = "c" + std::to_string(net.cable_count());
  for (const auto& [a, b] : segments) cable.segments.push_back({a, b, 500.0});
  net.add_cable(std::move(cable));
}

// Naive reference for step g of a first-dead axis: dead set
// {c : first_dead[c] <= g}, aggregates from the one-shot graph kernels.
IncrementalAggregates naive_step(const topo::InfrastructureNetwork& net,
                                 const std::vector<std::uint32_t>& first_dead,
                                 std::size_t g) {
  util::Bitset dead(net.cable_count());
  IncrementalAggregates agg;
  for (std::size_t c = 0; c < net.cable_count(); ++c) {
    dead.set(c, first_dead[c] <= g);
    if (!dead[c]) ++agg.alive_cables;
  }
  agg.lit_nodes =
      net.connected_node_count() - net.unreachable_nodes(dead).size();
  const auto components =
      graph::connected_components(net.graph(), net.mask_for_failures(dead));
  // The walk's union-find spans all graph nodes, so isolated vertices are
  // singleton components and the largest is floored at 1 on non-empty
  // graphs. mask_for_failures keeps every vertex alive, so the masked
  // decomposition agrees — the max() documents the convention.
  agg.largest = std::max<std::size_t>(components.largest_component_size(),
                                      net.node_count() > 0 ? 1 : 0);
  return agg;
}

TEST(IncrementalTest, CountsMatchNetwork) {
  util::Rng rng(11);
  const auto net = random_network(rng, 9, 14);
  const IncrementalConnectivity inc(net);
  EXPECT_EQ(inc.cable_count(), net.cable_count());
  EXPECT_EQ(inc.node_count(), net.node_count());
  EXPECT_EQ(inc.connected_node_count(), net.connected_node_count());
}

TEST(IncrementalTest, BucketRejectsSizeMismatch) {
  util::Rng rng(12);
  const auto net = random_network(rng, 6, 8);
  const IncrementalConnectivity inc(net);
  IncrementalScratch scratch;
  const std::vector<std::uint32_t> wrong(net.cable_count() + 1, 0);
  EXPECT_THROW(inc.bucket_by_first_dead(wrong, 4, scratch),
               std::invalid_argument);
  const std::vector<std::uint32_t> empty;
  EXPECT_THROW(inc.bucket_by_first_dead(empty, 4, scratch),
               std::invalid_argument);
}

TEST(IncrementalTest, BucketGroupsByFirstDeadInAscendingCableOrder) {
  util::Rng rng(13);
  const auto net = random_network(rng, 10, 25);
  const IncrementalConnectivity inc(net);
  const std::size_t steps = 5;
  std::vector<std::uint32_t> first_dead(net.cable_count());
  for (auto& v : first_dead) {
    v = static_cast<std::uint32_t>(rng.uniform_below(steps + 1));
  }
  IncrementalScratch s;
  inc.bucket_by_first_dead(first_dead, steps, s);

  ASSERT_EQ(s.bucket_start.size(), steps + 2);
  EXPECT_EQ(s.bucket_start.front(), 0u);
  EXPECT_EQ(s.bucket_start.back(), net.cable_count());
  ASSERT_EQ(s.bucket_cables.size(), net.cable_count());
  for (std::size_t bucket = 0; bucket <= steps; ++bucket) {
    for (std::uint32_t i = s.bucket_start[bucket];
         i < s.bucket_start[bucket + 1]; ++i) {
      const std::uint32_t c = s.bucket_cables[i];
      // Membership: every cable sits in the bucket of its first-dead step.
      EXPECT_EQ(first_dead[c], bucket);
      // Ascending cable order inside the bucket — the activation (and
      // therefore union-find merge) order is a pure function of the axis.
      if (i > s.bucket_start[bucket]) {
        EXPECT_LT(s.bucket_cables[i - 1], c);
      }
    }
  }
}

TEST(IncrementalTest, WalkWithZeroStepsNeverInvokesCallback) {
  util::Rng rng(14);
  const auto net = random_network(rng, 6, 8);
  const IncrementalConnectivity inc(net);
  IncrementalScratch s;
  const std::vector<std::uint32_t> first_dead(net.cable_count(), 0);
  inc.bucket_by_first_dead(first_dead, 0, s);
  std::size_t calls = 0;
  inc.walk(0, s, [&](std::size_t, const IncrementalAggregates&) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

TEST(IncrementalTest, OneStepAllAliveReproducesFullNetwork) {
  util::Rng rng(15);
  const auto net = random_network(rng, 12, 20);
  const IncrementalConnectivity inc(net);
  IncrementalScratch s;
  // Every cable in the always-alive bucket: step 0 sees the whole network.
  const std::vector<std::uint32_t> alive(net.cable_count(), 1);
  inc.bucket_by_first_dead(alive, 1, s);
  std::size_t calls = 0;
  inc.walk(1, s, [&](std::size_t g, const IncrementalAggregates& agg) {
    ++calls;
    EXPECT_EQ(g, 0u);
    EXPECT_EQ(agg.alive_cables, net.cable_count());
    EXPECT_EQ(agg.lit_nodes, net.connected_node_count());
    const auto full = graph::connected_components(net.graph());
    EXPECT_EQ(agg.largest, full.largest_component_size());
  });
  EXPECT_EQ(calls, 1u);
}

// The core property: for random networks and random monotone axes, the
// resurrection walk reports, at every step g, exactly the aggregates of the
// alive set {c : first_dead[c] > g} — checked against per-step full
// recomputation through the one-shot graph kernels.
TEST(IncrementalTest, WalkMatchesNaivePerStepRecompute) {
  util::Rng rng(2024);
  for (int round = 0; round < 8; ++round) {
    const std::size_t nodes = 4 + rng.uniform_below(20);
    const std::size_t cables = 3 + rng.uniform_below(40);
    const auto net = random_network(rng, nodes, cables);
    const IncrementalConnectivity inc(net);
    const std::size_t steps = 1 + rng.uniform_below(12);
    std::vector<std::uint32_t> first_dead(net.cable_count());
    for (auto& v : first_dead) {
      v = static_cast<std::uint32_t>(rng.uniform_below(steps + 1));
    }
    IncrementalScratch s;
    inc.bucket_by_first_dead(first_dead, steps, s);
    std::vector<IncrementalAggregates> walked(steps);
    std::size_t calls = 0;
    inc.walk(steps, s, [&](std::size_t g, const IncrementalAggregates& agg) {
      walked[g] = agg;
      ++calls;
    });
    ASSERT_EQ(calls, steps);
    for (std::size_t g = 0; g < steps; ++g) {
      const IncrementalAggregates expected = naive_step(net, first_dead, g);
      EXPECT_EQ(walked[g].alive_cables, expected.alive_cables)
          << "round " << round << " step " << g;
      EXPECT_EQ(walked[g].lit_nodes, expected.lit_nodes)
          << "round " << round << " step " << g;
      EXPECT_EQ(walked[g].largest, expected.largest)
          << "round " << round << " step " << g;
    }
  }
}

// Re-using one scratch across axes of different widths must not leak state
// between walks — the engines keep one warm scratch per worker.
TEST(IncrementalTest, ScratchReuseAcrossAxesIsClean) {
  util::Rng rng(77);
  const auto net = random_network(rng, 10, 18);
  const IncrementalConnectivity inc(net);
  IncrementalScratch s;
  for (int round = 0; round < 6; ++round) {
    const std::size_t steps = 1 + rng.uniform_below(9);
    std::vector<std::uint32_t> first_dead(net.cable_count());
    for (auto& v : first_dead) {
      v = static_cast<std::uint32_t>(rng.uniform_below(steps + 1));
    }
    inc.bucket_by_first_dead(first_dead, steps, s);
    inc.walk(steps, s, [&](std::size_t g, const IncrementalAggregates& agg) {
      const IncrementalAggregates expected = naive_step(net, first_dead, g);
      EXPECT_EQ(agg.alive_cables, expected.alive_cables);
      EXPECT_EQ(agg.lit_nodes, expected.lit_nodes);
      EXPECT_EQ(agg.largest, expected.largest);
    });
  }
}

// Walks `rounds` random axes over `net` (including the all-alive and
// all-dead extremes) and checks every step against naive_step.
void expect_walk_matches_naive(const topo::InfrastructureNetwork& net,
                               util::Rng& rng, int rounds) {
  const IncrementalConnectivity inc(net);
  IncrementalScratch s;
  for (int round = 0; round < rounds; ++round) {
    const std::size_t steps = 1 + rng.uniform_below(8);
    std::vector<std::uint32_t> first_dead(net.cable_count());
    for (auto& v : first_dead) {
      v = round == 0   ? static_cast<std::uint32_t>(steps)
          : round == 1 ? 0u
                       : static_cast<std::uint32_t>(
                             rng.uniform_below(steps + 1));
    }
    inc.bucket_by_first_dead(first_dead, steps, s);
    std::size_t calls = 0;
    inc.walk(steps, s, [&](std::size_t g, const IncrementalAggregates& agg) {
      ++calls;
      const IncrementalAggregates expected = naive_step(net, first_dead, g);
      EXPECT_EQ(agg.alive_cables, expected.alive_cables)
          << "round " << round << " step " << g;
      EXPECT_EQ(agg.lit_nodes, expected.lit_nodes)
          << "round " << round << " step " << g;
      EXPECT_EQ(agg.largest, expected.largest)
          << "round " << round << " step " << g;
    });
    EXPECT_EQ(calls, steps);
  }
}

// Multi-segment cables: pieces, hubs reached only through some segments,
// and landing points shared by several segments of one cable.
TEST(IncrementalTest, WalkMatchesNaiveOnMultiSegmentNetworks) {
  util::Rng rng(4242);
  for (int net_round = 0; net_round < 12; ++net_round) {
    const std::size_t nodes = 4 + rng.uniform_below(30);
    const std::size_t cables = 1 + rng.uniform_below(30);
    const auto net = random_network(rng, nodes, cables, 4);
    expect_walk_matches_naive(net, rng, 12);
  }
}

// Cable 0's two segments 0-1 and 2-3 share no node: alive, it makes two
// components of two, never one of four.
TEST(IncrementalTest, CableWithTwoDisconnectedPieces) {
  auto net = grid_nodes(6);
  add_cable(net, {{0, 1}, {2, 3}});
  add_cable(net, {{1, 4}});
  add_cable(net, {{3, 5}});
  add_cable(net, {{4, 5}});
  const IncrementalConnectivity inc(net);
  EXPECT_EQ(inc.hub_count(), 4u);  // nodes 1, 3, 4, 5

  IncrementalScratch s;
  const std::vector<std::uint32_t> only_split_cable = {1, 0, 0, 0};
  inc.bucket_by_first_dead(only_split_cable, 1, s);
  inc.walk(1, s, [&](std::size_t, const IncrementalAggregates& agg) {
    EXPECT_EQ(agg.alive_cables, 1u);
    EXPECT_EQ(agg.lit_nodes, 4u);
    EXPECT_EQ(agg.largest, 2u);
  });
  util::Rng rng(5);
  expect_walk_matches_naive(net, rng, 40);
}

// A six-node chain cable touches no hub: it is a component on its own, and
// the largest one whenever it is alive.
TEST(IncrementalTest, HublessCableIsTheLargestComponent) {
  auto net = grid_nodes(9);
  add_cable(net, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  add_cable(net, {{6, 7}});
  add_cable(net, {{7, 8}});
  const IncrementalConnectivity inc(net);
  EXPECT_EQ(inc.hub_count(), 1u);  // node 7

  IncrementalScratch s;
  const std::vector<std::uint32_t> first_dead = {1, 1, 1};
  inc.bucket_by_first_dead(first_dead, 1, s);
  inc.walk(1, s, [&](std::size_t, const IncrementalAggregates& agg) {
    EXPECT_EQ(agg.lit_nodes, 9u);
    EXPECT_EQ(agg.largest, 6u);
  });
  util::Rng rng(6);
  expect_walk_matches_naive(net, rng, 40);
}

// Nodes on no cable are singleton components and never lit; with no cable
// alive the largest component is the singleton floor.
TEST(IncrementalTest, NodesOnNoCable) {
  auto net = grid_nodes(5);
  add_cable(net, {{0, 1}});
  add_cable(net, {{1, 2}});
  const IncrementalConnectivity inc(net);
  EXPECT_EQ(inc.connected_node_count(), 3u);
  util::Rng rng(7);
  expect_walk_matches_naive(net, rng, 30);

  // No cables at all: every step reports the floor.
  const auto bare = grid_nodes(3);
  const IncrementalConnectivity bare_inc(bare);
  EXPECT_EQ(bare_inc.hub_count(), 0u);
  IncrementalScratch s;
  bare_inc.bucket_by_first_dead({}, 2, s);
  std::size_t calls = 0;
  bare_inc.walk(2, s, [&](std::size_t, const IncrementalAggregates& agg) {
    ++calls;
    EXPECT_EQ(agg.alive_cables, 0u);
    EXPECT_EQ(agg.lit_nodes, 0u);
    EXPECT_EQ(agg.largest, 1u);
  });
  EXPECT_EQ(calls, 2u);
}

// add_cable rejects a cable with no segments, so a cable with zero edges
// cannot exist; the nearest the network admits is a self-loop segment,
// one edge that joins nothing. Alive, such a cable lights its one landing
// point and leaves it a singleton (or a hub in someone else's component).
TEST(IncrementalTest, SelfLoopCableJoinsNothing) {
  auto net = grid_nodes(4);
  topo::Cable empty;
  empty.name = "empty";
  EXPECT_THROW(net.add_cable(std::move(empty)), std::invalid_argument);

  add_cable(net, {{2, 2}});  // private self-loop
  add_cable(net, {{0, 0}});  // self-loop on a hub
  add_cable(net, {{0, 1}});
  const IncrementalConnectivity inc(net);
  EXPECT_EQ(inc.hub_count(), 1u);  // node 0

  IncrementalScratch s;
  const std::vector<std::uint32_t> loops_only = {1, 1, 0};
  inc.bucket_by_first_dead(loops_only, 1, s);
  inc.walk(1, s, [&](std::size_t, const IncrementalAggregates& agg) {
    EXPECT_EQ(agg.lit_nodes, 2u);
    EXPECT_EQ(agg.largest, 1u);
  });
  util::Rng rng(8);
  expect_walk_matches_naive(net, rng, 40);
}

// Three parallel cables between hubs 0 and 1, one of them with an extra
// private landing point: any one alive joins the two hubs.
TEST(IncrementalTest, ParallelCablesBetweenTwoHubs) {
  auto net = grid_nodes(4);
  add_cable(net, {{0, 1}});
  add_cable(net, {{0, 1}});
  add_cable(net, {{0, 2}, {2, 1}});
  add_cable(net, {{1, 3}});
  const IncrementalConnectivity inc(net);
  EXPECT_EQ(inc.hub_count(), 2u);  // nodes 0, 1
  util::Rng rng(9);
  expect_walk_matches_naive(net, rng, 60);
}

// A ring with chords and one two-segment cable: every node is a hub, so
// the contraction keeps the whole network.
TEST(IncrementalTest, EveryNodeIsAHub) {
  constexpr std::size_t kNodes = 8;
  auto net = grid_nodes(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    add_cable(net, {{static_cast<topo::NodeId>(i),
                     static_cast<topo::NodeId>((i + 1) % kNodes)}});
  }
  add_cable(net, {{0, 4}});
  add_cable(net, {{1, 3}, {3, 6}});
  const IncrementalConnectivity inc(net);
  EXPECT_EQ(inc.hub_count(), kNodes);
  util::Rng rng(10);
  expect_walk_matches_naive(net, rng, 60);
}

}  // namespace
}  // namespace solarnet::sim
