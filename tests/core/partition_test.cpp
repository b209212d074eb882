#include "core/partition.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "geo/regions.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace solarnet::core {
namespace {

// Independent brute-force reference for the closed-form pairwise counts:
// hand-rolled union-find over alive cable segments, then an O(n^2) pair
// scan. Only used on small test networks.
struct BruteForce {
  std::vector<bool> surviving;          // cable-bearing, >=1 alive cable
  std::vector<std::size_t> root;        // union-find roots over alive cables
  std::size_t surviving_count = 0;
  std::size_t disconnected_pairs = 0;

  BruteForce(const topo::InfrastructureNetwork& net,
             const util::Bitset& cable_dead) {
    const std::size_t n = net.node_count();
    root.resize(n);
    for (std::size_t i = 0; i < n; ++i) root[i] = i;
    for (topo::CableId c = 0; c < net.cable_count(); ++c) {
      if (cable_dead[c]) continue;
      for (const topo::CableSegment& seg : net.cable(c).segments) {
        unite(seg.a, seg.b);
      }
    }
    surviving.assign(n, false);
    for (topo::NodeId v = 0; v < n; ++v) {
      bool any_alive = false;
      for (topo::CableId c : net.cables_at(v)) {
        if (!cable_dead[c]) any_alive = true;
      }
      if (!any_alive) continue;
      surviving[v] = true;
      ++surviving_count;
    }
    for (topo::NodeId a = 0; a < n; ++a) {
      if (!surviving[a]) continue;
      for (topo::NodeId b = a + 1; b < n; ++b) {
        if (surviving[b] && find(a) != find(b)) ++disconnected_pairs;
      }
    }
  }

  std::size_t find(std::size_t v) {
    while (root[v] != v) v = root[v] = root[root[v]];
    return v;
  }
  void unite(std::size_t a, std::size_t b) { root[find(a)] = find(b); }
};

// NY (NA) -- Bude (EU) -- Lisbon (EU) -- Fortaleza (SA) with three cables.
class PartitionTest : public ::testing::Test {
 protected:
  PartitionTest() : net_("p") {
    ny_ = net_.add_node(
        {"NY", {40.7, -74.0}, "US", topo::NodeKind::kLandingPoint, true});
    bude_ = net_.add_node(
        {"Bude", {50.8, -4.5}, "GB", topo::NodeKind::kLandingPoint, true});
    lisbon_ = net_.add_node(
        {"Lisbon", {38.7, -9.1}, "PT", topo::NodeKind::kLandingPoint, true});
    fortaleza_ = net_.add_node({"Fortaleza",
                                {-3.7, -38.5},
                                "BR",
                                topo::NodeKind::kLandingPoint,
                                true});
    atlantic_ = add_cable("atlantic", ny_, bude_);
    europe_ = add_cable("europe", bude_, lisbon_);
    south_ = add_cable("south", lisbon_, fortaleza_);
  }

  topo::CableId add_cable(const char* name, topo::NodeId a, topo::NodeId b) {
    topo::Cable c;
    c.name = name;
    c.segments = {{a, b, 5000.0}};
    return net_.add_cable(std::move(c));
  }

  topo::InfrastructureNetwork net_;
  topo::NodeId ny_{}, bude_{}, lisbon_{}, fortaleza_{};
  topo::CableId atlantic_{}, europe_{}, south_{};
};

TEST_F(PartitionTest, NoFailuresIsFullyConnected) {
  const PartitionReport r =
      analyze_partition(net_, util::Bitset(3));
  EXPECT_EQ(r.components, 1u);
  EXPECT_EQ(r.isolated_nodes, 0u);
  EXPECT_DOUBLE_EQ(r.largest_component_share, 1.0);
  EXPECT_TRUE(r.continents_linked(geo::Continent::kNorthAmerica,
                                  geo::Continent::kEurope));
  EXPECT_TRUE(r.continents_linked(geo::Continent::kNorthAmerica,
                                  geo::Continent::kSouthAmerica));
}

TEST_F(PartitionTest, AtlanticCutSplitsNorthAmerica) {
  util::Bitset dead(3);
  dead.set(atlantic_);
  const PartitionReport r = analyze_partition(net_, dead);
  // NY lost its only cable -> isolated; the rest stay connected.
  EXPECT_EQ(r.isolated_nodes, 1u);
  EXPECT_EQ(r.components, 1u);
  EXPECT_FALSE(r.continents_linked(geo::Continent::kNorthAmerica,
                                   geo::Continent::kEurope));
  EXPECT_TRUE(r.continents_linked(geo::Continent::kEurope,
                                  geo::Continent::kSouthAmerica));
}

TEST_F(PartitionTest, MiddleCutCreatesTwoComponents) {
  util::Bitset dead(3);
  dead.set(europe_);
  const PartitionReport r = analyze_partition(net_, dead);
  EXPECT_EQ(r.components, 2u);
  EXPECT_EQ(r.isolated_nodes, 0u);
  EXPECT_DOUBLE_EQ(r.largest_component_share, 0.5);
  EXPECT_TRUE(r.continents_linked(geo::Continent::kNorthAmerica,
                                  geo::Continent::kEurope));
  EXPECT_FALSE(r.continents_linked(geo::Continent::kNorthAmerica,
                                   geo::Continent::kSouthAmerica));
  // Lisbon (EU) and Fortaleza (SA) remain linked.
  EXPECT_TRUE(r.continents_linked(geo::Continent::kEurope,
                                  geo::Continent::kSouthAmerica));
}

TEST_F(PartitionTest, TotalCollapse) {
  const PartitionReport r =
      analyze_partition(net_, util::Bitset(3, true));
  EXPECT_EQ(r.components, 0u);
  EXPECT_EQ(r.isolated_nodes, 4u);
  EXPECT_DOUBLE_EQ(r.largest_component_share, 0.0);
  EXPECT_FALSE(r.continents_linked(geo::Continent::kEurope,
                                   geo::Continent::kEurope));
}

TEST_F(PartitionTest, RenderContainsMatrix) {
  const PartitionReport r =
      analyze_partition(net_, util::Bitset(3));
  const std::string text = render_partition(r);
  EXPECT_NE(text.find("components: 1"), std::string::npos);
  EXPECT_NE(text.find("North"), std::string::npos);
}

TEST_F(PartitionTest, DisconnectedPairsOnFixture) {
  // Intact line: 4 surviving nodes, all connected.
  const PartitionReport intact =
      analyze_partition(net_, util::Bitset(3));
  EXPECT_EQ(intact.surviving_nodes, 4u);
  EXPECT_EQ(intact.disconnected_pairs, 0u);

  // Middle cut: {NY, Bude} vs {Lisbon, Fortaleza} -> 2*2 severed pairs.
  util::Bitset dead(3);
  dead.set(europe_);
  const PartitionReport split = analyze_partition(net_, dead);
  EXPECT_EQ(split.surviving_nodes, 4u);
  EXPECT_EQ(split.disconnected_pairs, 4u);

  // Atlantic cut: NY drops out entirely; the surviving trio stays whole.
  dead.assign(3, false);
  dead.set(atlantic_);
  const PartitionReport spur = analyze_partition(net_, dead);
  EXPECT_EQ(spur.surviving_nodes, 3u);
  EXPECT_EQ(spur.disconnected_pairs, 0u);

  const PartitionReport collapse =
      analyze_partition(net_, util::Bitset(3, true));
  EXPECT_EQ(collapse.surviving_nodes, 0u);
  EXPECT_EQ(collapse.disconnected_pairs, 0u);
}

TEST_F(PartitionTest, RenderMentionsDisconnectedPairs) {
  util::Bitset dead(3);
  dead.set(europe_);
  const std::string text = render_partition(analyze_partition(net_, dead));
  EXPECT_NE(text.find("disconnected pairs: 4"), std::string::npos);
}

// The closed-form (S^2 - sum n_i^2) / 2 count and the bitmask continent
// matrix must agree with a brute-force O(n^2) scan on random networks.
TEST(PartitionProperty, ClosedFormMatchesBruteForce) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    util::Rng rng(seed);
    const std::size_t nodes = 10 + rng.uniform_below(25);
    const std::size_t cables = 8 + rng.uniform_below(40);
    topo::InfrastructureNetwork net("brute");
    for (std::size_t i = 0; i < nodes; ++i) {
      net.add_node({"n" + std::to_string(i),
                    {rng.uniform(-70.0, 70.0), rng.uniform(-180.0, 180.0)},
                    "",
                    topo::NodeKind::kLandingPoint,
                    true});
    }
    for (std::size_t i = 0; i < cables; ++i) {
      const auto a = static_cast<topo::NodeId>(rng.uniform_below(nodes));
      auto b = static_cast<topo::NodeId>(rng.uniform_below(nodes));
      if (b == a) b = (b + 1) % nodes;
      topo::Cable cable;
      cable.name = "c" + std::to_string(i);
      cable.segments = {{a, b, rng.uniform(40.0, 4000.0)}};
      net.add_cable(std::move(cable));
    }
    for (int trial = 0; trial < 20; ++trial) {
      util::Bitset dead(net.cable_count());
      for (std::size_t c = 0; c < dead.size(); ++c) {
        dead.set(c, rng.bernoulli(0.4));
      }
      const PartitionReport report = analyze_partition(net, dead);
      BruteForce brute(net, dead);
      EXPECT_EQ(report.surviving_nodes, brute.surviving_count);
      EXPECT_EQ(report.disconnected_pairs, brute.disconnected_pairs);

      // Continent matrix via the old quadratic definition: continents a, b
      // are linked iff some surviving pair (one node on each) shares a
      // component (diagonal: any surviving node links its own continent).
      decltype(report.continent_connected) expected{};
      for (topo::NodeId x = 0; x < net.node_count(); ++x) {
        if (!brute.surviving[x]) continue;
        const auto cx =
            static_cast<std::size_t>(geo::continent_at(net.node(x).location));
        expected[cx][cx] = true;
        for (topo::NodeId y = 0; y < net.node_count(); ++y) {
          if (!brute.surviving[y] || brute.find(x) != brute.find(y)) continue;
          const auto cy =
              static_cast<std::size_t>(geo::continent_at(net.node(y).location));
          expected[cx][cy] = true;
        }
      }
      EXPECT_EQ(report.continent_connected, expected);
    }
  }
}

TEST_F(PartitionTest, SameContinentDiagonal) {
  util::Bitset dead(3);
  const PartitionReport r = analyze_partition(net_, dead);
  EXPECT_TRUE(
      r.continents_linked(geo::Continent::kEurope, geo::Continent::kEurope));
}

}  // namespace
}  // namespace solarnet::core
