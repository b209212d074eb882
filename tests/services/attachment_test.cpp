// Oracle tests for topo::AttachmentIndex, the lookup every service replica,
// continent anchor and DNS root instance attaches through: the index must
// pick exactly the node a scan of every node picks.
#include <gtest/gtest.h>

#include <cmath>
#include <latch>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "datasets/datacenters.h"
#include "datasets/infra_points.h"
#include "datasets/submarine.h"
#include "geo/distance.h"
#include "topology/network.h"
#include "util/rng.h"

namespace solarnet::services {
namespace {

// The reference rule as one pass over every node in id order: within the
// radius the highest cable degree wins (nearest, then first, on ties);
// with no node in range, the nearest (first on ties). `in_range` reports
// which branch decided.
topo::NodeId reference_attach(const topo::InfrastructureNetwork& net,
                              const geo::GeoPoint& p,
                              bool* in_range = nullptr) {
  constexpr double kAttachmentRadiusKm = 1500.0;
  topo::NodeId best_in_range = topo::kInvalidNode;
  std::size_t best_degree = 0;
  double best_in_range_d = std::numeric_limits<double>::infinity();
  topo::NodeId nearest = topo::kInvalidNode;
  double nearest_d = std::numeric_limits<double>::infinity();
  for (topo::NodeId n = 0; n < net.node_count(); ++n) {
    const std::size_t degree = net.cables_at(n).size();
    if (degree == 0) continue;
    const double d = geo::haversine_km(p, net.node(n).location);
    if (d < nearest_d) {
      nearest_d = d;
      nearest = n;
    }
    if (d <= kAttachmentRadiusKm &&
        (degree > best_degree ||
         (degree == best_degree && d < best_in_range_d))) {
      best_degree = degree;
      best_in_range_d = d;
      best_in_range = n;
    }
  }
  if (in_range != nullptr) *in_range = best_in_range != topo::kInvalidNode;
  return best_in_range != topo::kInvalidNode ? best_in_range : nearest;
}

bool out_of_range(const topo::InfrastructureNetwork& net,
                  const geo::GeoPoint& p) {
  bool in_range = false;
  reference_attach(net, p, &in_range);
  return !in_range;
}

const topo::InfrastructureNetwork& submarine() {
  static const topo::InfrastructureNetwork net =
      datasets::make_submarine_network({});
  return net;
}

// Seeded uniform points on the sphere plus the edge cases of the bounding
// box: the poles and their neighbourhood, lon = +-180 and the antimeridian
// seam.
std::vector<geo::GeoPoint> probe_points(std::uint64_t seed,
                                        std::size_t random_count) {
  std::vector<geo::GeoPoint> points;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < random_count; ++i) {
    const double lat =
        geo::rad_to_deg(std::asin(rng.uniform(-1.0, 1.0)));
    points.push_back({lat, rng.uniform(-180.0, 180.0)});
  }
  for (const double lat : {90.0, 89.99, 89.95, 89.9, -89.9, -89.95, -89.99,
                           -90.0}) {
    for (double lon = -180.0; lon <= 180.0; lon += 22.5) {
      points.push_back({lat, lon});
    }
  }
  for (double lat = -89.0; lat <= 89.0; lat += 0.5) {
    for (const double lon : {-180.0, -179.999, -179.9, 179.9, 179.999, 180.0,
                             0.0}) {
      points.push_back({lat, lon});
    }
  }
  return points;
}

TEST(AttachmentIndex, MatchesScanOnEveryServiceQuery) {
  const topo::InfrastructureNetwork& net = submarine();
  std::vector<geo::GeoPoint> queries;
  for (const datasets::DnsRootInstance& r : datasets::make_dns_dataset({})) {
    queries.push_back(r.location);
  }
  for (const auto op : {datasets::DataCenterOperator::kGoogle,
                        datasets::DataCenterOperator::kFacebook}) {
    for (const datasets::DataCenter& d : datasets::datacenters_of(op)) {
      queries.push_back(d.location);
    }
  }
  // The six continent client anchors of services/availability.cpp.
  for (const geo::GeoPoint& anchor :
       {geo::GeoPoint{40.7, -74.0}, geo::GeoPoint{-23.5, -46.6},
        geo::GeoPoint{50.1, 8.7}, geo::GeoPoint{6.5, 3.4},
        geo::GeoPoint{1.35, 103.8}, geo::GeoPoint{-33.9, 151.2}}) {
    queries.push_back(anchor);
  }
  ASSERT_GT(queries.size(), 1000u);
  const topo::AttachmentIndex& index = net.attachment_index();
  for (const geo::GeoPoint& q : queries) {
    ASSERT_EQ(index.attach(q), reference_attach(net, q)) << geo::to_string(q);
  }
}

TEST(AttachmentIndex, MatchesScanOnRandomAndEdgePoints) {
  const topo::InfrastructureNetwork& net = submarine();
  const topo::AttachmentIndex& index = net.attachment_index();
  const std::vector<geo::GeoPoint> points = probe_points(20210823, 20000);
  ASSERT_GE(points.size(), 20000u);
  std::size_t fallbacks = 0;
  for (const geo::GeoPoint& p : points) {
    bool in_range = false;
    ASSERT_EQ(index.attach(p), reference_attach(net, p, &in_range))
        << geo::to_string(p);
    if (!in_range) ++fallbacks;
  }
  // Both the in-range and the no-node-in-range branch were exercised.
  EXPECT_GT(fallbacks, 100u);
  EXPECT_LT(fallbacks, points.size());
}

TEST(AttachmentIndex, NonFiniteAndUnnormalizedPointsMatchScan) {
  const topo::InfrastructureNetwork& net = submarine();
  const topo::AttachmentIndex& index = net.attachment_index();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const geo::GeoPoint& p :
       {geo::GeoPoint{nan, 0.0}, geo::GeoPoint{0.0, nan},
        geo::GeoPoint{inf, 10.0}, geo::GeoPoint{91.0, 0.0},
        geo::GeoPoint{51.5, 359.9}, geo::GeoPoint{51.5, -540.0},
        geo::GeoPoint{-33.9, 511.2}}) {
    EXPECT_EQ(index.attach(p), reference_attach(net, p)) << geo::to_string(p);
  }
}

// Service evaluators built on several threads race to the network's first
// attachment_index() call: one index is built and shared.
TEST(AttachmentIndex, ConcurrentFirstUseSharesOneIndex) {
  const topo::InfrastructureNetwork net = datasets::make_submarine_network({});
  constexpr std::size_t kThreads = 8;
  const geo::GeoPoint q{50.1, 8.7};
  std::vector<const topo::AttachmentIndex*> seen(kThreads, nullptr);
  std::vector<topo::NodeId> attached(kThreads, topo::kInvalidNode);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[t] = &net.attachment_index();
      attached[t] = seen[t]->attach(q);
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], &net.attachment_index());
    EXPECT_EQ(attached[t], reference_attach(net, q));
  }
}

// Hand-built ties. Node ids follow insertion order.
class AttachmentTies : public ::testing::Test {
 protected:
  AttachmentTies() : net_("ties") {}
  topo::NodeId add_node(const char* name, geo::GeoPoint p) {
    return net_.add_node({name, p, "", topo::NodeKind::kLandingPoint, true});
  }
  void add_cable(topo::NodeId a, topo::NodeId b) {
    topo::Cable c;
    c.name = "c" + std::to_string(net_.cable_count());
    c.segments = {{a, b, 0.0}};
    net_.add_cable(std::move(c));
  }
  topo::InfrastructureNetwork net_;
};

TEST_F(AttachmentTies, EqualDegreeEqualDistancePicksLowerId) {
  const topo::NodeId hub = add_node("hub", {60.0, 100.0});
  // Mirror images about the query's meridian, which is a cell edge: the
  // lower id sits in the higher cell, so cell order cannot fake the rule.
  const topo::NodeId east = add_node("east", {2.5, 6.0});
  const topo::NodeId west = add_node("west", {2.5, 4.0});
  // Dark node right at the query: no cable, never attached.
  const topo::NodeId dark = add_node("dark", {2.5, 5.0});
  add_cable(hub, east);
  add_cable(hub, west);
  const geo::GeoPoint q{2.5, 5.0};
  ASSERT_EQ(geo::haversine_km(q, net_.node(east).location),
            geo::haversine_km(q, net_.node(west).location));
  EXPECT_EQ(net_.attachment_index().attach(q), east);
  EXPECT_EQ(reference_attach(net_, q), east);

  // Connecting the dark node invalidates the cached index: at distance 0
  // with the same degree it now wins.
  add_cable(hub, dark);
  EXPECT_EQ(net_.attachment_index().attach(q), dark);
  EXPECT_EQ(reference_attach(net_, q), dark);
}

TEST_F(AttachmentTies, HigherDegreeInRangeBeatsNearer) {
  const topo::NodeId near = add_node("near", {10.0, 10.1});
  const topo::NodeId busy = add_node("busy", {18.0, 10.0});  // ~890 km
  const topo::NodeId a = add_node("a", {40.0, 40.0});
  const topo::NodeId b = add_node("b", {-40.0, 40.0});
  add_cable(near, a);
  add_cable(busy, a);
  add_cable(busy, b);
  const geo::GeoPoint q{10.0, 10.0};
  EXPECT_EQ(net_.attachment_index().attach(q), busy);
  EXPECT_EQ(reference_attach(net_, q), busy);
}

TEST_F(AttachmentTies, OutOfRangeTiePicksLowerId) {
  // Equidistant (~1,900 km), both out of range; the lower id comes later in
  // cell order.
  const topo::NodeId east = add_node("east", {30.0, 50.0});
  const topo::NodeId west = add_node("west", {30.0, 10.0});
  add_cable(west, east);
  const geo::GeoPoint q{30.0, 30.0};
  ASSERT_EQ(geo::haversine_km(q, net_.node(west).location),
            geo::haversine_km(q, net_.node(east).location));
  ASSERT_TRUE(out_of_range(net_, q));
  EXPECT_EQ(net_.attachment_index().attach(q), east);
  EXPECT_EQ(reference_attach(net_, q), east);
}

TEST_F(AttachmentTies, CapAcrossTheAntimeridianReachesTheFarSide) {
  // Each query's winner sits on the other side of lon = +-180.
  const topo::NodeId west_hub = add_node("west_hub", {-17.0, -179.0});
  const topo::NodeId east_hub = add_node("east_hub", {17.0, 179.0});
  const topo::NodeId west_leaf = add_node("west_leaf", {-17.5, 177.0});
  const topo::NodeId east_leaf = add_node("east_leaf", {17.5, -177.0});
  const topo::NodeId far = add_node("far", {0.0, 0.0});
  add_cable(west_hub, far);
  add_cable(west_hub, west_leaf);
  add_cable(east_hub, far);
  add_cable(east_hub, east_leaf);
  for (const auto& [q, want] :
       {std::pair{geo::GeoPoint{-17.5, 177.5}, west_hub},
        std::pair{geo::GeoPoint{-17.0, 180.0}, west_hub},
        std::pair{geo::GeoPoint{17.5, -177.5}, east_hub},
        std::pair{geo::GeoPoint{17.0, -180.0}, east_hub}}) {
    EXPECT_EQ(net_.attachment_index().attach(q), want) << geo::to_string(q);
    EXPECT_EQ(reference_attach(net_, q), want) << geo::to_string(q);
  }
}

TEST_F(AttachmentTies, CapOverThePoleReachesTheFarSide) {
  const topo::NodeId arctic = add_node("arctic", {88.0, 100.0});
  const topo::NodeId south = add_node("south", {10.0, -80.0});
  add_cable(arctic, south);
  const geo::GeoPoint q{89.5, -80.0};  // ~280 km over the pole
  EXPECT_EQ(net_.attachment_index().attach(q), arctic);
  EXPECT_EQ(reference_attach(net_, q), arctic);
}

TEST_F(AttachmentTies, MatchesScanOnRandomPoints) {
  util::Rng rng(7);
  std::vector<topo::NodeId> ids;
  for (int i = 0; i < 60; ++i) {
    const std::string name = "n" + std::to_string(i);
    // Coarse coordinates make exact distance ties likely.
    ids.push_back(add_node(name.c_str(),
                           {static_cast<double>(rng.uniform_int(-80, 80)),
                            static_cast<double>(rng.uniform_int(-179, 179))}));
  }
  // The last ten nodes stay without cables.
  for (int i = 0; i < 90; ++i) {
    const std::uint64_t a = rng.uniform_below(ids.size() - 10);
    const std::uint64_t b = (a + 1 + rng.uniform_below(ids.size() - 11)) %
                            (ids.size() - 10);
    add_cable(ids[a], ids[b]);
  }
  const topo::AttachmentIndex& index = net_.attachment_index();
  for (const geo::GeoPoint& p : probe_points(99, 4000)) {
    ASSERT_EQ(index.attach(p), reference_attach(net_, p)) << geo::to_string(p);
  }
  for (int lat = -80; lat <= 80; lat += 4) {
    for (int lon = -180; lon <= 180; lon += 4) {
      const geo::GeoPoint p{static_cast<double>(lat), static_cast<double>(lon)};
      ASSERT_EQ(index.attach(p), reference_attach(net_, p))
          << geo::to_string(p);
    }
  }
}

TEST_F(AttachmentTies, NoCabledNodeAttachesNowhere) {
  add_node("alone", {0.0, 0.0});
  EXPECT_EQ(net_.attachment_index().attach({0.0, 0.0}), topo::kInvalidNode);
  EXPECT_EQ(reference_attach(net_, {0.0, 0.0}), topo::kInvalidNode);
}

}  // namespace
}  // namespace solarnet::services
