#include "core/world.h"

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

namespace solarnet::core {
namespace {

WorldConfig light_config() {
  WorldConfig cfg;
  cfg.submarine.total_cables = 120;
  cfg.submarine.target_landing_points = 300;
  cfg.submarine.cables_without_length = 5;
  cfg.intertubes.total_links = 100;
  cfg.intertubes.target_nodes = 60;
  cfg.intertubes.short_links = 45;
  cfg.itu.total_links = 300;
  cfg.itu.target_nodes = 290;
  cfg.itu.short_links = 210;
  cfg.routers.router_count = 3000;
  cfg.routers.as_count = 300;
  cfg.ixps.count = 60;
  cfg.dns.instance_count = 80;
  cfg.population.cell_deg = 5.0;
  return cfg;
}

TEST(World, GeneratesAllDatasets) {
  const World w = World::generate(light_config());
  EXPECT_EQ(w.submarine().cable_count(), 120u);
  EXPECT_EQ(w.intertubes().cable_count(), 100u);
  ASSERT_TRUE(w.has_itu());
  EXPECT_EQ(w.itu().cable_count(), 300u);
  ASSERT_TRUE(w.has_routers());
  EXPECT_EQ(w.routers().router_count(), 3000u);
  EXPECT_EQ(w.ixps().size(), 60u);
  EXPECT_EQ(w.dns_roots().size(), 80u);
  ASSERT_TRUE(w.has_population());
  EXPECT_GT(w.population().total(), 0.0);
}

TEST(World, OptionalPartsCanBeSkipped) {
  WorldConfig cfg = light_config();
  cfg.build_itu = false;
  cfg.build_routers = false;
  cfg.build_population = false;
  const World w = World::generate(cfg);
  EXPECT_FALSE(w.has_itu());
  EXPECT_FALSE(w.has_routers());
  EXPECT_FALSE(w.has_population());
  EXPECT_THROW(w.itu(), std::logic_error);
  EXPECT_THROW(w.routers(), std::logic_error);
  EXPECT_THROW(w.population(), std::logic_error);
}

TEST(World, MoveSemantics) {
  World w = World::generate(light_config());
  const std::size_t cables = w.submarine().cable_count();
  World moved = std::move(w);
  EXPECT_EQ(moved.submarine().cable_count(), cables);
}

// Parts are generated on first access; each must equal a direct call to its
// generator with the same config.
TEST(World, LazyPartsEqualTheirGenerators) {
  const WorldConfig cfg = light_config();
  const World w = World::generate(cfg);
  EXPECT_EQ(w.submarine().content_fingerprint(),
            datasets::make_submarine_network(cfg.submarine)
                .content_fingerprint());
  EXPECT_EQ(w.intertubes().content_fingerprint(),
            datasets::make_intertubes_network(cfg.intertubes)
                .content_fingerprint());
  EXPECT_EQ(w.itu().content_fingerprint(),
            datasets::make_itu_network(cfg.itu).content_fingerprint());

  const datasets::RouterDataset routers =
      datasets::make_router_dataset(cfg.routers);
  ASSERT_EQ(w.routers().router_count(), routers.router_count());
  EXPECT_EQ(w.routers().as_count(), routers.as_count());
  for (std::size_t i = 0; i < routers.router_count(); ++i) {
    EXPECT_EQ(w.routers().routers()[i].location,
              routers.routers()[i].location);
    EXPECT_EQ(w.routers().routers()[i].as_id, routers.routers()[i].as_id);
  }

  const auto ixps = datasets::make_ixp_dataset(cfg.ixps);
  ASSERT_EQ(w.ixps().size(), ixps.size());
  for (std::size_t i = 0; i < ixps.size(); ++i) {
    EXPECT_EQ(w.ixps()[i].name, ixps[i].name);
    EXPECT_EQ(w.ixps()[i].location, ixps[i].location);
    EXPECT_EQ(w.ixps()[i].country_code, ixps[i].country_code);
  }

  const auto dns = datasets::make_dns_dataset(cfg.dns);
  ASSERT_EQ(w.dns_roots().size(), dns.size());
  for (std::size_t i = 0; i < dns.size(); ++i) {
    EXPECT_EQ(w.dns_roots()[i].root_letter, dns[i].root_letter);
    EXPECT_EQ(w.dns_roots()[i].location, dns[i].location);
    EXPECT_EQ(w.dns_roots()[i].country_code, dns[i].country_code);
    EXPECT_EQ(w.dns_roots()[i].continent, dns[i].continent);
  }

  const geo::LatLonGrid grid =
      datasets::make_population_grid(cfg.population);
  ASSERT_EQ(w.population().rows(), grid.rows());
  ASSERT_EQ(w.population().cols(), grid.cols());
  EXPECT_EQ(w.population().total(), grid.total());
  for (std::size_t r = 0; r < grid.rows(); ++r) {
    for (std::size_t c = 0; c < grid.cols(); ++c) {
      ASSERT_EQ(w.population().cell(r, c), grid.cell(r, c));
    }
  }
}

// The server shares one World across client threads: racing first touches
// must build each part once and hand every thread the same object.
TEST(World, ConcurrentFirstTouchSharesOneBuild) {
  const World w = World::generate(light_config());
  constexpr std::size_t kThreads = 8;
  struct Seen {
    const geo::LatLonGrid* population = nullptr;
    const datasets::RouterDataset* routers = nullptr;
    const topo::InfrastructureNetwork* itu = nullptr;
  };
  std::vector<Seen> seen(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[t] = {&w.population(), &w.routers(), &w.itu()};
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Seen& s : seen) {
    EXPECT_EQ(s.population, &w.population());
    EXPECT_EQ(s.routers, &w.routers());
    EXPECT_EQ(s.itu, &w.itu());
  }
  EXPECT_EQ(w.routers().router_count(), 3000u);
}

// Disabled parts stay disabled however much of the rest gets built.
TEST(World, DisabledPartsStillThrowAfterOtherParts) {
  WorldConfig cfg = light_config();
  cfg.build_routers = false;
  cfg.build_population = false;
  const World w = World::generate(cfg);
  EXPECT_EQ(w.itu().cable_count(), 300u);
  EXPECT_EQ(w.submarine().cable_count(), 120u);
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_TRUE(w.has_itu());
    EXPECT_FALSE(w.has_routers());
    EXPECT_FALSE(w.has_population());
    EXPECT_THROW(w.routers(), std::logic_error);
    EXPECT_THROW(w.population(), std::logic_error);
  }
}

}  // namespace
}  // namespace solarnet::core
