// World: the library's top-level container — every dataset the paper's
// analysis touches, generated (or loaded) on first use and shared by the
// analyses.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "datasets/infra_points.h"
#include "datasets/land.h"
#include "datasets/population.h"
#include "datasets/routers.h"
#include "datasets/submarine.h"
#include "geo/grid.h"
#include "topology/network.h"

namespace solarnet::core {

struct WorldConfig {
  datasets::SubmarineConfig submarine;
  datasets::IntertubesConfig intertubes;
  datasets::ItuConfig itu;
  datasets::RouterConfig routers;
  datasets::IxpConfig ixps;
  datasets::DnsConfig dns;
  datasets::PopulationConfig population;
  // Which optional parts may be built. A disabled part reports has_*() ==
  // false and its accessor throws std::logic_error; an enabled one is still
  // only built when first read.
  bool build_itu = true;
  bool build_routers = true;
  bool build_population = true;
};

// Every part is generated on its first access, so a caller pays only for
// the datasets it reads (`solarnet report` never reads the population grid
// or the routers). The generators are deterministic per config, so a part
// built late is identical to one built eagerly. The accessors are safe to
// call concurrently, first touch included: the server shares one World
// across client threads.
class World {
 public:
  // Records the config; no dataset is generated until it is read.
  static World generate(const WorldConfig& config = {});

  const topo::InfrastructureNetwork& submarine() const;
  const topo::InfrastructureNetwork& intertubes() const;

  bool has_itu() const noexcept { return config_.build_itu; }
  const topo::InfrastructureNetwork& itu() const;

  bool has_routers() const noexcept { return config_.build_routers; }
  const datasets::RouterDataset& routers() const;

  const std::vector<datasets::InfraPoint>& ixps() const;
  const std::vector<datasets::DnsRootInstance>& dns_roots() const;

  bool has_population() const noexcept { return config_.build_population; }
  const geo::LatLonGrid& population() const;

 private:
  template <typename T>
  struct Part {
    std::once_flag built;
    std::optional<T> value;
  };
  // The once-flags pin their address, so they live behind a pointer and
  // World stays movable.
  struct Parts {
    Part<topo::InfrastructureNetwork> submarine;
    Part<topo::InfrastructureNetwork> intertubes;
    Part<topo::InfrastructureNetwork> itu;
    Part<datasets::RouterDataset> routers;
    Part<std::vector<datasets::InfraPoint>> ixps;
    Part<std::vector<datasets::DnsRootInstance>> dns;
    Part<geo::LatLonGrid> population;
  };

  explicit World(const WorldConfig& config)
      : config_(config), parts_(std::make_unique<Parts>()) {}

  template <typename T, typename Make>
  static const T& get(Part<T>& part, Make&& make) {
    std::call_once(part.built, [&] { part.value.emplace(make()); });
    return *part.value;
  }

  WorldConfig config_;
  std::unique_ptr<Parts> parts_;
};

}  // namespace solarnet::core
