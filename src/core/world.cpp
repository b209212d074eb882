#include "core/world.h"

#include <stdexcept>

namespace solarnet::core {

World World::generate(const WorldConfig& config) { return World(config); }

const topo::InfrastructureNetwork& World::submarine() const {
  return get(parts_->submarine, [&] {
    return datasets::make_submarine_network(config_.submarine);
  });
}

const topo::InfrastructureNetwork& World::intertubes() const {
  return get(parts_->intertubes, [&] {
    return datasets::make_intertubes_network(config_.intertubes);
  });
}

const topo::InfrastructureNetwork& World::itu() const {
  if (!has_itu()) throw std::logic_error("World: ITU network was not built");
  return get(parts_->itu,
             [&] { return datasets::make_itu_network(config_.itu); });
}

const datasets::RouterDataset& World::routers() const {
  if (!has_routers()) {
    throw std::logic_error("World: router dataset was not built");
  }
  return get(parts_->routers,
             [&] { return datasets::make_router_dataset(config_.routers); });
}

const std::vector<datasets::InfraPoint>& World::ixps() const {
  return get(parts_->ixps,
             [&] { return datasets::make_ixp_dataset(config_.ixps); });
}

const std::vector<datasets::DnsRootInstance>& World::dns_roots() const {
  return get(parts_->dns,
             [&] { return datasets::make_dns_dataset(config_.dns); });
}

const geo::LatLonGrid& World::population() const {
  if (!has_population()) {
    throw std::logic_error("World: population grid was not built");
  }
  return get(parts_->population, [&] {
    return datasets::make_population_grid(config_.population);
  });
}

}  // namespace solarnet::core
