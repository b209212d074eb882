#include "services/availability.h"

#include <algorithm>
#include <stdexcept>

#include "util/checkpoint.h"

namespace solarnet::services {

const std::vector<std::pair<geo::Continent, geo::GeoPoint>>&
continent_anchors() {
  static const std::vector<std::pair<geo::Continent, geo::GeoPoint>> anchors =
      {
          {geo::Continent::kNorthAmerica, {40.7, -74.0}},   // New York
          {geo::Continent::kSouthAmerica, {-23.5, -46.6}},  // Sao Paulo
          {geo::Continent::kEurope, {50.1, 8.7}},           // Frankfurt
          {geo::Continent::kAfrica, {6.5, 3.4}},            // Lagos
          {geo::Continent::kAsia, {1.35, 103.8}},           // Singapore
          {geo::Continent::kOceania, {-33.9, 151.2}},       // Sydney
      };
  return anchors;
}

ServiceSpec service_from_datacenters(const std::string& name,
                                     const std::vector<geo::GeoPoint>& sites,
                                     std::size_t write_quorum) {
  ServiceSpec spec;
  spec.name = name;
  spec.replicas = sites;
  spec.write_quorum = write_quorum;
  return spec;
}

const std::vector<std::pair<geo::Continent, double>>&
continent_population_shares() {
  static const std::vector<std::pair<geo::Continent, double>> shares = {
      {geo::Continent::kAsia, 0.585},
      {geo::Continent::kAfrica, 0.18},
      {geo::Continent::kEurope, 0.10},
      {geo::Continent::kNorthAmerica, 0.075},
      {geo::Continent::kSouthAmerica, 0.055},
      {geo::Continent::kOceania, 0.005},
  };
  return shares;
}

ServiceEvaluator::ServiceEvaluator(const topo::InfrastructureNetwork& net,
                                   ServiceSpec spec)
    : net_(net), csr_(&net.csr()), spec_(std::move(spec)) {
  if (spec_.replicas.empty() || spec_.write_quorum == 0 ||
      spec_.write_quorum > spec_.replicas.size()) {
    throw std::invalid_argument("ServiceEvaluator: bad service spec");
  }
  const topo::AttachmentIndex& attachment = net_.attachment_index();
  replica_nodes_.reserve(spec_.replicas.size());
  for (const geo::GeoPoint& r : spec_.replicas) {
    replica_nodes_.push_back(attachment.attach(r));
  }
  anchor_nodes_.reserve(continent_anchors().size());
  for (const auto& [continent, anchor] : continent_anchors()) {
    anchor_nodes_.emplace_back(continent, attachment.attach(anchor));
  }
}

void ServiceEvaluator::evaluate(const util::Bitset& cable_dead,
                                AvailabilityReport& out) {
  net_.mask_for_failures(cable_dead, mask_);
  graph::connected_components(*csr_, mask_, comp_scratch_, cc_);
  evaluate(cc_.component, out);
}

void ServiceEvaluator::evaluate(std::span<const std::uint32_t> component_label,
                                AvailabilityReport& out) const {
  out.service = spec_.name;
  out.per_continent.clear();
  out.read_availability = 0.0;
  out.write_availability = 0.0;
  for (const auto& [continent, anchor_node] : anchor_nodes_) {
    ContinentAvailability avail;
    avail.continent = continent;
    if (anchor_node != topo::kInvalidNode) {
      const std::uint32_t client = component_label[anchor_node];
      std::size_t reachable = 0;
      for (const topo::NodeId r : replica_nodes_) {
        if (r != topo::kInvalidNode && component_label[r] == client) {
          ++reachable;
        }
      }
      avail.read_available = reachable >= 1;
      // Replicas reachable from the client are in the same component, so
      // they are mutually connected: quorum is just a count.
      avail.write_available = reachable >= spec_.write_quorum;
    }
    out.per_continent.push_back(avail);
  }

  for (const auto& [continent, share] : continent_population_shares()) {
    for (const ContinentAvailability& avail : out.per_continent) {
      if (avail.continent != continent) continue;
      if (avail.read_available) out.read_availability += share;
      if (avail.write_available) out.write_availability += share;
    }
  }
}

AvailabilityReport ServiceEvaluator::evaluate(const util::Bitset& cable_dead) {
  AvailabilityReport out;
  evaluate(cable_dead, out);
  return out;
}

AvailabilityReport evaluate_service(const topo::InfrastructureNetwork& net,
                                    const util::Bitset& cable_dead,
                                    const ServiceSpec& service) {
  ServiceEvaluator evaluator(net, service);
  return evaluator.evaluate(cable_dead);
}

AvailabilitySweep availability_sweep(const sim::FailureSimulator& simulator,
                                     const gic::RepeaterFailureModel& model,
                                     const ServiceSpec& service,
                                     std::size_t draws, std::uint64_t seed,
                                     std::size_t threads) {
  // The observer resolves the attachment nodes once (and validates the
  // spec, so a bad sweep fails loudly even with zero draws).
  AvailabilityObserver observer(simulator.network(), service);
  sim::TrialPipeline pipeline(simulator, model);
  pipeline.add_observer(observer);
  pipeline.run(draws, seed, threads);
  return observer.result();
}

AvailabilityObserver::AvailabilityObserver(
    const topo::InfrastructureNetwork& net, ServiceSpec spec)
    : evaluator_(net, std::move(spec)) {}

void AvailabilityObserver::begin_run(const sim::TrialPipeline& /*pipeline*/,
                                     std::size_t workers, std::size_t chunks) {
  reports_.assign(workers, {});
  chunks_.assign(chunks, {});
  result_ = {};
  result_.service = evaluator_.spec().name;
}

void AvailabilityObserver::record(
    std::span<const std::uint32_t> component_label, std::size_t worker,
    std::size_t chunk) {
  AvailabilityReport& report = reports_[worker];
  evaluator_.evaluate(component_label, report);
  Chunk& slot = chunks_[chunk];
  slot.read.add(report.read_availability);
  slot.write.add(report.write_availability);
}

void AvailabilityObserver::observe(const sim::TrialView& view,
                                   std::size_t worker, std::size_t chunk) {
  record(view.components->component, worker, chunk);
}

void AvailabilityObserver::observe_batch(const sim::BatchTrialView& view,
                                         std::size_t worker,
                                         std::size_t first_chunk) {
  for (unsigned lane = 0; lane < view.lanes; ++lane) {
    record(view.labels(lane), worker,
           first_chunk + lane / sim::TrialPipeline::kTrialChunk);
  }
}

void AvailabilityObserver::save_chunk(std::size_t chunk,
                                      util::ByteWriter& out) const {
  sim::check_chunk_slot("AvailabilityObserver", "save_chunk", chunk,
                        chunks_.size());
  const Chunk& slot = chunks_[chunk];
  util::write_stats(out, slot.read);
  util::write_stats(out, slot.write);
}

void AvailabilityObserver::load_chunk(std::size_t chunk, util::ByteReader& in) {
  sim::check_chunk_slot("AvailabilityObserver", "load_chunk", chunk,
                        chunks_.size());
  Chunk& slot = chunks_[chunk];
  slot.read = util::read_stats(in);
  slot.write = util::read_stats(in);
}

void AvailabilityObserver::end_run() {
  for (const Chunk& slot : chunks_) {
    result_.read_availability.merge(slot.read);
    result_.write_availability.merge(slot.write);
  }
  result_.draws = result_.read_availability.count();
  reports_.clear();
  chunks_.clear();
}

}  // namespace solarnet::services
