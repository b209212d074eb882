// Resilience testing for geo-distributed services (§5.4: "we need to
// devise standard practices in resilience testing involving large-scale
// failures", §5.2: "search engines, financial services, etc. should
// geo-distribute critical data ... so that each partition can function
// independently"). A service is a replica set with a quorum requirement;
// this module evaluates read/write availability for clients on every
// continent under a cable-failure draw, using the surviving submarine
// topology to decide who can reach whom.
//
// Two tiers: evaluate_service is the one-shot API; ServiceEvaluator
// resolves the replica and continent-anchor landing nodes once per
// (network, spec) and then answers per-draw queries allocation-free over
// the network's cached CSR. The Monte-Carlo path is AvailabilityObserver on
// a sim::TrialPipeline (availability_sweep is that run with one observer),
// which evaluates every draw against the pipeline's shared per-node
// component labels: the scalar trial's ComponentResult::component, or one
// lane's label row on the 64-lane batch path. One evaluation body serves
// both; the one-shot tiers take the draw as a util::Bitset dead set.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geo/coords.h"
#include "geo/regions.h"
#include "graph/components.h"
#include "sim/monte_carlo.h"
#include "sim/pipeline.h"
#include "topology/network.h"
#include "util/bitset.h"
#include "util/stats.h"

namespace solarnet::services {

struct ServiceSpec {
  std::string name;
  std::vector<geo::GeoPoint> replicas;
  // Replicas that must be mutually reachable (and reachable from the
  // client) for writes; 1 replica suffices for reads.
  std::size_t write_quorum = 1;
};

// Builds a replica set from an operator's data-center footprint.
ServiceSpec service_from_datacenters(const std::string& name,
                                     const std::vector<geo::GeoPoint>& sites,
                                     std::size_t write_quorum);

struct ContinentAvailability {
  geo::Continent continent;
  bool read_available = false;
  bool write_available = false;
};

struct AvailabilityReport {
  std::string service;
  std::vector<ContinentAvailability> per_continent;
  // Population-weighted availability over continents.
  double read_availability = 0.0;
  double write_availability = 0.0;
};

// The continent population shares used for weighting (sums to 1).
const std::vector<std::pair<geo::Continent, double>>&
continent_population_shares();

// The client anchor of each continent: a representative populous coastal
// location, attached to the network like every replica. One row per
// continent_population_shares() continent.
const std::vector<std::pair<geo::Continent, geo::GeoPoint>>&
continent_anchors();

// Pre-resolved evaluator for one (network, service) pair. Construction
// attaches every replica and anchor through the network's
// topo::AttachmentIndex once; a draw then costs O(1) label lookups per
// party. Copyable; the network must outlive the evaluator.
class ServiceEvaluator {
 public:
  // Throws std::invalid_argument on an empty replica set or a quorum
  // outside [1, replicas].
  ServiceEvaluator(const topo::InfrastructureNetwork& net, ServiceSpec spec);

  const ServiceSpec& spec() const noexcept { return spec_; }

  // Evaluates one draw from per-node component labels of the masked
  // network (all nodes alive, dead cables' edges removed): two parties
  // communicate iff their landing nodes carry equal labels. Any labelling
  // with that relation gives the same report — the pipeline passes
  // ComponentResult::component on the scalar path and a lane's
  // BatchTrialView::labels() row on the batch path. A node whose cables
  // all died is a singleton component, so only parties attached to that
  // same dark station still match it; an unattached party
  // (topo::kInvalidNode) matches nobody. Allocation-free once `out` is
  // warm.
  void evaluate(std::span<const std::uint32_t> component_label,
                AvailabilityReport& out) const;

  // One-shot form: builds the draw's mask and components, then evaluates
  // as above. Allocation-free once warm.
  void evaluate(const util::Bitset& cable_dead, AvailabilityReport& out);
  AvailabilityReport evaluate(const util::Bitset& cable_dead);

 private:
  const topo::InfrastructureNetwork& net_;
  const graph::Csr* csr_;  // net_'s cached CSR, resolved once at construction
  ServiceSpec spec_;
  std::vector<topo::NodeId> replica_nodes_;
  std::vector<std::pair<geo::Continent, topo::NodeId>> anchor_nodes_;
  // Scratch of the one-shot form.
  graph::AliveMask mask_;
  graph::ComponentScratch comp_scratch_;
  graph::ComponentResult cc_;
};

// Evaluates one service against a failure draw. Every replica and client
// continent attaches to a landing point (topo::AttachmentIndex); two
// parties can communicate when those landing points share a surviving
// component. A client's continent gets read availability when >= 1
// replica is reachable, write availability when >= write_quorum replicas
// are reachable AND mutually connected.
AvailabilityReport evaluate_service(const topo::InfrastructureNetwork& net,
                                    const util::Bitset& cable_dead,
                                    const ServiceSpec& service);

// Monte-Carlo availability sweep: `draws` independent failure draws from
// `model`, one sim::TrialPipeline run with an AvailabilityObserver. Draw d
// always samples from child stream d of `seed` and draws are accumulated
// in fixed-size chunks merged in ascending order (the pipeline's
// determinism contract), so the result is bit-identical for every
// `threads` value (0 = hardware concurrency).
struct AvailabilitySweep {
  std::string service;
  std::size_t draws = 0;
  // Population-weighted availability per draw.
  util::RunningStats read_availability;
  util::RunningStats write_availability;
};

AvailabilitySweep availability_sweep(const sim::FailureSimulator& simulator,
                                     const gic::RepeaterFailureModel& model,
                                     const ServiceSpec& service,
                                     std::size_t draws, std::uint64_t seed,
                                     std::size_t threads = 0);

// Trial-pipeline observer for one service: evaluates every trial's draw
// against the pipeline's shared component labels (no per-service
// mask/component rebuild) and accumulates read/write availability with the
// fixed-chunk reduction. Batch-capable: on the 64-lane path it reads each
// lane's label row, with the same evaluation body, so its result is
// bit-identical for every engine and thread count, and it shares the
// failure draw with every other observer on the same pipeline.
// Construction resolves the replica/anchor nodes once.
class AvailabilityObserver final : public sim::CheckpointableObserver {
 public:
  // Throws like ServiceEvaluator on a bad spec.
  AvailabilityObserver(const topo::InfrastructureNetwork& net,
                       ServiceSpec spec);

  const ServiceSpec& spec() const noexcept { return evaluator_.spec(); }
  // Valid after TrialPipeline::run().
  const AvailabilitySweep& result() const noexcept { return result_; }

  bool needs_components() const override { return true; }
  void begin_run(const sim::TrialPipeline& pipeline, std::size_t workers,
                 std::size_t chunks) override;
  void observe(const sim::TrialView& view, std::size_t worker,
               std::size_t chunk) override;
  bool supports_batch() const override { return true; }
  void observe_batch(const sim::BatchTrialView& view, std::size_t worker,
                     std::size_t first_chunk) override;
  void end_run() override;

  // The id carries the service name: a checkpoint written for one service
  // is rejected for another even with identical chunk counts.
  std::string checkpoint_id() const override {
    return "availability/v1/" + evaluator_.spec().name;
  }
  void save_chunk(std::size_t chunk, util::ByteWriter& out) const override;
  void load_chunk(std::size_t chunk, util::ByteReader& in) override;

 private:
  struct Chunk {
    util::RunningStats read;
    util::RunningStats write;
  };
  // One trial: evaluate against `component_label` into the worker's report
  // and accumulate into `chunk`'s slot.
  void record(std::span<const std::uint32_t> component_label,
              std::size_t worker, std::size_t chunk);

  ServiceEvaluator evaluator_;
  std::vector<AvailabilityReport> reports_;  // per-worker scratch
  std::vector<Chunk> chunks_;
  AvailabilitySweep result_;
};

}  // namespace solarnet::services
