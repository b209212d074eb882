// Unified trial-observer pipeline: one failure draw, every metric.
//
// The paper's headline results (Figs 6-9, §4.3-§4.4) are all statistics
// over the *same* storm realizations — cable loss, node reachability,
// service/DNS availability and country isolation are facets of one failure
// draw. TrialPipeline makes that structure explicit: each trial samples the
// cable failures once from the DeathProbabilityTable, builds the alive mask
// and the CSR connected components once into per-worker scratch, and fans a
// TrialView out to every registered TrialObserver. Running N metrics costs
// one sampling + one component decomposition per trial instead of N, and —
// because the observers all see the same draw — cross-metric joint
// statistics (e.g. P(DNS degraded AND >X% cables lost)) become expressible.
//
// Determinism contract:
//  - trial t always draws from Rng child stream t of the seed;
//  - trials are grouped into fixed-size chunks (kTrialChunk) whose
//    boundaries depend only on the trial count, never on the thread count;
//  - observers keep one accumulator slot per chunk, filled by whichever
//    worker claims the chunk, and merge the slots in ascending chunk order
//    in end_run().
// An observer that follows this contract produces bit-identical results for
// every thread count. Observers whose per-trial update only touches their
// (worker, chunk) slots need no locking: a chunk is processed by exactly
// one worker, and workers have dense private ids.
//
// When to use which engine:
//  - TrialPipeline: every per-trial loop over one model/severity. It is the
//    only such loop: FailureSimulator::run_trials (cables/nodes aggregates)
//    and services::availability_sweep (one service) are pipeline runs with
//    one observer each. The pipeline builds components only when an
//    observer asks for them, so a cables/nodes-only run costs the draw and
//    the two count kernels. Unless TrialConfig::engine is kScalar it runs
//    64 trials per batch (TrialBatchKernel); the report's observers
//    (ConnectivityObserver, services::AvailabilityObserver,
//    analysis::DnsResolutionObserver, analysis::CountryIsolationObserver)
//    take whole batches, reading lane counts, the shared union-find's
//    per-lane component labels (written only when an observer reads them)
//    or the dead words; any other observer gets each lane rebuilt as a
//    scalar TrialView.
//  - sim::SweepEngine: one metric across a whole severity grid (CRN-coupled
//    axis, incremental connectivity) — the figure-sweep path.
//  - sim::TimelineEngine: the same draw played over storm and repair time.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gic/failure_model.h"
#include "graph/components.h"
#include "sim/monte_carlo.h"
#include "sim/trial_batch.h"
#include "topology/network.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/stats.h"

namespace solarnet::util {
class ByteWriter;
class ByteReader;
}  // namespace solarnet::util

namespace solarnet::sim {

class TrialPipeline;

// Everything an observer may read about one trial. References point into
// per-worker scratch and are only valid during the observe() call.
struct TrialView {
  std::size_t trial = 0;
  // Per-cable death flags for this draw (size = network cable count).
  const util::Bitset* cable_dead = nullptr;
  std::size_t cables_failed = 0;
  double cables_failed_pct = 0.0;
  // Nodes that had >= 1 cable and lost all of them (paper §4.3.1).
  const std::vector<topo::NodeId>* unreachable = nullptr;
  double nodes_unreachable_pct = 0.0;
  // Masked component decomposition over the network's CSR; null when no
  // registered observer reports needs_components().
  const graph::ComponentResult* components = nullptr;
  // The alive mask the components were decomposed over (all vertices
  // alive, dead cables' edges dead — mask_for_failures). Non-null exactly
  // when components is non-null; observers that traverse the masked graph
  // (e.g. routing::TrafficObserver's SSSP trees) read it instead of
  // rebuilding the mask from cable_dead.
  const graph::AliveMask* mask = nullptr;
  // The trial's child rng after the failure draw. Observers that need
  // extra randomness derive independent substreams from it instead of
  // consuming the stream directly (which would couple observers).
  const util::Rng* rng = nullptr;

  util::Rng substream(std::uint64_t key) const { return rng->split(key); }
};

// Everything a batch-capable observer may read about one 64-trial batch on
// the bit-parallel path. Lane t is trial first_trial + t; the per-lane
// arrays hold `lanes` entries each. The counts come from the word-parallel
// kernels and the percentages use the exact arithmetic of the scalar
// TrialView, so accumulating them is bit-identical to observing the scalar
// trials one by one. Pointers reference per-worker scratch and are only
// valid during the observe_batch() call.
struct BatchTrialView {
  std::size_t first_trial = 0;
  unsigned lanes = 0;
  // Raw cable-major lane words (and per-lane post-draw rng states) for
  // observers that want word-level access or extra randomness.
  const TrialBatch* batch = nullptr;
  const std::uint32_t* cables_failed = nullptr;
  const double* cables_failed_pct = nullptr;
  const std::uint32_t* nodes_unreachable = nullptr;
  const double* nodes_unreachable_pct = nullptr;
  // Largest surviving component size per lane; null when no batch-capable
  // observer reports needs_components().
  const std::uint32_t* largest_component = nullptr;
  // Per-lane component labels over the network's nodes, lane-major: lane
  // t's row is component_labels + t * node_count. Within a lane two nodes share
  // a label iff they share a surviving component (the relation
  // TrialView::components->component encodes); the values are arbitrary
  // node ids. Null unless a batch-capable observer reports
  // needs_component_labels().
  const std::uint32_t* component_labels = nullptr;
  std::size_t node_count = 0;

  std::span<const std::uint32_t> labels(unsigned lane) const {
    return {component_labels + static_cast<std::size_t>(lane) * node_count,
            node_count};
  }
};

// A metric registered with the pipeline. Implementations own their results;
// the pipeline only orchestrates calls. See the determinism contract above:
// state written by observe() must be confined to the (worker, chunk) slots
// sized in begin_run(), and end_run() must merge chunk slots in ascending
// order.
class TrialObserver {
 public:
  virtual ~TrialObserver() = default;

  // Whether this observer reads TrialView::components. The pipeline skips
  // the per-trial component build when no observer needs it.
  virtual bool needs_components() const { return true; }

  // Called once before any trial: size per-worker scratch and per-chunk
  // accumulator slots, and reset previous results.
  virtual void begin_run(const TrialPipeline& pipeline, std::size_t workers,
                         std::size_t chunks) = 0;

  // Called for every trial, from worker threads. Trials of one chunk
  // arrive in ascending order on a single worker.
  virtual void observe(const TrialView& view, std::size_t worker,
                       std::size_t chunk) = 0;

  // Batch fast path. An observer that returns true here receives one
  // observe_batch() per 64-trial batch on the bit-parallel pipeline path
  // instead of 64 observe() calls (observe() is still required — the
  // scalar path uses it). The batch spans whole chunks:
  // lane t belongs to chunk first_chunk + t / TrialPipeline::kTrialChunk,
  // and accumulating lanes in ascending order into those slots must match
  // the scalar observe() sequence bit-for-bit.
  virtual bool supports_batch() const { return false; }
  // Only invoked when supports_batch() is true.
  virtual void observe_batch(const BatchTrialView& /*view*/,
                             std::size_t /*worker*/,
                             std::size_t /*first_chunk*/) {}
  // Whether observe_batch() reads BatchTrialView::component_labels. The
  // batch path writes labels (lanes x nodes words per batch) only when some
  // batch-capable observer says so. The default follows needs_components(),
  // so a label reader stays correct behind a forwarding wrapper that
  // forwards only needs_components(); an observer that reads just the
  // largest component overrides this to false.
  virtual bool needs_component_labels() const { return needs_components(); }

  // Called once after all trials, on the run() thread: reduce the chunk
  // slots (in ascending chunk order) into the final result.
  virtual void end_run() = 0;
};

// An observer whose per-chunk accumulator slots can be serialized, so a
// sim::CampaignRunner can checkpoint a partially-run campaign and resume it
// bit-identically. The contract extends the determinism contract above:
//  - checkpoint_id() names the observer AND its wire format; bump the
//    version suffix whenever save_chunk's layout changes, and include any
//    configuration that changes the slot layout (e.g. a country list) so a
//    checkpoint from a differently-configured observer is rejected instead
//    of misapplied.
//  - save_chunk(c) serializes chunk c's fully-accumulated slot; it is only
//    called between segments (never concurrently with observe on c).
//  - load_chunk(c) restores a slot previously produced by save_chunk on an
//    observer with the same checkpoint_id; called after begin_run and
//    before any trial of chunk c runs. A restored slot merged in end_run()
//    must be bit-identical to one accumulated in-process.
class CheckpointableObserver : public TrialObserver {
 public:
  virtual std::string checkpoint_id() const = 0;
  virtual void save_chunk(std::size_t chunk, util::ByteWriter& out) const = 0;
  virtual void load_chunk(std::size_t chunk, util::ByteReader& in) = 0;
};

// Reusable per-worker scratch for the trial loop; allocation-free once
// warm. run() owns one per worker; benches driving run_trial() manually
// own their own.
struct PipelineScratch {
  util::Bitset cable_dead;
  graph::AliveMask mask;
  graph::ComponentScratch component_scratch;
  graph::ComponentResult components;
  std::vector<topo::NodeId> unreachable;
};

// Reusable per-worker scratch for the bit-parallel loop; allocation-free
// once warm, label rows included.
struct PipelineBatchScratch {
  TrialBatch batch;
  std::uint32_t cables[TrialBatchKernel::kLanes];
  std::uint32_t nodes[TrialBatchKernel::kLanes];
  std::uint32_t largest[TrialBatchKernel::kLanes];
  double cables_pct[TrialBatchKernel::kLanes];
  double nodes_pct[TrialBatchKernel::kLanes];
  BatchConnectivityScratch components;
  std::vector<std::uint32_t> labels;  // lanes x nodes, when read
  // Per-lane scalar reconstruction for observers without a batch path.
  PipelineScratch scalar;
};

class TrialPipeline {
 public:
  // Chunk size of the deterministic reduction (half a 64-lane batch).
  static constexpr std::size_t kTrialChunk = 32;
  static constexpr std::size_t chunk_count(std::size_t trials) {
    return (trials + kTrialChunk - 1) / kTrialChunk;
  }

  // Folds the death-probability table once; every trial draws against it.
  // Simulator and model must outlive the pipeline.
  TrialPipeline(const FailureSimulator& simulator,
                const gic::RepeaterFailureModel& model);

  const FailureSimulator& simulator() const noexcept { return sim_; }
  const topo::InfrastructureNetwork& network() const noexcept {
    return sim_.network();
  }
  const gic::RepeaterFailureModel& model() const noexcept { return model_; }
  const DeathProbabilityTable& table() const noexcept { return table_; }

  // Registers a metric (non-owning; the observer must outlive run()).
  void add_observer(TrialObserver& observer);
  std::size_t observer_count() const noexcept { return observers_.size(); }

  // Runs `trials` draws (trial t from child stream t of `seed`) and fans
  // each TrialView out to every observer. `threads` follows
  // TrialConfig::threads (0 = hardware concurrency); the overload without
  // it uses the simulator's configured thread count. Results live in the
  // observers and are bit-identical for every thread count.
  void run(std::size_t trials, std::uint64_t seed) const;
  void run(std::size_t trials, std::uint64_t seed, std::size_t threads) const;

  // One trial of the loop, for benches/tests that drive it manually: draw
  // from base.split(trial) into `scratch`, rebuild mask/components, call
  // every observer with the given (worker, chunk) slots. Callers must
  // bracket the loop with the observers' begin_run()/end_run() themselves
  // (run() does all of this). Allocation-free once scratch is warm.
  void run_trial(std::size_t trial, const util::Rng& base,
                 PipelineScratch& scratch, std::size_t worker,
                 std::size_t chunk) const;

  // One batch of the bit-parallel loop, the batch counterpart of
  // run_trial(): trials [first_trial, first_trial + lanes) drawn into
  // `scratch`, batch-capable observers fed one BatchTrialView, the rest fed
  // per-lane TrialViews reconstructed from the batch (bit-identical to the
  // scalar loop either way). first_trial must be a multiple of
  // TrialBatchKernel::kLanes (the batch then starts chunk
  // first_trial / kTrialChunk) and lanes in [1, kLanes]. Throws
  // std::logic_error when the simulator's TrialConfig::engine is kScalar
  // (no batch kernel is built). Allocation-free once scratch is warm.
  void run_batch(std::size_t first_trial, unsigned lanes,
                 const util::Rng& base, PipelineBatchScratch& scratch,
                 std::size_t worker) const;

 private:
  // The bit-parallel trial loop: run_batch() over consecutive batches.
  // Chosen by run() unless the simulator's TrialConfig::engine is kScalar.
  void run_batched(std::size_t trials, const util::Rng& base,
                   std::size_t workers) const;

  const FailureSimulator& sim_;
  const gic::RepeaterFailureModel& model_;
  const graph::Csr* csr_;  // the network's cached CSR, resolved once
  DeathProbabilityTable table_;
  std::size_t connected_nodes_ = 0;
  std::vector<TrialObserver*> observers_;
  bool needs_components_ = false;
  // Built once in the constructor unless kScalar is configured, so run()
  // does not pay kernel construction (or its allocations) per call.
  std::unique_ptr<const TrialBatchKernel> batch_kernel_;
  std::vector<TrialObserver*> batch_observers_;   // supports_batch()
  std::vector<TrialObserver*> scalar_observers_;  // the rest
  bool batch_needs_components_ = false;   // any batch observer needs them
  bool batch_needs_labels_ = false;       // any batch observer reads labels
  bool scalar_needs_components_ = false;  // any scalar observer needs them
};

// Shared lifecycle guard for checkpointable observers: throws a structured
// util::Error (kInvalidArgument) naming the observer, the operation and the
// violation when `chunk` has no accumulator slot — either an out-of-range
// chunk index or a save_chunk/load_chunk call outside the
// begin_run()/end_run() window (end_run releases the slots). Replaces the
// bare std::out_of_range that vector::at used to throw.
void check_chunk_slot(const char* observer, const char* operation,
                      std::size_t chunk, std::size_t slots);

// The baseline observer: per-trial cable-loss / node-unreachability
// percentages (bit-identical to FailureSimulator::run_trials for the same
// seed and trial count) plus the largest surviving component share, which
// run_trials does not report because its observer skips the component
// build.
class ConnectivityObserver final : public CheckpointableObserver {
 public:
  struct Result {
    std::size_t trials = 0;
    util::RunningStats cables_failed_pct;
    util::RunningStats nodes_unreachable_pct;
    // Largest component size as % of cable-bearing nodes.
    util::RunningStats largest_component_pct;
  };

  const Result& result() const noexcept { return result_; }

  bool needs_components() const override { return true; }
  void begin_run(const TrialPipeline& pipeline, std::size_t workers,
                 std::size_t chunks) override;
  void observe(const TrialView& view, std::size_t worker,
               std::size_t chunk) override;
  bool supports_batch() const override { return true; }
  void observe_batch(const BatchTrialView& view, std::size_t worker,
                     std::size_t first_chunk) override;
  // Reads only the largest component, never the labels.
  bool needs_component_labels() const override { return false; }
  void end_run() override;

  std::string checkpoint_id() const override { return "connectivity/v1"; }
  void save_chunk(std::size_t chunk, util::ByteWriter& out) const override;
  void load_chunk(std::size_t chunk, util::ByteReader& in) override;

 private:
  struct Chunk {
    util::RunningStats cables;
    util::RunningStats nodes;
    util::RunningStats largest;
  };
  std::vector<Chunk> chunks_;
  std::size_t connected_nodes_ = 0;
  Result result_;
};

}  // namespace solarnet::sim
