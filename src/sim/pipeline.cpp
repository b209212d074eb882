#include "sim/pipeline.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/checkpoint.h"
#include "util/parallel.h"
#include "util/status.h"

namespace solarnet::sim {

TrialPipeline::TrialPipeline(const FailureSimulator& simulator,
                             const gic::RepeaterFailureModel& model)
    : sim_(simulator),
      model_(model),
      csr_(&simulator.network().csr()),
      table_(simulator.death_probability_table(model)),
      connected_nodes_(simulator.connected_node_count()) {
  if (sim_.config().engine != TrialEngine::kScalar) {
    batch_kernel_ = std::make_unique<const TrialBatchKernel>(sim_, table_);
  }
}

void TrialPipeline::add_observer(TrialObserver& observer) {
  observers_.push_back(&observer);
  needs_components_ = needs_components_ || observer.needs_components();
  if (observer.supports_batch()) {
    batch_observers_.push_back(&observer);
    // Labels come out of the component pass, so reading them implies it.
    batch_needs_labels_ =
        batch_needs_labels_ || observer.needs_component_labels();
    batch_needs_components_ = batch_needs_components_ ||
                              observer.needs_components() ||
                              batch_needs_labels_;
  } else {
    scalar_observers_.push_back(&observer);
    scalar_needs_components_ =
        scalar_needs_components_ || observer.needs_components();
  }
}

void TrialPipeline::run_trial(std::size_t trial, const util::Rng& base,
                              PipelineScratch& scratch, std::size_t worker,
                              std::size_t chunk) const {
  util::Rng rng = base.split(trial);
  sim_.sample_cable_failures(table_, rng, scratch.cable_dead);
  const std::size_t failed = scratch.cable_dead.count();
  const std::size_t cables = network().cable_count();
  network().unreachable_nodes(scratch.cable_dead, scratch.unreachable);
  if (needs_components_) {
    network().mask_for_failures(scratch.cable_dead, scratch.mask);
    graph::connected_components(*csr_, scratch.mask, scratch.component_scratch,
                                scratch.components);
  }

  TrialView view;
  view.trial = trial;
  view.cable_dead = &scratch.cable_dead;
  view.cables_failed = failed;
  view.cables_failed_pct =
      cables > 0
          ? 100.0 * static_cast<double>(failed) / static_cast<double>(cables)
          : 0.0;
  view.unreachable = &scratch.unreachable;
  view.nodes_unreachable_pct =
      connected_nodes_ > 0
          ? 100.0 * static_cast<double>(scratch.unreachable.size()) /
                static_cast<double>(connected_nodes_)
          : 0.0;
  view.components = needs_components_ ? &scratch.components : nullptr;
  view.mask = needs_components_ ? &scratch.mask : nullptr;
  view.rng = &rng;
  for (TrialObserver* observer : observers_) {
    observer->observe(view, worker, chunk);
  }
}

void TrialPipeline::run(std::size_t trials, std::uint64_t seed) const {
  run(trials, seed, sim_.config().threads);
}

void TrialPipeline::run(std::size_t trials, std::uint64_t seed,
                        std::size_t threads) const {
  const std::size_t chunks = chunk_count(trials);
  const std::size_t workers =
      trials == 0 ? 0 : std::min(util::resolve_thread_count(threads), chunks);
  for (TrialObserver* observer : observers_) {
    observer->begin_run(*this, workers, chunks);
  }
  if (trials > 0) {
    const util::Rng base(seed);
    if (batch_kernel_ != nullptr) {
      run_batched(trials, base, workers);
    } else {
      std::vector<PipelineScratch> scratch(workers);
      util::parallel_for(
          chunks, workers, [&](std::size_t chunk, std::size_t worker) {
            const std::size_t begin = chunk * kTrialChunk;
            const std::size_t end = std::min(begin + kTrialChunk, trials);
            for (std::size_t t = begin; t < end; ++t) {
              run_trial(t, base, scratch[worker], worker, chunk);
            }
          });
    }
  }
  for (TrialObserver* observer : observers_) {
    observer->end_run();
  }
}

void TrialPipeline::run_batched(std::size_t trials, const util::Rng& base,
                                std::size_t workers) const {
  // One batch = kLanes trials = a whole number of chunks, so every chunk's
  // accumulator is still written by exactly one worker, in ascending trial
  // order — the determinism contract holds unchanged.
  static_assert(TrialBatchKernel::kLanes % TrialPipeline::kTrialChunk == 0);
  constexpr std::size_t kLanes = TrialBatchKernel::kLanes;
  const std::size_t tasks = (trials + kLanes - 1) / kLanes;
  workers = std::min(workers, tasks);
  std::vector<PipelineBatchScratch> scratch(workers);
  util::parallel_for(tasks, workers, [&](std::size_t task, std::size_t worker) {
    const std::size_t first = task * kLanes;
    const auto lanes =
        static_cast<unsigned>(std::min<std::size_t>(kLanes, trials - first));
    run_batch(first, lanes, base, scratch[worker], worker);
  });
}

void TrialPipeline::run_batch(std::size_t first_trial, unsigned lanes,
                              const util::Rng& base, PipelineBatchScratch& s,
                              std::size_t worker) const {
  constexpr std::size_t kLanes = TrialBatchKernel::kLanes;
  if (batch_kernel_ == nullptr) {
    throw std::logic_error(
        "TrialPipeline::run_batch: the scalar engine builds no batch kernel");
  }
  if (first_trial % kLanes != 0) {
    throw std::invalid_argument(
        "TrialPipeline::run_batch: first_trial is not a batch boundary");
  }
  const TrialBatchKernel& kernel = *batch_kernel_;
  const std::size_t first_chunk = first_trial / kTrialChunk;
  const std::size_t cables = network().cable_count();

  kernel.sample(base, first_trial, lanes, s.batch);
  kernel.count_cables_failed(s.batch, s.cables);
  kernel.count_unreachable_nodes(s.batch, s.nodes);
  const std::size_t node_count = network().node_count();
  if (batch_needs_components_) {
    if (batch_needs_labels_) s.labels.resize(lanes * node_count);
    kernel.largest_components(s.batch, s.components, s.largest,
                              batch_needs_labels_ ? s.labels.data() : nullptr);
  }
  for (unsigned lane = 0; lane < lanes; ++lane) {
    s.cables_pct[lane] =
        cables > 0 ? 100.0 * static_cast<double>(s.cables[lane]) /
                         static_cast<double>(cables)
                   : 0.0;
    s.nodes_pct[lane] =
        connected_nodes_ > 0
            ? 100.0 * static_cast<double>(s.nodes[lane]) /
                  static_cast<double>(connected_nodes_)
            : 0.0;
  }

  if (!batch_observers_.empty()) {
    BatchTrialView bview;
    bview.first_trial = first_trial;
    bview.lanes = lanes;
    bview.batch = &s.batch;
    bview.cables_failed = s.cables;
    bview.cables_failed_pct = s.cables_pct;
    bview.nodes_unreachable = s.nodes;
    bview.nodes_unreachable_pct = s.nodes_pct;
    bview.largest_component = batch_needs_components_ ? s.largest : nullptr;
    if (batch_needs_labels_) {
      bview.component_labels = s.labels.data();
      bview.node_count = node_count;
    }
    for (TrialObserver* observer : batch_observers_) {
      observer->observe_batch(bview, worker, first_chunk);
    }
  }

  if (!scalar_observers_.empty()) {
    // Reconstruct each lane as a scalar TrialView: same dead bits, same
    // unreachable list, same component decomposition, and the lane's
    // post-draw rng state — everything a scalar observer would have seen.
    for (unsigned lane = 0; lane < lanes; ++lane) {
      kernel.extract_lane(s.batch, lane, s.scalar.cable_dead);
      network().unreachable_nodes(s.scalar.cable_dead, s.scalar.unreachable);
      if (scalar_needs_components_) {
        network().mask_for_failures(s.scalar.cable_dead, s.scalar.mask);
        graph::connected_components(*csr_, s.scalar.mask,
                                    s.scalar.component_scratch,
                                    s.scalar.components);
      }
      TrialView view;
      view.trial = first_trial + lane;
      view.cable_dead = &s.scalar.cable_dead;
      view.cables_failed = s.cables[lane];
      view.cables_failed_pct = s.cables_pct[lane];
      view.unreachable = &s.scalar.unreachable;
      view.nodes_unreachable_pct = s.nodes_pct[lane];
      view.components =
          scalar_needs_components_ ? &s.scalar.components : nullptr;
      view.mask = scalar_needs_components_ ? &s.scalar.mask : nullptr;
      view.rng = &s.batch.lane_rng[lane];
      const std::size_t chunk = first_chunk + lane / kTrialChunk;
      for (TrialObserver* observer : scalar_observers_) {
        observer->observe(view, worker, chunk);
      }
    }
  }
}

void check_chunk_slot(const char* observer, const char* operation,
                      std::size_t chunk, std::size_t slots) {
  if (chunk < slots) return;
  std::string message = std::string(observer) + "::" + operation + ": chunk " +
                        std::to_string(chunk) + " has no accumulator slot (" +
                        std::to_string(slots) + " allocated); " + operation +
                        " is only valid between begin_run() and end_run(), "
                        "for chunks of the current run";
  throw util::Error(util::ErrorCode::kInvalidArgument, message);
}

void ConnectivityObserver::begin_run(const TrialPipeline& pipeline,
                                     std::size_t /*workers*/,
                                     std::size_t chunks) {
  chunks_.assign(chunks, {});
  connected_nodes_ = pipeline.simulator().connected_node_count();
  result_ = {};
}

void ConnectivityObserver::observe(const TrialView& view, std::size_t /*worker*/,
                                   std::size_t chunk) {
  Chunk& slot = chunks_[chunk];
  slot.cables.add(view.cables_failed_pct);
  slot.nodes.add(view.nodes_unreachable_pct);
  const std::size_t largest = view.components->largest_component_size();
  slot.largest.add(connected_nodes_ > 0
                       ? 100.0 * static_cast<double>(largest) /
                             static_cast<double>(connected_nodes_)
                       : 0.0);
}

void ConnectivityObserver::observe_batch(const BatchTrialView& view,
                                         std::size_t /*worker*/,
                                         std::size_t first_chunk) {
  // Same accumulation order and arithmetic as 64 scalar observe() calls:
  // lanes ascending, each into its own chunk slot, percentages already
  // computed with the scalar TrialView formulas.
  for (unsigned lane = 0; lane < view.lanes; ++lane) {
    Chunk& slot = chunks_[first_chunk + lane / TrialPipeline::kTrialChunk];
    slot.cables.add(view.cables_failed_pct[lane]);
    slot.nodes.add(view.nodes_unreachable_pct[lane]);
    slot.largest.add(
        connected_nodes_ > 0
            ? 100.0 * static_cast<double>(view.largest_component[lane]) /
                  static_cast<double>(connected_nodes_)
            : 0.0);
  }
}

void ConnectivityObserver::save_chunk(std::size_t chunk,
                                      util::ByteWriter& out) const {
  check_chunk_slot("ConnectivityObserver", "save_chunk", chunk, chunks_.size());
  const Chunk& slot = chunks_[chunk];
  util::write_stats(out, slot.cables);
  util::write_stats(out, slot.nodes);
  util::write_stats(out, slot.largest);
}

void ConnectivityObserver::load_chunk(std::size_t chunk, util::ByteReader& in) {
  check_chunk_slot("ConnectivityObserver", "load_chunk", chunk, chunks_.size());
  Chunk& slot = chunks_[chunk];
  slot.cables = util::read_stats(in);
  slot.nodes = util::read_stats(in);
  slot.largest = util::read_stats(in);
}

void ConnectivityObserver::end_run() {
  for (const Chunk& slot : chunks_) {
    result_.cables_failed_pct.merge(slot.cables);
    result_.nodes_unreachable_pct.merge(slot.nodes);
    result_.largest_component_pct.merge(slot.largest);
  }
  result_.trials = result_.cables_failed_pct.count();
  chunks_.clear();
}

}  // namespace solarnet::sim
