// Forwarding observers for the traced run: each wraps one of the library's
// observers, forwards every call to it unchanged, and times the forwarded
// observe()/observe_batch() calls per worker. Results stay in the wrapped
// observer and are bit-identical to an unwrapped run (self-tested).
//
// Busy time. The wrapper constructed with sample_cpu = true (register it
// last) also reads its worker thread's CPU clock after every call. A
// worker's busy time in a run is that clock at its last call minus the
// clock when the worker started: worker 0 is the thread that called run(),
// whose clock is read in begin_run(); workers 1.. are threads the library's
// parallel_for starts fresh for the run. The engine's own work per trial
// (draw, mask, components or playback) is then the workers' busy time minus
// the time spent inside the wrapped observers. Work after the last
// observer call of a worker is not counted; it is at most one trial's
// bookkeeping.
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "sim/pipeline.h"
#include "sim/timeline_engine.h"

namespace solarnet::solarbench {

struct ObserverTotals {
  std::int64_t observe_ns = 0;
  std::uint64_t trials = 0;        // trials delivered through observe()
  std::uint64_t batch_trials = 0;  // lanes delivered through observe_batch()
};

// Per-worker timing slots shared by both wrappers. Each slot is written only
// by its own worker; the slots are read after the run has joined.
class ObserverClock {
 public:
  explicit ObserverClock(bool sample_cpu) : sample_cpu_(sample_cpu) {}

  void begin(std::size_t workers) {
    slots_.assign(workers, Slot{});
    run_thread_cpu_ns_ = sample_cpu_ ? thread_cpu_ns() : 0;
  }

  template <typename Fn>
  void timed(std::size_t worker, std::uint64_t trials, bool batch, Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    Slot& slot = slots_[worker];
    slot.totals.observe_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    (batch ? slot.totals.batch_trials : slot.totals.trials) += trials;
    if (sample_cpu_) slot.cpu_ns = thread_cpu_ns();
  }

  ObserverTotals totals() const {
    ObserverTotals out;
    for (const Slot& s : slots_) {
      out.observe_ns += s.totals.observe_ns;
      out.trials += s.totals.trials;
      out.batch_trials += s.totals.batch_trials;
    }
    return out;
  }

  // Sum over workers of their busy CPU time in the last run (sample_cpu
  // wrappers only; see the header comment).
  std::int64_t busy_ns() const {
    std::int64_t busy = 0;
    for (std::size_t w = 0; w < slots_.size(); ++w) {
      if (slots_[w].cpu_ns < 0) continue;
      busy += slots_[w].cpu_ns - (w == 0 ? run_thread_cpu_ns_ : 0);
    }
    return busy;
  }
  std::size_t workers() const noexcept { return slots_.size(); }

 private:
  struct alignas(64) Slot {
    ObserverTotals totals;
    std::int64_t cpu_ns = -1;  // -1: the worker made no call
  };
  bool sample_cpu_;
  std::int64_t run_thread_cpu_ns_ = 0;
  std::vector<Slot> slots_;
};

class TimedObserver final : public sim::TrialObserver {
 public:
  explicit TimedObserver(sim::TrialObserver& inner, bool sample_cpu = false)
      : inner_(inner), clock_(sample_cpu) {}

  bool needs_components() const override { return inner_.needs_components(); }
  bool supports_batch() const override { return inner_.supports_batch(); }

  void begin_run(const sim::TrialPipeline& pipeline, std::size_t workers,
                 std::size_t chunks) override {
    clock_.begin(workers);
    inner_.begin_run(pipeline, workers, chunks);
  }
  void observe(const sim::TrialView& view, std::size_t worker,
               std::size_t chunk) override {
    clock_.timed(worker, 1, false,
                 [&] { inner_.observe(view, worker, chunk); });
  }
  void observe_batch(const sim::BatchTrialView& view, std::size_t worker,
                     std::size_t first_chunk) override {
    clock_.timed(worker, view.lanes, true,
                 [&] { inner_.observe_batch(view, worker, first_chunk); });
  }
  void end_run() override { inner_.end_run(); }

  const ObserverClock& clock() const noexcept { return clock_; }

 private:
  sim::TrialObserver& inner_;
  ObserverClock clock_;
};

class TimedTimelineObserver final : public sim::TimelineObserver {
 public:
  explicit TimedTimelineObserver(sim::TimelineObserver& inner,
                                 bool sample_cpu = false)
      : inner_(inner), clock_(sample_cpu) {}

  void begin_run(const sim::TimelineEngine& engine, std::size_t workers,
                 std::size_t chunks) override {
    clock_.begin(workers);
    inner_.begin_run(engine, workers, chunks);
  }
  void observe(const sim::TimelineView& view, std::size_t worker,
               std::size_t chunk) override {
    clock_.timed(worker, 1, false,
                 [&] { inner_.observe(view, worker, chunk); });
  }
  void end_run() override { inner_.end_run(); }

  const ObserverClock& clock() const noexcept { return clock_; }

 private:
  sim::TimelineObserver& inner_;
  ObserverClock clock_;
};

}  // namespace solarnet::solarbench
