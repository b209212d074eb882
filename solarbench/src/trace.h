// Spans for the traced run. Spans are recorded from the benchmark's own
// files, around its calls into the library's public functions; they stay in
// memory and are written out once, when the run ends.
//
// Self time. A span's self time is its duration minus the part of its
// interval that its child spans cover (the union of the children's
// intervals, clipped to the parent). Work that runs on several threads at
// once inside one span (a trial loop's observers) is not a span per call:
// it is timed by the observer wrappers in observers.h and subtracted as
// busy time instead (see there).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"

namespace solarnet::solarbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span
  std::uint64_t op = 0;      // the operation the span belongs to; 0: none
  std::string name;
  std::int64_t start_ns = 0;  // since the tracer was created
  std::int64_t end_ns = 0;

  double duration_ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

// Collects the spans of one phase. record() is thread-safe.
class Tracer {
 public:
  explicit Tracer(std::string phase);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  const std::string& phase() const noexcept { return phase_; }
  std::uint64_t next_id() { return next_id_.fetch_add(1); }
  std::int64_t ns_since_origin(Clock::time_point t) const;
  std::int64_t now_ns() const { return ns_since_origin(Clock::now()); }

  void record(Span span);
  // Records a finished interval as a span and returns its id.
  std::uint64_t record(std::string_view name, std::uint64_t parent,
                       std::uint64_t op, Clock::time_point start,
                       Clock::time_point end);
  std::vector<Span> spans() const;

  // Durations, in ms, of every span called `name`.
  std::vector<double> durations_ms(std::string_view name) const;

 private:
  std::string phase_;
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// Opens a span on construction and records it on destruction. A null
// tracer makes it a no-op, so one code path serves traced and untraced
// ops.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, std::uint64_t parent,
             std::uint64_t op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  Span span_;
  std::uint64_t id_ = 0;
};

// Self time of every span, in ns, indexed like `spans` (see the rule at the
// top of this file).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

// One row of the per-layer span table.
struct SpanSummary {
  std::string phase;
  std::string name;
  std::size_t count = 0;
  double median_ms = 0.0;
  double median_self_ms = 0.0;
  double total_ms = 0.0;
};
std::vector<SpanSummary> summarize(const Tracer& tracer);

// Writes the spans of every tracer as Chrome trace-event JSON (one process
// per phase, one thread lane per operation), readable in Perfetto. Throws
// on an I/O error.
void write_trace_json(const std::string& path,
                      const std::vector<const Tracer*>& tracers);

}  // namespace solarnet::solarbench
