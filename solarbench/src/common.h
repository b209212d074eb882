// Shared pieces of the solarnet benchmark: clocks, the seeded input
// generator, percentiles with their sample counts, metric records and
// bit-exact result digests.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "datasets/datacenters.h"
#include "services/availability.h"
#include "util/stats.h"

namespace solarnet::solarbench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU time consumed so far by the calling thread, in nanoseconds.
std::int64_t thread_cpu_ns();

// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// Moves the calling thread onto the (n mod count)-th CPU it may run on,
// then lets it run anywhere again, so threads it starts keep the full CPU
// set. Single-threaded ops call it with their op index: on a host whose
// CPUs run at different speeds from moment to moment, rotating the ops
// over all CPUs keeps one slow CPU from biasing a whole run.
void rotate_cpu(std::size_t n);

// SplitMix64. The benchmark generates every input from --seed with its own
// generator, so the inputs never depend on the library's RNG.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                   // [0, 1)
  std::size_t below(std::size_t n);   // [0, n); n > 0
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

// A percentile and the number of samples it was taken over.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

// Nearest-rank percentile: the smallest sample with at least a share q of
// all samples at or below it, q in (0, 1]. Throws std::invalid_argument on
// an empty sample or a q outside (0, 1].
Percentile percentile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5).value;
}

// One reported number. `samples` is the sample count behind a percentile
// or median (0 for counts and ratios).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

// Operations attempted, and those that failed: threw, returned an error
// body, or produced a result that differs from its reference.
struct OpCount {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

// What one phase hands back to main.
struct PhaseResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  OpCount ops;
  double setup_s = 0.0;  // median over this phase's set-ups
  std::vector<std::string> failures;  // one line per failed check
};

// How main builds a phase.
struct PhaseOptions {
  std::uint64_t seed = 1;
  // The workload's own phase repeats its set-up kSetupRepeats times and
  // checks its outputs against reference runs. A companion phase (there so
  // that every workload reports every metric) sets up once and leaves the
  // reference runs to its own workload.
  bool primary = true;
  // The phase's share of the run, in seconds: serve_mix plans this many
  // seconds of requests.
  double seconds = 10.0;
  // Non-null in the traced run: ops alternate between traced and untraced,
  // and the traced ones record spans here.
  Tracer* tracer = nullptr;
  std::string donki_path;  // the bundled DONKI storm file
};

inline constexpr int kSetupRepeats = 5;

// The country list of the report's isolation section and of the server.
const std::vector<std::string>& report_countries();

// The data-center service the report evaluates for `op` (the same spec
// core::ScenarioRunner and the server build).
services::ServiceSpec datacenter_service(datasets::DataCenterOperator op,
                                         std::size_t write_quorum);

// Bit-exact digests: two results compare equal iff every aggregate is
// bit-identical (count, mean, M2, min, max).
void append_digest(std::string& out, const util::RunningStats& stats);
void append_digest(std::string& out, double value);
void append_digest(std::string& out, std::uint64_t value);

}  // namespace solarnet::solarbench
