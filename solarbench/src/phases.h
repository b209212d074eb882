// The benchmark's three phases. Every run builds all three and gives them
// turns on the CPU, one at a time, round-robin over the whole run: the
// workload's own phase (the primary) gets 40% of each round, the other two
// (the companions) 30% each. Every run so reports every end-to-end
// metric, and every metric samples the whole run (README.md explains why).
#pragma once

#include <memory>

#include "common.h"

namespace solarnet::solarbench {

// One phase of a run. The factory functions below do the set-up (timed
// into setup_s()); run_turn runs ops until a deadline; finish checks the
// outputs and computes the metrics, once, after the last turn.
class Phase {
 public:
  virtual ~Phase() = default;
  // Runs ops until `deadline`, and at least one op (campaign: one round of
  // its four op kinds).
  virtual void run_turn(Clock::time_point deadline) = 0;
  virtual PhaseResult finish() = 0;
};

// report_cold: what one `solarnet report --trials 48` invocation does, in
// process, as a closed loop with one caller.
std::unique_ptr<Phase> make_report_phase(const PhaseOptions& options);

// campaign: resident World and engines; pipeline, sweep, timeline and
// traffic runs as a closed loop with one caller.
std::unique_ptr<Phase> make_campaign_phase(const PhaseOptions& options);

// serve_mix: an in-process ScenarioService under an open-loop request mix.
std::unique_ptr<Phase> make_serve_phase(const PhaseOptions& options);

// The fixed offered rate of serve_mix, requests per second.
inline constexpr double kServeRate = 130.0;
// Requests within this limit (from their due time) count toward goodput.
inline constexpr double kServeLimitMs = 50.0;

// Runs the benchmark's self-tests; returns the number of failures and
// prints each one to stderr.
int run_selftests();

}  // namespace solarnet::solarbench
