// Open-loop load generation: requests are sent on a fixed schedule whether
// or not earlier ones have finished, as independent users would send them.
// Latency is timed from each request's due time, so a stall is charged to
// every request queued behind it.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common.h"

namespace solarnet::solarbench {

// When one request was due, picked up by a client thread, sent, and
// answered.
struct RequestTiming {
  Clock::time_point due;
  Clock::time_point picked;
  Clock::time_point start;
  Clock::time_point end;
};

struct RequestDelays {
  double latency_ms = 0.0;     // end - due: what the user waits
  // start - due: waiting for a free client, then for the client to send.
  double queue_wait_ms = 0.0;
  double late_ms = 0.0;  // start - max(picked, due): generator lateness
  double service_ms = 0.0;     // end - start
};
RequestDelays delays(const RequestTiming& t);

// Sends request i at (start of the run + due_s[i]); due_s must be
// ascending. `clients` threads take requests in due order, sleep until each
// is due and call handle(i, client), which must not throw. Returns one
// timing per request. All threads are joined before it returns.
std::vector<RequestTiming> run_open_loop(
    const std::vector<double>& due_s, std::size_t clients,
    const std::function<void(std::size_t index, std::size_t client)>& handle);

}  // namespace solarnet::solarbench
