#include "open_loop.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>

namespace solarnet::solarbench {

RequestDelays delays(const RequestTiming& t) {
  RequestDelays d;
  d.latency_ms = ms_between(t.due, t.end);
  d.queue_wait_ms = std::max(0.0, ms_between(t.due, t.start));
  d.late_ms = ms_between(std::max(t.picked, t.due), t.start);
  d.service_ms = ms_between(t.start, t.end);
  return d;
}

namespace {
constexpr std::chrono::microseconds kSpin{500};
}  // namespace

std::vector<RequestTiming> run_open_loop(
    const std::vector<double>& due_s, std::size_t clients,
    const std::function<void(std::size_t, std::size_t)>& handle) {
  if (clients == 0) throw std::invalid_argument("run_open_loop: no clients");
  std::vector<RequestTiming> timings(due_s.size());
  std::atomic<std::size_t> next{0};
  // A short lead so every client is running before the first request.
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(5);
  const auto client = [&](std::size_t id) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= due_s.size()) return;
      RequestTiming& t = timings[i];
      t.picked = Clock::now();
      t.due = origin + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(due_s[i]));
      // Sleep until shortly before the due time, then spin: a sleeping
      // thread wakes tens to hundreds of microseconds late, which would
      // otherwise dominate the latency of a cache hit.
      std::this_thread::sleep_until(t.due - kSpin);
      while (Clock::now() < t.due) std::this_thread::yield();
      t.start = Clock::now();
      handle(i, id);
      t.end = Clock::now();
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  }  // jthread joins on destruction
  return timings;
}

}  // namespace solarnet::solarbench
