// Self-tests of the benchmark's own helpers. They run before every
// benchmark run (a failure aborts it) and alone with --selftest.
#include <atomic>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "datasets/submarine.h"
#include "gic/failure_model.h"
#include "observers.h"
#include "open_loop.h"
#include "phases.h"
#include "sim/pipeline.h"
#include "trace.h"

namespace solarnet::solarbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cerr << "selftest FAILED: " << what << "\n";
}

void test_percentile() {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  expect(percentile(v, 0.5).value == 3 && percentile(v, 0.5).samples == 5,
         "p50 of 1..5 is 3 over 5 samples");
  expect(percentile(v, 0.9).value == 5, "p90 of 1..5 is 5");
  expect(percentile(v, 0.2).value == 1, "p20 of 1..5 is 1");
  expect(percentile(v, 1.0).value == 5, "p100 is the maximum");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(percentile(hundred, 0.99).value == 99, "p99 of 1..100 is 99");
  bool threw = false;
  try {
    percentile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "percentile of no samples throws");
}

void test_request_delays() {
  using std::chrono::microseconds;
  const Clock::time_point due = Clock::now();
  // An idle client: picked before due, sent 100 us late.
  RequestTiming idle{due, due - microseconds(2000), due + microseconds(100),
                     due + microseconds(5000)};
  RequestDelays d = delays(idle);
  expect(std::abs(d.latency_ms - 5.0) < 1e-9, "latency is end - due");
  expect(std::abs(d.queue_wait_ms - 0.1) < 1e-9,
         "a free client queues only its lateness");
  expect(std::abs(d.late_ms - 0.1) < 1e-9, "lateness is start - due");
  expect(std::abs(d.service_ms - 4.9) < 1e-9, "service is end - start");
  // A busy client: picked 3 ms after due.
  RequestTiming busy{due, due + microseconds(3000), due + microseconds(3050),
                     due + microseconds(4000)};
  d = delays(busy);
  expect(std::abs(d.latency_ms - 4.0) < 1e-9, "latency counts the queue");
  expect(std::abs(d.queue_wait_ms - 3.05) < 1e-9, "queue wait is start - due");
  expect(std::abs(d.late_ms - 0.05) < 1e-9, "lateness is start - picked");

  // One client, three requests 1 ms apart, 10 ms each: the second waits
  // for the first, and its latency from due counts that wait.
  const std::vector<RequestTiming> t = run_open_loop(
      {0.0, 0.001, 0.002}, 1, [](std::size_t, std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      });
  expect(t.size() == 3, "one timing per request");
  expect(delays(t[1]).queue_wait_ms >= 8.0, "a busy client queues request 2");
  expect(delays(t[1]).latency_ms >= 18.0, "latency from due includes queueing");
  expect(delays(t[2]).latency_ms >= 27.0, "the queue grows behind a stall");
  expect(t[0].start >= t[0].due, "no request is sent before it is due");
}

void test_self_time() {
  // parent [0,100]: children [10,30] and [20,50] overlap, [90,120] runs
  // past the parent's end; [12,15] is a grandchild.
  std::vector<Span> spans = {
      {1, 0, 1, "parent", 0, 100}, {2, 1, 1, "c1", 10, 30},
      {3, 1, 1, "c2", 20, 50},     {4, 1, 1, "c3", 90, 120},
      {5, 2, 1, "g", 12, 15},
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  expect(self[0] == 50, "parent self = 100 - |[10,50] u [90,100]|");
  expect(self[1] == 17, "c1 self = 20 - 3");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 3,
         "childless spans keep their duration");
}

// A stand-in observer that records what reached it.
class FakeObserver final : public sim::TrialObserver {
 public:
  FakeObserver(bool components, bool batch)
      : components_(components), batch_(batch) {}
  bool needs_components() const override { return components_; }
  bool supports_batch() const override { return batch_; }
  void begin_run(const sim::TrialPipeline&, std::size_t, std::size_t) override {
    ++begins;
  }
  void observe(const sim::TrialView&, std::size_t, std::size_t) override {
    ++observed;
  }
  void observe_batch(const sim::BatchTrialView& view, std::size_t,
                     std::size_t) override {
    batched += view.lanes;
  }
  void end_run() override { ++ends; }
  int begins = 0;
  int ends = 0;
  // Workers call observe() concurrently.
  std::atomic<std::size_t> observed{0};
  std::atomic<std::size_t> batched{0};

 private:
  bool components_;
  bool batch_;
};

void test_observer_wrapper() {
  for (const bool components : {false, true}) {
    for (const bool batch : {false, true}) {
      FakeObserver inner(components, batch);
      const TimedObserver wrapper(inner);
      expect(wrapper.needs_components() == components,
             "wrapper forwards needs_components");
      expect(wrapper.supports_batch() == batch,
             "wrapper forwards supports_batch");
    }
  }

  // Through a real pipeline: the batch-capable observer gets observe_batch,
  // the scalar one observe, and wrapped results equal unwrapped ones.
  const topo::InfrastructureNetwork net =
      datasets::make_submarine_network({});
  const sim::FailureSimulator simulator(net, sim::TrialConfig{});
  const auto model = gic::make_s1();
  constexpr std::size_t kTrials = 256;

  sim::TrialPipeline plain(simulator, *model);
  sim::ConnectivityObserver plain_connectivity;
  plain.add_observer(plain_connectivity);
  plain.run(kTrials, 42);

  sim::TrialPipeline wrapped(simulator, *model);
  sim::ConnectivityObserver connectivity;
  FakeObserver scalar(false, false);
  TimedObserver timed_connectivity(connectivity);
  TimedObserver timed_scalar(scalar, true);
  wrapped.add_observer(timed_connectivity);
  wrapped.add_observer(timed_scalar);
  wrapped.run(kTrials, 42);

  const auto digest = [](const sim::ConnectivityObserver::Result& r) {
    std::string out;
    append_digest(out, r.cables_failed_pct);
    append_digest(out, r.nodes_unreachable_pct);
    append_digest(out, r.largest_component_pct);
    return out;
  };
  expect(digest(plain_connectivity.result()) == digest(connectivity.result()),
         "wrapped results are bit-identical to unwrapped ones");
  const ObserverTotals conn = timed_connectivity.clock().totals();
  expect(conn.batch_trials == kTrials && conn.trials == 0,
         "the batch path reaches the wrapped observer's observe_batch");
  expect(scalar.observed == kTrials && scalar.begins == 1 && scalar.ends == 1,
         "a scalar observer sees every trial and one begin/end");
  expect(timed_scalar.clock().totals().trials == kTrials,
         "the wrapper counts forwarded trials");
  expect(timed_scalar.clock().busy_ns() > 0, "worker busy time is sampled");
}

}  // namespace

int run_selftests() {
  failures = 0;
  test_percentile();
  test_request_delays();
  test_self_time();
  test_observer_wrapper();
  return failures;
}

}  // namespace solarnet::solarbench
