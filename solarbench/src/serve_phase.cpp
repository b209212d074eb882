// serve_mix: an in-process ScenarioService, built as `solarnet serve` builds
// it (World without the population grid and routers, default cache and
// threads), answering an open-loop request mix from at most kClients client
// threads calling handle_line:
//   ~70%  repeats from a Zipf-distributed hot set warmed in set-up (hits);
//   ~25%  warm-engine misses: a hot scenario with a fresh seed, a quarter
//         each of report, sweep, timeline and report+traffic;
//   ~4%   cold-engine misses, one per 25 requests: a new uniform p or a
//         new spacing, so the service builds a new engine bundle;
//   ~1%   duplicates of every 4th cold miss, sent one slot later, which
//         coalesce onto it.
// Requests are due at a constant rate (kServeRate) within each of the
// phase's turns; latency is timed from the due time. Between turns the
// service sits idle with its cache and engines resident.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/connectivity.h"
#include "analysis/country.h"
#include "analysis/dns_resolution.h"
#include "analysis/outage.h"
#include "core/world.h"
#include "gic/failure_model.h"
#include "gic/timeline.h"
#include "open_loop.h"
#include "phases.h"
#include "routing/demand.h"
#include "routing/traffic_observer.h"
#include "server/request.h"
#include "server/scenario_service.h"
#include "services/availability.h"
#include "sim/pipeline.h"
#include "sim/sweep.h"
#include "sim/timeline_engine.h"
#include "trace.h"

namespace solarnet::solarbench {
namespace {

constexpr std::uint64_t kServeSalt = 0x73657276652d6d78ULL;
constexpr std::size_t kClients = 3;
constexpr std::size_t kCheckedBodies = 6;
constexpr std::size_t kColdBlock = 25;  // 4% cold misses
constexpr std::size_t kColdJitter = 4;
constexpr std::size_t kDupEvery = 4;  // 1% duplicates

enum class Kind { kReport, kSweep, kTimeline, kTraffic };
constexpr std::size_t kKinds = 4;
constexpr const char* kKindName[kKinds] = {"report", "sweep", "timeline",
                                           "traffic"};

enum class Class { kHit, kWarmMiss, kColdMiss, kDuplicate };

// A scenario whose engine bundle the service keeps resident; requests for
// it differ only in their seed.
struct Scenario {
  Kind kind;
  std::string model = "s1";
  double p = 0.0;          // "uniform" only
  std::string grid;        // sweep grid, "" = the paper grid
  double spacing_km = 0.0; // 0 = the default 150 km
};

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string request_line(const Scenario& s, std::uint64_t seed) {
  std::string line = "{\"cmd\":\"";
  line += s.kind == Kind::kSweep      ? "sweep"
          : s.kind == Kind::kTimeline ? "timeline"
                                      : "report";
  line += "\"";
  if (s.kind != Kind::kSweep) {
    line += ",\"model\":\"" + s.model + "\"";
    if (s.model == "uniform") line += ",\"p\":" + format_number(s.p);
  }
  if (s.kind == Kind::kTraffic) line += ",\"traffic\":1";
  if (!s.grid.empty()) line += ",\"grid\":[" + s.grid + "]";
  if (s.spacing_km > 0.0) line += ",\"spacing\":" + format_number(s.spacing_km);
  line += ",\"trials\":";
  line += s.kind == Kind::kTraffic ? "32" : "64";
  line += ",\"seed\":" + std::to_string(seed) + "}";
  return line;
}

// The hot scenarios, and how many hot-set lines (seeds) each contributes.
const std::vector<std::pair<Scenario, std::size_t>>& hot_scenarios() {
  const auto scenario = [](Kind kind, std::string model, double p = 0.0,
                           std::string grid = "") {
    return Scenario{kind, std::move(model), p, std::move(grid), 0.0};
  };
  static const std::vector<std::pair<Scenario, std::size_t>> hot = {
      {scenario(Kind::kReport, "s1"), 4},
      {scenario(Kind::kReport, "s2"), 3},
      {scenario(Kind::kReport, "uniform", 0.01), 3},
      {scenario(Kind::kTraffic, "s1"), 2},
      {scenario(Kind::kSweep, "s1"), 4},
      {scenario(Kind::kSweep, "s1", 0.0, "0.001,0.01,0.1"), 2},
      {scenario(Kind::kTimeline, "s1"), 3},
      {scenario(Kind::kTimeline, "s2"), 3},
  };
  return hot;
}

struct Planned {
  std::string line;
  Class cls;
  Kind kind;
};

// The seeded request mix: `n` requests in send order.
struct Plan {
  std::vector<std::string> hot_lines;
  std::vector<Planned> requests;
};

Plan make_plan(std::uint64_t seed, std::size_t n) {
  InputRng rng(seed ^ kServeSalt);
  std::set<std::uint64_t> used_seeds;
  const auto fresh_seed = [&] {
    for (;;) {
      const std::uint64_t s = rng.next() % 1'000'000'000ULL;
      if (used_seeds.insert(s).second) return s;
    }
  };

  Plan plan;
  std::vector<std::pair<std::string, Kind>> hot;
  for (const auto& [scenario, count] : hot_scenarios()) {
    for (std::size_t i = 0; i < count; ++i) {
      hot.emplace_back(request_line(scenario, fresh_seed()), scenario.kind);
    }
  }
  rng.shuffle(hot);  // rank order of the Zipf draw
  for (const auto& h : hot) plan.hot_lines.push_back(h.first);
  std::vector<double> zipf_cdf;
  double total = 0.0;
  for (std::size_t r = 1; r <= hot.size(); ++r) {
    total += 1.0 / static_cast<double>(r);
    zipf_cdf.push_back(total);
  }

  // One cold miss near the middle of every block of kColdBlock requests, at
  // a seeded offset of up to kColdJitter slots: placing them at random over
  // the whole run instead lets the tail percentiles swing with how the cold
  // misses happen to clump.
  const std::size_t n_dup = (n + 50) / 100;
  const std::size_t slots = n - n_dup;
  const std::size_t n_cold = slots / kColdBlock;
  const std::size_t n_warm = (25 * n + 50) / 100;
  std::vector<Class> others(slots - n_cold - n_warm, Class::kHit);
  others.insert(others.end(), n_warm, Class::kWarmMiss);
  rng.shuffle(others);
  std::vector<Class> classes;
  std::size_t next_other = 0;
  for (std::size_t block = 0; block < n_cold; ++block) {
    const std::size_t cold_at =
        kColdBlock / 2 - kColdJitter + rng.below(2 * kColdJitter + 1);
    for (std::size_t k = 0; k < kColdBlock; ++k) {
      classes.push_back(k == cold_at ? Class::kColdMiss : others[next_other++]);
    }
  }
  while (next_other < others.size()) classes.push_back(others[next_other++]);

  std::set<double> used_p;
  std::set<double> used_spacing;
  std::size_t cold_index = 0;
  // Warm-miss kinds are dealt from shuffled decks of all four, so each kind
  // gets a quarter of the warm misses whatever the seed: the miss median
  // falls between the kinds' latencies, and a seeded mix would move it.
  std::vector<Kind> warm_kinds;
  std::vector<Planned> base;
  for (const Class cls : classes) {
    if (cls == Class::kHit) {
      const double u = rng.uniform() * total;
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
          zipf_cdf.begin());
      const std::size_t r = std::min(rank, hot.size() - 1);
      base.push_back({hot[r].first, cls, hot[r].second});
      continue;
    }
    if (cls == Class::kWarmMiss) {
      if (warm_kinds.empty()) {
        warm_kinds = {Kind::kReport, Kind::kSweep, Kind::kTimeline,
                      Kind::kTraffic};
        rng.shuffle(warm_kinds);
      }
      const Kind kind = warm_kinds.back();
      warm_kinds.pop_back();
      std::vector<const Scenario*> of_kind;
      for (const auto& h : hot_scenarios()) {
        if (h.first.kind == kind) of_kind.push_back(&h.first);
      }
      const Scenario& s = *of_kind[rng.below(of_kind.size())];
      base.push_back({request_line(s, fresh_seed()), cls, kind});
      continue;
    }
    // Cold: alternately a report with a new uniform p, and a scenario of
    // each kind in turn at a new repeater spacing.
    Scenario s = hot_scenarios()[0].first;
    if (cold_index % 2 == 0) {
      s.model = "uniform";
      do {
        s.p = 0.002 + 0.0001 * static_cast<double>(rng.below(2000));
      } while (std::abs(s.p - 0.01) < 1e-9 || !used_p.insert(s.p).second);
    } else {
      const auto kind = static_cast<Kind>((cold_index / 2) % kKinds);
      for (const auto& h : hot_scenarios()) {
        if (h.first.kind == kind) {
          s = h.first;
          break;
        }
      }
      do {
        s.spacing_km = 100.0 + 0.05 * static_cast<double>(rng.below(2000));
      } while (s.spacing_km == 150.0 || !used_spacing.insert(s.spacing_km).second);
    }
    ++cold_index;
    base.push_back({request_line(s, fresh_seed()), cls, s.kind});
  }

  // Every kDupEvery-th cold miss (always a new-p report, whose engine build
  // takes long enough for the duplicate to find it in flight) is sent again
  // one slot later.
  std::size_t colds = 0;
  for (const Planned& request : base) {
    plan.requests.push_back(request);
    if (request.cls == Class::kColdMiss && colds++ % kDupEvery == 0) {
      plan.requests.push_back({request.line, Class::kDuplicate, request.kind});
    }
  }
  return plan;
}

bool body_ok(const server::Body& body) {
  return body != nullptr && body->rfind("{\"ok\":true", 0) == 0;
}

std::unique_ptr<gic::RepeaterFailureModel> model_for(
    const server::ScenarioRequest& req) {
  if (req.model == "uniform") return gic::make_uniform(req.uniform_p);
  if (req.model == "s2") return gic::make_s2();
  return gic::make_s1();
}

// The body a served request must equal, recomputed through the library's
// engines and the server's body serializers, without the service.
std::string direct_body(const server::ScenarioRequest& req,
                        const core::World& world) {
  const topo::InfrastructureNetwork& net = world.submarine();
  sim::TrialConfig config;
  config.repeater_spacing_km = req.spacing_km;
  config.engine = req.engine;
  const sim::FailureSimulator simulator(net, config);
  const std::unique_ptr<gic::RepeaterFailureModel> model = model_for(req);
  if (req.kind == server::RequestKind::kSweep) {
    const std::vector<double> grid =
        req.grid.empty() ? analysis::default_probability_grid() : req.grid;
    return server::serialize_sweep_body(
        req, sim::SweepEngine::uniform(simulator, grid)
                 .run(req.trials, req.seed));
  }
  if (req.kind == server::RequestKind::kTimeline) {
    sim::TimelineConfig tc = sim::TimelineConfig::from_profile(
        gic::StormPhaseProfile{}, req.timeline_step_hours);
    tc.repair_steps = req.repair_steps;
    tc.repair_step_hours = req.repair_step_days * 24.0;
    tc.fleet.cable_ships = req.ships;
    sim::TimelineEngine engine(simulator,
                               simulator.death_probability_table(*model), tc);
    sim::TimelineConnectivityObserver connectivity(req.partition_threshold_pct);
    analysis::CountryOutageObserver outage(net, report_countries());
    engine.add_observer(connectivity);
    engine.add_observer(outage);
    engine.run(req.trials, req.seed);
    return server::serialize_timeline_body(req, engine, connectivity.result(),
                                           outage.results());
  }
  sim::TrialPipeline pipeline(simulator, *model);
  sim::ConnectivityObserver connectivity;
  services::AvailabilityObserver google(
      net, datacenter_service(datasets::DataCenterOperator::kGoogle,
                              req.quorum));
  services::AvailabilityObserver facebook(
      net, datacenter_service(datasets::DataCenterOperator::kFacebook,
                              req.quorum));
  analysis::DnsResolutionObserver dns(net, world.dns_roots(),
                                      req.dns_threshold_pct);
  analysis::CountryIsolationObserver isolation(net, report_countries());
  for (sim::TrialObserver* o : std::initializer_list<sim::TrialObserver*>{
           &connectivity, &google, &facebook, &dns, &isolation}) {
    pipeline.add_observer(*o);
  }
  std::optional<routing::TrafficEngine> traffic_engine;
  std::optional<routing::TrafficObserver> traffic;
  if (req.traffic) {
    traffic_engine.emplace(net, routing::gravity_demands(net));
    traffic.emplace(*traffic_engine);
    pipeline.add_observer(*traffic);
  }
  pipeline.run(req.trials, req.seed);
  return server::serialize_report_body(
      req, connectivity.result(), google.result(), facebook.result(),
      dns.result(), isolation.results(),
      traffic ? &traffic->result() : nullptr);
}

core::WorldConfig serve_world_config() {
  core::WorldConfig config;
  config.build_population = false;  // as cmd_serve
  config.build_routers = false;
  return config;
}

// The resident service and its world, warmed with the hot set.
struct Server {
  Server(const std::vector<std::string>& hot_lines, Tracer* tracer)
      : world(core::World::generate(serve_world_config())),
        service(server::ServiceContext::from_world(world),
                server::ServiceOptions{}) {
    const ScopedSpan span(tracer, "serve.warm_hot_set", 0, 0);
    server::RequestScratch scratch;
    for (const std::string& line : hot_lines) {
      if (!body_ok(service.handle_line(line, scratch))) {
        throw std::runtime_error("hot-set request failed: " + line);
      }
    }
  }
  core::World world;
  server::ScenarioService service;
};

void add_p(std::vector<Metric>& out, const char* name,
           const std::vector<double>& samples, double q, const char* unit,
           double scale = 1.0) {
  if (samples.empty()) return;
  const Percentile p = percentile(samples, q);
  out.push_back({name, p.value * scale, unit, p.samples});
}

class ServePhase final : public Phase {
 public:
  explicit ServePhase(const PhaseOptions& o)
      : o_(o),
        plan_(make_plan(o.seed, planned_requests(o.seconds))),
        timings_(plan_.requests.size()),
        bodies_(plan_.requests.size()),
        request_span_(plan_.requests.size(), 0),
        scratch_(kClients) {
    std::vector<double> setups;
    for (int r = 0; r < (o.primary ? kSetupRepeats : 1); ++r) {
      srv_.reset();
      rotate_cpu(static_cast<std::size_t>(r));
      const Clock::time_point t0 = Clock::now();
      srv_ = std::make_unique<Server>(plan_.hot_lines, o.tracer);
      setups.push_back(seconds_between(t0, Clock::now()));
    }
    result_.setup_s = median(setups);
    before_ = srv_->service.stats();
  }

  // The next stretch of the schedule: as many requests as are due at
  // kServeRate before `deadline`, and at least one, due from now on.
  void run_turn(Clock::time_point deadline) override {
    const std::size_t first = sent_;
    const double turn_s =
        std::max(0.0, seconds_between(Clock::now(), deadline));
    const std::size_t count = std::max<std::size_t>(
        1, static_cast<std::size_t>(turn_s * kServeRate));
    const std::size_t end = std::min(first + count, plan_.requests.size());
    if (first == end) return;
    std::vector<double> due;
    for (std::size_t i = first; i < end; ++i) {
      due.push_back(static_cast<double>(i - first) / kServeRate);
    }
    Tracer* tracer = o_.tracer;
    server::ScenarioService& service = srv_->service;
    // Traced runs trace every other request: its handle_line span is
    // recorded by the client as it finishes; the request span around it
    // (from the due time) and its queue span are recorded in finish(),
    // under the id reserved here.
    const std::vector<RequestTiming> timings = run_open_loop(
        due, kClients, [&](std::size_t local, std::size_t client) {
          const std::size_t i = first + local;
          const bool traced = tracer != nullptr && i % 2 == 0;
          const Clock::time_point t0 = Clock::now();
          bodies_[i] =
              service.handle_line(plan_.requests[i].line, scratch_[client]);
          if (traced) {
            request_span_[i] = tracer->next_id();
            tracer->record("server.handle_line", request_span_[i], i + 1, t0,
                           Clock::now());
          }
        });
    Clock::time_point last_end = timings.front().end;
    for (std::size_t k = 0; k < timings.size(); ++k) {
      timings_[first + k] = timings[k];
      last_end = std::max(last_end, timings[k].end);
    }
    window_s_ += seconds_between(timings.front().due, last_end);
    sent_ = end;
  }

  PhaseResult finish() override;

 private:
  // The phase's share of the run at kServeRate, with room for turns that
  // overrun their share.
  static std::size_t planned_requests(double seconds) {
    return static_cast<std::size_t>(kServeRate * seconds * 1.25) + 100;
  }

  const PhaseOptions o_;
  const Plan plan_;
  PhaseResult result_;
  std::unique_ptr<Server> srv_;
  server::ScenarioService::Stats before_;
  std::vector<RequestTiming> timings_;
  std::vector<server::Body> bodies_;
  std::vector<std::uint64_t> request_span_;
  std::vector<server::RequestScratch> scratch_;
  std::size_t sent_ = 0;   // requests sent so far, in plan order
  double window_s_ = 0.0;  // the turns' due-to-last-answer windows
};

PhaseResult ServePhase::finish() {
  PhaseResult& result = result_;
  Tracer* tracer = o_.tracer;
  const Plan& plan = plan_;
  const std::size_t total = sent_;
  const std::vector<server::Body>& bodies = bodies_;
  const server::ScenarioService::Stats& before = before_;
  const server::ScenarioService::Stats after = srv_->service.stats();

  // Latency samples by class, and goodput.
  std::vector<double> all_ms;
  std::vector<double> hit_ms;
  // Miss latencies per class: the four warm kinds, then cold.
  std::vector<std::vector<double>> miss_ms(kKinds + 1);
  std::vector<double> queue_ms;
  std::vector<double> late_ms;
  std::vector<double> hit_service_ms;
  std::vector<double> traced_hit_ms;
  std::vector<double> untraced_hit_ms;
  std::vector<double> cold_service_ms;
  std::vector<std::vector<double>> warm_service_ms(kKinds);
  std::size_t good = 0;
  std::uint64_t error_bodies = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const Planned& req = plan.requests[i];
    const RequestTiming& t = timings_[i];
    const RequestDelays d = delays(t);
    ++result.ops.attempted;
    const bool ok = body_ok(bodies[i]);
    if (!ok) {
      ++result.ops.failed;
      ++error_bodies;
      result.failures.push_back("served error for " + req.line + ": " +
                                (bodies[i] ? *bodies[i] : std::string("null")));
    }
    all_ms.push_back(d.latency_ms);
    queue_ms.push_back(d.queue_wait_ms);
    late_ms.push_back(d.late_ms);
    if (ok && d.latency_ms <= kServeLimitMs) ++good;
    const bool traced = tracer != nullptr && i % 2 == 0;
    switch (req.cls) {
      case Class::kHit:
        hit_ms.push_back(d.latency_ms);
        hit_service_ms.push_back(d.service_ms);
        if (tracer != nullptr) {
          (traced ? traced_hit_ms : untraced_hit_ms).push_back(d.service_ms);
        }
        break;
      case Class::kWarmMiss:
        miss_ms[static_cast<std::size_t>(req.kind)].push_back(d.latency_ms);
        warm_service_ms[static_cast<std::size_t>(req.kind)].push_back(
            d.service_ms);
        break;
      case Class::kColdMiss:
        miss_ms[kKinds].push_back(d.latency_ms);
        cold_service_ms.push_back(d.service_ms);
        break;
      case Class::kDuplicate:
        break;
    }
    if (traced) {
      static constexpr const char* kClassName[] = {
          "serve.hit", "serve.miss_warm", "serve.miss_cold", "serve.duplicate"};
      Span span;
      span.id = request_span_[i];
      span.op = i + 1;
      span.name = kClassName[static_cast<int>(req.cls)];
      span.start_ns = tracer->ns_since_origin(t.due);
      span.end_ns = tracer->ns_since_origin(t.end);
      tracer->record(std::move(span));
      tracer->record("serve.queue", request_span_[i], i + 1, t.due, t.start);
    }
  }
  // Output checks: cache and error counters, and a seeded sample of served
  // bodies (one per kind, then any) against a direct recomputation. (A
  // companion leaves the sample to serve_mix's own runs.)
  // Every error the server counts returns an error body, which is already
  // a failed op; errors beyond those are failed ops too.
  const std::uint64_t errors = after.errors - before.errors;
  if (errors > error_bodies) {
    result.ops.failed += errors - error_bodies;
    result.failures.push_back("server counted " + std::to_string(errors) +
                              " errors for " + std::to_string(error_bodies) +
                              " error bodies");
  }
  if (after.cache.evictions != 0) {
    ++result.ops.failed;
    result.failures.push_back(
        "the cache evicted entries; the mix is meant to fit in it");
  }
  if (o_.primary) {
    InputRng pick(o_.seed ^ kServeSalt ^ 0xc4ec4ULL);
    std::vector<std::size_t> sample;
    for (std::size_t k = 0; k < kKinds; ++k) {
      std::vector<std::size_t> of_kind;
      for (std::size_t i = 0; i < total; ++i) {
        if (static_cast<std::size_t>(plan.requests[i].kind) == k) {
          of_kind.push_back(i);
        }
      }
      if (!of_kind.empty()) sample.push_back(of_kind[pick.below(of_kind.size())]);
    }
    while (sample.size() < kCheckedBodies && total > 0) {
      sample.push_back(pick.below(total));
    }
    server::ScenarioRequest req;
    for (const std::size_t i : sample) {
      if (!body_ok(bodies[i])) continue;  // already counted
      server::parse_request(plan.requests[i].line, req);
      if (direct_body(req, srv_->world) != *bodies[i]) {
        ++result.ops.failed;
        result.failures.push_back("served body differs from the direct run: " +
                                  plan.requests[i].line);
      }
    }
  }

  auto& e2e = result.end_to_end;
  add_p(e2e, "serve_ms_p50", all_ms, 0.5, "ms");
  add_p(e2e, "serve_ms_p99", all_ms, 0.99, "ms");
  // The miss classes' latencies lie apart (a warm sweep ~1 ms, a warm
  // report ~6 ms, a cold build ~130 ms), so the median of all misses falls
  // between two of them and jumps with small shifts in either. The metric
  // is the geometric mean of the classes' medians instead.
  double log_sum = 0.0;
  std::size_t classes = 0;
  std::size_t misses = 0;
  for (const std::vector<double>& ms : miss_ms) {
    if (ms.empty()) continue;
    log_sum += std::log(median(ms));
    misses += ms.size();
    ++classes;
  }
  if (classes > 0) {
    e2e.push_back({"serve_miss_ms_p50",
                   std::exp(log_sum / static_cast<double>(classes)), "ms",
                   misses});
  }
  e2e.push_back({"serve_goodput_rps", static_cast<double>(good) / window_s_,
                 "1/s", total});

  auto& layer = result.per_layer;
  // Head-of-line blocking. Not an end-to-end metric: hits either pass
  // straight through or wait up to a cold build, and where the p99 falls
  // between the two moves by ±50% from run to run on this host.
  add_p(layer, "serve_hit_ms_p99", hit_ms, 0.99, "ms");
  add_p(layer, "server.queue_wait_ms_p99", queue_ms, 0.99, "ms");
  add_p(layer, "server.hit_us_p50", hit_service_ms, 0.5, "us", 1e3);
  for (std::size_t k = 0; k < kKinds; ++k) {
    const std::string name =
        std::string("server.miss_warm_ms_p50.") + kKindName[k];
    add_p(layer, name.c_str(), warm_service_ms[k], 0.5, "ms");
  }
  add_p(layer, "server.miss_cold_ms_p50", cold_service_ms, 0.5, "ms");
  const double requests =
      static_cast<double>(after.requests - before.requests);
  layer.push_back({"server.cache_hit_ratio",
                   static_cast<double>(after.cache_hits - before.cache_hits) /
                       requests,
                   "ratio", 0});
  layer.push_back({"server.coalesced",
                   static_cast<double>(after.coalesced - before.coalesced),
                   "count", 0});
  layer.push_back({"server.computed",
                   static_cast<double>(after.computed - before.computed),
                   "count", 0});
  layer.push_back({"server.cache_bytes", static_cast<double>(after.cache.bytes),
                   "bytes", 0});
  add_p(layer, "loadgen.late_ms_p99", late_ms, 0.99, "ms");
  if (!traced_hit_ms.empty() && !untraced_hit_ms.empty()) {
    const double plain = median(untraced_hit_ms);
    layer.push_back({"trace.serve_overhead_pct",
                     100.0 * (median(traced_hit_ms) - plain) / plain, "%",
                     traced_hit_ms.size() + untraced_hit_ms.size()});
  }
  return std::move(result_);
}

}  // namespace

std::unique_ptr<Phase> make_serve_phase(const PhaseOptions& options) {
  return std::make_unique<ServePhase>(options);
}

}  // namespace solarnet::solarbench
