// campaign: the World and every engine are built in set-up and stay
// resident; a closed loop with one caller rotates over four op kinds, each
// with a fresh seed:
//   pipeline  TrialPipeline::run on the submarine network with the report's
//             five observers, 4096 trials;
//   sweep     SweepEngine::uniform on the paper grid, 16384 trials;
//   timeline  TimelineEngine::run replaying the bundled DONKI storm with the
//             connectivity and country-outage observers, 4096 trials;
//   traffic   a pipeline with ConnectivityObserver and TrafficObserver on the
//             gravity matrix, 1024 trials.
// Failure model: S1, the CLI default. Engines use kCampaignThreads workers.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/connectivity.h"
#include "analysis/country.h"
#include "analysis/dns_resolution.h"
#include "analysis/outage.h"
#include "core/world.h"
#include "datasets/space_weather.h"
#include "gic/failure_model.h"
#include "gic/timeline.h"
#include "observers.h"
#include "phases.h"
#include "routing/demand.h"
#include "routing/traffic_observer.h"
#include "server/scenario_service.h"
#include "services/availability.h"
#include "sim/pipeline.h"
#include "sim/sweep.h"
#include "sim/timeline_engine.h"
#include "trace.h"
#include "util/rng.h"

namespace solarnet::solarbench {
namespace {

constexpr std::uint64_t kCampaignSalt = 0x63616d7061696e21ULL;
constexpr std::size_t kSweepProbeTrials = 256;
// Worker threads per engine run. Not the library default (threads = 0, one
// per CPU): on a host whose CPUs are shared with other tenants, a run with
// a worker per CPU waits for whichever worker shares its CPU, and measures
// the other tenants. With two competing busy threads on the 4-CPU host,
// four workers lost 30% of their throughput and two lost none. Every
// other engine run in the benchmark (48-trial reports, 64-trial served
// requests) has at most two chunks of trials, so at most two workers too.
constexpr std::size_t kCampaignThreads = 2;

enum OpKind : std::size_t { kPipeline, kSweep, kTimeline, kTraffic, kKinds };
constexpr std::array<const char*, kKinds> kKindName = {"pipeline", "sweep",
                                                       "timeline", "traffic"};
constexpr std::array<std::size_t, kKinds> kTrials = {4096, 16384, 4096, 1024};

sim::TimelineConfig donki_timeline_config(const std::string& path) {
  const datasets::SpaceWeatherTimeline storm =
      datasets::load_space_weather_json(path);
  std::vector<double> hours;
  std::vector<double> kp;
  for (const datasets::KpSample& s : storm.kp) {
    hours.push_back(s.hours);
    kp.push_back(s.kp);
  }
  std::vector<double> share =
      gic::dose_share_from_kp(hours, kp, gic::KpDoseParams{});
  sim::TimelineConfig config =
      sim::TimelineConfig::from_dose_schedule(std::move(hours),
                                              std::move(share));
  config.repair_steps = 24;
  config.repair_step_hours = 15.0 * 24.0;
  config.fleet.cable_ships = 60;
  return config;
}

// Everything the campaign keeps resident. With a tracer, each part is built
// under a span, and a second pipeline / engine per kind registers the same
// observers through the timing wrappers.
struct Campaign {
  Campaign(const std::string& donki_path, Tracer* tracer) {
    const ScopedSpan setup(tracer, "campaign.setup", 0, 0);
    const std::uint64_t parent = setup.id();
    const auto stage = [&](const char* name, auto&& build) {
      const ScopedSpan s(tracer, name, parent, 0);
      build();
    };
    stage("core.world_generate",
          [&] { world.emplace(core::World::generate()); });
    const topo::InfrastructureNetwork& net = world->submarine();
    model = gic::make_s1();
    stage("sim.simulator_build",
          [&] {
            sim::TrialConfig config;
            config.threads = kCampaignThreads;
            simulator.emplace(net, config);
          });
    stage("sim.pipeline_build", [&] {
      pipeline.emplace(*simulator, *model);
      traffic_pipeline.emplace(*simulator, *model);
    });
    stage("services.availability_build", [&] {
      google.emplace(net, datacenter_service(
                              datasets::DataCenterOperator::kGoogle, 2));
      facebook.emplace(net, datacenter_service(
                                datasets::DataCenterOperator::kFacebook, 2));
    });
    stage("analysis.dns_observer_build",
          [&] { dns.emplace(net, world->dns_roots(), 10.0); });
    isolation.emplace(net, report_countries());
    stage("sim.sweep_build", [&] {
      grid = analysis::default_probability_grid();
      sweep.emplace(sim::SweepEngine::uniform(*simulator, grid));
    });
    stage("sim.timeline_build", [&] {
      timeline_config = donki_timeline_config(donki_path);
      timeline.emplace(*simulator, simulator->death_probability_table(*model),
                       timeline_config);
      outage.emplace(net, report_countries());
    });
    stage("routing.engine_build", [&] {
      traffic_engine.emplace(net, routing::gravity_demands(net));
      traffic.emplace(*traffic_engine);
    });

    std::vector<sim::TrialObserver*> report_observers = {
        &connectivity, &*google, &*facebook, &*dns, &*isolation};
    for (sim::TrialObserver* o : report_observers) pipeline->add_observer(*o);
    timeline->add_observer(timeline_connectivity);
    timeline->add_observer(*outage);
    traffic_pipeline->add_observer(traffic_connectivity);
    traffic_pipeline->add_observer(*traffic);
    if (tracer == nullptr) return;

    // Wrapped variants. The last wrapper of each engine samples the worker
    // CPU clocks.
    traced_pipeline.emplace(*simulator, *model);
    for (std::size_t i = 0; i < report_observers.size(); ++i) {
      pipeline_wrappers.push_back(std::make_unique<TimedObserver>(
          *report_observers[i], i + 1 == report_observers.size()));
      traced_pipeline->add_observer(*pipeline_wrappers.back());
    }
    traced_timeline.emplace(*simulator, timeline->table(), timeline_config);
    timeline_wrappers.push_back(
        std::make_unique<TimedTimelineObserver>(timeline_connectivity));
    timeline_wrappers.push_back(
        std::make_unique<TimedTimelineObserver>(*outage, true));
    for (auto& w : timeline_wrappers) traced_timeline->add_observer(*w);
    traced_traffic.emplace(*simulator, *model);
    traffic_wrappers.push_back(
        std::make_unique<TimedObserver>(traffic_connectivity));
    traffic_wrappers.push_back(std::make_unique<TimedObserver>(*traffic, true));
    for (auto& w : traffic_wrappers) traced_traffic->add_observer(*w);
  }

  std::optional<core::World> world;
  std::unique_ptr<gic::RepeaterFailureModel> model;
  std::optional<sim::FailureSimulator> simulator;

  std::optional<sim::TrialPipeline> pipeline;
  sim::ConnectivityObserver connectivity;
  std::optional<services::AvailabilityObserver> google;
  std::optional<services::AvailabilityObserver> facebook;
  std::optional<analysis::DnsResolutionObserver> dns;
  std::optional<analysis::CountryIsolationObserver> isolation;

  std::vector<double> grid;
  std::optional<sim::SweepEngine> sweep;

  sim::TimelineConfig timeline_config;
  std::optional<sim::TimelineEngine> timeline;
  sim::TimelineConnectivityObserver timeline_connectivity{50.0};
  std::optional<analysis::CountryOutageObserver> outage;

  std::optional<routing::TrafficEngine> traffic_engine;
  std::optional<sim::TrialPipeline> traffic_pipeline;
  sim::ConnectivityObserver traffic_connectivity;
  std::optional<routing::TrafficObserver> traffic;

  std::optional<sim::TrialPipeline> traced_pipeline;
  std::vector<std::unique_ptr<TimedObserver>> pipeline_wrappers;
  std::optional<sim::TimelineEngine> traced_timeline;
  std::vector<std::unique_ptr<TimedTimelineObserver>> timeline_wrappers;
  std::optional<sim::TrialPipeline> traced_traffic;
  std::vector<std::unique_ptr<TimedObserver>> traffic_wrappers;
};

// Bit-exact digest of an op's aggregates (the served-body serializers print
// every double as its shortest round-trip decimal).
std::string digest(const Campaign& c, OpKind kind,
                   const sim::SweepResult& sweep) {
  const server::ScenarioRequest req;
  switch (kind) {
    case kPipeline:
      return server::serialize_report_body(
          req, c.connectivity.result(), c.google->result(),
          c.facebook->result(), c.dns->result(), c.isolation->results());
    case kSweep:
      return server::serialize_sweep_body(req, sweep);
    case kTimeline:
      return server::serialize_timeline_body(
          req, *c.timeline, c.timeline_connectivity.result(),
          c.outage->results());
    case kTraffic: {
      std::string out;
      const sim::ConnectivityObserver::Result& conn =
          c.traffic_connectivity.result();
      for (const util::RunningStats* s :
           {&conn.cables_failed_pct, &conn.nodes_unreachable_pct,
            &conn.largest_component_pct}) {
        append_digest(out, *s);
      }
      const routing::TrafficSweep& t = c.traffic->result();
      append_digest(out, static_cast<std::uint64_t>(t.demand_pairs));
      append_digest(out, t.offered_gbps);
      for (const util::RunningStats* s :
           {&t.delivered_fraction, &t.stranded_gbps, &t.max_utilization,
            &t.overloaded_cables, &t.mean_path_km}) {
        append_digest(out, *s);
      }
      return out;
    }
    case kKinds:
      break;
  }
  return {};
}

// Runs one op with `threads` workers; returns its digest. `sweep_out`
// receives the sweep result.
std::string run_plain(Campaign& c, OpKind kind, std::uint64_t seed,
                      std::size_t threads, sim::SweepResult* sweep_out) {
  sim::SweepResult sweep;
  switch (kind) {
    case kPipeline:
      c.pipeline->run(kTrials[kind], seed, threads);
      break;
    case kSweep:
      sweep = c.sweep->run(kTrials[kind], seed, threads);
      break;
    case kTimeline:
      c.timeline->run(kTrials[kind], seed, threads);
      break;
    case kTraffic:
      c.traffic_pipeline->run(kTrials[kind], seed, threads);
      break;
    case kKinds:
      break;
  }
  std::string out = digest(c, kind, sweep);
  if (sweep_out != nullptr) *sweep_out = std::move(sweep);
  return out;
}

// Accumulated observer and busy time of the traced runs of one engine.
struct EngineTiming {
  std::vector<std::int64_t> observer_ns;  // per wrapped observer
  std::uint64_t trials = 0;         // trials run
  std::uint64_t delivered = 0;      // observer-trial deliveries, all paths
  std::uint64_t batch_delivered = 0;
  std::int64_t busy_ns = 0;
  double worker_wall_ns = 0.0;      // workers x run wall time

  template <typename Wrappers>
  void add(const Wrappers& wrappers, std::uint64_t run_trials, double wall_ms) {
    observer_ns.resize(wrappers.size());
    for (std::size_t i = 0; i < wrappers.size(); ++i) {
      const ObserverTotals t = wrappers[i]->clock().totals();
      observer_ns[i] += t.observe_ns;
      delivered += t.trials + t.batch_trials;
      batch_delivered += t.batch_trials;
    }
    const ObserverClock& last = wrappers.back()->clock();
    busy_ns += last.busy_ns();
    worker_wall_ns += static_cast<double>(last.workers()) * wall_ms * 1e6;
    trials += run_trials;
  }
  double us_per_trial(std::int64_t ns) const {
    return static_cast<double>(ns) / 1e3 / static_cast<double>(trials);
  }
  double self_us_per_trial() const {
    std::int64_t observers = 0;
    for (const std::int64_t ns : observer_ns) observers += ns;
    return us_per_trial(busy_ns - observers);
  }
};

class CampaignPhase final : public Phase {
 public:
  explicit CampaignPhase(const PhaseOptions& o)
      : o_(o), rng_(o.seed ^ kCampaignSalt), tracer_(o.tracer) {
    std::vector<double> setups;
    for (int r = 0; r < (o.primary ? kSetupRepeats : 1); ++r) {
      campaign_.reset();
      rotate_cpu(static_cast<std::size_t>(r));
      const Clock::time_point t0 = Clock::now();
      campaign_ = std::make_unique<Campaign>(o.donki_path, tracer_);
      setups.push_back(seconds_between(t0, Clock::now()));
    }
    result_.setup_s = median(setups);
    const auto p01 =
        std::find(campaign_->grid.begin(), campaign_->grid.end(), 0.01);
    if (p01 == campaign_->grid.end()) {
      throw std::logic_error("paper grid lacks p=0.01");
    }
    p01_index_ = static_cast<std::size_t>(p01 - campaign_->grid.begin());
  }

  // Whole rounds of the four kinds, so every kind gets the same share.
  void run_turn(Clock::time_point deadline) override {
    do {
      for (std::size_t k = 0; k < kKinds; ++k) run_op();
    } while (Clock::now() < deadline);
  }

  PhaseResult finish() override;

 private:
  void run_op();

  const PhaseOptions o_;
  InputRng rng_;
  Tracer* tracer_;
  PhaseResult result_;
  std::unique_ptr<Campaign> campaign_;
  std::size_t p01_index_ = 0;
  std::size_t next_op_ = 0;

  struct Check {
    OpKind kind;
    std::uint64_t seed;
    std::string digest;
  };
  std::vector<Check> checks_;  // the first op of each kind
  std::array<std::vector<double>, kKinds> throughput_;
  std::array<std::vector<double>, kKinds> traced_ms_;
  std::array<std::vector<double>, kKinds> untraced_ms_;
  EngineTiming pipeline_timing_;
  EngineTiming timeline_timing_;
  EngineTiming traffic_timing_;
  std::int64_t sweep_draw_ns_ = 0;
  std::int64_t sweep_trial_ns_ = 0;
  std::uint64_t sweep_probe_trials_ = 0;
  sim::SweepScratch sweep_scratch_;
  std::vector<std::uint32_t> death_index_;
};

void CampaignPhase::run_op() {
  Campaign& c = *campaign_;
  Tracer* tracer = tracer_;
  PhaseResult& result = result_;
  const std::size_t i = next_op_++;
  const auto kind = static_cast<OpKind>(i % kKinds);
  const std::uint64_t seed = rng_.next();
  const bool traced = tracer != nullptr && (i / kKinds) % 2 == 0;
  ++result.ops.attempted;
  try {
    sim::SweepResult sweep;
    double ms = 0.0;
    std::string op_digest;
    if (!traced) {
      const Clock::time_point t0 = Clock::now();
      op_digest = run_plain(c, kind, seed, kCampaignThreads, &sweep);
      ms = ms_between(t0, Clock::now());
    } else {
      const std::uint64_t op = tracer->next_id();
      const std::string name = std::string("campaign.") + kKindName[kind];
      const Clock::time_point t0 = Clock::now();
      switch (kind) {
        case kPipeline:
          c.traced_pipeline->run(kTrials[kind], seed);
          break;
        case kSweep:
          sweep = c.sweep->run(kTrials[kind], seed);
          break;
        case kTimeline:
          c.traced_timeline->run(kTrials[kind], seed);
          break;
        case kTraffic:
          c.traced_traffic->run(kTrials[kind], seed);
          break;
        case kKinds:
          break;
      }
      const Clock::time_point t1 = Clock::now();
      ms = ms_between(t0, t1);
      const std::uint64_t span = tracer->record(name, 0, op, t0, t1);
      op_digest = digest(c, kind, sweep);
      if (kind == kPipeline) {
        pipeline_timing_.add(c.pipeline_wrappers, kTrials[kind], ms);
      } else if (kind == kTimeline) {
        timeline_timing_.add(c.timeline_wrappers, kTrials[kind], ms);
      } else if (kind == kTraffic) {
        traffic_timing_.add(c.traffic_wrappers, kTrials[kind], ms);
      } else {
        // Sweep probe, outside the op's span: the draw alone
        // (sample_death_grid_indices) against a whole batched trial
        // (draw + resurrection walk) on the same child streams.
        const ScopedSpan probe(tracer, "sim.sweep_probe", span, op);
        const util::Rng base(seed);
        for (std::size_t t = 0; t < kSweepProbeTrials; ++t) {
          util::Rng draw_rng = base.split(t);
          const Clock::time_point a = Clock::now();
          c.sweep->sample_death_grid_indices(draw_rng, death_index_);
          const Clock::time_point b = Clock::now();
          util::Rng trial_rng = base.split(t);
          c.sweep->run_trial(trial_rng, sweep_scratch_);
          const Clock::time_point d = Clock::now();
          sweep_draw_ns_ +=
              std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                  .count();
          sweep_trial_ns_ +=
              std::chrono::duration_cast<std::chrono::nanoseconds>(d - b)
                  .count();
        }
        sweep_probe_trials_ += kSweepProbeTrials;
      }
    }
    throughput_[kind].push_back(static_cast<double>(kTrials[kind]) /
                                (ms / 1e3));
    if (tracer != nullptr) {
      (traced ? traced_ms_ : untraced_ms_)[kind].push_back(ms);
    }
    if (i < kKinds) checks_.push_back({kind, seed, std::move(op_digest)});
    if (kind == kSweep) {
      // The paper checkpoint: p = 0.01 at 150 km fails ~16% of submarine
      // cables and cuts off ~11% of nodes.
      const sim::SweepPointAggregate& pt = sweep.points[p01_index_];
      const double cables = pt.cables_failed_pct.mean();
      const double nodes = pt.nodes_unreachable_pct.mean();
      if (std::abs(cables - 16.0) > 1.5 || std::abs(nodes - 11.0) > 1.5) {
        ++result.ops.failed;
        result.failures.push_back(
            "sweep p=0.01 off the paper checkpoint: cables " +
            std::to_string(cables) + "%, nodes " + std::to_string(nodes) +
            "%");
      }
    }
  } catch (const std::exception& e) {
    ++result.ops.failed;
    result.failures.push_back(std::string("campaign ") + kKindName[kind] +
                              ": " + e.what());
  }
}

PhaseResult CampaignPhase::finish() {
  Campaign& c = *campaign_;
  Tracer* tracer = tracer_;
  PhaseResult& result = result_;
  // Output check: each kind's first op equals a single-thread run of the
  // same seed. (A companion leaves the check to campaign's own runs.)
  if (!o_.primary) checks_.clear();
  for (const Check& check : checks_) {
    if (run_plain(c, check.kind, check.seed, 1, nullptr) != check.digest) {
      ++result.ops.failed;
      result.failures.push_back(std::string("campaign ") +
                                kKindName[check.kind] + " seed " +
                                std::to_string(check.seed) +
                                ": differs from the 1-thread run");
    }
  }

  for (std::size_t k = 0; k < kKinds; ++k) {
    if (throughput_[k].empty()) continue;
    const Percentile p50 = percentile(throughput_[k], 0.5);
    result.end_to_end.push_back({std::string(kKindName[k]) + "_trials_per_s",
                                 p50.value, "1/s", p50.samples});
  }

  if (tracer != nullptr) {
    auto& layer = result.per_layer;
    const EngineTiming& p = pipeline_timing_;
    if (p.trials > 0) {
      layer.push_back({"sim.pipeline_self_us_per_trial",
                       p.self_us_per_trial(), "us", 0});
      layer.push_back({"sim.pipeline_batch_trial_share",
                       static_cast<double>(p.batch_delivered) /
                           static_cast<double>(p.delivered),
                       "ratio", 0});
      layer.push_back({"util.parallel_busy_share",
                       static_cast<double>(p.busy_ns) / p.worker_wall_ns,
                       "ratio", 0});
      layer.push_back({"sim.connectivity_observe_us_per_trial",
                       p.us_per_trial(p.observer_ns[0]), "us", 0});
      layer.push_back({"services.availability_observe_us_per_trial",
                       p.us_per_trial(p.observer_ns[1] + p.observer_ns[2]),
                       "us", 0});
      layer.push_back({"analysis.dns_observe_us_per_trial",
                       p.us_per_trial(p.observer_ns[3]), "us", 0});
      layer.push_back({"analysis.isolation_observe_us_per_trial",
                       p.us_per_trial(p.observer_ns[4]), "us", 0});
    }
    if (sweep_probe_trials_ > 0) {
      const auto per_trial = [&](std::int64_t ns) {
        return static_cast<double>(ns) / 1e3 /
               static_cast<double>(sweep_probe_trials_);
      };
      layer.push_back({"sim.sweep_draw_us_per_trial", per_trial(sweep_draw_ns_),
                       "us", 0});
      layer.push_back({"sim.sweep_walk_us_per_trial",
                       per_trial(sweep_trial_ns_ - sweep_draw_ns_), "us", 0});
    }
    const EngineTiming& t = timeline_timing_;
    if (t.trials > 0) {
      layer.push_back({"sim.timeline_playback_us_per_trial",
                       t.self_us_per_trial(), "us", 0});
      layer.push_back({"sim.timeline_connectivity_observe_us_per_trial",
                       t.us_per_trial(t.observer_ns[0]), "us", 0});
      layer.push_back({"analysis.outage_observe_us_per_trial",
                       t.us_per_trial(t.observer_ns[1]), "us", 0});
    }
    const std::vector<double> build = tracer->durations_ms("routing.engine_build");
    if (!build.empty()) {
      layer.push_back({"routing.engine_build_ms", median(build), "ms",
                       build.size()});
    }
    if (traffic_timing_.trials > 0) {
      layer.push_back({"routing.traffic_observe_us_per_trial",
                       traffic_timing_.us_per_trial(
                           traffic_timing_.observer_ns[1]),
                       "us", 0});
    }
    // Tracing overhead: per kind, the traced ops' median run time against
    // the untraced ops' median, averaged over the kinds.
    double overhead = 0.0;
    std::size_t kinds = 0;
    std::size_t samples = 0;
    for (std::size_t k = 0; k < kKinds; ++k) {
      if (traced_ms_[k].empty() || untraced_ms_[k].empty()) continue;
      const double plain = median(untraced_ms_[k]);
      overhead += (median(traced_ms_[k]) - plain) / plain;
      samples += traced_ms_[k].size() + untraced_ms_[k].size();
      ++kinds;
    }
    if (kinds > 0) {
      layer.push_back({"trace.campaign_overhead_pct",
                       100.0 * overhead / static_cast<double>(kinds), "%",
                       samples});
    }
  }
  return std::move(result_);
}

}  // namespace

std::unique_ptr<Phase> make_campaign_phase(const PhaseOptions& options) {
  return std::make_unique<CampaignPhase>(options);
}

}  // namespace solarnet::solarbench
