// report_cold: each op is what one `solarnet report --trials 48` invocation
// does, in process: World::generate() with the CLI's full config, then
// ScenarioRunner::run (or run_storm), then render(). Models rotate over s1,
// s2, uniform p in {0.001, 0.01, 0.1} and the Carrington storm, with a
// fresh seed per op. A closed loop with one caller.
//
// In a traced run whole rounds of models alternate between traced and
// untraced ops. The traced op runs ScenarioRunner::run's stages one by one
// through the library's public functions, each behind a span; its rendered
// report is checked against the reference like every other op's.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/connectivity.h"
#include "analysis/country.h"
#include "analysis/dns_resolution.h"
#include "analysis/lengths.h"
#include "analysis/report.h"
#include "analysis/systems.h"
#include "core/scenario.h"
#include "core/world.h"
#include "gic/efield.h"
#include "gic/failure_model.h"
#include "gic/storm.h"
#include "phases.h"
#include "services/availability.h"
#include "sim/pipeline.h"
#include "trace.h"

namespace solarnet::solarbench {
namespace {

constexpr std::size_t kReportTrials = 48;
constexpr std::uint64_t kReportSalt = 0x7265706f72742d31ULL;

struct ReportModel {
  enum class Kind { kS1, kS2, kUniform, kStorm };
  Kind kind;
  double p = 0.0;  // kUniform only
  const char* label;
};

const std::vector<ReportModel>& report_models() {
  static const std::vector<ReportModel> models = {
      {ReportModel::Kind::kS1, 0.0, "s1"},
      {ReportModel::Kind::kS2, 0.0, "s2"},
      {ReportModel::Kind::kUniform, 0.001, "uniform-0.001"},
      {ReportModel::Kind::kUniform, 0.01, "uniform-0.01"},
      {ReportModel::Kind::kUniform, 0.1, "uniform-0.1"},
      {ReportModel::Kind::kStorm, 0.0, "carrington"},
  };
  return models;
}

std::unique_ptr<gic::RepeaterFailureModel> make_model(const ReportModel& m) {
  switch (m.kind) {
    case ReportModel::Kind::kS1:
      return gic::make_s1();
    case ReportModel::Kind::kS2:
      return gic::make_s2();
    case ReportModel::Kind::kUniform:
      return gic::make_uniform(m.p);
    case ReportModel::Kind::kStorm:
      return std::make_unique<gic::FieldDrivenFailureModel>(
          gic::GeoelectricFieldModel(gic::carrington_1859()));
  }
  return nullptr;
}

core::ScenarioOptions report_options(std::uint64_t seed, std::size_t threads,
                                     sim::TrialEngine engine) {
  core::ScenarioOptions opts;
  opts.trials = kReportTrials;
  opts.seed = seed;
  opts.threads = threads;
  opts.engine = engine;
  return opts;
}

// The untraced op's library calls, after World::generate().
std::string render_report(const ReportModel& m, const core::World& world,
                          const core::ScenarioOptions& opts) {
  const core::ScenarioRunner runner(world);
  if (m.kind == ReportModel::Kind::kStorm) {
    return runner.run_storm(gic::carrington_1859(), opts).render();
  }
  return runner.run(*make_model(m), opts).render();
}

std::string cold_report(const ReportModel& m, std::uint64_t seed) {
  const core::World world = core::World::generate();
  return render_report(m, world, report_options(seed, 0, {}));
}

analysis::BandSweepResult to_band_result(
    const sim::ConnectivityObserver::Result& r, const std::string& model_name,
    double spacing_km, const char* tag) {
  return {model_name + tag,
          spacing_km,
          r.cables_failed_pct.mean(),
          r.cables_failed_pct.sample_stddev(),
          r.nodes_unreachable_pct.mean(),
          r.nodes_unreachable_pct.sample_stddev()};
}

struct TracedReport {
  std::string rendered;
  double ms = 0.0;
};

// ScenarioRunner::run stage by stage. Spans: report.op with one child per
// stage; after the op, outside its span, the per-generator dataset probe
// and the death-probability table (both built inside the op by calls that
// do not expose them separately).
TracedReport traced_report(const ReportModel& m, std::uint64_t seed,
                           Tracer& tracer) {
  const std::uint64_t op = tracer.next_id();
  const core::ScenarioOptions options = report_options(seed, 0, {});
  const std::unique_ptr<gic::RepeaterFailureModel> model = make_model(m);
  std::optional<core::World> world;
  std::optional<sim::FailureSimulator> submarine_sim;
  sim::TrialConfig trial_config;
  trial_config.repeater_spacing_km = options.repeater_spacing_km;
  trial_config.threads = options.threads;
  trial_config.engine = options.engine;

  TracedReport out;
  const Clock::time_point op_start = Clock::now();
  {
    const ScopedSpan op_span(&tracer, "report.op", 0, op);
    const std::uint64_t parent = op_span.id();
    {
      const ScopedSpan s(&tracer, "core.world_generate", parent, op);
      world.emplace(core::World::generate());
    }
    analysis::ResilienceReport report;
    report.title =
        m.kind == ReportModel::Kind::kStorm
            ? "solarnet resilience report — storm " +
                  gic::carrington_1859().name + " (field-driven)"
            : "solarnet resilience report — model " + model->name();
    {
      const ScopedSpan s(&tracer, "analysis.lengths", parent, op);
      report.length_summaries.push_back(analysis::summarize_lengths(
          world->submarine(), options.repeater_spacing_km));
      report.length_summaries.push_back(analysis::summarize_lengths(
          world->intertubes(), options.repeater_spacing_km));
      report.length_summaries.push_back(analysis::summarize_lengths(
          world->itu(), options.repeater_spacing_km));
    }
    {
      const ScopedSpan s(&tracer, "sim.simulator_build", parent, op);
      submarine_sim.emplace(world->submarine(), trial_config);
    }
    std::optional<sim::TrialPipeline> pipeline;
    {
      const ScopedSpan s(&tracer, "sim.pipeline_build", parent, op);
      pipeline.emplace(*submarine_sim, *model);
    }
    sim::ConnectivityObserver connectivity;
    std::optional<services::AvailabilityObserver> google;
    std::optional<services::AvailabilityObserver> facebook;
    {
      const ScopedSpan s(&tracer, "services.availability_build", parent, op);
      google.emplace(world->submarine(),
                     datacenter_service(datasets::DataCenterOperator::kGoogle,
                                        options.service_write_quorum));
      facebook.emplace(
          world->submarine(),
          datacenter_service(datasets::DataCenterOperator::kFacebook,
                             options.service_write_quorum));
    }
    std::optional<analysis::DnsResolutionObserver> dns;
    {
      const ScopedSpan s(&tracer, "analysis.dns_observer_build", parent, op);
      dns.emplace(world->submarine(), world->dns_roots(),
                  options.dns_cable_loss_threshold_pct);
    }
    std::optional<analysis::CountryIsolationObserver> isolation;
    {
      const ScopedSpan s(&tracer, "analysis.isolation_build", parent, op);
      isolation.emplace(world->submarine(), options.countries);
    }
    {
      const ScopedSpan s(&tracer, "sim.pipeline_run", parent, op);
      pipeline->add_observer(connectivity);
      pipeline->add_observer(*google);
      pipeline->add_observer(*facebook);
      pipeline->add_observer(*dns);
      pipeline->add_observer(*isolation);
      pipeline->run(options.trials, options.seed);
    }
    report.failure_results.push_back(
        to_band_result(connectivity.result(), model->name(),
                       options.repeater_spacing_km, " [submarine]"));
    report.service_availability.push_back(google->result());
    report.service_availability.push_back(facebook->result());
    report.dns_resolution = dns->result();
    report.has_dns_resolution = true;
    report.country_isolation = isolation->results();
    {
      const ScopedSpan s(&tracer, "analysis.country_connectivity", parent, op);
      for (const std::string& country : options.countries) {
        report.countries.push_back(analysis::country_connectivity(
            world->submarine(), *submarine_sim, *model, country));
      }
    }
    {
      const ScopedSpan s(&tracer, "sim.land_passes", parent, op);
      const auto pass = [&](const topo::InfrastructureNetwork& net,
                            std::uint64_t pass_seed, const char* tag) {
        const sim::FailureSimulator simulator(net, trial_config);
        sim::TrialPipeline land(simulator, *model);
        sim::ConnectivityObserver land_connectivity;
        land.add_observer(land_connectivity);
        land.run(options.trials, pass_seed);
        report.failure_results.push_back(
            to_band_result(land_connectivity.result(), model->name(),
                           options.repeater_spacing_km, tag));
      };
      pass(world->intertubes(), options.seed + 1, " [intertubes]");
      pass(world->itu(), options.seed + 2, " [itu]");
    }
    {
      const ScopedSpan s(&tracer, "analysis.summaries", parent, op);
      report.datacenter_footprints.push_back(analysis::summarize_datacenters(
          datasets::DataCenterOperator::kGoogle));
      report.datacenter_footprints.push_back(analysis::summarize_datacenters(
          datasets::DataCenterOperator::kFacebook));
      report.dns = analysis::summarize_dns(world->dns_roots());
      report.has_dns = true;
    }
    {
      const ScopedSpan s(&tracer, "analysis.render", parent, op);
      out.rendered = report.render();
    }
  }
  out.ms = ms_between(op_start, Clock::now());

  // Side probes, outside the op's span.
  {
    const ScopedSpan s(&tracer, "sim.death_table", 0, op);
    const sim::DeathProbabilityTable table =
        submarine_sim->death_probability_table(*model);
    if (table.probability.size() != world->submarine().cable_count()) {
      throw std::logic_error("death table size mismatch");
    }
  }
  const core::WorldConfig cfg;
  const auto probe = [&](const char* name, auto&& generate) {
    const ScopedSpan s(&tracer, name, 0, op);
    generate();
  };
  probe("datasets.submarine",
        [&] { datasets::make_submarine_network(cfg.submarine); });
  probe("datasets.intertubes",
        [&] { datasets::make_intertubes_network(cfg.intertubes); });
  probe("datasets.itu", [&] { datasets::make_itu_network(cfg.itu); });
  probe("datasets.routers",
        [&] { datasets::make_router_dataset(cfg.routers); });
  probe("datasets.ixp_dns", [&] {
    datasets::make_ixp_dataset(cfg.ixps);
    datasets::make_dns_dataset(cfg.dns);
  });
  probe("datasets.population",
        [&] { datasets::make_population_grid(cfg.population); });
  return out;
}

void add_span_metric(PhaseResult& result, const Tracer& tracer,
                     const char* span, const char* metric) {
  const std::vector<double> ms = tracer.durations_ms(span);
  if (ms.empty()) return;
  result.per_layer.push_back({metric, median(ms), "ms", ms.size()});
}

class ReportPhase final : public Phase {
 public:
  // Set-up: one untimed warm-up op, so the timed ops do not pay the
  // process's first-touch costs (code pages, allocator arenas).
  explicit ReportPhase(const PhaseOptions& o)
      : o_(o),
        rng_(o.seed ^ kReportSalt),
        traced_ms_(report_models().size()),
        untraced_ms_(report_models().size()) {
    const std::vector<ReportModel>& models = report_models();
    std::vector<double> setups;
    for (int r = 0; r < (o.primary ? kSetupRepeats : 1); ++r) {
      rotate_cpu(static_cast<std::size_t>(r));
      const Clock::time_point t0 = Clock::now();
      cold_report(models[static_cast<std::size_t>(r) % models.size()],
                  rng_.next());
      setups.push_back(seconds_between(t0, Clock::now()));
    }
    result_.setup_s = median(setups);
  }

  void run_turn(Clock::time_point deadline) override {
    do {
      run_op();
    } while (Clock::now() < deadline);
  }

  PhaseResult finish() override;

 private:
  void run_op();

  const PhaseOptions o_;
  InputRng rng_;
  PhaseResult result_;
  std::size_t next_op_ = 0;
  struct Check {
    std::size_t model;
    std::uint64_t seed;
    std::string rendered;
  };
  // The first op of each model, and in a traced run also the first
  // untraced op of each model.
  std::vector<Check> checks_;
  std::vector<double> latencies_;
  // Per model, so the overhead compares like with like.
  std::vector<std::vector<double>> traced_ms_;
  std::vector<std::vector<double>> untraced_ms_;
};

void ReportPhase::run_op() {
  const std::vector<ReportModel>& models = report_models();
  const std::size_t i = next_op_++;
  const std::size_t which = i % models.size();
  const std::uint64_t seed = rng_.next();
  // Whole rounds alternate, so every model gets traced and untraced ops.
  const std::size_t round = i / models.size();
  const bool traced = o_.tracer != nullptr && round % 2 == 0;
  rotate_cpu(i);
  ++result_.ops.attempted;
  std::string rendered;
  double ms = 0.0;
  try {
    if (traced) {
      TracedReport r = traced_report(models[which], seed, *o_.tracer);
      rendered = std::move(r.rendered);
      ms = r.ms;
    } else {
      const Clock::time_point t0 = Clock::now();
      rendered = cold_report(models[which], seed);
      ms = ms_between(t0, Clock::now());
    }
  } catch (const std::exception& e) {
    ++result_.ops.failed;
    result_.failures.push_back(std::string("report op: ") + e.what());
    return;
  }
  latencies_.push_back(ms);
  (traced ? traced_ms_ : untraced_ms_)[which].push_back(ms);
  if (round == 0 || (o_.tracer != nullptr && round == 1)) {
    checks_.push_back({which, seed, std::move(rendered)});
  }
}

PhaseResult ReportPhase::finish() {
  const std::vector<ReportModel>& models = report_models();
  PhaseResult& result = result_;
  // Output check: each model's first report equals a scalar-engine,
  // single-thread run of the same seed. (A companion leaves the check to
  // report_cold's own runs.)
  if (o_.primary) {
    const core::World world = core::World::generate();
    for (const Check& c : checks_) {
      const std::string reference =
          render_report(models[c.model], world,
                        report_options(c.seed, 1, sim::TrialEngine::kScalar));
      if (reference != c.rendered) {
        ++result.ops.failed;
        result.failures.push_back(std::string("report ") +
                                  models[c.model].label + " seed " +
                                  std::to_string(c.seed) +
                                  ": differs from the scalar 1-thread run");
      }
    }
  }

  if (!latencies_.empty()) {
    const Percentile p50 = percentile(latencies_, 0.5);
    const Percentile p90 = percentile(latencies_, 0.9);
    result.end_to_end.push_back({"report_ms_p50", p50.value, "ms", p50.samples});
    result.end_to_end.push_back({"report_ms_p90", p90.value, "ms", p90.samples});
  }

  if (o_.tracer != nullptr) {
    const Tracer& t = *o_.tracer;
    add_span_metric(result, t, "core.world_generate", "core.world_generate_ms");
    for (const char* name : {"submarine", "intertubes", "itu", "routers",
                             "population", "ixp_dns"}) {
      const std::string span = std::string("datasets.") + name;
      add_span_metric(result, t, span.c_str(), (span + "_ms").c_str());
    }
    add_span_metric(result, t, "sim.simulator_build", "sim.simulator_build_ms");
    add_span_metric(result, t, "sim.death_table", "sim.death_table_ms");
    add_span_metric(result, t, "sim.pipeline_build", "sim.pipeline_build_ms");
    add_span_metric(result, t, "services.availability_build",
                    "services.availability_build_ms");
    add_span_metric(result, t, "analysis.dns_observer_build",
                    "analysis.dns_observer_build_ms");
    add_span_metric(result, t, "analysis.country_connectivity",
                    "analysis.country_connectivity_ms");
    add_span_metric(result, t, "analysis.render", "analysis.render_ms");
    add_span_metric(result, t, "sim.land_passes", "sim.land_passes_ms");
    // Tracing overhead: per model, the traced ops' median time against the
    // untraced ops' median, averaged over the models.
    double overhead = 0.0;
    std::size_t matched = 0;
    std::size_t samples = 0;
    for (std::size_t m = 0; m < models.size(); ++m) {
      if (traced_ms_[m].empty() || untraced_ms_[m].empty()) continue;
      const double plain = median(untraced_ms_[m]);
      overhead += (median(traced_ms_[m]) - plain) / plain;
      samples += traced_ms_[m].size() + untraced_ms_[m].size();
      ++matched;
    }
    if (matched > 0) {
      result.per_layer.push_back(
          {"trace.report_overhead_pct",
           100.0 * overhead / static_cast<double>(matched), "%", samples});
    }
  }
  return std::move(result_);
}

}  // namespace

std::unique_ptr<Phase> make_report_phase(const PhaseOptions& options) {
  return std::make_unique<ReportPhase>(options);
}

}  // namespace solarnet::solarbench
