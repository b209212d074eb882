// solarbench: the solarnet end-to-end benchmark.
//
//   solarbench --workload report_cold|campaign|serve_mix --seed N
//              --seconds S --trace 0|1 --donki FILE [--trace-out FILE]
//   solarbench --selftest
//
// A run self-tests the benchmark's helpers, sets up the workload's own
// phase and the other two (the companions), gives them turns over S
// seconds (40% to the workload's own phase, 30% to each companion), and
// checks every phase's outputs. It prints a human-readable table, then, as
// its last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1). See README.md.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "phases.h"
#include "trace.h"

namespace solarnet::solarbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string donki;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("bad argument: " + key);
    }
    kv[key.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : kv) {
    if (key == "workload") {
      a.workload = value;
    } else if (key == "seed") {
      a.seed = std::stoull(value);
    } else if (key == "seconds") {
      a.seconds = std::stod(value);
    } else if (key == "trace") {
      a.trace = value == "1";
    } else if (key == "donki") {
      a.donki = value;
    } else if (key == "trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
  if (!a.selftest && (a.donki.empty() || !(a.seconds > 0.0))) {
    throw std::invalid_argument("--donki FILE and --seconds S > 0 are required");
  }
  return a;
}

std::string number(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, ptr);
}

enum PhaseId { kReport, kCampaign, kServe, kPhases };
constexpr const char* kPhaseName[kPhases] = {"report", "campaign", "serve"};
constexpr const char* kWorkloadName[kPhases] = {"report_cold", "campaign",
                                                "serve_mix"};

// Each round of turns is kRoundSeconds long: 40% of it for the primary
// phase, 30% for each companion. A companion's report ops take 0.5 s each,
// and its p50 needs about 20 of them to hold still from run to run.
constexpr double kRoundSeconds = 4.0;
constexpr double kPrimaryShare = 0.4;
constexpr double kCompanionShare = 0.3;

std::unique_ptr<Phase> make_phase(PhaseId id, const PhaseOptions& o) {
  switch (id) {
    case kReport:
      return make_report_phase(o);
    case kCampaign:
      return make_campaign_phase(o);
    case kServe:
    case kPhases:
      break;
  }
  return make_serve_phase(o);
}

Clock::time_point after_seconds(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("  %-48s %16.6g %-6s (%zu samples)\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-48s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

int run(const Args& args) {
  int primary = -1;
  for (int p = 0; p < kPhases; ++p) {
    if (args.workload == kWorkloadName[p]) primary = p;
  }
  if (primary < 0) {
    throw std::invalid_argument("unknown workload '" + args.workload +
                                "' (report_cold|campaign|serve_mix)");
  }

  std::vector<std::unique_ptr<Tracer>> tracers;
  const std::size_t rounds = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(args.seconds / kRoundSeconds)));
  const double round_s = args.seconds / static_cast<double>(rounds);
  // The workload's own phase first, on a fresh process; then the
  // companions in a fixed order.
  std::vector<int> order = {primary};
  for (int p = 0; p < kPhases; ++p) {
    if (p != primary) order.push_back(p);
  }
  std::vector<std::unique_ptr<Phase>> phases;
  std::vector<double> turn_s;
  double peak_rss = 0.0;
  for (const int p : order) {
    PhaseOptions o;
    o.seed = args.seed;
    o.primary = p == primary;
    turn_s.push_back(round_s * (o.primary ? kPrimaryShare : kCompanionShare));
    o.seconds = turn_s.back() * static_cast<double>(rounds);
    o.donki_path = args.donki;
    if (args.trace) {
      tracers.push_back(std::make_unique<Tracer>(kPhaseName[p]));
      o.tracer = tracers.back().get();
    }
    std::fprintf(stderr, "solarbench: %s phase set-up (%s)\n", kPhaseName[p],
                 o.primary ? "primary" : "companion");
    phases.push_back(make_phase(static_cast<PhaseId>(p), o));
    if (o.primary) {
      // The primary's first turn runs before the companions exist, so the
      // peak resident size is the primary's own.
      phases[0]->run_turn(after_seconds(turn_s[0]));
      peak_rss = peak_rss_mb();
    }
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t k = r == 0 ? 1 : 0; k < phases.size(); ++k) {
      phases[k]->run_turn(after_seconds(turn_s[k]));
    }
  }

  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  OpCount ops;
  std::vector<std::string> failures;
  double setup_s = 0.0;
  for (std::size_t k = 0; k < phases.size(); ++k) {
    PhaseResult r = phases[k]->finish();
    if (k == 0) setup_s = r.setup_s;
    end_to_end.insert(end_to_end.end(), r.end_to_end.begin(),
                      r.end_to_end.end());
    per_layer.insert(per_layer.end(), r.per_layer.begin(), r.per_layer.end());
    ops.attempted += r.ops.attempted;
    ops.failed += r.ops.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  }
  phases.clear();
  end_to_end.insert(end_to_end.begin(),
                    {{"setup_s", setup_s, "s", kSetupRepeats},
                     {"peak_rss_mb", peak_rss, "MiB", 0},
                     {"ok_ops_pct",
                      100.0 * static_cast<double>(ops.attempted - ops.failed) /
                          static_cast<double>(ops.attempted),
                      "%", 0}});

  std::printf("solarbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("ops: %zu attempted, %zu failed\n", ops.attempted, ops.failed);
  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());
  print_table("end-to-end:", end_to_end);
  print_table("per-layer:", per_layer);
  if (args.trace) {
    std::printf(
        "spans (self = duration minus the union of its children's "
        "intervals):\n");
    std::printf("  %-9s %-36s %7s %12s %12s %12s\n", "phase", "span", "count",
                "median ms", "self ms", "total ms");
    std::vector<const Tracer*> all;
    for (const auto& t : tracers) {
      all.push_back(t.get());
      for (const SpanSummary& s : summarize(*t)) {
        std::printf("  %-9s %-36s %7zu %12.4f %12.4f %12.2f\n",
                    s.phase.c_str(), s.name.c_str(), s.count, s.median_ms,
                    s.median_self_ms, s.total_ms);
      }
    }
    if (!args.trace_out.empty()) {
      write_trace_json(args.trace_out, all);
      std::printf("spans written to %s\n", args.trace_out.c_str());
    }
  }

  const std::vector<Metric>& reported = args.trace ? per_layer : end_to_end;
  std::string json = "{\"correct\": ";
  json += ops.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted);
  json += ", \"failed\": " + std::to_string(ops.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + reported[i].name + "\": {\"value\": " +
            number(reported[i].value) + ", \"unit\": \"" + reported[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace solarnet::solarbench

int main(int argc, char** argv) {
  using namespace solarnet::solarbench;
  try {
    const Args args = parse_args(argc, argv);
    const int failed = run_selftests();
    if (failed > 0) {
      std::fprintf(stderr, "solarbench: %d self-test(s) failed\n", failed);
      return 3;
    }
    if (args.selftest) {
      std::printf("solarbench: self-tests passed\n");
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "solarbench: error: %s\n", e.what());
    return 1;
  }
}
