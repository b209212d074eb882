// Graph-kernel benchmarks: the old-vs-new acceptance harness for the CSR +
// word-packed-mask connectivity engine.
//
// The `legacy` namespace below is a faithful reimplementation of the
// pre-CSR kernels this PR replaced: std::vector<bool> alive masks built
// fresh per draw, a per-call UnionFind + relabel-table allocation in
// connected_components, a std::queue BFS frontier, and a service
// availability evaluation that re-resolves every replica/anchor landing
// point on every draw. Benchmarks compare those against the current
// Csr/ComponentScratch/ServiceEvaluator hot path on the paper-scale
// synthetic submarine network (470 cables).
//
// main() runs hard equivalence checks before any timing:
//   1. legacy vs CSR connected_components / is_connected / reachable_from /
//      bfs_hops are result-identical over S1 failure draws,
//   2. legacy per-draw availability == ServiceEvaluator availability,
//   3. availability_sweep is bit-identical across thread counts,
//   4. the steady-state trial loop performs ZERO heap allocations
//      (checked with a global operator new counter),
//   5. the network's AttachmentIndex attaches every DNS root instance,
//      data-centre site and continent anchor to the node the legacy
//      brute-force scan picks, and, built from scratch and run over that
//      query set, is >= 5x faster than the scan in the same process.
// Any mismatch exits non-zero, so CI's bench smoke job doubles as an
// equivalence gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <queue>
#include <vector>

#include "bench_util.h"
#include "datasets/datacenters.h"
#include "datasets/infra_points.h"
#include "datasets/submarine.h"
#include "geo/distance.h"
#include "graph/components.h"
#include "graph/traversal.h"
#include "graph/union_find.h"
#include "services/availability.h"
#include "sim/monte_carlo.h"
#include "util/rng.h"

// --- global allocation counter ----------------------------------------------
// Counts every operator-new hit so the steady-state loops can assert they
// never touch the allocator. Relaxed atomics: the checked loops are serial;
// the counter only needs to not tear.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace solarnet;

// --- legacy (pre-CSR) kernels ----------------------------------------------

namespace legacy {

struct AliveMask {
  std::vector<bool> vertex_alive;
  std::vector<bool> edge_alive;
};

AliveMask all_alive(const graph::Graph& g) {
  return {std::vector<bool>(g.vertex_count(), true),
          std::vector<bool>(g.edge_count(), true)};
}

bool traversable(const graph::Graph& g, const AliveMask& mask,
                 graph::EdgeId e) {
  if (e >= mask.edge_alive.size() || !mask.edge_alive[e]) return false;
  const graph::Edge& ed = g.edge(e);
  return mask.vertex_alive[ed.u] && mask.vertex_alive[ed.v];
}

// The legacy kernels take their dead sets as std::vector<bool>; the bench
// converts each Bitset draw once.
std::vector<bool> to_vector_bool(const util::Bitset& bits) {
  std::vector<bool> out(bits.size(), false);
  for (std::size_t i = 0; i < bits.size(); ++i) out[i] = bits[i];
  return out;
}

// Nodes that had >= 1 cable and lost all of them, scanned over the
// vector<bool> dead set like the old InfrastructureNetwork overload.
std::vector<topo::NodeId> unreachable_nodes(
    const topo::InfrastructureNetwork& net,
    const std::vector<bool>& cable_dead) {
  std::vector<topo::NodeId> out;
  for (topo::NodeId n = 0; n < net.node_count(); ++n) {
    const auto& incident = net.cables_at(n);
    if (incident.empty()) continue;
    if (std::all_of(incident.begin(), incident.end(),
                    [&](topo::CableId c) { return cable_dead[c]; })) {
      out.push_back(n);
    }
  }
  return out;
}

// Fresh mask per draw, exactly as the old
// InfrastructureNetwork::mask_for_failures allocated one.
AliveMask mask_for_failures(const topo::InfrastructureNetwork& net,
                            const std::vector<bool>& cable_dead) {
  AliveMask mask = all_alive(net.graph());
  for (graph::EdgeId e = 0; e < net.graph().edge_count(); ++e) {
    if (cable_dead[net.cable_of_edge(e)]) mask.edge_alive[e] = false;
  }
  return mask;
}

// Per-call UnionFind + relabel-table allocation, as before the
// ComponentScratch overloads existed.
graph::ComponentResult connected_components(const graph::Graph& g,
                                            const AliveMask& mask) {
  const std::size_t n = g.vertex_count();
  graph::UnionFind uf(n);
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!traversable(g, mask, e)) continue;
    const graph::Edge& ed = g.edge(e);
    uf.unite(ed.u, ed.v);
  }
  graph::ComponentResult result;
  result.component.assign(n, graph::ComponentResult::kNoComponent);
  std::vector<std::uint32_t> root_to_dense(
      n, graph::ComponentResult::kNoComponent);
  for (graph::VertexId v = 0; v < n; ++v) {
    if (v >= mask.vertex_alive.size() || !mask.vertex_alive[v]) continue;
    const std::size_t root = uf.find(v);
    if (root_to_dense[root] == graph::ComponentResult::kNoComponent) {
      root_to_dense[root] =
          static_cast<std::uint32_t>(result.component_sizes.size());
      result.component_sizes.push_back(0);
    }
    result.component[v] = root_to_dense[root];
    ++result.component_sizes[root_to_dense[root]];
  }
  return result;
}

bool is_connected(const graph::Graph& g, const AliveMask& mask) {
  return connected_components(g, mask).component_count() <= 1;
}

std::vector<bool> reachable_from(const graph::Graph& g, const AliveMask& mask,
                                 graph::VertexId source) {
  std::vector<bool> visited(g.vertex_count(), false);
  if (source >= g.vertex_count() || !mask.vertex_alive[source]) {
    return visited;
  }
  std::vector<graph::VertexId> stack{source};
  visited[source] = true;
  while (!stack.empty()) {
    const graph::VertexId v = stack.back();
    stack.pop_back();
    for (const auto& [neighbor, edge] : g.incident(v)) {
      if (visited[neighbor] || !traversable(g, mask, edge)) continue;
      visited[neighbor] = true;
      stack.push_back(neighbor);
    }
  }
  return visited;
}

// std::queue frontier, one push/pop pair of deque traffic per vertex.
std::vector<std::uint32_t> bfs_hops(const graph::Graph& g,
                                    const AliveMask& mask,
                                    graph::VertexId source) {
  std::vector<std::uint32_t> hops(g.vertex_count(), graph::kUnreachableHops);
  if (source >= g.vertex_count() || !mask.vertex_alive[source]) return hops;
  std::queue<graph::VertexId> queue;
  queue.push(source);
  hops[source] = 0;
  while (!queue.empty()) {
    const graph::VertexId v = queue.front();
    queue.pop();
    for (const auto& [neighbor, edge] : g.incident(v)) {
      if (hops[neighbor] != graph::kUnreachableHops ||
          !traversable(g, mask, edge)) {
        continue;
      }
      hops[neighbor] = hops[v] + 1;
      queue.push(neighbor);
    }
  }
  return hops;
}

// The old evaluate_service: nearest-landing-point scans re-run per draw,
// allocating mask/components/unreachable-list per call. Anchor locations
// and population weights mirror services/availability.cpp.
const std::vector<std::pair<geo::Continent, geo::GeoPoint>>&
continent_anchors() {
  static const std::vector<std::pair<geo::Continent, geo::GeoPoint>> anchors =
      {
          {geo::Continent::kNorthAmerica, {40.7, -74.0}},
          {geo::Continent::kSouthAmerica, {-23.5, -46.6}},
          {geo::Continent::kEurope, {50.1, 8.7}},
          {geo::Continent::kAfrica, {6.5, 3.4}},
          {geo::Continent::kAsia, {1.35, 103.8}},
          {geo::Continent::kOceania, {-33.9, 151.2}},
      };
  return anchors;
}

topo::NodeId nearest_connected_node(const topo::InfrastructureNetwork& net,
                                    const geo::GeoPoint& p) {
  constexpr double kAttachmentRadiusKm = 1500.0;
  topo::NodeId best_in_range = topo::kInvalidNode;
  std::size_t best_degree = 0;
  double best_in_range_d = std::numeric_limits<double>::infinity();
  topo::NodeId nearest = topo::kInvalidNode;
  double nearest_d = std::numeric_limits<double>::infinity();
  for (topo::NodeId n = 0; n < net.node_count(); ++n) {
    const std::size_t degree = net.cables_at(n).size();
    if (degree == 0) continue;
    const double d = geo::haversine_km(p, net.node(n).location);
    if (d < nearest_d) {
      nearest_d = d;
      nearest = n;
    }
    if (d <= kAttachmentRadiusKm &&
        (degree > best_degree ||
         (degree == best_degree && d < best_in_range_d))) {
      best_degree = degree;
      best_in_range_d = d;
      best_in_range = n;
    }
  }
  return best_in_range != topo::kInvalidNode ? best_in_range : nearest;
}

services::AvailabilityReport evaluate_service(
    const topo::InfrastructureNetwork& net,
    const std::vector<bool>& cable_dead,
    const services::ServiceSpec& service) {
  const AliveMask mask = mask_for_failures(net, cable_dead);
  const graph::ComponentResult cc = connected_components(net.graph(), mask);
  const auto unreachable = unreachable_nodes(net, cable_dead);
  std::vector<bool> dark(net.node_count(), false);
  for (topo::NodeId n : unreachable) dark[n] = true;
  constexpr std::uint32_t kIslandBase = 0x80000000u;

  auto component_of = [&](const geo::GeoPoint& p) -> std::uint32_t {
    const topo::NodeId n = nearest_connected_node(net, p);
    if (n == topo::kInvalidNode) return graph::ComponentResult::kNoComponent;
    if (dark[n]) return kIslandBase + n;
    return cc.component[n];
  };

  std::vector<std::uint32_t> replica_components;
  replica_components.reserve(service.replicas.size());
  for (const geo::GeoPoint& r : service.replicas) {
    replica_components.push_back(component_of(r));
  }

  services::AvailabilityReport report;
  report.service = service.name;
  for (const auto& [continent, anchor] : continent_anchors()) {
    services::ContinentAvailability avail;
    avail.continent = continent;
    const std::uint32_t client = component_of(anchor);
    if (client != graph::ComponentResult::kNoComponent) {
      std::size_t reachable = 0;
      for (std::uint32_t rc : replica_components) {
        if (rc == client) ++reachable;
      }
      avail.read_available = reachable >= 1;
      avail.write_available = reachable >= service.write_quorum;
    }
    report.per_continent.push_back(avail);
  }
  for (const auto& [continent, share] :
       services::continent_population_shares()) {
    for (const services::ContinentAvailability& avail : report.per_continent) {
      if (avail.continent != continent) continue;
      if (avail.read_available) report.read_availability += share;
      if (avail.write_available) report.write_availability += share;
    }
  }
  return report;
}

}  // namespace legacy

// --- shared fixtures --------------------------------------------------------

const topo::InfrastructureNetwork& submarine() {
  static const auto net = datasets::make_submarine_network({});
  return net;
}

const sim::FailureSimulator& submarine_sim() {
  static const sim::FailureSimulator s(submarine(), {});
  return s;
}

services::ServiceSpec bench_service() {
  std::vector<geo::GeoPoint> sites;
  for (const auto& d :
       datasets::datacenters_of(datasets::DataCenterOperator::kGoogle)) {
    sites.push_back(d.location);
  }
  return services::service_from_datacenters("bench-google-q3", sites, 3);
}

constexpr std::uint64_t kDrawSeed = 2021;
constexpr std::size_t kEquivalenceDraws = 48;
constexpr std::size_t kBenchDraws = 64;

// One failure draw as a Bitset plus its vector<bool> copy for the legacy
// kernels.
struct DrawPair {
  std::vector<bool> dead_vb;
  util::Bitset dead_bits;
};

std::vector<DrawPair> make_draws(std::size_t count) {
  const auto model = gic::LatitudeBandFailureModel::s1();
  const util::Rng base(kDrawSeed);
  std::vector<DrawPair> draws(count);
  for (std::size_t d = 0; d < count; ++d) {
    util::Rng rng = base.split(d);
    submarine_sim().sample_cable_failures(model, rng, draws[d].dead_bits);
    draws[d].dead_vb = legacy::to_vector_bool(draws[d].dead_bits);
  }
  return draws;
}

const std::vector<DrawPair>& bench_draws() {
  static const std::vector<DrawPair> draws = make_draws(kBenchDraws);
  return draws;
}

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "perf_graph equivalence check FAILED: %s\n", what);
  std::exit(1);
}

// --- equivalence gate -------------------------------------------------------

void check_kernel_equivalence() {
  const auto& net = submarine();
  const graph::Graph& g = net.graph();
  const graph::Csr& csr = net.csr();

  if (csr.vertex_count() != g.vertex_count() ||
      csr.edge_count() != g.edge_count()) {
    fail("CSR dimensions diverge from the graph");
  }

  graph::ComponentScratch comp_scratch;
  graph::ComponentResult cc;
  graph::TraversalScratch trav_scratch;
  graph::AliveMask mask;
  util::Bitset reach;
  std::vector<std::uint32_t> hops;

  for (std::size_t d = 0; d < kEquivalenceDraws; ++d) {
    const DrawPair& draw = bench_draws()[d];
    const legacy::AliveMask old_mask =
        legacy::mask_for_failures(net, draw.dead_vb);
    net.mask_for_failures(draw.dead_bits, mask);

    // Components: identical dense labels and sizes.
    const graph::ComponentResult ref =
        legacy::connected_components(g, old_mask);
    graph::connected_components(csr, mask, comp_scratch, cc);
    if (cc.component != ref.component ||
        cc.component_sizes != ref.component_sizes) {
      fail("connected_components(Csr) != legacy connected_components");
    }
    if (graph::is_connected(csr, mask, comp_scratch) !=
        legacy::is_connected(g, old_mask)) {
      fail("is_connected(Csr) != legacy is_connected");
    }

    // Traversals from a few spread-out sources.
    for (const graph::VertexId source :
         {graph::VertexId{0}, static_cast<graph::VertexId>(g.vertex_count() / 2),
          static_cast<graph::VertexId>(g.vertex_count() - 1)}) {
      const auto ref_reach = legacy::reachable_from(g, old_mask, source);
      graph::reachable_from(csr, mask, source, trav_scratch, reach);
      for (std::size_t v = 0; v < ref_reach.size(); ++v) {
        if (ref_reach[v] != reach[v]) {
          fail("reachable_from(Csr) != legacy reachable_from");
        }
      }
      const auto ref_hops = legacy::bfs_hops(g, old_mask, source);
      graph::bfs_hops(csr, mask, source, trav_scratch, hops);
      if (hops != ref_hops) fail("bfs_hops(Csr) != legacy bfs_hops");
    }
  }
}

void check_availability_equivalence() {
  const auto& net = submarine();
  const services::ServiceSpec spec = bench_service();
  services::ServiceEvaluator evaluator(net, spec);
  services::AvailabilityReport report;
  for (std::size_t d = 0; d < kEquivalenceDraws; ++d) {
    const DrawPair& draw = bench_draws()[d];
    const auto ref = legacy::evaluate_service(net, draw.dead_vb, spec);
    evaluator.evaluate(draw.dead_bits, report);
    if (report.read_availability != ref.read_availability ||
        report.write_availability != ref.write_availability) {
      fail("ServiceEvaluator availability != legacy evaluate_service");
    }
    for (std::size_t i = 0; i < ref.per_continent.size(); ++i) {
      if (report.per_continent[i].read_available !=
              ref.per_continent[i].read_available ||
          report.per_continent[i].write_available !=
              ref.per_continent[i].write_available) {
        fail("per-continent availability diverged");
      }
    }
  }
}

void check_sweep_determinism() {
  const auto model = gic::LatitudeBandFailureModel::s1();
  const services::ServiceSpec spec = bench_service();
  const auto serial = services::availability_sweep(submarine_sim(), model,
                                                   spec, 200, 99, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const auto parallel = services::availability_sweep(submarine_sim(), model,
                                                       spec, 200, 99, threads);
    if (parallel.read_availability.mean() != serial.read_availability.mean() ||
        parallel.read_availability.sample_stddev() !=
            serial.read_availability.sample_stddev() ||
        parallel.write_availability.mean() !=
            serial.write_availability.mean() ||
        parallel.write_availability.sample_stddev() !=
            serial.write_availability.sample_stddev()) {
      fail("availability_sweep diverged across thread counts");
    }
  }
}

// The acceptance criterion: once the scratch is warm, the per-trial loop
// (table draw -> mask fill -> components -> availability) never allocates.
// The counted pass replays the exact draw sequence of the warm-up pass, so
// every buffer has already seen its high-water mark.
void check_zero_steady_state_allocations() {
  const auto& net = submarine();
  const auto model = gic::LatitudeBandFailureModel::s1();
  const sim::DeathProbabilityTable table =
      submarine_sim().death_probability_table(model);
  services::ServiceEvaluator evaluator(net, bench_service());
  services::AvailabilityReport report;
  graph::ComponentScratch comp_scratch;
  graph::ComponentResult cc;
  graph::AliveMask mask;
  util::Bitset dead;
  const util::Rng base(kDrawSeed);

  auto run_draws = [&](std::size_t count) {
    for (std::size_t d = 0; d < count; ++d) {
      util::Rng rng = base.split(d);
      submarine_sim().sample_cable_failures(table, rng, dead);
      net.mask_for_failures(dead, mask);
      graph::connected_components(net.csr(), mask, comp_scratch, cc);
      evaluator.evaluate(dead, report);
      benchmark::DoNotOptimize(cc.component.data());
      benchmark::DoNotOptimize(report.read_availability);
    }
  };

  constexpr std::size_t kSteadyDraws = 200;
  run_draws(kSteadyDraws);  // warm every buffer over the same sequence
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  run_draws(kSteadyDraws);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  if (after != before) {
    std::fprintf(stderr,
                 "perf_graph equivalence check FAILED: steady-state trial "
                 "loop allocated %zu times over %zu draws\n",
                 after - before, kSteadyDraws);
    std::exit(1);
  }
}

// Every point the report's observers attach: all DNS root instances, both
// operators' data-centre sites and the six continent anchors.
std::vector<geo::GeoPoint> attachment_queries() {
  std::vector<geo::GeoPoint> queries;
  for (const datasets::DnsRootInstance& r : datasets::make_dns_dataset({})) {
    queries.push_back(r.location);
  }
  for (const auto op : {datasets::DataCenterOperator::kGoogle,
                        datasets::DataCenterOperator::kFacebook}) {
    for (const datasets::DataCenter& d : datasets::datacenters_of(op)) {
      queries.push_back(d.location);
    }
  }
  for (const auto& [continent, anchor] : legacy::continent_anchors()) {
    queries.push_back(anchor);
  }
  return queries;
}

struct AttachmentTimings {
  double scan_us_per_lookup = 0.0;
  double index_us_per_lookup = 0.0;
  double index_build_us = 0.0;
  double speedup = 0.0;  // scan vs index build + lookups
};

// Index == legacy scan on every query, then both timed over the full query
// set. The index side includes building it from scratch, as a cold report
// does, so the gate compares what the observers' construction pays.
AttachmentTimings check_attachment_index() {
  const auto& net = submarine();
  const std::vector<geo::GeoPoint> queries = attachment_queries();
  const topo::AttachmentIndex& cached = net.attachment_index();
  for (const geo::GeoPoint& q : queries) {
    if (cached.attach(q) != legacy::nearest_connected_node(net, q)) {
      fail("AttachmentIndex::attach != legacy nearest_connected_node");
    }
  }

  constexpr std::size_t kRepeats = 5;
  const double scan_ms = benchutil::time_best_ms(
      [&] {
        for (const geo::GeoPoint& q : queries) {
          benchmark::DoNotOptimize(legacy::nearest_connected_node(net, q));
        }
      },
      kRepeats);
  const double build_ms = benchutil::time_best_ms(
      [&] {
        topo::AttachmentIndex index(net);
        benchmark::DoNotOptimize(index);
      },
      kRepeats);
  const double cold_ms = benchutil::time_best_ms(
      [&] {
        const topo::AttachmentIndex index(net);
        for (const geo::GeoPoint& q : queries) {
          benchmark::DoNotOptimize(index.attach(q));
        }
      },
      kRepeats);
  const double lookups_ms = benchutil::time_best_ms(
      [&] {
        for (const geo::GeoPoint& q : queries) {
          benchmark::DoNotOptimize(cached.attach(q));
        }
      },
      kRepeats);

  const double per_query_us = 1000.0 / static_cast<double>(queries.size());
  AttachmentTimings t;
  t.scan_us_per_lookup = scan_ms * per_query_us;
  t.index_us_per_lookup = lookups_ms * per_query_us;
  t.index_build_us = build_ms * 1000.0;
  t.speedup = scan_ms / cold_ms;
  std::printf(
      "perf_graph: attachment over %zu queries: scan %.2f us/lookup, index "
      "%.2f us/lookup + %.0f us build; cold index %.1fx faster than scan\n",
      queries.size(), t.scan_us_per_lookup, t.index_us_per_lookup,
      t.index_build_us, t.speedup);
  constexpr double kMinAttachmentSpeedup = 5.0;
  if (t.speedup < kMinAttachmentSpeedup) {
    fail("AttachmentIndex (build + lookups) is not >= 5x faster than the scan");
  }
  return t;
}

// --- benchmarks -------------------------------------------------------------

// Masked connected components, per trial: mask build + decomposition, the
// connectivity unit the Monte-Carlo loop pays per draw.
void BM_LegacyMaskedComponents(benchmark::State& state) {
  const auto& net = submarine();
  std::size_t d = 0;
  for (auto _ : state) {
    const DrawPair& draw = bench_draws()[d++ % kBenchDraws];
    const legacy::AliveMask mask =
        legacy::mask_for_failures(net, draw.dead_vb);
    benchmark::DoNotOptimize(
        legacy::connected_components(net.graph(), mask));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LegacyMaskedComponents);

void BM_CsrMaskedComponents(benchmark::State& state) {
  const auto& net = submarine();
  const graph::Csr& csr = net.csr();
  graph::ComponentScratch scratch;
  graph::ComponentResult cc;
  graph::AliveMask mask;
  std::size_t d = 0;
  for (auto _ : state) {
    const DrawPair& draw = bench_draws()[d++ % kBenchDraws];
    net.mask_for_failures(draw.dead_bits, mask);
    graph::connected_components(csr, mask, scratch, cc);
    benchmark::DoNotOptimize(cc.component.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CsrMaskedComponents);

void BM_LegacyBfsHops(benchmark::State& state) {
  const auto& net = submarine();
  const legacy::AliveMask mask = legacy::all_alive(net.graph());
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy::bfs_hops(net.graph(), mask, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LegacyBfsHops);

void BM_CsrBfsHops(benchmark::State& state) {
  const auto& net = submarine();
  const graph::Csr& csr = net.csr();
  graph::AliveMask mask;
  mask.reset_to_all_alive(net.graph());
  graph::TraversalScratch scratch;
  std::vector<std::uint32_t> hops;
  for (auto _ : state) {
    graph::bfs_hops(csr, mask, 0, scratch, hops);
    benchmark::DoNotOptimize(hops.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CsrBfsHops);

// Availability per trial: draw + evaluate, old shape (allocating sample,
// per-call landing-point resolution) vs new (table draw into warm Bitset,
// pre-resolved evaluator).
void BM_LegacyAvailabilityPerTrial(benchmark::State& state) {
  const auto& net = submarine();
  const auto model = gic::LatitudeBandFailureModel::s1();
  const services::ServiceSpec spec = bench_service();
  util::Rng rng(kDrawSeed);
  for (auto _ : state) {
    const auto dead = legacy::to_vector_bool(
        submarine_sim().sample_cable_failures(model, rng));
    benchmark::DoNotOptimize(legacy::evaluate_service(net, dead, spec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LegacyAvailabilityPerTrial);

void BM_AvailabilityPerTrial(benchmark::State& state) {
  const auto model = gic::LatitudeBandFailureModel::s1();
  const sim::DeathProbabilityTable table =
      submarine_sim().death_probability_table(model);
  services::ServiceEvaluator evaluator(submarine(), bench_service());
  services::AvailabilityReport report;
  util::Bitset dead;
  util::Rng rng(kDrawSeed);
  for (auto _ : state) {
    submarine_sim().sample_cable_failures(table, rng, dead);
    evaluator.evaluate(dead, report);
    benchmark::DoNotOptimize(report.read_availability);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AvailabilityPerTrial);

// The full parallel sweep, for the thread-scaling picture.
void BM_AvailabilitySweep(benchmark::State& state) {
  const auto model = gic::LatitudeBandFailureModel::s1();
  const services::ServiceSpec spec = bench_service();
  constexpr std::size_t kDraws = 200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(services::availability_sweep(
        submarine_sim(), model, spec, kDraws, kDrawSeed,
        static_cast<std::size_t>(state.range(0))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDraws));
}
BENCHMARK(BM_AvailabilitySweep)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Headline chrono timings for BENCH_graph.json: the per-trial connectivity
// and availability units, old vs new, averaged over the bench draws.
void emit_bench_json(const AttachmentTimings& attachment) {
  const auto& net = submarine();
  const graph::Csr& csr = net.csr();
  graph::ComponentScratch comp_scratch;
  graph::ComponentResult cc;
  graph::AliveMask mask;
  services::ServiceEvaluator evaluator(net, bench_service());
  services::AvailabilityReport report;
  const double per_draw = 1.0 / static_cast<double>(kBenchDraws);

  const double legacy_components_ms = per_draw * benchutil::time_best_ms([&] {
    for (const DrawPair& draw : bench_draws()) {
      const legacy::AliveMask old_mask =
          legacy::mask_for_failures(net, draw.dead_vb);
      benchmark::DoNotOptimize(
          legacy::connected_components(net.graph(), old_mask));
    }
  });
  const double csr_components_ms = per_draw * benchutil::time_best_ms([&] {
    for (const DrawPair& draw : bench_draws()) {
      net.mask_for_failures(draw.dead_bits, mask);
      graph::connected_components(csr, mask, comp_scratch, cc);
      benchmark::DoNotOptimize(cc.component.data());
    }
  });
  const services::ServiceSpec spec = bench_service();
  const double legacy_avail_ms = per_draw * benchutil::time_best_ms([&] {
    for (const DrawPair& draw : bench_draws()) {
      benchmark::DoNotOptimize(
          legacy::evaluate_service(net, draw.dead_vb, spec));
    }
  });
  const double eval_avail_ms = per_draw * benchutil::time_best_ms([&] {
    for (const DrawPair& draw : bench_draws()) {
      evaluator.evaluate(draw.dead_bits, report);
      benchmark::DoNotOptimize(report.read_availability);
    }
  });
  benchutil::write_bench_json(
      "graph",
      {{"legacy_masked_components_ms", legacy_components_ms, "ms"},
       {"csr_masked_components_ms", csr_components_ms, "ms"},
       {"legacy_availability_per_trial_ms", legacy_avail_ms, "ms"},
       {"evaluator_availability_per_trial_ms", eval_avail_ms, "ms"},
       {"attach_scan_us_per_lookup", attachment.scan_us_per_lookup, "us"},
       {"attach_index_us_per_lookup", attachment.index_us_per_lookup, "us"},
       {"attach_index_build_us", attachment.index_build_us, "us"},
       {"attach_cold_index_speedup", attachment.speedup, "x"}});
}

}  // namespace

int main(int argc, char** argv) {
  check_kernel_equivalence();
  check_availability_equivalence();
  check_sweep_determinism();
  check_zero_steady_state_allocations();
  const AttachmentTimings attachment = check_attachment_index();
  std::printf("perf_graph: all equivalence checks passed\n");
  emit_bench_json(attachment);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
