#include "sim/trial_batch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace solarnet::sim {

TrialBatchKernel::TrialBatchKernel(const FailureSimulator& simulator,
                                   const DeathProbabilityTable& table)
    : sim_(simulator) {
  const topo::InfrastructureNetwork& net = simulator.network();
  cables_ = net.cable_count();
  if (table.probability.size() != cables_) {
    throw std::invalid_argument("TrialBatchKernel: table size mismatch");
  }
  connected_nodes_ = simulator.connected_node_count();

  // The scalar draw's stream discipline: one uniform per mortal cable, in
  // ascending cable order, whatever its probability.
  const std::vector<std::uint32_t>& mortal = simulator.mortal_cables();
  threshold_.reserve(mortal.size());
  for (const std::uint32_t c : mortal) {
    threshold_.push_back(util::Rng::bernoulli_threshold(table.probability[c]));
  }

  // Node -> cable incidence over cable-bearing nodes only (the universe of
  // the paper's unreachability count; node identity is irrelevant here).
  node_offset_.push_back(0);
  for (topo::NodeId v = 0; v < net.node_count(); ++v) {
    const auto& at = net.cables_at(v);
    if (at.empty()) continue;
    for (const topo::CableId c : at) {
      node_cables_.push_back(static_cast<std::uint32_t>(c));
    }
    node_offset_.push_back(static_cast<std::uint32_t>(node_cables_.size()));
  }

  csr_ = &net.csr();
  edge_cable_.reserve(csr_->edge_count());
  for (graph::EdgeId e = 0; e < csr_->edge_count(); ++e) {
    edge_cable_.push_back(static_cast<std::uint32_t>(net.cable_of_edge(e)));
  }
}

void TrialBatchKernel::sample(const util::Rng& base, std::size_t first_trial,
                              unsigned lanes, TrialBatch& out) const {
  if (lanes == 0 || lanes > kLanes) {
    throw std::invalid_argument("TrialBatchKernel::sample: lanes not in [1, 64]");
  }
  out.first_trial = first_trial;
  out.lanes = lanes;
  out.lane_mask = lanes == kLanes ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << lanes) - 1;
  out.cable_dead.assign(cables_, 0);
  out.lane_rng.resize(lanes, util::Rng(0));

  const std::size_t n = threshold_.size();
  const std::uint32_t* cable = sim_.mortal_cables().data();
  const std::uint64_t* threshold = threshold_.data();
  std::uint64_t* dead = out.cable_dead.data();

  // Four lanes per pass: the xoshiro update is a serial dependency chain,
  // so interleaving four independent streams keeps the ALUs busy. Each
  // stream still sees exactly its scalar draw sequence.
  unsigned lane = 0;
  for (; lane + 4 <= lanes; lane += 4) {
    util::Rng r0 = base.split(first_trial + lane + 0);
    util::Rng r1 = base.split(first_trial + lane + 1);
    util::Rng r2 = base.split(first_trial + lane + 2);
    util::Rng r3 = base.split(first_trial + lane + 3);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = threshold[i];
      const std::uint64_t b0 = (r0.next_u64() >> 11) < k ? 1u : 0u;
      const std::uint64_t b1 = (r1.next_u64() >> 11) < k ? 1u : 0u;
      const std::uint64_t b2 = (r2.next_u64() >> 11) < k ? 1u : 0u;
      const std::uint64_t b3 = (r3.next_u64() >> 11) < k ? 1u : 0u;
      dead[cable[i]] |= (b0 | (b1 << 1) | (b2 << 2) | (b3 << 3)) << lane;
    }
    out.lane_rng[lane + 0] = r0;
    out.lane_rng[lane + 1] = r1;
    out.lane_rng[lane + 2] = r2;
    out.lane_rng[lane + 3] = r3;
  }
  for (; lane < lanes; ++lane) {
    util::Rng r = base.split(first_trial + lane);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t bit = (r.next_u64() >> 11) < threshold[i] ? 1u : 0u;
      dead[cable[i]] |= bit << lane;
    }
    out.lane_rng[lane] = r;
  }
}

void TrialBatchKernel::count_cables_failed(const TrialBatch& batch,
                                           std::uint32_t* out) const {
  std::fill(out, out + batch.lanes, 0u);
  const std::uint64_t* dead = batch.cable_dead.data();
  std::uint64_t m[kLanes];
  for (std::size_t base = 0; base < cables_; base += kLanes) {
    const std::size_t block = std::min<std::size_t>(kLanes, cables_ - base);
    for (std::size_t j = 0; j < block; ++j) m[j] = dead[base + j];
    for (std::size_t j = block; j < kLanes; ++j) m[j] = 0;
    util::transpose_64x64(m);
    for (unsigned t = 0; t < batch.lanes; ++t) {
      out[t] += static_cast<std::uint32_t>(std::popcount(m[t]));
    }
  }
}

void TrialBatchKernel::count_unreachable_nodes(const TrialBatch& batch,
                                               std::uint32_t* out) const {
  std::fill(out, out + batch.lanes, 0u);
  const std::uint64_t* dead = batch.cable_dead.data();
  const std::size_t nodes = node_offset_.size() - 1;
  std::uint64_t m[kLanes];
  for (std::size_t base = 0; base < nodes; base += kLanes) {
    const std::size_t block = std::min<std::size_t>(kLanes, nodes - base);
    for (std::size_t j = 0; j < block; ++j) {
      // Unreachable in lane t iff every incident cable is dead in lane t:
      // one AND chain answers all 64 trials at once.
      std::uint64_t w = batch.lane_mask;
      const std::uint32_t begin = node_offset_[base + j];
      const std::uint32_t end = node_offset_[base + j + 1];
      for (std::uint32_t i = begin; i != end; ++i) w &= dead[node_cables_[i]];
      m[j] = w;
    }
    for (std::size_t j = block; j < kLanes; ++j) m[j] = 0;
    util::transpose_64x64(m);
    for (unsigned t = 0; t < batch.lanes; ++t) {
      out[t] += static_cast<std::uint32_t>(std::popcount(m[t]));
    }
  }
}

void TrialBatchKernel::largest_components(const TrialBatch& batch,
                                          BatchConnectivityScratch& scratch,
                                          std::uint32_t* out,
                                          std::uint32_t* labels) const {
  scratch.edge_dead.resize(edge_cable_.size());
  for (std::size_t e = 0; e < edge_cable_.size(); ++e) {
    scratch.edge_dead[e] = batch.cable_dead[edge_cable_[e]];
  }
  graph::batch_largest_components(*csr_, scratch.edge_dead, batch.lanes,
                                  scratch.components, out, labels);
}

void TrialBatchKernel::extract_lane(const TrialBatch& batch, unsigned lane,
                                    util::Bitset& dead) const {
  dead.assign(cables_, false);
  const std::uint64_t* words = batch.cable_dead.data();
  const std::size_t word_count = (cables_ + kLanes - 1) / kLanes;
  for (std::size_t wi = 0; wi < word_count; ++wi) {
    const std::size_t base = wi * kLanes;
    const std::size_t block = std::min<std::size_t>(kLanes, cables_ - base);
    std::uint64_t w = 0;
    for (std::size_t j = 0; j < block; ++j) {
      w |= ((words[base + j] >> lane) & 1u) << j;
    }
    dead.set_word(wi, w);
  }
}

}  // namespace solarnet::sim
