#include "analysis/dns_resolution.h"

#include <algorithm>
#include <array>
#include <string>

#include "graph/components.h"
#include "util/checkpoint.h"

namespace solarnet::analysis {

DnsResolutionEvaluator::DnsResolutionEvaluator(
    const topo::InfrastructureNetwork& net,
    const std::vector<datasets::DnsRootInstance>& roots) {
  const topo::AttachmentIndex& attachment = net.attachment_index();
  for (const auto& [continent, anchor] : services::continent_anchors()) {
    anchors_.emplace_back(continent, attachment.attach(anchor));
  }
  std::array<std::vector<topo::NodeId>, 13> nodes;
  std::array<bool, 13> populated{};
  for (const datasets::DnsRootInstance& r : roots) {
    const int l = r.root_letter - 'a';
    populated[l] = true;
    const topo::NodeId node = attachment.attach(r.location);
    if (node == topo::kInvalidNode) continue;
    if (std::find(nodes[l].begin(), nodes[l].end(), node) == nodes[l].end()) {
      nodes[l].push_back(node);
    }
  }
  // Letters with no instances are skipped.
  letter_offset_.push_back(0);
  for (int l = 0; l < 13; ++l) {
    if (!populated[l]) continue;
    letter_nodes_.insert(letter_nodes_.end(), nodes[l].begin(), nodes[l].end());
    letter_offset_.push_back(static_cast<std::uint32_t>(letter_nodes_.size()));
  }
}

void DnsResolutionEvaluator::evaluate(
    std::span<const std::uint32_t> component_label,
    DnsResolutionReport& out) const {
  out.per_continent.clear();
  out.resolution_availability = 0.0;
  out.mean_letters_reachable = 0.0;

  for (const auto& [continent, anchor_node] : anchors_) {
    DnsResolutionReport::PerContinent pc;
    pc.continent = continent;
    if (anchor_node != topo::kInvalidNode) {
      const std::uint32_t client = component_label[anchor_node];
      for (std::size_t l = 0; l + 1 < letter_offset_.size(); ++l) {
        for (std::uint32_t i = letter_offset_[l]; i != letter_offset_[l + 1];
             ++i) {
          if (component_label[letter_nodes_[i]] == client) {
            ++pc.letters_reachable;
            break;
          }
        }
      }
      pc.any_root_reachable = pc.letters_reachable > 0;
    }
    out.per_continent.push_back(pc);
  }

  for (const auto& [cont, share] : services::continent_population_shares()) {
    for (const auto& pc : out.per_continent) {
      if (pc.continent != cont) continue;
      if (pc.any_root_reachable) out.resolution_availability += share;
      out.mean_letters_reachable +=
          share * static_cast<double>(pc.letters_reachable);
    }
  }
}

DnsResolutionReport evaluate_dns_resolution(
    const topo::InfrastructureNetwork& net,
    const util::Bitset& cable_dead,
    const std::vector<datasets::DnsRootInstance>& roots) {
  DnsResolutionEvaluator evaluator(net, roots);
  const graph::AliveMask mask = net.mask_for_failures(cable_dead);
  graph::ComponentScratch scratch;
  graph::ComponentResult components;
  graph::connected_components(net.csr(), mask, scratch, components);
  DnsResolutionReport report;
  evaluator.evaluate(components.component, report);
  return report;
}

DnsResolutionObserver::DnsResolutionObserver(
    const topo::InfrastructureNetwork& net,
    const std::vector<datasets::DnsRootInstance>& roots,
    double cable_loss_threshold_pct)
    : evaluator_(net, roots), threshold_pct_(cable_loss_threshold_pct) {}

void DnsResolutionObserver::begin_run(const sim::TrialPipeline& /*pipeline*/,
                                      std::size_t workers,
                                      std::size_t chunks) {
  reports_.assign(workers, {});
  chunks_.assign(chunks, {});
  result_ = {};
  result_.cable_loss_threshold_pct = threshold_pct_;
}

void DnsResolutionObserver::record(
    std::span<const std::uint32_t> component_label, double cables_failed_pct,
    std::size_t worker, std::size_t chunk) {
  DnsResolutionReport& report = reports_[worker];
  evaluator_.evaluate(component_label, report);
  Chunk& slot = chunks_[chunk];
  slot.availability.add(report.resolution_availability);
  slot.letters.add(report.mean_letters_reachable);
  const bool degraded = resolution_degraded(report.resolution_availability);
  const bool heavy = cables_failed_pct > threshold_pct_;
  if (degraded) ++slot.degraded;
  if (heavy) ++slot.heavy;
  if (degraded && heavy) ++slot.joint;
}

void DnsResolutionObserver::observe(const sim::TrialView& view,
                                    std::size_t worker, std::size_t chunk) {
  record(view.components->component, view.cables_failed_pct, worker, chunk);
}

void DnsResolutionObserver::observe_batch(const sim::BatchTrialView& view,
                                          std::size_t worker,
                                          std::size_t first_chunk) {
  for (unsigned lane = 0; lane < view.lanes; ++lane) {
    record(view.labels(lane), view.cables_failed_pct[lane], worker,
           first_chunk + lane / sim::TrialPipeline::kTrialChunk);
  }
}

void DnsResolutionObserver::save_chunk(std::size_t chunk,
                                       util::ByteWriter& out) const {
  sim::check_chunk_slot("DnsResolutionObserver", "save_chunk", chunk,
                        chunks_.size());
  const Chunk& slot = chunks_[chunk];
  util::write_stats(out, slot.availability);
  util::write_stats(out, slot.letters);
  out.u64(slot.degraded);
  out.u64(slot.heavy);
  out.u64(slot.joint);
}

void DnsResolutionObserver::load_chunk(std::size_t chunk,
                                       util::ByteReader& in) {
  sim::check_chunk_slot("DnsResolutionObserver", "load_chunk", chunk,
                        chunks_.size());
  Chunk& slot = chunks_[chunk];
  slot.availability = util::read_stats(in);
  slot.letters = util::read_stats(in);
  slot.degraded = in.u64();
  slot.heavy = in.u64();
  slot.joint = in.u64();
}

void DnsResolutionObserver::end_run() {
  for (const Chunk& slot : chunks_) {
    result_.resolution_availability.merge(slot.availability);
    result_.mean_letters_reachable.merge(slot.letters);
    result_.degraded_trials += slot.degraded;
    result_.heavy_loss_trials += slot.heavy;
    result_.joint_trials += slot.joint;
  }
  result_.trials = result_.resolution_availability.count();
  reports_.clear();
  chunks_.clear();
}

}  // namespace solarnet::analysis
