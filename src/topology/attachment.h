// AttachmentIndex: where a geographic point — a client, a data-centre
// replica, a DNS root instance — joins a cable network. Parties reach the
// submarine plant through terrestrial networks, so they attach to the
// best-connected landing station in their area, not literally the closest
// beach:
//   * among nodes within kRadiusKm, the highest cable degree wins, then the
//     smaller haversine_km, then the lower node id;
//   * with no node in range, the globally nearest node wins, the lower id
//     breaking distance ties.
// Nodes without cables never attach.
//
// The index buckets the cable-bearing nodes on a lat/lon grid. A query
// visits only the cells of a padded bounding box of its kRadiusKm cap, so
// every node that can be in range is a candidate, and decides with the
// same haversine_km a full scan would: the answer equals the scan's bit for
// bit. Points with no node in range, and non-finite or out-of-range
// coordinates, are decided by a scan of every indexed node.
//
// Like graph::Csr it is an immutable snapshot; InfrastructureNetwork caches
// one per network (attachment_index()) and drops it on mutation.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/coords.h"
#include "topology/node.h"

namespace solarnet::topo {

class InfrastructureNetwork;

class AttachmentIndex {
 public:
  static constexpr double kRadiusKm = 1500.0;

  explicit AttachmentIndex(const InfrastructureNetwork& net);

  // The node `p` attaches to; kInvalidNode when no node has a cable.
  NodeId attach(const geo::GeoPoint& p) const;

 private:
  struct Entry {
    geo::GeoPoint location;
    std::uint32_t degree = 0;
    NodeId id = kInvalidNode;
  };

  NodeId scan_all(const geo::GeoPoint& p) const;

  // Cell c holds entries_[cell_begin_[c] .. cell_begin_[c + 1]), sorted by
  // descending degree, then ascending id.
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> cell_begin_;
};

}  // namespace solarnet::topo
