#include "topology/attachment.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geo/distance.h"
#include "topology/network.h"

namespace solarnet::topo {

namespace {

constexpr double kCellDeg = 5.0;
constexpr int kRows = 36;  // 180 / kCellDeg
constexpr int kCols = 72;  // 360 / kCellDeg

// The candidate box bounds a cap 1 km wider than the attachment radius.
// The margin dwarfs the rounding error of haversine_km and of the
// degree/radian conversions, so every node a full scan finds in range lies
// inside the box.
constexpr double kBoxRadiusKm = AttachmentIndex::kRadiusKm + 1.0;

int row_of(double lat_deg) {
  return std::clamp(static_cast<int>(std::floor((lat_deg + 90.0) / kCellDeg)),
                    0, kRows - 1);
}

// `lon_deg` in [-180, 180): the cell column, unwrapped for box edges.
int unwrapped_col_of(double lon_deg) {
  return static_cast<int>(std::floor((lon_deg + 180.0) / kCellDeg));
}

int cell_of(const geo::GeoPoint& p) {
  return row_of(p.lat_deg) * kCols +
         std::clamp(unwrapped_col_of(p.lon_deg), 0, kCols - 1);
}

// The running winner of one rule over the candidates offered so far.
struct Pick {
  NodeId id = kInvalidNode;
  std::uint32_t degree = 0;
  double d = std::numeric_limits<double>::infinity();

  // In-range rule: higher degree, then nearer, then lower id.
  void offer_in_range(NodeId n, std::uint32_t degree_n, double d_n) {
    if (!(d_n <= AttachmentIndex::kRadiusKm)) return;
    if (degree_n > degree ||
        (degree_n == degree && (d_n < d || (d_n == d && n < id)))) {
      *this = {n, degree_n, d_n};
    }
  }
  // Fallback rule: nearer, then lower id.
  void offer_nearest(NodeId n, double d_n) {
    if (d_n < d || (d_n == d && n < id)) *this = {n, 0, d_n};
  }
};

}  // namespace

AttachmentIndex::AttachmentIndex(const InfrastructureNetwork& net) {
  for (NodeId n = 0; n < net.node_count(); ++n) {
    const std::size_t degree = net.cables_at(n).size();
    if (degree == 0) continue;
    entries_.push_back(
        {net.node(n).location, static_cast<std::uint32_t>(degree), n});
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              const int ca = cell_of(a.location);
              const int cb = cell_of(b.location);
              if (ca != cb) return ca < cb;
              if (a.degree != b.degree) return a.degree > b.degree;
              return a.id < b.id;
            });
  cell_begin_.assign(kRows * kCols + 1, 0);
  for (const Entry& e : entries_) ++cell_begin_[cell_of(e.location) + 1];
  for (std::size_t c = 1; c < cell_begin_.size(); ++c) {
    cell_begin_[c] += cell_begin_[c - 1];
  }
}

NodeId AttachmentIndex::attach(const geo::GeoPoint& p) const {
  if (!geo::is_valid(p)) return scan_all(p);

  // Bounding box of the cap: latitude +-delta; longitude
  // +-asin(sin delta / cos lat), or the full ring once the cap reaches a
  // pole.
  const double delta_rad = kBoxRadiusKm / geo::kEarthRadiusKm;
  const double delta_deg = geo::rad_to_deg(delta_rad);
  const int row_lo = row_of(p.lat_deg - delta_deg);
  const int row_hi = row_of(p.lat_deg + delta_deg);
  int col_lo = 0;
  int col_hi = kCols - 1;
  if (std::abs(p.lat_deg) + delta_deg < 90.0) {
    const double s =
        std::sin(delta_rad) / std::cos(geo::deg_to_rad(p.lat_deg));
    if (s < 1.0) {
      const double half_width_deg = geo::rad_to_deg(std::asin(s));
      const double lon = geo::normalize_longitude(p.lon_deg);
      const int lo = unwrapped_col_of(lon - half_width_deg);
      const int hi = unwrapped_col_of(lon + half_width_deg);
      if (hi - lo + 1 < kCols) {
        col_lo = lo;
        col_hi = hi;
      }
    }
  }

  Pick best;
  for (int r = row_lo; r <= row_hi; ++r) {
    for (int c = col_lo; c <= col_hi; ++c) {
      const int cell = r * kCols + (c % kCols + kCols) % kCols;
      for (std::uint32_t i = cell_begin_[cell]; i < cell_begin_[cell + 1];
           ++i) {
        const Entry& e = entries_[i];
        // Cells are sorted by descending degree: nothing after a
        // lower-degree entry can beat the current pick.
        if (e.degree < best.degree) break;
        best.offer_in_range(e.id, e.degree,
                            geo::haversine_km(p, e.location));
      }
    }
  }
  return best.id != kInvalidNode ? best.id : scan_all(p);
}

NodeId AttachmentIndex::scan_all(const geo::GeoPoint& p) const {
  Pick in_range;
  Pick nearest;
  for (const Entry& e : entries_) {
    const double d = geo::haversine_km(p, e.location);
    in_range.offer_in_range(e.id, e.degree, d);
    nearest.offer_nearest(e.id, d);
  }
  return in_range.id != kInvalidNode ? in_range.id : nearest.id;
}

}  // namespace solarnet::topo
