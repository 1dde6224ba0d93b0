#include "route/grid_graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace autoncs::route {

GridGraph::GridGraph(std::size_t nx, std::size_t ny, double bin_um,
                     double origin_x, double origin_y, double edge_capacity)
    : nx_(nx),
      ny_(ny),
      bin_um_(bin_um),
      origin_x_(origin_x),
      origin_y_(origin_y),
      capacity_(edge_capacity),
      h_count_(nx >= 1 ? (nx - 1) * ny : 0),
      usage_(h_count_ + (ny >= 1 ? nx * (ny - 1) : 0), 0.0),
      history_(usage_.size(), 0.0) {
  AUTONCS_CHECK(nx >= 1 && ny >= 1, "grid must have at least one bin");
  AUTONCS_CHECK(bin_um > 0.0, "bin width must be positive");
  AUTONCS_CHECK(edge_capacity > 0.0, "edge capacity must be positive");
  AUTONCS_CHECK(nx * ny < std::numeric_limits<std::uint32_t>::max(),
                "grid too large for 32-bit adjacency table");
  AUTONCS_CHECK(nx <= std::numeric_limits<std::uint16_t>::max() &&
                    ny <= std::numeric_limits<std::uint16_t>::max(),
                "grid dimension too large for 16-bit bin coordinates");
  build_adjacency();
}

void GridGraph::build_adjacency() {
  const std::size_t nodes = nx_ * ny_;
  adjacency_offsets_.assign(nodes + 1, 0);
  adjacency_.clear();
  adjacency_.reserve(4 * nodes);
  // Fixed neighbor order (east, west, north, south): the maze kernel's
  // expansion order, part of its deterministic tie-breaking.
  for (std::size_t node = 0; node < nodes; ++node) {
    const std::size_t ix = node % nx_;
    const std::size_t iy = node / nx_;
    const auto x16 = static_cast<std::uint16_t>(ix);
    const auto y16 = static_cast<std::uint16_t>(iy);
    if (ix + 1 < nx_) {
      adjacency_.push_back({static_cast<std::uint32_t>(node + 1),
                            static_cast<std::uint32_t>(h_index(ix, iy)),
                            static_cast<std::uint16_t>(ix + 1), y16});
    }
    if (ix > 0) {
      adjacency_.push_back({static_cast<std::uint32_t>(node - 1),
                            static_cast<std::uint32_t>(h_index(ix - 1, iy)),
                            static_cast<std::uint16_t>(ix - 1), y16});
    }
    if (iy + 1 < ny_) {
      adjacency_.push_back(
          {static_cast<std::uint32_t>(node + nx_),
           static_cast<std::uint32_t>(h_count_ + v_index(ix, iy)), x16,
           static_cast<std::uint16_t>(iy + 1)});
    }
    if (iy > 0) {
      adjacency_.push_back(
          {static_cast<std::uint32_t>(node - nx_),
           static_cast<std::uint32_t>(h_count_ + v_index(ix, iy - 1)), x16,
           static_cast<std::uint16_t>(iy - 1)});
    }
    adjacency_offsets_[node + 1] =
        static_cast<std::uint32_t>(adjacency_.size());
  }
}

BinRef GridGraph::bin_of(double x, double y) const {
  const double fx = (x - origin_x_) / bin_um_;
  const double fy = (y - origin_y_) / bin_um_;
  BinRef bin;
  bin.ix = static_cast<std::size_t>(
      std::clamp(std::floor(fx), 0.0, static_cast<double>(nx_ - 1)));
  bin.iy = static_cast<std::size_t>(
      std::clamp(std::floor(fy), 0.0, static_cast<double>(ny_ - 1)));
  return bin;
}

double GridGraph::bin_center_x(std::size_t ix) const {
  return origin_x_ + (static_cast<double>(ix) + 0.5) * bin_um_;
}

double GridGraph::bin_center_y(std::size_t iy) const {
  return origin_y_ + (static_cast<double>(iy) + 0.5) * bin_um_;
}

std::size_t GridGraph::h_index(std::size_t ix, std::size_t iy) const {
  AUTONCS_DCHECK(ix + 1 < nx_ && iy < ny_, "horizontal edge out of range");
  return iy * (nx_ - 1) + ix;
}

std::size_t GridGraph::v_index(std::size_t ix, std::size_t iy) const {
  AUTONCS_DCHECK(ix < nx_ && iy + 1 < ny_, "vertical edge out of range");
  return iy * nx_ + ix;
}

double GridGraph::h_usage(std::size_t ix, std::size_t iy) const {
  return usage_[h_index(ix, iy)];
}

double GridGraph::v_usage(std::size_t ix, std::size_t iy) const {
  return usage_[h_count_ + v_index(ix, iy)];
}

void GridGraph::add_h_usage(std::size_t ix, std::size_t iy, double amount) {
  usage_[h_index(ix, iy)] += amount;
}

void GridGraph::add_v_usage(std::size_t ix, std::size_t iy, double amount) {
  usage_[h_count_ + v_index(ix, iy)] += amount;
}

double GridGraph::h_history(std::size_t ix, std::size_t iy) const {
  return history_[h_index(ix, iy)];
}

double GridGraph::v_history(std::size_t ix, std::size_t iy) const {
  return history_[h_count_ + v_index(ix, iy)];
}

std::size_t GridGraph::accumulate_history(double limit) {
  std::size_t overflowed = 0;
  for (std::size_t e = 0; e < usage_.size(); ++e) {
    if (usage_[e] > limit) {
      history_[e] += usage_[e] - limit;
      ++overflowed;
    }
  }
  return overflowed;
}

double GridGraph::total_overflow() const {
  double acc = 0.0;
  for (double u : usage_) acc += std::max(0.0, u - capacity_);
  return acc;
}

double GridGraph::peak_congestion() const {
  double peak = 0.0;
  for (double u : usage_) peak = std::max(peak, u / capacity_);
  return peak;
}

util::Field2D GridGraph::congestion_field() const {
  // Row 0 of the field is the TOP row of the layout (max y).
  util::Field2D field(ny_, nx_);
  for (std::size_t iy = 0; iy < ny_; ++iy) {
    for (std::size_t ix = 0; ix < nx_; ++ix) {
      double usage = 0.0;
      if (ix > 0) usage += h_usage(ix - 1, iy);
      if (ix + 1 < nx_) usage += h_usage(ix, iy);
      if (iy > 0) usage += v_usage(ix, iy - 1);
      if (iy + 1 < ny_) usage += v_usage(ix, iy);
      field.at(ny_ - 1 - iy, ix) = usage;
    }
  }
  return field;
}

}  // namespace autoncs::route
