// Grid graph for global routing — Sec. 3.5 of the paper, following the
// FastRoute model [18]: the die is tessellated into square bins of width
// theta (user parameter); routing demand lives on the edges between
// adjacent bins, each with a virtual capacity [17] that estimates how many
// wires fit.
//
// Edges live in ONE flat array (horizontal edges first, then vertical), so
// a maze search addresses any edge branchlessly by its unified id, and a
// precomputed CSR adjacency table (neighbor node + unified edge id per
// entry) replaces the per-expansion bin arithmetic and boundary branches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/heatmap.hpp"

namespace autoncs::route {

struct BinRef {
  std::size_t ix = 0;
  std::size_t iy = 0;
  friend bool operator==(const BinRef&, const BinRef&) = default;
};

/// One outgoing edge in the precomputed adjacency table: the neighbor's
/// node index, the unified edge id shared by both directions, and the
/// neighbor's bin coordinates (so window tests and heuristics need no
/// div/mod in the expansion loop).
struct GridNeighbor {
  std::uint32_t node = 0;
  std::uint32_t edge = 0;
  std::uint16_t ix = 0;
  std::uint16_t iy = 0;
};

class GridGraph {
 public:
  /// Builds an nx x ny grid with the given bin width (um) and per-edge
  /// capacity (wires per edge).
  GridGraph(std::size_t nx, std::size_t ny, double bin_um, double origin_x,
            double origin_y, double edge_capacity);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  double bin_um() const { return bin_um_; }
  std::size_t node_count() const { return nx_ * ny_; }

  /// Bin containing the point (clamped to the grid).
  BinRef bin_of(double x, double y) const;
  /// Center coordinates of a bin.
  double bin_center_x(std::size_t ix) const;
  double bin_center_y(std::size_t iy) const;

  /// Horizontal edge between (ix, iy) and (ix+1, iy).
  double h_usage(std::size_t ix, std::size_t iy) const;
  /// Vertical edge between (ix, iy) and (ix, iy+1).
  double v_usage(std::size_t ix, std::size_t iy) const;
  double edge_capacity() const { return capacity_; }

  void add_h_usage(std::size_t ix, std::size_t iy, double amount);
  void add_v_usage(std::size_t ix, std::size_t iy, double amount);

  /// Congestion history (PathFinder-style negotiated rerouting): grows on
  /// every edge that is overflowed at the end of a routing pass, steering
  /// later passes away from chronically contested edges.
  double h_history(std::size_t ix, std::size_t iy) const;
  double v_history(std::size_t ix, std::size_t iy) const;
  /// Adds each edge's current overflow above `limit` (usage - limit, for
  /// edges with usage > limit — the edge_overflowed predicate of
  /// maze_router.hpp) into its history. Returns the number of overflowed
  /// edges. The zero-argument form uses the physical capacity.
  std::size_t accumulate_history(double limit);
  std::size_t accumulate_history() { return accumulate_history(capacity_); }

  // --- unified edge addressing (maze kernel hot path) ---
  /// Edges adjacent to `node`, 2..4 entries.
  const GridNeighbor* neighbors(std::size_t node) const {
    return adjacency_.data() + adjacency_offsets_[node];
  }
  std::size_t neighbor_count(std::size_t node) const {
    return adjacency_offsets_[node + 1] - adjacency_offsets_[node];
  }
  /// Usage / history by unified edge id (horizontal block first).
  double edge_usage(std::uint32_t edge) const { return usage_[edge]; }
  double edge_history(std::uint32_t edge) const { return history_[edge]; }

  /// Total usage above capacity, summed over edges (overflow metric).
  double total_overflow() const;
  /// Largest usage/capacity over all edges.
  double peak_congestion() const;

  /// Wire count crossing each bin (sum of adjacent edge usages) — the
  /// congestion map of Fig. 10(b)/(d).
  util::Field2D congestion_field() const;

  /// Logical footprint of the usage/history edge arrays plus the
  /// adjacency table in bytes. The grid dimensions derive from the
  /// (bit-identical) placement, so this is thread-count invariant.
  double footprint_bytes() const {
    return static_cast<double>(
        (usage_.size() + history_.size()) * sizeof(double) +
        adjacency_.size() * sizeof(GridNeighbor) +
        adjacency_offsets_.size() * sizeof(std::uint32_t));
  }

 private:
  std::size_t h_index(std::size_t ix, std::size_t iy) const;
  std::size_t v_index(std::size_t ix, std::size_t iy) const;
  void build_adjacency();

  std::size_t nx_;
  std::size_t ny_;
  double bin_um_;
  double origin_x_;
  double origin_y_;
  double capacity_;
  std::size_t h_count_;  // horizontal edges: (nx-1) * ny, block 0 of usage_
  std::vector<double> usage_;    // h edges then v edges (nx * (ny-1))
  std::vector<double> history_;  // same layout
  std::vector<std::uint32_t> adjacency_offsets_;  // node_count() + 1
  std::vector<GridNeighbor> adjacency_;
};

}  // namespace autoncs::route
