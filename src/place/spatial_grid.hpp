// Spatial queries behind the placer's pair enumeration: which cell pairs
// are close enough to interact in the density model, to overlap in the
// exact overlap oracle, or to need separating in the legalizer.
//
// AutoNCS netlists are mixed-size. A handful of crossbar macros (up to
// ~20 um) sit among hundreds of neurons and discrete synapses of at most
// ~2.2 um. A single grid whose probe window must cover the largest pair
// reach spans a good part of the die for every small cell. So the cells
// are split once per netlist (split_macros): macros, those larger than
// 3x the median extent, get a grid of their own; the
// small cells are binned in a fine grid whose reach comes from the
// largest SMALL extent. A small cell probes its fine-grid window and its
// macro-grid window; a macro probes both with windows widened by its own
// extent. Any split yields a superset of the interacting pairs, so
// correctness never depends on where the split falls, and with no macros
// the scheme is the single grid of old.
//
//  * UniformGrid — static CSR buckets over cell centers, rebuilt per
//    evaluation into reused buffers (stable counting sort, or a sorted
//    sparse list when the bins span an extreme coordinate range).
//  * MixedSizeIndex — the static split over three UniformGrids, for the
//    density model and exact_overlap_area: fine (small cells), macro
//    (macros) and COARSE (all cells, reach = 2 * largest half extent +
//    tail). The coarse grid's slot order is the fold-order contract: a
//    cell's pair terms are summed in ascending coarse slot of the partner
//    (rank()), the order the single-grid enumeration visited them in, so
//    sums stay bit-identical whichever grid found the pair.
//  * LiveGrid — hashed buckets with O(1) moves, so the legalizer's grids
//    always hold the current positions while its sweep separates cells.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/thread_pool.hpp"

namespace autoncs::place {

/// Splits the cells of `netlist` by extent: a macro is a cell whose
/// max(width, height) exceeds 3x the median extent (AutoNCS's smallest
/// crossbar is 3.4x a neuron; 3x still leaves neurons small when synapses
/// are the median). `macros` receives the macro ids ascending, `is_macro`
/// one flag per cell. At most half the cells can be macros, and a netlist
/// of similar sizes has none.
void split_macros(const netlist::Netlist& netlist,
                  std::vector<std::uint32_t>& macros,
                  std::vector<std::uint8_t>& is_macro);

/// Bucket side for a probe of `span` buckets that must reach `reach`: a
/// hair over reach / span, so two centers exactly `reach` apart still land
/// within `span` buckets after floor() rounding.
inline double covering_bucket(double reach, long long span) {
  return std::max(reach / static_cast<double>(span) * (1.0 + 1e-6), 1e-6);
}

/// Probe span (at least 1) that covers `reach` in buckets of side
/// `bucket`, with the same rounding margin.
inline long long covering_span(double reach, double bucket) {
  return std::max<long long>(
      1, static_cast<long long>(std::ceil(reach * (1.0 + 1e-6) / bucket)));
}

class UniformGrid {
 public:
  /// Rebins the cells of `netlist` at the positions in `state` — all of
  /// them, or only `cells` (ascending ids) when given. Queries must use the
  /// same `interaction_reach` the grid was built with. `pool` parallelizes
  /// the per-cell bin-coordinate pass; the counting sort is sequential
  /// (O(n + buckets), stable in cell index). Buffers are reused across
  /// builds — steady-state rebuilds allocate nothing.
  ///
  /// `aux_a` / `aux_b` (optional, indexed by cell id) are per-cell
  /// payloads packed next to each cell's coordinates in bucket order, so a
  /// `for_candidates_packed` scan streams {x, y, aux_a, aux_b} from one
  /// contiguous array instead of gathering through the cell index — the
  /// packed doubles are copies of the caller's values, so consumers see
  /// the identical bits either way.
  void build(const netlist::Netlist& netlist, const std::vector<double>& state,
             double interaction_reach, double bucket,
             util::ThreadPool* pool = nullptr, const double* aux_a = nullptr,
             const double* aux_b = nullptr,
             const std::vector<std::uint32_t>* cells = nullptr);

  /// Calls fn(j, p) for every binned cell j > i whose center lies within
  /// the interaction reach of (xi, yi) (conservative superset), p being
  /// j's packed slot {x, y, aux_a, aux_b} (see build) — copies of the
  /// build-time values.
  ///
  /// The probe visits buckets dx-outer / dy-inner, and the dense table is
  /// laid out x-major, so the dy column at each dx is ONE contiguous CSR
  /// slot range (the sparse list, sorted by (bx, by), is likewise one
  /// lower_bound per column). Candidates therefore arrive in ascending
  /// slot — the order ranks() of a full build reports.
  template <typename Fn>
  void for_candidates_packed(std::size_t i, double xi, double yi,
                             Fn&& fn) const {
    for_candidates_packed(i, xi, yi, span_, span_, fn);
  }

  /// for_candidates_packed over a window of span_x / span_y buckets — a
  /// wide cell probing for partners its own extent puts in reach.
  template <typename Fn>
  void for_candidates_packed(std::size_t i, double xi, double yi,
                             long long span_x, long long span_y,
                             Fn&& fn) const {
    const long long bx = bin_coord(xi);
    const long long by = bin_coord(yi);
    for (long long dx = -span_x; dx <= span_x; ++dx) {
      const long long cx = bx + dx;
      if (dense_) {
        if (cx < min_x_ || cx > max_x_) continue;
        const long long lo = std::max(by - span_y, min_y_);
        const long long hi = std::min(by + span_y, max_y_);
        if (lo > hi) continue;
        const std::size_t base = static_cast<std::size_t>(cx - min_x_) * ny_;
        const std::uint32_t begin =
            starts_[base + static_cast<std::size_t>(lo - min_y_)];
        const std::uint32_t end =
            starts_[base + static_cast<std::size_t>(hi - min_y_) + 1];
        for (std::uint32_t k = begin; k < end; ++k) {
          const std::size_t j = ids_[k];
          if (j > i) fn(j, &packed_[4 * k]);
        }
      } else {
        auto it = std::lower_bound(
            entries_.begin(), entries_.end(), std::make_pair(cx, by - span_y),
            [](const SparseEntry& e, const std::pair<long long, long long>& k) {
              return e.bx != k.first ? e.bx < k.first : e.by < k.second;
            });
        for (; it != entries_.end() && it->bx == cx && it->by <= by + span_y;
             ++it) {
          const std::size_t j = it->id;
          const auto k = static_cast<std::size_t>(it - entries_.begin());
          if (j > i) fn(j, &packed_[4 * k]);
        }
      }
    }
  }

  /// Slot of each binned cell in enumeration order, written to
  /// rank[cell]; `rank` must have one entry per cell.
  void ranks(std::vector<std::uint32_t>& rank) const;

  /// True when cells a and b are in each other's probe window. Full builds
  /// only (bins are indexed by cell).
  bool in_window(std::size_t a, std::size_t b) const {
    return std::abs(bin_x_[a] - bin_x_[b]) <= span_ &&
           std::abs(bin_y_[a] - bin_y_[b]) <= span_;
  }

  /// Bucket side of the last build.
  double bucket() const { return bucket_; }

  /// Times build() ran over the lifetime of this grid.
  std::size_t builds() const { return builds_; }
  /// Builds that had to grow a buffer (steady state: 0 growth per build).
  std::size_t reallocations() const { return reallocs_; }
  /// True when the last build used the dense bucket table (vs the sparse
  /// extreme-coordinate fallback).
  bool dense() const { return dense_; }

  /// Logical footprint of the bucket/scratch buffers in bytes (element
  /// counts, not capacities) — the memory-accounting probe.
  double footprint_bytes() const {
    return static_cast<double>(
        (starts_.size() + cursor_.size() + ids_.size()) *
            sizeof(std::uint32_t) +
        packed_.size() * sizeof(double) +
        (bin_x_.size() + bin_y_.size()) * sizeof(long long) +
        entries_.size() * sizeof(SparseEntry));
  }

 private:
  long long bin_coord(double v) const {
    return static_cast<long long>(std::floor(v / bucket_));
  }

  struct SparseEntry {
    long long bx = 0;
    long long by = 0;
    std::uint32_t id = 0;
  };

  double bucket_ = 1.0;
  long long span_ = 0;
  bool dense_ = true;
  // Bin bounding box of the last build (dense table spans it exactly).
  long long min_x_ = 0, max_x_ = -1, min_y_ = 0, max_y_ = -1;
  // Dense bucket row length (y extent): the table is x-major so a probe
  // column of consecutive by bins is contiguous in the CSR arrays.
  std::size_t ny_ = 0;
  // Dense: CSR-style bucket table. starts_ has buckets+1 prefix offsets
  // into ids_, which lists cell indices bucket by bucket, ascending.
  std::vector<std::uint32_t> starts_;
  std::vector<std::uint32_t> cursor_;
  std::vector<std::uint32_t> ids_;
  // Packed per-candidate payload {x, y, aux_a, aux_b} in ids_ order (dense)
  // or entries_ order (sparse); zeros for aux when build got no arrays.
  std::vector<double> packed_;
  // Per-binned-cell bin coordinates (phase-1 scratch, parallel-filled);
  // indexed by cell id on full builds, by position in `cells` otherwise.
  std::vector<long long> bin_x_;
  std::vector<long long> bin_y_;
  // Sparse fallback: bucket list sorted by (bx, by, id).
  std::vector<SparseEntry> entries_;
  std::size_t builds_ = 0;
  std::size_t reallocs_ = 0;
};

/// Static mixed-size pair index over one set of positions (see the file
/// comment). build() bins every cell in the coarse grid (for rank()), the
/// small cells in the fine grid and the macros in the macro grid;
/// for_candidates() yields a superset of the pairs (i, j), j > i, whose
/// centers are within the pair reach.
class MixedSizeIndex {
 public:
  /// Re-splits the cells by extent (split_macros). Call it whenever the
  /// netlist's cell extents may have changed, before build().
  void classify(const netlist::Netlist& netlist);

  /// Bins the cells at `state`. Pairs interact up to
  /// half_w[i] + half_w[j] + tail apart on x (likewise y); `r_max` is the
  /// largest half extent over all cells, the coarse grid's reach being
  /// 2 * r_max + tail. `half_w` / `half_h` are packed with the positions.
  void build(const netlist::Netlist& netlist, const std::vector<double>& state,
             const double* half_w, const double* half_h, double r_max,
             double tail, util::ThreadPool* pool = nullptr);

  bool has_macros() const { return !macros_.empty(); }

  /// The single grid over all cells. Its candidate order is rank order,
  /// so a netlist without macros enumerates through it directly.
  const UniformGrid& coarse() const { return coarse_; }

  /// Calls fn(j, p) for a superset of the partners j > i of cell i within
  /// the pair reach, p = {x, y, half_w, half_h} of j, in no useful order:
  /// small cells, then macros. A cell appears at most once.
  template <typename Fn>
  void for_candidates(std::size_t i, double xi, double yi, Fn&& fn) const {
    if (!is_macro_[i]) {
      fine_.for_candidates_packed(i, xi, yi, fn);
      macro_grid_.for_candidates_packed(i, xi, yi, fn);
      return;
    }
    const MacroSpans& s = spans_[macro_slot_[i]];
    fine_.for_candidates_packed(i, xi, yi, s.small_x, s.small_y, fn);
    macro_grid_.for_candidates_packed(i, xi, yi, s.macro_x, s.macro_y, fn);
  }

  /// Fold-order key of cell j: its slot in the coarse grid.
  std::uint32_t rank(std::size_t j) const { return rank_[j]; }

  /// True when the coarse grid would have enumerated the pair (i, j).
  /// for_candidates may add pairs the coarse window leaves out only when
  /// rounding puts two centers a hair beyond the pair reach; filtering
  /// kept pairs through this keeps the pair set exactly the coarse one.
  bool coarse_pair(std::size_t i, std::size_t j) const {
    return coarse_.in_window(i, j);
  }

  double footprint_bytes() const {
    return coarse_.footprint_bytes() + fine_.footprint_bytes() +
           macro_grid_.footprint_bytes() +
           static_cast<double>(
               (rank_.size() + macros_.size() + small_.size() +
                macro_slot_.size()) *
                   sizeof(std::uint32_t) +
               spans_.size() * sizeof(MacroSpans) + is_macro_.size());
  }

  std::size_t reallocations() const {
    return coarse_.reallocations() + fine_.reallocations() +
           macro_grid_.reallocations();
  }

 private:
  /// A macro's probe spans, in buckets, into the fine and the macro grid.
  struct MacroSpans {
    long long small_x = 0, small_y = 0, macro_x = 0, macro_y = 0;
  };

  UniformGrid coarse_;
  // Small cells; reach 2 * (largest small half extent) + tail.
  UniformGrid fine_;
  // Macros; reach (largest half extent) + (largest small one) + tail, the
  // farthest a small cell's macro partner can be.
  UniformGrid macro_grid_;
  std::vector<std::uint32_t> rank_;
  std::vector<std::uint32_t> macros_;
  std::vector<std::uint8_t> is_macro_;
  std::vector<std::uint32_t> small_;
  // Per cell: index into macros_ (macros only).
  std::vector<std::uint32_t> macro_slot_;
  std::vector<MacroSpans> spans_;
};

/// Hashed bucket grid over a subset of cells that tracks their positions
/// as they move: move() rebins one cell in O(1). Buckets are open-hashed
/// into a power-of-two table of doubly linked cell lists, so there is no
/// bounding box to outgrow — a cell may move anywhere, at any coordinate.
/// Bins that share a hash slot share its list; a window query checks each
/// listed cell's own bin, so it yields exactly the cells in the window.
class LiveGrid {
 public:
  /// Bins `cells` of a netlist with `n` cells at `state`.
  void build(const std::vector<double>& state,
             const std::vector<std::uint32_t>& cells, std::size_t n,
             double bucket);

  /// Records that tracked cell c now sits at (x, y).
  void move(std::size_t c, double x, double y);

  long long bin(double v) const {
    return static_cast<long long>(std::floor(v / bucket_));
  }
  double bucket() const { return bucket_; }

  /// Calls fn(j) once for every tracked cell in the buckets within span_x
  /// / span_y of bin (bx, by), in no useful order.
  template <typename Fn>
  void for_window(long long bx, long long by, long long span_x,
                  long long span_y, Fn&& fn) const {
    if (tracked_ == 0) return;
    for (long long cx = bx - span_x; cx <= bx + span_x; ++cx) {
      for (long long cy = by - span_y; cy <= by + span_y; ++cy) {
        for (std::int32_t c = head_[slot(cx, cy)]; c >= 0;) {
          const Node& node = nodes_[static_cast<std::size_t>(c)];
          if (node.bx == cx && node.by == cy) fn(static_cast<std::size_t>(c));
          c = node.next;
        }
      }
    }
  }

 private:
  /// A tracked cell: its bin and its links in the slot's list.
  struct Node {
    long long bx = 0;
    long long by = 0;
    std::int32_t next = -1;
    std::int32_t prev = -1;
  };

  /// A column hashes to a random start; its rows then take consecutive
  /// slots, so a window's dy run reads adjacent heads.
  std::size_t slot(long long bx, long long by) const {
    const std::uint64_t column =
        (static_cast<std::uint64_t>(bx) * 0x9E3779B97F4A7C15ull) >> shift_;
    return static_cast<std::size_t>(
        (column + static_cast<std::uint64_t>(by)) & (head_.size() - 1));
  }
  void link(std::size_t c);
  void unlink(std::size_t c);

  double bucket_ = 1.0;
  std::size_t tracked_ = 0;
  int shift_ = 60;
  std::vector<std::int32_t> head_;
  // Indexed by cell id; untracked cells are never linked.
  std::vector<Node> nodes_;
};

}  // namespace autoncs::place
