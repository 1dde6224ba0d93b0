#include "place/spatial_grid.hpp"

#include <limits>

#include "util/check.hpp"

namespace autoncs::place {

namespace {

/// A cell is a macro when its extent exceeds this multiple of the median
/// extent (see split_macros).
constexpr double kMacroExtentFactor = 3.0;

/// Dense bucket tables are capped at a small multiple of the cell count
/// plus a constant 2^16 buckets (256 KB of offsets), so grid memory stays
/// O(n) no matter how the die is shaped; pathological spreads (the
/// extreme-coordinate regression) take the sparse path. The constant
/// matters for a fine grid over a mixed-size die: its small cells are few
/// next to the die area the macros span. Both layouts enumerate in the
/// same (bx, by, id) order.
double dense_bucket_cap(std::size_t n) {
  return 8.0 * static_cast<double>(n) + 65536.0;
}

}  // namespace

void UniformGrid::build(const netlist::Netlist& netlist,
                        const std::vector<double>& state,
                        double interaction_reach, double bucket,
                        const double* aux_a, const double* aux_b,
                        const std::vector<std::uint32_t>* cells) {
  AUTONCS_CHECK(bucket > 0.0, "grid bucket must be positive");
  AUTONCS_CHECK(state.size() == netlist.cells.size() * 2,
                "state size must be 2 * cell count");
  AUTONCS_CHECK(netlist.cells.size() < std::numeric_limits<std::uint32_t>::max(),
                "uniform grid supports < 2^32 cells");
  // Item k of this build is cell id_of(k): every cell, or the subset.
  const std::size_t n = cells != nullptr ? cells->size() : netlist.cells.size();
  const auto id_of = [&](std::size_t k) {
    return cells != nullptr ? static_cast<std::size_t>((*cells)[k]) : k;
  };
  bucket_ = bucket;
  span_ = static_cast<long long>(std::ceil(interaction_reach / bucket));
  ++builds_;

  bool grew = false;
  if (bin_x_.capacity() < n) grew = true;
  bin_x_.resize(n);
  bin_y_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t c = id_of(k);
    bin_x_[k] = bin_coord(state[2 * c]);
    bin_y_[k] = bin_coord(state[2 * c + 1]);
  }

  min_x_ = min_y_ = std::numeric_limits<long long>::max();
  max_x_ = max_y_ = std::numeric_limits<long long>::min();
  for (std::size_t k = 0; k < n; ++k) {
    min_x_ = std::min(min_x_, bin_x_[k]);
    max_x_ = std::max(max_x_, bin_x_[k]);
    min_y_ = std::min(min_y_, bin_y_[k]);
    max_y_ = std::max(max_y_, bin_y_[k]);
  }
  if (n == 0) {
    dense_ = true;
    ny_ = 0;
    starts_.assign(1, 0);
    ids_.clear();
    packed_.clear();
    entries_.clear();
    return;
  }

  if (packed_.capacity() < 4 * n) grew = true;
  packed_.resize(4 * n);
  const auto pack_slot = [&](std::size_t slot, std::size_t c) {
    double* p = &packed_[4 * slot];
    p[0] = state[2 * c];
    p[1] = state[2 * c + 1];
    p[2] = aux_a != nullptr ? aux_a[c] : 0.0;
    p[3] = aux_b != nullptr ? aux_b[c] : 0.0;
  };

  // Decide dense vs sparse on the bucket-table size (computed in doubles —
  // the span product can overflow 64 bits for extreme coordinates).
  const double width = static_cast<double>(max_x_ - min_x_) + 1.0;
  const double height = static_cast<double>(max_y_ - min_y_) + 1.0;
  dense_ = width * height <= dense_bucket_cap(n);

  if (ids_.capacity() < n) grew = true;
  ids_.resize(n);
  if (!dense_) {
    if (entries_.capacity() < n) grew = true;
    entries_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      entries_[k] = {bin_x_[k], bin_y_[k], static_cast<std::uint32_t>(id_of(k))};
    }
    std::sort(entries_.begin(), entries_.end(),
              [](const SparseEntry& a, const SparseEntry& b) {
                if (a.bx != b.bx) return a.bx < b.bx;
                if (a.by != b.by) return a.by < b.by;
                return a.id < b.id;
              });
    for (std::size_t k = 0; k < n; ++k) {
      ids_[k] = entries_[k].id;
      pack_slot(k, entries_[k].id);
    }
    if (grew) ++reallocs_;
    return;
  }

  ny_ = static_cast<std::size_t>(max_y_ - min_y_) + 1;
  const auto buckets =
      ny_ * (static_cast<std::size_t>(max_x_ - min_x_) + 1);
  if (starts_.capacity() < buckets + 1) grew = true;

  // Stable counting sort: histogram, exclusive prefix, then fill in
  // ascending cell index — each bucket lists its cells in ascending
  // index, the order the density fold relies on. x-major layout: a
  // probe's dy column is one contiguous slot range (see for_window).
  starts_.assign(buckets + 1, 0);
  const auto bucket_of = [&](std::size_t k) {
    return static_cast<std::size_t>(bin_x_[k] - min_x_) * ny_ +
           static_cast<std::size_t>(bin_y_[k] - min_y_);
  };
  for (std::size_t k = 0; k < n; ++k) ++starts_[bucket_of(k) + 1];
  for (std::size_t b = 0; b < buckets; ++b) starts_[b + 1] += starts_[b];
  cursor_.assign(starts_.begin(), starts_.end() - 1);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t slot = cursor_[bucket_of(k)]++;
    const std::size_t c = id_of(k);
    ids_[slot] = static_cast<std::uint32_t>(c);
    pack_slot(slot, c);
  }
  if (grew) ++reallocs_;
}

void split_macros(const netlist::Netlist& netlist,
                  std::vector<std::uint32_t>& macros,
                  std::vector<std::uint8_t>& is_macro) {
  const std::size_t n = netlist.cells.size();
  std::vector<double> extent(n);
  for (std::size_t c = 0; c < n; ++c)
    extent[c] = std::max(netlist.cells[c].width, netlist.cells[c].height);
  macros.clear();
  is_macro.assign(n, 0);
  if (n == 0) return;
  std::vector<double> sorted = extent;
  const auto mid = sorted.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(sorted.begin(), mid, sorted.end());
  const double threshold = kMacroExtentFactor * *mid;
  for (std::size_t c = 0; c < n; ++c) {
    if (extent[c] > threshold) {
      macros.push_back(static_cast<std::uint32_t>(c));
      is_macro[c] = 1;
    }
  }
}

void MixedSizeIndex::classify(const netlist::Netlist& netlist) {
  std::vector<std::uint8_t> is_macro;
  split_macros(netlist, macros_, is_macro);
  small_.clear();
  for (std::size_t c = 0; c < is_macro.size(); ++c)
    if (!is_macro[c]) small_.push_back(static_cast<std::uint32_t>(c));
  coarse_.resize(netlist.cells.size());
  spans_.resize(macros_.size());
}

void MixedSizeIndex::build(const netlist::Netlist& netlist,
                           const std::vector<double>& state,
                           const double* half_w, const double* half_h,
                           double tail) {
  AUTONCS_CHECK(coarse_.size() == netlist.cells.size(),
                "classify() the netlist before building the index");
  double r_max = 0.0;
  for (std::size_t c = 0; c < coarse_.size(); ++c)
    r_max = std::max(r_max, std::max(half_w[c], half_h[c]));
  // The coarse grid is the single all-cell grid: probe span 2 at bucket
  // reach / 2. Only its bins are needed — the fold key and the window.
  const double coarse_reach = 2.0 * r_max + tail;
  const double coarse_bucket = std::max(coarse_reach / 2.0, 1e-6);
  coarse_span_ = static_cast<long long>(std::ceil(coarse_reach / coarse_bucket));
  for (std::size_t c = 0; c < coarse_.size(); ++c)
    coarse_[c] = {static_cast<long long>(std::floor(state[2 * c] / coarse_bucket)),
                  static_cast<long long>(
                      std::floor(state[2 * c + 1] / coarse_bucket))};

  double r_small = 0.0;
  for (std::uint32_t c : small_)
    r_small = std::max(r_small, std::max(half_w[c], half_h[c]));
  const double fine_reach = 2.0 * r_small + tail;
  const double macro_reach = r_max + r_small + tail;
  // The floor keeps a macro's fine-grid window within ~32 buckets a side
  // when the small cells are vanishingly small.
  fine_.build(netlist, state, fine_reach,
              std::max(covering_bucket(fine_reach, 2), macro_reach / 32.0),
              half_w, half_h, &small_);
  macro_grid_.build(netlist, state, macro_reach,
                    covering_bucket(macro_reach, 1), half_w, half_h, &macros_);
  // A macro's partners lie within its own half extent plus the largest
  // half extent of the other group (plus the tail).
  for (std::size_t m = 0; m < macro_grid_.size(); ++m) {
    const std::size_t c = macro_grid_.id(m);
    spans_[m] = {covering_span(half_w[c] + r_small + tail, fine_.bucket()),
                 covering_span(half_h[c] + r_small + tail, fine_.bucket()),
                 covering_span(half_w[c] + r_max + tail, macro_grid_.bucket()),
                 covering_span(half_h[c] + r_max + tail, macro_grid_.bucket())};
  }
}

void LiveGrid::build(const std::vector<double>& state,
                     const std::vector<std::uint32_t>& cells, std::size_t n,
                     double bucket) {
  AUTONCS_CHECK(bucket > 0.0, "grid bucket must be positive");
  AUTONCS_CHECK(n < static_cast<std::size_t>(
                        std::numeric_limits<std::int32_t>::max()),
                "live grid supports < 2^31 cells");
  bucket_ = bucket;
  tracked_ = cells.size();
  // Table of >= 2 slots per tracked cell; the hash keeps the top bits.
  std::size_t slots = 16;
  shift_ = 60;
  while (slots < 2 * cells.size()) {
    slots *= 2;
    --shift_;
  }
  head_.assign(slots, -1);
  nodes_.assign(n, Node{});
  for (std::uint32_t c : cells) {
    nodes_[c].bx = bin(state[2 * c]);
    nodes_[c].by = bin(state[2 * c + 1]);
    link(c);
  }
}

void LiveGrid::move(std::size_t c, double x, double y) {
  const long long bx = bin(x);
  const long long by = bin(y);
  Node& node = nodes_[c];
  if (bx == node.bx && by == node.by) return;
  unlink(c);
  node.bx = bx;
  node.by = by;
  link(c);
}

void LiveGrid::link(std::size_t c) {
  Node& node = nodes_[c];
  std::int32_t& head = head_[slot(node.bx, node.by)];
  node.prev = -1;
  node.next = head;
  if (head >= 0)
    nodes_[static_cast<std::size_t>(head)].prev = static_cast<std::int32_t>(c);
  head = static_cast<std::int32_t>(c);
}

void LiveGrid::unlink(std::size_t c) {
  const Node& node = nodes_[c];
  if (node.prev >= 0)
    nodes_[static_cast<std::size_t>(node.prev)].next = node.next;
  else
    head_[slot(node.bx, node.by)] = node.next;
  if (node.next >= 0)
    nodes_[static_cast<std::size_t>(node.next)].prev = node.prev;
}

}  // namespace autoncs::place
