#include "place/legalizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "place/density.hpp"
#include "place/spatial_grid.hpp"
#include "util/check.hpp"

namespace autoncs::place {

namespace {

/// Checks one ordered pair (i, j) against the CURRENT state and, when the
/// virtual rectangles overlap, separates them along the minimum-penetration
/// axis (the lighter cell moving further). Returns false (and moves
/// nothing) for a clear pair.
inline bool separate_pair(const netlist::Netlist& netlist,
                          std::vector<double>& state,
                          const LegalizerOptions& options, std::size_t i,
                          std::size_t j, double hwi, double hhi, double ai) {
  const double tx = hwi + 0.5 * options.omega * netlist.cells[j].width;
  const double ty = hhi + 0.5 * options.omega * netlist.cells[j].height;
  const double dx = state[2 * i] - state[2 * j];
  const double dy = state[2 * i + 1] - state[2 * j + 1];
  const double px = tx - std::abs(dx);
  const double py = ty - std::abs(dy);
  if (px <= 0.0 || py <= 0.0) return false;
  const double aj = netlist.cells[j].area();
  const double share_i = aj / (ai + aj);  // lighter cell moves more
  if (px <= py) {
    const double move = px + options.margin;
    const double dir = dx >= 0.0 ? 1.0 : -1.0;
    state[2 * i] += dir * move * share_i;
    state[2 * j] -= dir * move * (1.0 - share_i);
  } else {
    const double move = py + options.margin;
    const double dir = dy >= 0.0 ? 1.0 : -1.0;
    state[2 * i + 1] += dir * move * share_i;
    state[2 * j + 1] -= dir * move * (1.0 - share_i);
  }
  return true;
}

/// Grid-pruned sweep, bit-identical to checking every pair (i, j) in
/// ascending order. A clear pair moves nothing, so visiting any superset
/// of the overlapping pairs, in ascending j against the same evolving
/// state, gives the same bits. Small cells and macros live in two
/// LiveGrids that always hold the current positions: a separated cell is
/// rebinned on the spot, in O(1). Row i's candidates are its windows into
/// both grids. Within the row only cell i and the partners already visited
/// move, so the candidate set stays a superset until i itself changes
/// bucket; only then is it re-collected (the visited prefix is skipped via
/// next_after).
class PrunedSweep {
 public:
  PrunedSweep(const netlist::Netlist& netlist, const LegalizerOptions& options,
              const std::vector<double>& state)
      : netlist_(netlist), options_(options) {
    std::vector<std::uint32_t> macros;
    split_macros(netlist, macros, is_macro_);
    std::vector<std::uint32_t> small;
    double r_small = 0.0;
    double r_max = 0.0;
    for (std::size_t c = 0; c < netlist.cells.size(); ++c) {
      r_max = std::max(r_max, half_extent(c));
      if (is_macro_[c]) continue;
      small.push_back(static_cast<std::uint32_t>(c));
      r_small = std::max(r_small, half_extent(c));
    }
    // Two cells overlap only within the sum of their half extents on both
    // axes: 2 * r_small for two small cells, r_max + r_small for a small
    // cell and a macro — a 3 x 3 bucket window each. A macro's spans grow
    // with its own extent; the widening covers rounding, and the floor
    // keeps a macro's window within ~32 buckets a side when the small
    // cells are vanishingly small.
    small_grid_.build(state, small, netlist.cells.size(),
                      std::max(covering_bucket(2.0 * r_small, 1),
                               (r_max + r_small) / 32.0));
    macro_grid_.build(state, macros, netlist.cells.size(),
                      covering_bucket(r_max + r_small, 1));
    spans_.assign(netlist.cells.size(), {1, 1});
    for (std::uint32_t m : macros)
      spans_[m] = {
          covering_span(half_extent(m) + r_small, small_grid_.bucket()),
          covering_span(half_extent(m) + r_max, macro_grid_.bucket())};
  }

  /// Rebins cell c after it moved.
  void moved(std::size_t c, const std::vector<double>& state) {
    (is_macro_[c] ? macro_grid_ : small_grid_)
        .move(c, state[2 * c], state[2 * c + 1]);
  }

  bool pass(std::vector<double>& state, LegalizerReport& report) {
    const std::size_t n = netlist_.cells.size();
    bool any_overlap = false;
    for (std::size_t i = 0; i < n; ++i) {
      const double hwi = 0.5 * options_.omega * netlist_.cells[i].width;
      const double hhi = 0.5 * options_.omega * netlist_.cells[i].height;
      const double ai = netlist_.cells[i].area();
      std::size_t next_after = i;  // only pairs with j > next_after remain
      // i's bins in the small and the macro grid when cand_ was collected.
      long long bins[4] = {0, 0, 0, 0};
      const auto bins_of_i = [&](long long* out) {
        out[0] = small_grid_.bin(state[2 * i]);
        out[1] = small_grid_.bin(state[2 * i + 1]);
        out[2] = macro_grid_.bin(state[2 * i]);
        out[3] = macro_grid_.bin(state[2 * i + 1]);
      };
      std::size_t idx = 0;
      bool stale = true;
      while (true) {
        if (stale) {
          bins_of_i(bins);
          cand_.clear();
          const auto collect = [&](std::size_t j) {
            if (j > next_after) cand_.push_back(static_cast<std::uint32_t>(j));
          };
          const Spans& s = spans_[i];
          small_grid_.for_window(bins[0], bins[1], s.small, s.small, collect);
          macro_grid_.for_window(bins[2], bins[3], s.macro, s.macro, collect);
          std::sort(cand_.begin(), cand_.end());
          idx = 0;
          stale = false;
        }
        while (idx < cand_.size() && cand_[idx] <= next_after) ++idx;
        if (idx == cand_.size()) break;
        const std::size_t j = cand_[idx];
        next_after = j;
        ++report.pairs_checked;
        if (!separate_pair(netlist_, state, options_, i, j, hwi, hhi, ai))
          continue;
        any_overlap = true;
        ++report.separations;
        moved(i, state);
        moved(j, state);
        long long now[4];
        bins_of_i(now);
        stale = !std::equal(now, now + 4, bins);
      }
    }
    return any_overlap;
  }

 private:
  /// Probe spans of a row's windows into the small and the macro grid.
  struct Spans {
    long long small = 0;
    long long macro = 0;
  };

  double half_extent(std::size_t c) const {
    const auto& cell = netlist_.cells[c];
    return 0.5 * options_.omega * std::max(cell.width, cell.height);
  }

  const netlist::Netlist& netlist_;
  const LegalizerOptions& options_;
  std::vector<std::uint8_t> is_macro_;
  LiveGrid small_grid_;
  LiveGrid macro_grid_;
  std::vector<Spans> spans_;
  std::vector<std::uint32_t> cand_;
};

}  // namespace

LegalizerReport legalize(const netlist::Netlist& netlist,
                         std::vector<double>& state,
                         const LegalizerOptions& options) {
  AUTONCS_CHECK(state.size() == netlist.cells.size() * 2,
                "state size must be 2 * cell count");
  const std::size_t n = netlist.cells.size();
  LegalizerReport report;
  PrunedSweep pruned(netlist, options, state);

  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    report.passes = pass + 1;
    const bool any_overlap = pruned.pass(state, report);
    bool clamped = false;
    if (options.die_half > 0.0) {
      for (std::size_t i = 0; i < n; ++i) {
        const double lx = std::max(
            0.0,
            options.die_half - 0.5 * options.omega * netlist.cells[i].width);
        const double ly = std::max(
            0.0,
            options.die_half - 0.5 * options.omega * netlist.cells[i].height);
        const double x = std::clamp(state[2 * i], -lx, lx);
        const double y = std::clamp(state[2 * i + 1], -ly, ly);
        if (x == state[2 * i] && y == state[2 * i + 1]) continue;
        state[2 * i] = x;
        state[2 * i + 1] = y;
        clamped = true;
        pruned.moved(i, state);
      }
    }
    // A clean sweep ends the run only if the clamp did not push cells
    // back into overlap.
    if (!any_overlap && !clamped) break;
    if (pass % 8 == 7) {
      // Periodic exact check so we can stop early on "good enough".
      if (overlap_ratio(netlist, state, options.omega) <
          options.overlap_tolerance)
        break;
    }
  }
  report.final_overlap_ratio = overlap_ratio(netlist, state, options.omega);
  report.converged = report.final_overlap_ratio < options.overlap_tolerance;
  return report;
}

}  // namespace autoncs::place
