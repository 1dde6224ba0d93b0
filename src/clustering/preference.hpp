// Crossbar preference (CP) — Sec. 3.1 of the paper.
//
// CP estimates the relative circuit-cost reduction of replacing discrete
// synapses with one crossbar. For a crossbar of size s realizing m
// connections (utilization u = m / s^2) the paper requires:
//   (a) fixed s: CP grows monotonically with m (equivalently u), and
//   (b) fixed m: CP shrinks monotonically with s.
// The printed definition is typeset corruptly ("CP m s u s"), but the two
// criteria pin it to CP = (m/s)·u = m^2 / s^3, which we use as the default.
// The alternatives below exist for the ablation bench (A3 in DESIGN.md).
#pragma once

#include <cstddef>

namespace autoncs::clustering {

enum class PreferenceKind {
  /// CP = (m/s)·u = m^2 / s^3 — the paper's definition.
  kPaper,
  /// CP = u = m / s^2 — pure utilization (violates criterion (b) scaling).
  kUtilization,
  /// CP = m / s — density per row only.
  kConnectionsPerRow,
};

/// "paper", "utilization" or "connections_per_row" (the manifest text).
const char* enum_name(PreferenceKind kind);

/// Crossbar preference of realizing m connections on an s x s crossbar.
/// Requires s > 0; m may exceed s^2 only by caller error (checked).
double crossbar_preference(std::size_t m, std::size_t s,
                           PreferenceKind kind = PreferenceKind::kPaper);

/// Utilization u = m / s^2.
double crossbar_utilization(std::size_t m, std::size_t s);

}  // namespace autoncs::clustering
