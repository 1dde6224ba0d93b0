// Nonlinear conjugate gradient (Polak-Ribiere+ with Armijo backtracking),
// the solver the paper uses for the penalty function at each outer
// placement iteration (Alg. 4 line 3, citing NTUplace3 [15]).
//
// The objective takes the gradient by POINTER: `gradient == nullptr` asks
// for the value only. Armijo backtracking trials are evaluated value-only
// and the gradient is computed once, at the accepted point — rejected
// trials are discarded, so the objective only has to return the same value
// bit for bit in both modes for the iterates to be independent of which
// calls asked for a gradient.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "util/error.hpp"

namespace autoncs::place {

struct CgOptions {
  std::size_t max_iterations = 200;
  /// Stop when the infinity norm of the gradient falls below this.
  double gradient_tolerance = 1e-7;
  /// Optional recovery-event sink for the numerical guards (transparent
  /// retries, damped restarts). Null runs the identical guards silently.
  util::RecoveryLog* recovery = nullptr;
};

struct CgResult {
  double value = 0.0;
  std::size_t iterations = 0;
  double gradient_infinity_norm = 0.0;
  /// True when the gradient tolerance was met (vs. iteration cap).
  bool converged = false;
  /// Objective calls, total — every call computes the value, so this
  /// counts both modes and `gradient_evaluations <= value_evaluations`
  /// holds structurally.
  std::size_t value_evaluations = 0;
  /// Objective calls that also computed the gradient.
  std::size_t gradient_evaluations = 0;
  /// Damped steepest-descent restarts taken after a non-finite gradient
  /// survived its retry. Any restart alters the iterate sequence.
  std::size_t recovery_restarts = 0;
  /// True when the restart budget ran out and the solver returned its last
  /// finite iterate early.
  bool degraded = false;
};

/// Objective callback: returns f(x); when `gradient` is nonnull (resized
/// by the caller to x.size()) it receives df/dx. A nullptr gradient is the
/// value-only hot path and must return the same value bit for bit.
using Objective = std::function<double(const std::vector<double>& x,
                                       std::vector<double>* gradient)>;

/// Minimizes `objective` starting from (and updating) `x`.
///
/// Numerical guards: a non-finite objective value or gradient is retried
/// once at the same point (which repairs transient poisoning bit-identically
/// — the objective is deterministic, so a genuine NaN just comes back and
/// takes the next rung). Non-finite line-search trials are rejected like any
/// failed Armijo trial; a non-finite gradient at an accepted point triggers
/// a damped steepest-descent restart from the last finite iterate, up to
/// three times before returning best-so-far with `degraded` set. Throws util::NumericalError only when the STARTING point
/// is non-finite even after retry — there is no finite iterate to return.
CgResult minimize_cg(std::vector<double>& x, const Objective& objective,
                     const CgOptions& options = {});

}  // namespace autoncs::place
