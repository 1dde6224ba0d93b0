#include "place/conjugate_gradient.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"
#include "util/fault.hpp"

namespace autoncs::place {

namespace {

/// Armijo sufficient-decrease constant.
constexpr double kArmijoC1 = 1e-4;
/// Step shrink factor for backtracking.
constexpr double kBacktrack = 0.5;
/// Maximum backtracking trials per line search.
constexpr std::size_t kMaxBacktracks = 30;
/// First trial step of the first line search.
constexpr double kInitialStep = 1.0;
/// Damped steepest-descent restarts from the last finite iterate allowed
/// when the gradient goes non-finite, before the solver gives up and
/// returns best-so-far flagged degraded.
constexpr std::size_t kMaxRecoveryRestarts = 3;

double infinity_norm(const std::vector<double>& v) {
  double out = 0.0;
  for (double x : v) out = std::max(out, std::abs(x));
  return out;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

bool all_finite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace

CgResult minimize_cg(std::vector<double>& x, const Objective& objective,
                     const CgOptions& options) {
  AUTONCS_CHECK(!x.empty(), "cannot optimize an empty state");
  const std::size_t n = x.size();

  std::vector<double> grad(n, 0.0);
  std::vector<double> prev_grad(n, 0.0);
  std::vector<double> direction(n, 0.0);
  std::vector<double> trial(n, 0.0);
  std::vector<double> trial_grad(n, 0.0);

  CgResult result;
  const auto eval = [&](const std::vector<double>& point,
                        std::vector<double>* gradient) {
    ++result.value_evaluations;
    if (gradient != nullptr) ++result.gradient_evaluations;
    double v = objective(point, gradient);
    if (AUTONCS_FAULT_POINT("cg.nan"))
      v = std::numeric_limits<double>::quiet_NaN();
    if (gradient != nullptr && !gradient->empty() &&
        AUTONCS_FAULT_POINT("cg.grad_nan"))
      (*gradient)[0] = std::numeric_limits<double>::quiet_NaN();
    return v;
  };
  const auto record = [&](const char* point, const char* action,
                          bool recovered, bool alters_result,
                          std::string detail) {
    if (options.recovery != nullptr)
      options.recovery->record({"placement", point, action, recovered,
                                alters_result, std::move(detail)});
  };
  // One transparent retry of a non-finite evaluation. The retry bypasses
  // the evaluation counters so a genuine (deterministic) NaN or a normal
  // line-search overshoot to +inf leaves the reported work identical to a
  // guard-free build; only a transient fault that the retry actually
  // repaired is recorded. Capped so a persistently non-finite objective
  // cannot double the evaluation cost of a whole line search.
  std::size_t retries_left = 4;
  const auto retry_if_bad = [&](double v, const std::vector<double>& point,
                                std::vector<double>* gradient) {
    const bool bad =
        !std::isfinite(v) || (gradient != nullptr && !all_finite(*gradient));
    if (!bad || retries_left == 0) return v;
    --retries_left;
    const double again = objective(point, gradient);
    const bool repaired =
        std::isfinite(again) && (gradient == nullptr || all_finite(*gradient));
    if (repaired) {
      record(std::isfinite(v) ? "cg.grad_nan" : "cg.nan", "retry", true,
             false, "non-finite evaluation repaired by retry");
      return again;
    }
    return v;
  };

  double value = eval(x, &grad);
  value = retry_if_bad(value, x, &grad);
  if (!std::isfinite(value) || !all_finite(grad)) {
    record("cg.nan", "retry", false, false,
           "objective non-finite at the starting point");
    throw util::NumericalError(
        "numerical.cg_init", "placement",
        "objective is non-finite at the starting point");
  }
  result.value = value;
  result.gradient_infinity_norm = infinity_norm(grad);
  if (result.gradient_infinity_norm <= options.gradient_tolerance) {
    result.converged = true;
    return result;
  }
  for (std::size_t i = 0; i < n; ++i) direction[i] = -grad[i];
  double step = kInitialStep;

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    double slope = dot(grad, direction);
    if (slope >= 0.0) {
      // Direction lost descent property — restart with steepest descent.
      for (std::size_t i = 0; i < n; ++i) direction[i] = -grad[i];
      slope = dot(grad, direction);
      if (slope >= 0.0) break;  // gradient numerically zero
    }

    // Armijo backtracking line search over value-only trials; the gradient
    // is computed once, at the accepted point only.
    double t = step;
    double trial_value = value;
    bool accepted = false;
    for (std::size_t bt = 0; bt < kMaxBacktracks; ++bt) {
      for (std::size_t i = 0; i < n; ++i) trial[i] = x[i] + t * direction[i];
      trial_value = eval(trial, nullptr);
      trial_value = retry_if_bad(trial_value, trial, nullptr);
      // A non-finite trial can never show sufficient decrease. NaN and +inf
      // already fail the comparison on their own (a plain line-search
      // overshoot rejects exactly as it always did); the explicit isfinite
      // additionally rejects -inf, which would vacuously pass while meaning
      // the objective diverged.
      if (std::isfinite(trial_value) &&
          trial_value <= value + kArmijoC1 * t * slope) {
        accepted = true;
        break;
      }
      t *= kBacktrack;
    }
    if (!accepted) break;  // no progress possible along this direction
    // Gradient at the accepted point. The returned value is bit-identical
    // to trial_value (same FP operations), so trial_value is kept.
    const double accepted_value = eval(trial, &trial_grad);
    if (!all_finite(trial_grad))
      retry_if_bad(accepted_value, trial, &trial_grad);
    if (!all_finite(trial_grad)) {
      // Gradient still non-finite at the accepted point: discard the trial
      // and take a damped steepest-descent restart from the last finite
      // iterate (x, grad and value are untouched and finite).
      ++result.recovery_restarts;
      const bool exhausted =
          result.recovery_restarts > kMaxRecoveryRestarts;
      record("cg.grad_nan", "damped_restart", !exhausted, true,
             "non-finite gradient at accepted point, restart " +
                 std::to_string(result.recovery_restarts));
      if (exhausted) {
        result.degraded = true;
        break;
      }
      for (std::size_t i = 0; i < n; ++i) direction[i] = -grad[i];
      step = std::max(t * 0.25, 1e-12);
      continue;
    }

    x.swap(trial);
    prev_grad.swap(grad);
    grad.swap(trial_grad);
    value = trial_value;
    // Grow the next initial step moderately so the search adapts to scale.
    step = std::max(t * 2.0, 1e-12);

    result.value = value;
    result.gradient_infinity_norm = infinity_norm(grad);
    if (result.gradient_infinity_norm <= options.gradient_tolerance) {
      result.converged = true;
      break;
    }

    // Polak-Ribiere+ beta.
    double gg = dot(prev_grad, prev_grad);
    if (gg <= 0.0) break;
    double beta = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      beta += grad[i] * (grad[i] - prev_grad[i]);
    beta = std::max(0.0, beta / gg);
    for (std::size_t i = 0; i < n; ++i)
      direction[i] = -grad[i] + beta * direction[i];
  }
  return result;
}

}  // namespace autoncs::place
