#include "place/conjugate_gradient.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.hpp"

namespace autoncs::place {
namespace {

TEST(ConjugateGradient, MinimizesConvexQuadratic) {
  // f(x) = sum_i c_i (x_i - t_i)^2 with distinct curvatures.
  const std::vector<double> curvature = {1.0, 10.0, 0.5, 4.0};
  const std::vector<double> target = {1.0, -2.0, 3.0, 0.5};
  const Objective f = [&](const std::vector<double>& x, std::vector<double>* g) {
    double value = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - target[i];
      value += curvature[i] * d * d;
      if (g != nullptr) (*g)[i] = 2.0 * curvature[i] * d;
    }
    return value;
  };
  std::vector<double> x(4, 0.0);
  const CgResult result = minimize_cg(x, f, {.max_iterations = 200});
  EXPECT_LT(result.value, 1e-8);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(x[i], target[i], 1e-4);
}

TEST(ConjugateGradient, RosenbrockMakesLargeProgress) {
  const Objective f = [](const std::vector<double>& x, std::vector<double>* g) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    if (g != nullptr) {
      (*g)[0] = -2.0 * a - 400.0 * x[0] * b;
      (*g)[1] = 200.0 * b;
    }
    return a * a + 100.0 * b * b;
  };
  std::vector<double> x = {-1.2, 1.0};
  std::vector<double> g(2);
  const double start = f(x, &g);
  const CgResult result = minimize_cg(x, f, {.max_iterations = 500});
  EXPECT_LT(result.value, start * 1e-3);
}

TEST(ConjugateGradient, AlreadyAtMinimumConvergesImmediately) {
  const Objective f = [](const std::vector<double>& x, std::vector<double>* g) {
    if (g != nullptr) (*g)[0] = 2.0 * x[0];
    return x[0] * x[0];
  };
  std::vector<double> x = {0.0};
  const CgResult result = minimize_cg(x, f);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(ConjugateGradient, RespectsIterationCap) {
  const Objective f = [](const std::vector<double>& x, std::vector<double>* g) {
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      v += std::cosh(x[i] - static_cast<double>(i));
      if (g != nullptr) (*g)[i] = std::sinh(x[i] - static_cast<double>(i));
    }
    return v;
  };
  std::vector<double> x(8, 5.0);
  const CgResult result = minimize_cg(x, f, {.max_iterations = 3});
  EXPECT_LE(result.iterations, 3u);
}

TEST(ConjugateGradient, EmptyStateThrows) {
  std::vector<double> x;
  const Objective f = [](const std::vector<double>&, std::vector<double>*) {
    return 0.0;
  };
  EXPECT_THROW(minimize_cg(x, f), util::CheckError);
}

TEST(ConjugateGradient, MonotoneNonIncreasingValue) {
  // Armijo backtracking guarantees the accepted value never increases.
  const Objective f = [](const std::vector<double>& x, std::vector<double>* g) {
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      v += std::pow(x[i], 4) - 2.0 * x[i] * x[i];
      if (g != nullptr) (*g)[i] = 4.0 * std::pow(x[i], 3) - 4.0 * x[i];
    }
    return v;
  };
  std::vector<double> x = {0.3, -0.2, 2.0};
  std::vector<double> g(3);
  const double start = f(x, &g);
  const CgResult result = minimize_cg(x, f, {.max_iterations = 50});
  EXPECT_LE(result.value, start + 1e-12);
}

TEST(ConjugateGradient, CountsEvaluationsAndGradientNeverExceedsValue) {
  std::size_t value_calls = 0;
  std::size_t gradient_calls = 0;
  const Objective f = [&](const std::vector<double>& x, std::vector<double>* g) {
    ++value_calls;
    double value = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      value += (x[i] - 1.0) * (x[i] - 1.0);
      if (g != nullptr) (*g)[i] = 2.0 * (x[i] - 1.0);
    }
    if (g != nullptr) ++gradient_calls;
    return value;
  };
  std::vector<double> x(3, 10.0);
  const CgResult result = minimize_cg(x, f, {.max_iterations = 100});
  EXPECT_EQ(result.value_evaluations, value_calls);
  EXPECT_EQ(result.gradient_evaluations, gradient_calls);
  EXPECT_LE(result.gradient_evaluations, result.value_evaluations);
  EXPECT_GT(result.gradient_evaluations, 0u);
}

TEST(ConjugateGradient, ValueOnlyTrialsMatchLegacyIterates) {
  // Value-only trials must accept the same steps as a search that computes
  // the gradient on every trial and land on its iterates bit for bit. The
  // expected values were recorded from such a search.
  const Objective f = [](const std::vector<double>& x, std::vector<double>* g) {
    double v = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      v += std::pow(x[i], 4) + 0.5 * x[i] * x[i] - x[i];
      if (g != nullptr) (*g)[i] = 4.0 * std::pow(x[i], 3) + x[i] - 1.0;
    }
    return v;
  };
  std::vector<double> x = {2.0, -3.0, 0.5, 4.0};
  const CgResult result = minimize_cg(x, f, {.max_iterations = 60});
  const std::vector<double> expected = {0x1.fffffcc429daep-2, 0x1p-1, 0x1p-1,
                                        0x1.fffff8aefb82cp-2};
  EXPECT_EQ(x, expected);  // bit-identical, not approximately equal
  EXPECT_EQ(result.value, -0x1.3ffffffffff8p+0);
  EXPECT_EQ(result.iterations, 60u);
  // The recorded search computed a gradient on all 121 of its calls; here
  // only the starting point and the 60 accepted points do.
  EXPECT_EQ(result.gradient_evaluations, 61u);
  EXPECT_EQ(result.value_evaluations, 121u + 60u);
}

}  // namespace
}  // namespace autoncs::place
