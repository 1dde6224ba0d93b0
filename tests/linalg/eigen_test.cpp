#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "linalg/generalized_eigen.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "nn/testbench.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace autoncs::linalg {
namespace {

Matrix random_symmetric(std::size_t n, util::Rng& rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      m(i, j) = v;
      m(j, i) = v;
    }
  return m;
}

/// Largest entry of |A v_j - lambda_j v_j| over all eigenpairs.
double residual(const Matrix& a, const EigenDecomposition& dec) {
  double worst = 0.0;
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double av = 0.0;
      for (std::size_t k = 0; k < n; ++k) av += a(i, k) * dec.vectors(k, j);
      worst = std::max(worst, std::abs(av - dec.values[j] * dec.vectors(i, j)));
    }
  }
  return worst;
}

TEST(SymmetricEigen, DiagonalMatrix) {
  const Matrix d = Matrix::from_rows({{3, 0, 0}, {0, 1, 0}, {0, 0, 2}});
  const auto dec = symmetric_eigen(d);
  ASSERT_EQ(dec.values.size(), 3u);
  EXPECT_NEAR(dec.values[0], 1.0, 1e-12);
  EXPECT_NEAR(dec.values[1], 2.0, 1e-12);
  EXPECT_NEAR(dec.values[2], 3.0, 1e-12);
}

TEST(SymmetricEigen, TwoByTwoKnown) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  const auto dec = symmetric_eigen(Matrix::from_rows({{2, 1}, {1, 2}}));
  EXPECT_NEAR(dec.values[0], 1.0, 1e-12);
  EXPECT_NEAR(dec.values[1], 3.0, 1e-12);
}

TEST(SymmetricEigen, OneByOne) {
  const auto dec = symmetric_eigen(Matrix::from_rows({{5}}));
  EXPECT_DOUBLE_EQ(dec.values[0], 5.0);
  EXPECT_DOUBLE_EQ(dec.vectors(0, 0), 1.0);
}

TEST(SymmetricEigen, EmptyMatrix) {
  const auto dec = symmetric_eigen(Matrix());
  EXPECT_TRUE(dec.values.empty());
}

TEST(SymmetricEigen, NonSquareThrows) {
  EXPECT_THROW(symmetric_eigen(Matrix(2, 3)), util::CheckError);
}

TEST(SymmetricEigen, AsymmetricThrows) {
  EXPECT_THROW(symmetric_eigen(Matrix::from_rows({{1, 2}, {0, 1}})),
               util::CheckError);
}

TEST(SymmetricEigen, RepeatedEigenvalues) {
  // 4x4 identity scaled: all eigenvalues equal; any orthonormal basis ok.
  Matrix m = Matrix::identity(4);
  for (std::size_t i = 0; i < 4; ++i) m(i, i) = 2.5;
  const auto dec = symmetric_eigen(m);
  for (double v : dec.values) EXPECT_NEAR(v, 2.5, 1e-12);
  EXPECT_LT(residual(m, dec), 1e-10);
}

TEST(SymmetricEigen, BlockDiagonalWithZeros) {
  // Exactly the hard case for QL deflation: several zero diagonal entries.
  Matrix m(5, 5, 0.0);
  m(3, 3) = 1.0;
  m(3, 4) = 0.5;
  m(4, 3) = 0.5;
  m(4, 4) = 1.0;
  const auto dec = symmetric_eigen(m);
  EXPECT_LT(residual(m, dec), 1e-10);
  EXPECT_NEAR(dec.values[0], 0.0, 1e-12);
  EXPECT_NEAR(dec.values.back(), 1.5, 1e-12);
}

class SymmetricEigenSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SymmetricEigenSweep, ResidualAndOrthonormality) {
  util::Rng rng(100 + GetParam());
  const Matrix a = random_symmetric(GetParam(), rng);
  const auto dec = symmetric_eigen(a);

  EXPECT_LT(residual(a, dec), 1e-9);
  EXPECT_TRUE(std::is_sorted(dec.values.begin(), dec.values.end()));

  // Columns orthonormal.
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      double d = 0.0;
      for (std::size_t k = 0; k < n; ++k)
        d += dec.vectors(k, i) * dec.vectors(k, j);
      EXPECT_NEAR(d, i == j ? 1.0 : 0.0, 1e-9);
    }
  }

  // Trace preserved.
  double trace = 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    trace += a(i, i);
    sum += dec.values[i];
  }
  EXPECT_NEAR(trace, sum, 1e-9 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymmetricEigenSweep,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 40, 64));

TEST(GeneralizedEigen, ReducesToOrdinaryWithUnitDegrees) {
  const Matrix lap = Matrix::from_rows({{2, -1, -1}, {-1, 2, -1}, {-1, -1, 2}});
  const std::vector<double> degrees = {1.0, 1.0, 1.0};
  const auto dec = generalized_symmetric_eigen(lap, degrees);
  EXPECT_NEAR(dec.values[0], 0.0, 1e-10);
  EXPECT_NEAR(dec.values[1], 3.0, 1e-10);
  EXPECT_NEAR(dec.values[2], 3.0, 1e-10);
}

TEST(GeneralizedEigen, SatisfiesGeneralizedEquation) {
  util::Rng rng(7);
  const std::size_t n = 10;
  // Random graph Laplacian.
  Matrix w(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.bernoulli(0.4)) {
        w(i, j) = 1.0;
        w(j, i) = 1.0;
      }
  std::vector<double> degrees(n, 0.0);
  Matrix lap(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        lap(i, j) = -w(i, j);
        degrees[i] += w(i, j);
      }
    }
    lap(i, i) = degrees[i];
  }
  GeneralizedEigenOptions options;
  options.unit_normalize = false;  // keep raw D-orthonormal vectors
  const auto dec = generalized_symmetric_eigen(lap, degrees, options);
  // Check L u = lambda D u entrywise.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double lu = 0.0;
      for (std::size_t k = 0; k < n; ++k) lu += lap(i, k) * dec.vectors(k, j);
      const double du =
          std::max(degrees[i], options.degree_floor) * dec.vectors(i, j);
      EXPECT_NEAR(lu, dec.values[j] * du, 1e-8);
    }
  }
}

TEST(GeneralizedEigen, UnitNormalizeGivesUnitColumns) {
  const Matrix w = Matrix::from_rows({{0, 1, 0}, {1, 0, 1}, {0, 1, 0}});
  const auto dec = laplacian_embedding(w);
  for (std::size_t j = 0; j < 3; ++j) {
    double norm_sq = 0.0;
    for (std::size_t i = 0; i < 3; ++i)
      norm_sq += dec.vectors(i, j) * dec.vectors(i, j);
    EXPECT_NEAR(norm_sq, 1.0, 1e-10);
  }
}

TEST(GeneralizedEigen, IsolatedNodeCoordinatesStayBounded) {
  // Two connected nodes + one isolated; with the degree floor at 1 the
  // isolated node's embedding entries must not explode.
  Matrix w(3, 3);
  w(0, 1) = 1.0;
  w(1, 0) = 1.0;
  const auto dec = laplacian_embedding(w);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_LE(std::abs(dec.vectors(i, j)), 1.0 + 1e-9);
}

TEST(GeneralizedEigen, ConnectedComponentsShareSmallestEigenvector) {
  // A path graph is connected: exactly one ~zero eigenvalue.
  Matrix w(4, 4);
  for (std::size_t i = 0; i + 1 < 4; ++i) {
    w(i, i + 1) = 1.0;
    w(i + 1, i) = 1.0;
  }
  const auto dec = laplacian_embedding(w);
  EXPECT_NEAR(dec.values[0], 0.0, 1e-9);
  EXPECT_GT(dec.values[1], 1e-6);
}

TEST(GeneralizedEigen, DegreeSizeMismatchThrows) {
  EXPECT_THROW(
      generalized_symmetric_eigen(Matrix::identity(3), {1.0, 1.0}),
      util::CheckError);
}

// ---------------------------------------------------------------------------
// Golden digests. The dense solver's output is pinned bit for bit: every
// digest below is an FNV-1a hash over the bytes of `values` then `vectors`,
// as computed by the textbook column-walking tred2/tql2. Any reordering of
// a floating-point operation in the solver or in the Laplacian build
// changes them.

std::uint64_t fnv1a(std::uint64_t h, const std::vector<double>& xs) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(xs.data());
  for (std::size_t i = 0; i < xs.size() * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t digest(const EigenDecomposition& dec) {
  return fnv1a(fnv1a(0xcbf29ce484222325ull, dec.values), dec.vectors.data());
}

/// M = D^-1/2 (D - W) D^-1/2 with the degree floor at 1, symmetrized by
/// averaging: the matrix the dense embedding hands to symmetric_eigen.
Matrix normalized_laplacian(const Matrix& w) {
  const std::size_t n = w.rows();
  std::vector<double> degree(n, 0.0);
  std::vector<double> inv_sqrt(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c)
      if (c != r) degree[r] += w(r, c);
    inv_sqrt[r] = 1.0 / std::sqrt(std::max(degree[r], 1.0));
  }
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      m(r, c) = inv_sqrt[r] * (r == c ? degree[r] : -w(r, c)) * inv_sqrt[c];
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r + 1; c < n; ++c) {
      const double avg = 0.5 * (m(r, c) + m(c, r));
      m(r, c) = avg;
      m(c, r) = avg;
    }
  return m;
}

Matrix mirrored_lower(const Matrix& a) {
  Matrix m = a;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = r + 1; c < a.cols(); ++c) m(r, c) = a(c, r);
  return m;
}

bool bit_equal(const EigenDecomposition& a, const EigenDecomposition& b) {
  return a.vectors.rows() == b.vectors.rows() &&
         a.vectors.cols() == b.vectors.cols() && digest(a) == digest(b);
}

struct TestbenchDigests {
  int id;
  std::uint64_t symmetric;  // symmetric_eigen(normalized Laplacian)
  std::uint64_t embedding;  // laplacian_embedding(symmetrized weights)
};

void PrintTo(const TestbenchDigests& p, std::ostream* os) { *os << "tb" << p.id; }

class GoldenTestbench : public ::testing::TestWithParam<TestbenchDigests> {};

TEST_P(GoldenTestbench, DenseSolverDigestsUnchanged) {
  const TestbenchDigests& want = GetParam();
  const Matrix w = nn::build_testbench(want.id, 2015).topology.symmetrized_dense();
  const std::uint64_t symmetric = digest(symmetric_eigen(normalized_laplacian(w)));
  EXPECT_EQ(symmetric, want.symmetric) << std::hex << symmetric;
  const std::uint64_t embedding = digest(laplacian_embedding(w));
  EXPECT_EQ(embedding, want.embedding) << std::hex << embedding;
}

INSTANTIATE_TEST_SUITE_P(
    PaperTestbenches, GoldenTestbench,
    ::testing::Values(
        TestbenchDigests{1, 0x1f497b4413741dd5ull, 0xdc417f5d2575e201ull},
        TestbenchDigests{2, 0x4eb1359f9851859aull, 0x899b01e68e817235ull},
        TestbenchDigests{3, 0x870ebfb2960a96c1ull, 0x1baf0d87557ebc4eull}),
    [](const auto& p) { return "tb" + std::to_string(p.param.id); });

struct RandomDigest {
  std::size_t n;
  std::uint64_t digest;
};

void PrintTo(const RandomDigest& p, std::ostream* os) { *os << "n = " << p.n; }

class GoldenRandom : public ::testing::TestWithParam<RandomDigest> {};

TEST_P(GoldenRandom, DenseSolverDigestUnchanged) {
  util::Rng rng(900 + GetParam().n);
  const std::uint64_t got =
      digest(symmetric_eigen(random_symmetric(GetParam().n, rng)));
  EXPECT_EQ(got, GetParam().digest) << std::hex << got;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GoldenRandom,
    ::testing::Values(RandomDigest{2, 0x1e95c18a607ad356ull},
                      RandomDigest{3, 0xfd2e72fc2dbf555full},
                      RandomDigest{5, 0x0833acc19dc2225dull},
                      RandomDigest{17, 0x38aece6260a6ad6cull},
                      RandomDigest{64, 0x278827a9deaa1392ull},
                      RandomDigest{129, 0xfca3c43898f0130dull}),
    [](const auto& p) { return "n" + std::to_string(p.param.n); });

TEST(GoldenEigen, ZeroRowsTakeTheZeroScaleBranch) {
  // Rows 5 and 7 (the first row tred2 reduces) are zero, so their
  // Householder step is skipped with scale == 0.
  util::Rng rng(31);
  Matrix a = random_symmetric(8, rng);
  for (std::size_t k = 0; k < 8; ++k) {
    for (std::size_t z : {std::size_t{5}, std::size_t{7}}) {
      a(z, k) = 0.0;
      a(k, z) = 0.0;
    }
  }
  const auto dec = symmetric_eigen(a);
  EXPECT_LT(residual(a, dec), 1e-12);
  EXPECT_EQ(digest(dec), 0x7fc2a134bc0b60c2ull);
}

TEST(GoldenEigen, TwoByTwoTakesTheLastRowBranch) {
  // n = 2 reduces only row 1, whose l == 0 step copies the off-diagonal.
  const Matrix a = Matrix::from_rows({{0.3, -1.7}, {-1.7, 2.9}});
  const auto dec = symmetric_eigen(a);
  EXPECT_LT(residual(a, dec), 1e-12);
  EXPECT_EQ(digest(dec), 0x403619eeded40d3cull);
}

TEST(GoldenEigen, IsolatedVerticesRepeatZeroEigenvalues) {
  // A 5-cycle, a 3-path and four isolated vertices interleaved: six
  // connected components, so six (near) zero eigenvalues in a row.
  Matrix w(12, 12);
  const auto edge = [&](std::size_t i, std::size_t j) {
    w(i, j) = 1.0;
    w(j, i) = 1.0;
  };
  for (std::size_t k = 0; k < 5; ++k) edge(2 * k, 2 * ((k + 1) % 5));
  edge(1, 5);
  edge(5, 9);
  const auto dec = laplacian_embedding(w);
  for (std::size_t j = 0; j < 6; ++j) EXPECT_NEAR(dec.values[j], 0.0, 1e-12);
  EXPECT_GT(dec.values[6], 1e-3);
  EXPECT_EQ(digest(dec), 0x8250b55768bed4f0ull);
}

TEST(GoldenEigen, AsymmetryWithinToleranceReadsOnlyTheLowerTriangle) {
  // Ritz matrices from Lanczos are symmetric only to ~1e-9; the solver
  // reads the lower triangle, so the upper-triangle noise is invisible.
  util::Rng rng(47);
  const Matrix sym = random_symmetric(9, rng);
  Matrix noisy = sym;
  for (std::size_t r = 0; r < 9; ++r)
    for (std::size_t c = r + 1; c < 9; ++c)
      noisy(r, c) += rng.uniform(-5e-10, 5e-10);
  ASSERT_FALSE(noisy.is_symmetric(0.0));
  const auto dec = symmetric_eigen(noisy);
  EXPECT_TRUE(bit_equal(dec, symmetric_eigen(mirrored_lower(noisy))));
  EXPECT_EQ(digest(dec), 0xfe7e8d119c8acb9eull);
}

TEST(GoldenEigen, InPlaceLaplacianMatchesCopyingOverload) {
  // The rvalue overload builds the normalized Laplacian in the weight
  // matrix's own storage; the result must not depend on which one runs.
  const Matrix w = nn::build_testbench(1, 2015).topology.symmetrized_dense();
  const auto copied = laplacian_embedding(w);
  EXPECT_TRUE(bit_equal(copied, laplacian_embedding(Matrix(w))));
  EXPECT_EQ(digest(copied), 0xdc417f5d2575e201ull);  // tb1 golden embedding
}

}  // namespace
}  // namespace autoncs::linalg
