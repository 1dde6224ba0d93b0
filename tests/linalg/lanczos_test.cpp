#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/generalized_eigen.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/sparse.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "util/rng.hpp"

namespace autoncs::linalg {
namespace {

/// Random sparse symmetric matrix with ~density of the off-diagonal pairs
/// set (both triangles mirrored) plus a random diagonal.
SparseMatrix random_sparse_symmetric(std::size_t n, double density,
                                     util::Rng& rng) {
  Matrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    dense(i, i) = rng.uniform(-1.0, 1.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform() < density) {
        const double v = rng.uniform(-1.0, 1.0);
        dense(i, j) = v;
        dense(j, i) = v;
      }
    }
  }
  return SparseMatrix::from_dense(dense);
}

/// Worst distance of any Lanczos eigenvector from the span of the dense
/// eigenvectors whose eigenvalues match its own (the sine of the principal
/// angle to the eigenspace). Dense columns are orthonormal, so the
/// projection is a plain sum of inner products; grouping by eigenvalue
/// makes the check robust under repeated eigenvalues, where individual
/// eigenvectors are arbitrary but the eigenspace is not.
double worst_subspace_distance(const EigenDecomposition& dense,
                               const EigenDecomposition& sparse,
                               double value_tol) {
  const std::size_t n = dense.vectors.rows();
  double worst = 0.0;
  for (std::size_t j = 0; j < sparse.values.size(); ++j) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = sparse.vectors(i, j);
    std::vector<double> residual = v;
    for (std::size_t c = 0; c < dense.values.size(); ++c) {
      if (std::abs(dense.values[c] - sparse.values[j]) > value_tol) continue;
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) dot += dense.vectors(i, c) * v[i];
      for (std::size_t i = 0; i < n; ++i)
        residual[i] -= dot * dense.vectors(i, c);
    }
    double norm2 = 0.0;
    for (double r : residual) norm2 += r * r;
    worst = std::max(worst, std::sqrt(norm2));
  }
  return worst;
}

TEST(Lanczos, MatchesDenseOnRandomSparseSymmetric) {
  util::Rng rng(7);
  const SparseMatrix a = random_sparse_symmetric(60, 0.1, rng);
  const auto dense = symmetric_eigen(a.to_dense());
  const std::size_t k = 8;
  const auto sparse = lanczos_smallest(a, k);
  ASSERT_EQ(sparse.values.size(), k);
  ASSERT_EQ(sparse.vectors.cols(), k);
  for (std::size_t j = 0; j < k; ++j)
    EXPECT_NEAR(sparse.values[j], dense.values[j], 1e-8) << "eigenvalue " << j;
  EXPECT_LT(worst_subspace_distance(dense, sparse, 1e-6), 1e-6);
}

TEST(Lanczos, FullSpectrumWhenKEqualsN) {
  util::Rng rng(11);
  const SparseMatrix a = random_sparse_symmetric(24, 0.2, rng);
  const auto dense = symmetric_eigen(a.to_dense());
  const auto sparse = lanczos_smallest(a, 24);
  ASSERT_EQ(sparse.values.size(), 24u);
  for (std::size_t j = 0; j < 24; ++j)
    EXPECT_NEAR(sparse.values[j], dense.values[j], 1e-8);
}

TEST(Lanczos, RepeatedEigenvaluesFromIdenticalComponents) {
  // Two disjoint identical path graphs: every Laplacian eigenvalue of one
  // component appears again in the other, so the k smallest eigenvalues
  // contain multiplicity-2 groups. A single-vector Krylov space holds only
  // one direction per distinct eigenvalue; the block version must recover
  // both copies.
  const std::size_t half = 12;
  const std::size_t n = 2 * half;
  std::vector<Triplet> triplets;
  for (std::size_t component = 0; component < 2; ++component) {
    const std::size_t base = component * half;
    for (std::size_t i = 0; i + 1 < half; ++i) {
      triplets.push_back({base + i, base + i + 1, -1.0});
      triplets.push_back({base + i + 1, base + i, -1.0});
    }
    for (std::size_t i = 0; i < half; ++i) {
      const double degree = (i == 0 || i + 1 == half) ? 1.0 : 2.0;
      triplets.push_back({base + i, base + i, degree});
    }
  }
  const SparseMatrix a(n, n, triplets);
  const auto dense = symmetric_eigen(a.to_dense());
  const std::size_t k = 6;  // three distinct eigenvalues, each doubled
  const auto sparse = lanczos_smallest(a, k);
  ASSERT_EQ(sparse.values.size(), k);
  for (std::size_t j = 0; j < k; ++j)
    EXPECT_NEAR(sparse.values[j], dense.values[j], 1e-8) << "eigenvalue " << j;
  EXPECT_LT(worst_subspace_distance(dense, sparse, 1e-6), 1e-6);
}

TEST(Lanczos, HighMultiplicityDiagonal) {
  // diag(1 x4, 2 x4, 3, 4, ...): the smallest eigenvalue alone has
  // multiplicity 4.
  const std::size_t n = 16;
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < n; ++i) {
    const double value = i < 4 ? 1.0 : (i < 8 ? 2.0 : static_cast<double>(i));
    triplets.push_back({i, i, value});
  }
  const SparseMatrix a(n, n, triplets);
  const auto dense = symmetric_eigen(a.to_dense());
  const auto sparse = lanczos_smallest(a, 8);
  for (std::size_t j = 0; j < 8; ++j)
    EXPECT_NEAR(sparse.values[j], dense.values[j], 1e-8) << "eigenvalue " << j;
  EXPECT_LT(worst_subspace_distance(dense, sparse, 1e-6), 1e-6);
}

TEST(Lanczos, DeterministicDotMatchesAcrossPools) {
  // The dot folds fixed 2048-element partial sums in block order, which
  // pins its bits for n > 2048 — check against that fold written out.
  util::Rng rng(5);
  std::vector<double> a(10000);
  std::vector<double> b(10000);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  double folded = 0.0;
  for (std::size_t lo = 0; lo < a.size(); lo += 2048) {
    double partial = 0.0;
    for (std::size_t i = lo; i < std::min(a.size(), lo + 2048); ++i)
      partial += a[i] * b[i];
    folded += partial;
  }
  EXPECT_EQ(deterministic_dot(a, b), folded);
}

TEST(SparseLaplacianEmbedding, MatchesDenseGeneralizedSolver) {
  // 0/1 symmetric weight matrix, exactly the shape the clustering front
  // end produces.
  util::Rng rng(19);
  const std::size_t n = 50;
  Matrix weights(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.uniform() < 0.15) {
        weights(i, j) = 1.0;
        weights(j, i) = 1.0;
      }
  const auto dense = laplacian_embedding(weights);
  const std::size_t k = 6;
  const auto sparse =
      sparse_laplacian_embedding(SparseMatrix::from_dense(weights), k);
  ASSERT_EQ(sparse.values.size(), k);
  for (std::size_t j = 0; j < k; ++j)
    EXPECT_NEAR(sparse.values[j], dense.values[j], 1e-8) << "eigenvalue " << j;

  // Each back-transformed column must satisfy the generalized problem
  // L u = lambda D u (the degree floor of 1.0 applies to isolated nodes).
  std::vector<double> degrees(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) degrees[i] += weights(i, j);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double lu = degrees[i] * sparse.vectors(i, j);
      for (std::size_t c = 0; c < n; ++c)
        if (c != i) lu -= weights(i, c) * sparse.vectors(c, j);
      const double du =
          std::max(degrees[i], 1.0) * sparse.vectors(i, j) * sparse.values[j];
      EXPECT_NEAR(lu, du, 1e-7) << "residual at (" << i << ", " << j << ")";
    }
  }
}

}  // namespace
}  // namespace autoncs::linalg
