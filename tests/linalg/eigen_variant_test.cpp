// Every ISA variant of the dense eigensolver must produce the bytes of the
// baseline variant: the variants share one source body, compiled with
// floating-point contraction off, that vectorizes only element-wise loops
// and keeps every sum in order. A variant the host cannot run is skipped
// by name.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "linalg/eigen_dispatch.hpp"
#include "linalg/generalized_eigen.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "nn/testbench.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace autoncs::linalg {
namespace detail {

void PrintTo(EigenIsa isa, std::ostream* os) { *os << eigen_isa_name(isa); }

}  // namespace detail

namespace {

using detail::EigenIsa;

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      m(i, j) = v;
      m(j, i) = v;
    }
  return m;
}

/// Empty when a and b hold the same bytes, else where they first differ.
std::string first_difference(const EigenDecomposition& a,
                             const EigenDecomposition& b) {
  if (a.values.size() != b.values.size() ||
      a.vectors.rows() != b.vectors.rows() ||
      a.vectors.cols() != b.vectors.cols())
    return "shapes differ";
  for (std::size_t j = 0; j < a.values.size(); ++j)
    if (std::memcmp(&a.values[j], &b.values[j], sizeof(double)) != 0)
      return "value " + std::to_string(j);
  const std::vector<double>& va = a.vectors.data();
  const std::vector<double>& vb = b.vectors.data();
  for (std::size_t i = 0; i < va.size(); ++i)
    if (std::memcmp(&va[i], &vb[i], sizeof(double)) != 0)
      return "vector entry (" + std::to_string(i / a.vectors.cols()) + ", " +
             std::to_string(i % a.vectors.cols()) + ")";
  return "";
}

EigenDecomposition run_as(EigenIsa isa,
                          const std::function<EigenDecomposition()>& solve) {
  detail::ScopedEigenIsa scope(isa);
  return solve();
}

class EigenVariant : public ::testing::TestWithParam<EigenIsa> {
 protected:
  void SetUp() override {
    if (!detail::eigen_isa_supported(GetParam()))
      GTEST_SKIP() << detail::eigen_isa_name(GetParam())
                   << " kernels not supported on this host";
  }

  void ExpectSameAsBaseline(const std::function<EigenDecomposition()>& solve) {
    const EigenDecomposition want = run_as(EigenIsa::kBaseline, solve);
    const EigenDecomposition got = run_as(GetParam(), solve);
    EXPECT_EQ(first_difference(got, want), "")
        << detail::eigen_isa_name(GetParam()) << " differs from baseline";
  }
};

TEST_P(EigenVariant, PaperTestbenchLaplacians) {
  for (int id = 1; id <= 3; ++id) {
    SCOPED_TRACE("tb" + std::to_string(id));
    const Matrix w =
        nn::build_testbench(id, 2015).topology.symmetrized_dense();
    ExpectSameAsBaseline([&] { return laplacian_embedding(w); });
  }
}

TEST_P(EigenVariant, RandomSymmetricEveryRowRemainder) {
  // Sizes cover every remainder of tred2's four-row blocks, the column
  // blocks of the rotation pass and its tail.
  for (std::size_t n : {2, 3, 5, 6, 7, 8, 9, 17, 64, 129, 300}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const Matrix a = random_symmetric(n, 900 + n);
    ExpectSameAsBaseline([&] { return symmetric_eigen(a); });
  }
}

TEST_P(EigenVariant, ZeroRows) {
  // Zero rows skip their Householder step (scale == 0) and leave d[i] == 0,
  // so back-accumulation skips their reflectors.
  Matrix a = random_symmetric(37, 31);
  for (std::size_t z : {std::size_t{0}, std::size_t{5}, std::size_t{6},
                        std::size_t{20}, std::size_t{36}})
    for (std::size_t k = 0; k < 37; ++k) {
      a(z, k) = 0.0;
      a(k, z) = 0.0;
    }
  ExpectSameAsBaseline([&] { return symmetric_eigen(a); });
}

TEST_P(EigenVariant, IsolatedVertices) {
  // Components and isolated vertices repeat the zero eigenvalue, which
  // exercises QL deflation and underflowing rotations.
  Matrix w(70, 70);
  const auto edge = [&](std::size_t i, std::size_t j) {
    w(i, j) = 1.0;
    w(j, i) = 1.0;
  };
  for (std::size_t k = 0; k < 20; ++k) edge(3 * k, 3 * ((k + 1) % 20));
  for (std::size_t k = 1; k + 3 < 70; k += 6) edge(k, k + 3);
  ExpectSameAsBaseline([&] { return laplacian_embedding(w); });
}

TEST_P(EigenVariant, LaplacianEmbeddingBothOverloads) {
  const Matrix w = nn::build_testbench(1, 2015).topology.symmetrized_dense();
  ExpectSameAsBaseline([&] { return laplacian_embedding(w); });
  ExpectSameAsBaseline([&] { return laplacian_embedding(Matrix(w)); });
}

INSTANTIATE_TEST_SUITE_P(
    Isas, EigenVariant,
    ::testing::Values(EigenIsa::kAvx512f, EigenIsa::kAvx2),
    [](const auto& p) { return std::string(detail::eigen_isa_name(p.param)); });

TEST(EigenDispatch, ReportsSupportedAndDispatchedVariants) {
  // CI prints this line so a green run names what it exercised.
  std::string supported;
  for (EigenIsa isa : detail::kEigenIsas)
    if (detail::eigen_isa_supported(isa))
      supported += std::string(supported.empty() ? "" : ",") +
                   detail::eigen_isa_name(isa);
  const EigenIsa dispatched = detail::dispatched_eigen_isa();
  std::printf("eigen kernels: supported=%s dispatched=%s\n", supported.c_str(),
              detail::eigen_isa_name(dispatched));
  EXPECT_TRUE(detail::eigen_isa_supported(EigenIsa::kBaseline));
  EXPECT_TRUE(detail::eigen_isa_supported(dispatched));
  // The widest supported variant wins.
  for (EigenIsa isa : detail::kEigenIsas) {
    if (!detail::eigen_isa_supported(isa)) continue;
    EXPECT_EQ(isa, dispatched);
    break;
  }
}

TEST(EigenDispatch, UnsupportedVariantIsRejected) {
  std::string unsupported;
  for (EigenIsa isa : detail::kEigenIsas) {
    if (detail::eigen_isa_supported(isa)) continue;
    unsupported += std::string(" ") + detail::eigen_isa_name(isa);
    EXPECT_THROW(detail::ScopedEigenIsa scope(isa), util::CheckError);
  }
  if (unsupported.empty()) GTEST_SKIP() << "every variant runs on this host";
}

}  // namespace
}  // namespace autoncs::linalg
