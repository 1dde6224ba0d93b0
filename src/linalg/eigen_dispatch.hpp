// Run-time ISA dispatch of the dense eigensolver's O(n^3) kernels
// (tred2/tql2 in linalg/symmetric_eigen.cpp). Internal to the library: the
// solver picks the widest variant the host runs, and nothing in the flow
// can choose another. Tests and benches use ScopedEigenIsa to run a named
// variant and check that every variant produces the same bytes.
#pragma once

namespace autoncs::linalg::detail {

/// The kernel variants, widest first. Every one compiles the same source
/// body with floating-point contraction off, so they differ only in vector
/// width and agree bit for bit.
enum class EigenIsa : unsigned char { kAvx512f, kAvx2, kBaseline };

inline constexpr EigenIsa kEigenIsas[] = {EigenIsa::kAvx512f, EigenIsa::kAvx2,
                                          EigenIsa::kBaseline};

/// "avx512f", "avx2" or "baseline".
const char* eigen_isa_name(EigenIsa isa);

/// True when the variant is compiled in and this host can run it. Only
/// the baseline exists on non-x86 targets and non-GNU compilers.
bool eigen_isa_supported(EigenIsa isa);

/// The variant symmetric_eigen runs on this host.
EigenIsa dispatched_eigen_isa();

/// While alive, symmetric_eigen on the constructing thread runs `isa`
/// (which must be supported) instead of the dispatched variant.
class ScopedEigenIsa {
 public:
  explicit ScopedEigenIsa(EigenIsa isa);
  ~ScopedEigenIsa();
  ScopedEigenIsa(const ScopedEigenIsa&) = delete;
  ScopedEigenIsa& operator=(const ScopedEigenIsa&) = delete;

 private:
  int previous_;
};

}  // namespace autoncs::linalg::detail
