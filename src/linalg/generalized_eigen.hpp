// Generalized symmetric eigenproblem L u = λ D u for the spectral
// embedding (Algorithms 1 and 2 of the paper). D is the degree matrix of
// the (symmetrized) connection graph, so it is diagonal and nonnegative;
// the problem is reduced to the ordinary symmetric problem
//   (D^{-1/2} L D^{-1/2}) v = λ v,   u = D^{-1/2} v,
// which is the normalized-cut formulation of Shi & Malik [11].
//
// Isolated neurons (degree 0) would make D singular; they are handled by
// flooring the degree at a small epsilon, which leaves their embedding rows
// essentially arbitrary — correct, since a disconnected neuron contributes
// no connections to any cluster.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/symmetric_eigen.hpp"

namespace autoncs::linalg {

struct GeneralizedEigenOptions {
  /// Floor applied to zero diagonal degrees to keep D invertible. For
  /// binary connection graphs 1.0 is the natural choice: an isolated
  /// node's back-transformed coordinate then stays on the same scale as
  /// everyone else's instead of exploding by 1/sqrt(floor) and hijacking
  /// every k-means distance downstream.
  double degree_floor = 1.0;
  /// Normalize each back-transformed eigenvector u_j to unit Euclidean
  /// norm. The generalized eigenvectors are D-orthonormal, so their
  /// 2-norms vary with the degree distribution; unit-normalizing keeps
  /// all embedding columns commensurate for k-means.
  bool unit_normalize = true;
};

/// Solves L u = λ D u where `laplacian` is symmetric and `degrees` holds
/// the diagonal of D (size must match). Returns all n eigenpairs with
/// ascending eigenvalues; column j of `vectors` is u_j (D-orthonormal).
EigenDecomposition generalized_symmetric_eigen(
    const Matrix& laplacian, const std::vector<double>& degrees,
    const GeneralizedEigenOptions& options = {});

/// Convenience: builds L = D - W from a symmetric weight matrix W, then
/// solves the generalized problem. W's diagonal is ignored (self loops
/// cancel out of the Laplacian).
EigenDecomposition laplacian_embedding(const Matrix& weights,
                                       const GeneralizedEigenOptions& options = {});

/// Same result, bit for bit, but builds D^{-1/2} L D^{-1/2} in W's own
/// storage instead of in two extra n x n matrices, consuming W.
EigenDecomposition laplacian_embedding(Matrix&& weights,
                                       const GeneralizedEigenOptions& options = {});

}  // namespace autoncs::linalg
