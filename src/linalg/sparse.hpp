// Compressed sparse row (CSR) matrix. Connection matrices of realistic
// neural networks are >90% sparse (Sec. 2.2 of the paper), so the network
// substrate stores them in CSR and only densifies the (small) per-round
// matrices handed to the eigensolver.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace autoncs::linalg {

/// One explicit entry of a sparse matrix.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;
  /// Builds CSR from possibly unsorted triplets; duplicate (row, col)
  /// entries are summed.
  SparseMatrix(std::size_t rows, std::size_t cols, std::vector<Triplet> triplets);

  static SparseMatrix from_dense(const Matrix& dense, double tol = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return values_.size(); }

  /// Value at (r, c); O(log nnz_row) binary search, 0 if absent.
  double at(std::size_t r, std::size_t c) const;

  /// y = A x, each row accumulated in column order. This is the Lanczos
  /// matvec kernel.
  std::vector<double> multiply(std::span<const double> x) const;

  /// Row-sum vector (degrees for a nonnegative adjacency matrix).
  std::vector<double> row_sums() const;

  Matrix to_dense() const;

  /// CSR internals (exposed for iteration by the clustering code).
  const std::vector<std::size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<std::size_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

  /// Logical footprint of the CSR arrays in bytes — fully determined by
  /// the matrix shape and sparsity, so thread-count invariant.
  double footprint_bytes() const {
    return static_cast<double>(
        (row_offsets_.size() + col_indices_.size()) * sizeof(std::size_t) +
        values_.size() * sizeof(double));
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;  // size rows_ + 1
  std::vector<std::size_t> col_indices_;
  std::vector<double> values_;
};

}  // namespace autoncs::linalg
