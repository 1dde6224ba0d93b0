#include "linalg/sparse.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace autoncs::linalg {

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols,
                           std::vector<Triplet> triplets)
    : rows_(rows), cols_(cols) {
  for (const auto& t : triplets) {
    AUTONCS_CHECK(t.row < rows && t.col < cols, "triplet index out of range");
  }
  std::sort(triplets.begin(), triplets.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  row_offsets_.assign(rows_ + 1, 0);
  col_indices_.reserve(triplets.size());
  values_.reserve(triplets.size());
  for (std::size_t i = 0; i < triplets.size();) {
    std::size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    col_indices_.push_back(triplets[i].col);
    values_.push_back(sum);
    ++row_offsets_[triplets[i].row + 1];
    i = j;
  }
  for (std::size_t r = 0; r < rows_; ++r) row_offsets_[r + 1] += row_offsets_[r];
}

SparseMatrix SparseMatrix::from_dense(const Matrix& dense, double tol) {
  std::vector<Triplet> triplets;
  for (std::size_t r = 0; r < dense.rows(); ++r)
    for (std::size_t c = 0; c < dense.cols(); ++c)
      if (std::abs(dense(r, c)) > tol)
        triplets.push_back({r, c, dense(r, c)});
  return SparseMatrix(dense.rows(), dense.cols(), std::move(triplets));
}

double SparseMatrix::at(std::size_t r, std::size_t c) const {
  AUTONCS_CHECK(r < rows_ && c < cols_, "sparse index out of range");
  const auto begin = col_indices_.begin() + static_cast<std::ptrdiff_t>(row_offsets_[r]);
  const auto end = col_indices_.begin() + static_cast<std::ptrdiff_t>(row_offsets_[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - col_indices_.begin())];
}

std::vector<double> SparseMatrix::multiply(std::span<const double> x) const {
  AUTONCS_CHECK(x.size() == cols_, "vector size must match matrix columns");
  std::vector<double> y(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      acc += values_[k] * x[col_indices_[k]];
    y[r] = acc;
  }
  return y;
}

std::vector<double> SparseMatrix::row_sums() const {
  std::vector<double> sums(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      sums[r] += values_[k];
  return sums;
}

Matrix SparseMatrix::to_dense() const {
  Matrix dense(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      dense(r, col_indices_[k]) = values_[k];
  return dense;
}

}  // namespace autoncs::linalg
