// Binary connection matrix of a neural network.
//
// Following Sec. 2.1 of the paper, the topology of a network is a matrix W
// whose entry w_ij is 1 when a synapse connects neuron i to neuron j. The
// clustering flow treats neurons as graph vertices, so this type is square
// (for feed-forward or bipartite networks, inputs and outputs are both
// vertices of the one graph). It supports the exact operations the flow
// needs: membership queries, symmetrized degrees for the Laplacian, counting
// and deleting within-cluster connections (ISC Alg. 3 lines 11-12).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "util/fields.hpp"
#include "util/heatmap.hpp"

namespace autoncs::nn {

/// A directed connection i -> j.
struct Connection {
  std::size_t from = 0;
  std::size_t to = 0;

  friend bool operator==(const Connection&, const Connection&) = default;
};

/// A connection as a checkpoint record (util/fields.hpp).
template <util::RecordOf<Connection> Record, class F>
void visit_fields(Record& connection, F&& f) {
  auto& [from, to] = connection;
  f("from", from);
  f("to", to);
}

class ConnectionMatrix {
 public:
  ConnectionMatrix() = default;
  explicit ConnectionMatrix(std::size_t n);

  /// Builds from an explicit connection list; duplicates are collapsed.
  static ConnectionMatrix from_connections(std::size_t n,
                                           std::span<const Connection> connections);

  /// Thresholds a real weight matrix: |w_ij| > tol becomes a connection.
  /// The diagonal is ignored (no self synapses in this flow).
  static ConnectionMatrix from_weights(const linalg::Matrix& weights,
                                       double tol = 0.0);

  std::size_t size() const { return n_; }
  std::size_t connection_count() const { return count_; }

  /// 1 - connections / possible connections (diagonal excluded), per the
  /// paper's definition of sparsity in Sec. 2.2.
  double sparsity() const;

  bool has(std::size_t from, std::size_t to) const;
  /// Adds a connection; returns false if it already existed. Self loops are
  /// rejected with a check failure.
  bool add(std::size_t from, std::size_t to);
  /// Removes a connection; returns false if it did not exist.
  bool remove(std::size_t from, std::size_t to);

  /// All connections in row-major order.
  std::vector<Connection> connections() const;

  std::size_t fanout(std::size_t neuron) const;  // out-degree (row count)
  std::size_t fanin(std::size_t neuron) const;   // in-degree (column count)
  /// The paper's "fanin+fanout" congestion proxy (Sec. 4.2).
  std::size_t fanin_fanout(std::size_t neuron) const;

  /// Out-neighbors of `neuron`, sorted ascending. Iterating this is
  /// O(fanout) instead of the O(n) row scan — the networks are >90%
  /// sparse, so every within-cluster query in the clustering hot path
  /// walks adjacency lists rather than probing the bit matrix.
  std::span<const std::size_t> out_neighbors(std::size_t neuron) const;

  /// Number of connections whose endpoints BOTH lie in `nodes`.
  std::size_t count_within(std::span<const std::size_t> nodes) const;

  /// Deletes every connection internal to `nodes`; returns how many were
  /// removed (ISC removes realized clusters from the remaining network).
  std::size_t remove_within(std::span<const std::size_t> nodes);

  /// Undirected view: max(W, W^T) as 0/1 dense matrix — the similarity
  /// matrix handed to spectral clustering.
  linalg::Matrix symmetrized_dense() const;

  /// Undirected view: max(W, W^T) as a 0/1 CSR matrix, built from the
  /// adjacency lists in O(E log E) without touching the dense bit field —
  /// the similarity matrix handed to the sparse (Lanczos) embedding path.
  linalg::SparseMatrix symmetrized_sparse() const;

  /// Degrees of the symmetrized graph.
  std::vector<double> symmetric_degrees() const;

  /// Dense 0/1 copy (row = from, col = to).
  linalg::Matrix to_dense() const;

  /// Renderable field for Figures 3-6 style plots.
  util::Field2D to_field() const;

  /// Indices of neurons with at least one incident connection.
  std::vector<std::size_t> active_neurons() const;

  /// Submatrix over `nodes` (order preserved): entry (a, b) of the result
  /// mirrors (nodes[a], nodes[b]) here. Used to cluster only the active
  /// subnetwork — isolated neurons would otherwise flood the Laplacian
  /// null space with useless zero-eigenvalue directions.
  ConnectionMatrix submatrix(std::span<const std::size_t> nodes) const;

  friend bool operator==(const ConnectionMatrix& a, const ConnectionMatrix& b);

 private:
  std::size_t index(std::size_t from, std::size_t to) const { return from * n_ + to; }

  std::size_t n_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint8_t> bits_;
  /// Sorted out-neighbor list per neuron, maintained alongside bits_ so
  /// membership stays O(1) while edge iteration is O(degree).
  std::vector<std::vector<std::size_t>> out_;
};

}  // namespace autoncs::nn
