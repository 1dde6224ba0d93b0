// Hybrid mapping: the hardware-topology output of the clustering stage.
//
// A HybridMapping realizes every connection of a network exactly once,
// either inside one of the crossbar instances or as a discrete memristor
// synapse (Sec. 3 of the paper: "our design maintains the topology of the
// original NCS by mapping connections into crossbars and discrete
// synapses"). This is the handoff object between the clustering front end
// and the physical-design back end.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "clustering/isc.hpp"
#include "nn/connection_matrix.hpp"
#include "util/fields.hpp"

namespace autoncs::mapping {

using clustering::CrossbarInstance;

struct HybridMapping {
  /// Number of neurons in the source network.
  std::size_t neuron_count = 0;
  std::vector<CrossbarInstance> crossbars;
  /// Connections realized as discrete synapses.
  std::vector<nn::Connection> discrete_synapses;

  std::size_t crossbar_connections() const;
  std::size_t total_connections() const;
  /// Fraction of connections realized by discrete synapses.
  double outlier_ratio() const;
  /// Mean utilization over crossbars (0 when there are none).
  double average_utilization() const;
  /// Mean crossbar preference over crossbars.
  double average_preference(
      clustering::PreferenceKind kind = clustering::PreferenceKind::kPaper) const;
};

/// The mapping as a checkpoint record (util/fields.hpp).
template <util::RecordOf<HybridMapping> Record, class F>
void visit_fields(Record& mapping, F&& f) {
  auto& [neuron_count, crossbars, discrete_synapses] = mapping;
  f("neuron_count", neuron_count);
  f("crossbars", crossbars);
  f("discrete_synapses", discrete_synapses);
}

/// Wraps an ISC result into a mapping.
HybridMapping mapping_from_isc(const clustering::IscResult& isc,
                               std::size_t neuron_count);

/// Validates that `mapping` realizes `network` exactly: every connection
/// appears exactly once across crossbars + discrete synapses, every
/// crossbar respects its capacity, and every realized connection's
/// endpoints lie on the crossbar's row/col sides. Returns an empty string
/// when valid, else a human-readable description of the first violation.
std::string validate_mapping(const HybridMapping& mapping,
                             const nn::ConnectionMatrix& network);

}  // namespace autoncs::mapping
