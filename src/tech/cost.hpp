// Physical cost function (Eq. 3 of the paper): Cost = alpha*L + beta*A +
// delta*T with total wirelength L, chip area A, and average wire delay T.
// The experiments set alpha = beta = delta = 1.
#pragma once

#include "util/fields.hpp"

namespace autoncs::tech {

struct CostWeights {
  double alpha = 1.0;  // wirelength weight
  double beta = 1.0;   // area weight
  double delta = 1.0;  // delay weight
};

/// The manifest `config.cost_weights` fields (util/fields.hpp).
template <util::RecordOf<CostWeights> Weights, class F>
void visit_fields(Weights& weights, F&& f) {
  auto& [alpha, beta, delta] = weights;
  f("alpha", alpha);
  f("beta", beta);
  f("delta", delta);
}

struct PhysicalCost {
  double total_wirelength_um = 0.0;  // L
  double area_um2 = 0.0;             // A
  double average_delay_ns = 0.0;     // T

  double combined(const CostWeights& weights = {}) const {
    return weights.alpha * total_wirelength_um + weights.beta * area_um2 +
           weights.delta * average_delay_ns;
  }
};

/// The manifest `result.cost` fields, before the derived `combined`.
template <util::RecordOf<PhysicalCost> Cost, class F>
void visit_fields(Cost& cost, F&& f) {
  auto& [total_wirelength_um, area_um2, average_delay_ns] = cost;
  f("total_wirelength_um", total_wirelength_um);
  f("area_um2", area_um2);
  f("average_delay_ns", average_delay_ns);
}

/// Relative reduction of `ours` vs `baseline` for one metric (e.g. 0.478
/// means 47.8% lower).
double reduction(double baseline, double ours);

}  // namespace autoncs::tech
