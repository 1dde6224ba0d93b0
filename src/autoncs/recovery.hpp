// Flow-level robustness: the numerical guards the pipeline runs at every
// stage boundary.
//
// The guards implement the cheap half of the recovery contract (see
// docs/robustness.md): every value handed from one stage to the next is
// swept with std::isfinite, so a NaN/Inf escaping a solver is caught at
// the boundary it crossed — with a typed NumericalError naming the stage —
// instead of propagating silently into the next stage's arithmetic. The
// expensive half (the in-stage recovery ladders) lives inside the solvers
// themselves; by the time a guard here fires, every ladder rung below it
// has already been exhausted.
#pragma once

#include "netlist/netlist.hpp"
#include "route/router.hpp"
#include "util/error.hpp"

namespace autoncs::recovery {

/// Sweeps cell geometry/positions and wire weights/delays. `stage` names
/// the boundary being guarded ("netlist" right after construction,
/// "placement" after the placer wrote final coordinates). Throws
/// NumericalError("numerical.netlist", stage, ...) on the first
/// non-finite value.
void check_netlist_finite(const netlist::Netlist& netlist,
                          const char* stage);

/// Sweeps the routing aggregates (wirelength, delays, overflow) and every
/// per-wire length/delay. Throws NumericalError("numerical.routing",
/// "routing", ...) on the first non-finite value.
void check_routing_finite(const route::RoutingResult& routing);

}  // namespace autoncs::recovery
