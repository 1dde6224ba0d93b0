// Technology model: area and delay of crossbars, discrete synapses, and
// neurons, plus wire RC, scaled to a 45 nm node.
//
// The paper extracts device areas and delays from its refs [15] and [2] and
// scales them to 45 nm without publishing the numbers, so this model is
// parameterized and calibrated to land the FullCro baseline near Table 1's
// magnitudes (~1.95 ns average wire delay, areas of order 10^4 um^2, with a
// 140 um scale bar on Fig. 10 layouts). Every relative result — the
// FullCro vs AutoNCS reductions — depends only on topology, not on these
// absolute constants; see DESIGN.md "Substitutions".
#pragma once

#include <cstddef>

#include "util/fields.hpp"

namespace autoncs::tech {

struct TechnologyModel {
  /// Pitch of one memristor cell in a crossbar (um). The Fig. 10 axes are
  /// in units of this pitch.
  double memristor_pitch_um = 0.28;

  /// Peripheral ring around a crossbar for drivers/training circuitry (um
  /// added to each side's extent).
  double crossbar_periphery_um = 2.0;

  /// Footprint side of a discrete memristor synapse cell (um): memristor
  /// plus access device, a few pitches across.
  double synapse_side_um = 0.84;

  /// Footprint side of an integrate-and-fire neuron cell (um), from the
  /// capacitor-based design of ref [2].
  double neuron_side_um = 2.24;

  /// Interconnect unit resistance (ohm / um) on intermediate metal.
  double wire_resistance_ohm_per_um = 2.0;

  /// Interconnect unit capacitance (fF / um).
  double wire_capacitance_ff_per_um = 0.10;

  /// Internal RC delay of a maximum-size (64x64) crossbar in ns; the delay
  /// of a size-s crossbar scales as (s/64)^2 (wire RC grows quadratically
  /// with length). Calibrated so FullCro averages ~1.95 ns (Table 1).
  double crossbar_delay_at_64_ns = 1.90;

  /// Fixed switching delay through a discrete synapse (ns).
  double synapse_delay_ns = 0.05;

  /// Side length of a size-s crossbar cell (um).
  double crossbar_side_um(std::size_t size) const;
  /// Area of a size-s crossbar cell (um^2).
  double crossbar_area_um2(std::size_t size) const;
  double synapse_area_um2() const;
  double neuron_area_um2() const;

  /// Internal delay of a size-s crossbar (ns).
  double crossbar_delay_ns(std::size_t size) const;

  /// Elmore delay of a routed wire of the given length (ns):
  /// 0.5 * r * c * L^2 (distributed RC line).
  double wire_delay_ns(double length_um) const;
};

/// The manifest `config.tech` fields (util/fields.hpp).
template <util::RecordOf<TechnologyModel> Model, class F>
void visit_fields(Model& tech, F&& f) {
  auto& [memristor_pitch_um, crossbar_periphery_um, synapse_side_um,
         neuron_side_um, wire_resistance_ohm_per_um,
         wire_capacitance_ff_per_um, crossbar_delay_at_64_ns,
         synapse_delay_ns] = tech;
  f("memristor_pitch_um", memristor_pitch_um);
  f("crossbar_periphery_um", crossbar_periphery_um);
  f("synapse_side_um", synapse_side_um);
  f("neuron_side_um", neuron_side_um);
  f("wire_resistance_ohm_per_um", wire_resistance_ohm_per_um);
  f("wire_capacitance_ff_per_um", wire_capacitance_ff_per_um);
  f("crossbar_delay_at_64_ns", crossbar_delay_at_64_ns);
  f("synapse_delay_ns", synapse_delay_ns);
}

/// A 45 nm default instance.
const TechnologyModel& default_tech();

}  // namespace autoncs::tech
