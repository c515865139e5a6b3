// Envelope (cycle-averaged) harvester solution — the "accelerated
// simulation" technique of paper ref [9], re-derived for the rectifier-
// coupled case.
//
// Instead of integrating the 60-plus-Hz mechanical oscillation for an hour
// of simulated time, the envelope model computes the periodic steady state
// at the current (excitation frequency, actuator position, storage voltage)
// triple. The mechanical and electrical sides couple through the
// equivalent electrical damping
//     c_e = 2 P_mech / (omega^2 |Z|^2),
// where P_mech is the cycle-averaged power the bridge extracts (see
// power/rectifier.hpp). The bridge's presented damping T(c_e) is monotone
// non-increasing in c_e, so the self-consistent point is the unique root of
// T(c) - c, found by bisection — unconditionally convergent, unlike the
// naive fixed-point iteration which cycles between the bridge's blocked and
// saturated regimes at strong coupling.
//
// That bisection exists once, as a lockstep solve over B lanes
// (envelope.cpp): every trial is a few flat, branch-free lane loops that
// GCC auto-vectorises, with a fitted polynomial asin in place of libm.
// The batch kernel runs it at width B; solve_envelope, the electromagnetic
// backend's scalar hooks and the scalar envelope system run it at width 1,
// so all of them find the same root.
//
// The result feeds the slow dynamics: the supercapacitor sees the averaged
// charging current i_avg, and the mechanical amplitude relaxes towards the
// new steady state with time constant 2m / c_total after each retune.
#pragma once

#include "harvester/harvester_model.hpp"
#include "harvester/microgenerator.hpp"
#include "power/rectifier.hpp"

namespace ehdse::harvester {

/// Converged cycle-averaged operating point.
struct envelope_point {
    linear_response mech;                      ///< steady-state mechanics
    power::rectifier_operating_point elec;     ///< averaged bridge quantities
    double c_electrical = 0.0;                 ///< equivalent electrical damping
    int iterations = 0;                        ///< damping trials evaluated
    bool converged = true;
};

/// Solver knobs; the bisection brackets c_e within
/// tolerance * mech_damping in ~50 cheap evaluations.
struct envelope_options {
    double tolerance = 1e-6;   ///< on c_e, relative to mechanical damping
    int max_iterations = 200;  ///< bisection step limit
};

/// Solve the coupled steady state at excitation `freq_hz` / amplitude
/// `accel_amp_ms2`, actuator position `position`, storage voltage `store_v`.
/// The damping root comes from the lane solver at width 1; `mech` and
/// `elec` then report the exact (libm) response at that root.
envelope_point solve_envelope(const microgenerator& gen, int position,
                              double freq_hz, double accel_amp_ms2,
                              double store_v,
                              const power::rectifier_params& rect = {},
                              const envelope_options& options = {});

/// The electromagnetic envelope RHS over lanes — the body of
/// electromagnetic_harvester::envelope_lanes. Diode-bridge lanes relax
/// towards the self-consistent steady state and charge through the
/// averaged bridge at the instantaneous envelope amplitude; mppt lanes
/// hold the matched load c_e = c_mech and deliver at `efficiency`.
void envelope_lanes(const microgenerator& gen, const envelope_lane_inputs& in,
                    conditioning_kind conditioning, double efficiency,
                    const power::rectifier_params& rect,
                    envelope_scratch& scratch,
                    const envelope_lane_outputs& out);

}  // namespace ehdse::harvester
