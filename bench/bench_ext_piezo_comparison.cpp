// Extension study: electromagnetic (the paper's device) vs piezoelectric
// transduction on the same mechanics, tuning mechanism and rectifier —
// which harvester family suits the 2.7-2.8 V supercapacitor system?
#include <cstdio>

#include "harvester/envelope.hpp"
#include "harvester/piezo.hpp"
#include "harvester/piezo_transient.hpp"
#include "power/supercapacitor.hpp"
#include "sim/batch_simulator.hpp"
#include "harvester/tuning_table.hpp"
#include "harvester/vibration.hpp"

int main() {
    using namespace ehdse;

    const harvester::microgenerator em;
    const harvester::piezo_microgenerator pz;
    const harvester::tuning_table table(em);
    constexpr double accel = 0.060 * harvester::k_gravity;
    constexpr double f = 69.0;
    const int pos = table.lookup(f);

    std::printf("=== EM vs piezo transduction (same mechanics, 60 mg, %.0f Hz) ===\n\n",
                f);
    std::printf("piezo open-circuit voltage at the open amplitude: %.2f V\n",
                pz.open_circuit_voltage(
                    em.response(2.0 * 3.14159265 * f, accel, pos, 0.0)
                        .displacement_amp_m));
    std::printf("piezo first-order optimal sink U* = V_oc/2 = %.2f V\n\n",
                pz.optimal_sink_voltage(pos, f, accel));

    std::printf("%10s | %14s %14s | %12s\n", "V store", "EM P_store",
                "piezo P_store", "piezo I_avg");
    for (double v = 0.4; v <= 4.01; v += 0.4) {
        const auto em_pt = harvester::solve_envelope(em, pos, f, accel, v);
        const auto pz_pt = pz.solve(pos, f, accel, v);
        std::printf("%8.1f V | %11.1f uW %11.1f uW | %9.1f uA\n", v,
                    em_pt.elec.p_store_w * 1e6, pz_pt.p_store_w * 1e6,
                    pz_pt.i_avg_a * 1e6);
    }

    std::printf("\nAt the system's 2.8 V operating band:\n");
    const auto em_28 = harvester::solve_envelope(em, pos, f, accel, 2.8);
    const auto pz_28 = pz.solve(pos, f, accel, 2.8);
    std::printf("  EM    : %.1f uW stored (bridge conduction angle %.2f rad)\n",
                em_28.elec.p_store_w * 1e6, em_28.elec.conduction_angle);
    std::printf("  piezo : %.1f uW stored (V_oc at solution %.2f V)\n",
                pz_28.p_store_w * 1e6, pz_28.v_oc_amp_v);

    // Ground-truth check of the averaged piezo model: full transient run.
    {
        power::supercapacitor cap;
        power::load_bank no_loads;
        const harvester::vibration_source vib(accel, f);
        harvester::piezo_transient_model model(pz, vib, cap, no_loads);
        model.set_position(pos);
        auto x = harvester::piezo_transient_model::initial_state(2.8);
        sim::ode_options opt;
        opt.abs_tol = 1e-9;
        opt.rel_tol = 1e-6;
        opt.initial_dt = 1e-6;
        opt.max_dt = harvester::piezo_transient_model::suggested_max_dt(f);
        sim::single_lane_system lane(model);
        sim::batch_simulator sim(lane, x, opt);
        sim.run_until(4.0);
        const double e0 = sim.state_at(0, harvester::piezo_transient_model::ix_harvested);
        sim.run_until(10.0);
        const double e1 = sim.state_at(0, harvester::piezo_transient_model::ix_harvested);
        std::printf("  piezo transient ground truth: %.1f uW stored (averaged "
                    "model %+.1f%%)\n",
                    (e1 - e0) / 6.0 * 1e6,
                    100.0 * (pz_28.p_store_w - (e1 - e0) / 6.0) / ((e1 - e0) / 6.0));
    }

    std::printf("\nReading: the piezo element's stored power peaks near V_oc/2\n"
                "(visible as the maximum around ~2.8 V above) and falls off on\n"
                "either side, so its output is hostage to wherever the storage\n"
                "voltage happens to sit; the EM device keeps climbing towards its\n"
                "optimum beyond the supercap band. Both families deliver the same\n"
                "order of power from the same mechanical budget — the choice is a\n"
                "front-end/operating-point question, not a raw-power one.\n");
    return 0;
}
