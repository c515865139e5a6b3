// Tuning demo: watch the two-stage controller (Algorithms 1-3) track a
// wandering ambient frequency over 40 minutes, printing every actuator
// move and a timeline of resonant vs ambient frequency.
//
//   ./build/examples/tuning_demo
#include <cstdio>
#include <memory>

#include "dse/batch_envelope_system.hpp"
#include "dse/system_evaluator.hpp"
#include "harvester/electromagnetic.hpp"
#include "harvester/envelope.hpp"
#include "power/supercapacitor.hpp"

int main() {
    using namespace ehdse;

    // A harsher stimulus than the paper's: four 3 Hz hops.
    const harvester::electromagnetic_harvester em;
    const harvester::microgenerator& gen = em.generator();
    harvester::tuning_table table(em);
    const auto vib =
        harvester::vibration_source::stepped_mg(60.0, 65.0, 3.0, 600.0, 4);

    // One design point: the envelope model at width 1, driven through
    // lane 0's kernel handle and plant.
    dse::batch_envelope_system system(
        em, vib, std::make_shared<power::supercapacitor>(), {}, 1);
    const int start_pos = table.lookup(65.0);
    auto x0 = system.initial_state(2.85, start_pos);

    sim::ode_options ode;
    ode.max_dt = 5.0;
    sim::batch_simulator bsim(system, std::move(x0), ode);
    harvester::plant& plant = system.plant(0);

    mcu::controller_params ctl;
    ctl.watchdog_period_s = 120.0;
    ctl.mcu.clock_hz = 4e6;
    node::sensor_node node(bsim.lane(0), plant, {});
    mcu::tuning_controller controller(bsim.lane(0), plant, table, ctl);

    std::printf("t(s)    ambient(Hz)  resonant(Hz)  position  V(store)  P(store)\n");
    std::printf("------------------------------------------------------------------\n");
    for (int minute = 0; minute <= 40; ++minute) {
        const double t = minute * 60.0;
        if (t > 0.0) bsim.run_until(t);
        const double f_in = vib.frequency_at(t);
        const int pos = plant.position();
        const double fr = gen.resonant_frequency(pos);
        const double v = plant.storage_voltage();
        const auto op = harvester::solve_envelope(
            gen, pos, f_in, vib.amplitude_at(t), v, {});
        std::printf("%5.0f   %8.2f    %8.2f     %5d    %6.3f V  %6.1f uW %s\n", t,
                    f_in, fr, pos, v, op.elec.p_store_w * 1e6,
                    std::abs(fr - f_in) > 0.5 ? "  <-- detuned" : "");
    }

    const auto& st = controller.stats();
    std::printf("\ncontroller totals: %llu wakeups, %llu coarse moves (%llu steps), "
                "%llu fine iterations (%llu steps), %llu converged\n",
                static_cast<unsigned long long>(st.wakeups),
                static_cast<unsigned long long>(st.coarse_tunings),
                static_cast<unsigned long long>(st.coarse_steps),
                static_cast<unsigned long long>(st.fine_iterations),
                static_cast<unsigned long long>(st.fine_steps),
                static_cast<unsigned long long>(st.fine_converged));
    std::printf("node transmissions: %llu\n",
                static_cast<unsigned long long>(node.transmissions()));
    std::printf("\nenergy ledger:\n");
    for (const auto& [account, joules] : system.ledger(0).accounts())
        std::printf("  %-22s %8.2f mJ\n", account.c_str(), joules * 1e3);
    return 0;
}
