// Direct unit tests of the two plant implementations (the envelope
// model's per-lane plants, driven here at width 1, and the transient
// system): withdrawal accounting, sustained draws, position validation,
// measurement taps.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>

#include "dse/batch_envelope_system.hpp"
#include "dse/transient_system.hpp"
#include "harvester/electromagnetic.hpp"
#include "harvester/tuning_table.hpp"
#include "power/supercapacitor.hpp"

namespace ed = ehdse::dse;
namespace eh = ehdse::harvester;
namespace es = ehdse::sim;

namespace {

std::shared_ptr<const ehdse::power::storage_model> paper_supercap() {
    return std::make_shared<ehdse::power::supercapacitor>();
}

/// One envelope lane on its own batch simulator.
struct env_rig {
    eh::electromagnetic_harvester em;
    eh::vibration_source vib{0.060 * eh::k_gravity, 69.0};
    ed::batch_envelope_system system{em, vib, paper_supercap(), {}, 1};
    es::batch_simulator bsim;
    eh::plant& plant = system.plant(0);

    env_rig()
        : bsim(system, [this] {
              eh::tuning_table table(em);
              return system.initial_state(2.8, table.lookup(69.0));
          }()) {}
};

}  // namespace

TEST(EnvelopePlant, UnattachedThrows) {
    eh::electromagnetic_harvester em;
    eh::vibration_source vib(0.1, 69.0);
    ed::batch_envelope_system system(em, vib, paper_supercap(), {}, 1);
    EXPECT_THROW(system.plant(0).storage_voltage(), std::logic_error);
    EXPECT_THROW(system.plant(0).vibration_frequency(), std::logic_error);
}

TEST(EnvelopePlant, WithdrawalRemovesEnergyAndLedgers) {
    env_rig rig;
    const double v0 = rig.plant.storage_voltage();
    rig.plant.withdraw(10e-3, "test.account");
    const double v1 = rig.plant.storage_voltage();
    EXPECT_LT(v1, v0);
    ehdse::power::supercapacitor cap;
    EXPECT_NEAR(cap.energy_at(v0) - cap.energy_at(v1), 10e-3, 1e-9);
    EXPECT_DOUBLE_EQ(rig.system.ledger(0).total("test.account"), 10e-3);
    EXPECT_THROW(rig.plant.withdraw(-1.0, "x"), std::invalid_argument);
}

TEST(EnvelopePlant, SustainedDrawDischargesOverTime) {
    env_rig rig;
    // Detune far so essentially nothing is harvested.
    rig.plant.set_position(255);
    rig.plant.set_sustained_draw("burn", 5e-3);  // 5 mA
    ASSERT_TRUE(rig.bsim.run_until(10.0));
    // dV ~ I t / C = 5e-3 * 10 / 0.55 ~ 0.09 V.
    EXPECT_NEAR(rig.plant.storage_voltage(), 2.8 - 0.0909, 0.01);
    // Updating the same account replaces, not stacks.
    rig.plant.set_sustained_draw("burn", 0.0);
    const double v_now = rig.plant.storage_voltage();
    ASSERT_TRUE(rig.bsim.run_until(20.0));
    EXPECT_NEAR(rig.plant.storage_voltage(), v_now, 0.005);
}

TEST(EnvelopePlant, PositionAndMeasurementTaps) {
    env_rig rig;
    EXPECT_DOUBLE_EQ(rig.plant.vibration_frequency(), 69.0);
    rig.plant.set_position(100);
    EXPECT_EQ(rig.plant.position(), 100);
    EXPECT_THROW(rig.plant.set_position(-1), std::out_of_range);
    EXPECT_THROW(rig.plant.set_position(256), std::out_of_range);

    // Tuned: phase lag ~ pi/2; resonance above drive: lag < pi/2.
    eh::tuning_table table(rig.em);
    rig.plant.set_position(table.lookup(69.0));
    EXPECT_NEAR(rig.plant.phase_lag(), std::numbers::pi / 2.0, 0.35);
    rig.plant.set_position(255);
    EXPECT_LT(rig.plant.phase_lag(), 0.3);
}

TEST(EnvelopePlant, InitialStateRejectsNegativeVoltage) {
    eh::electromagnetic_harvester em;
    eh::vibration_source vib(0.1, 69.0);
    ed::batch_envelope_system system(em, vib, paper_supercap(), {}, 1);
    EXPECT_THROW(system.initial_state(-1.0, 0), std::invalid_argument);
}

TEST(TransientPlant, MirrorsEnvelopeSemantics) {
    eh::electromagnetic_harvester em;
    eh::vibration_source vib(0.060 * eh::k_gravity, 69.0);
    ed::transient_system system(em, vib);
    eh::tuning_table table(em);
    auto x0 = system.initial_state(2.8, table.lookup(69.0));
    es::ode_options ode;
    ode.max_dt = system.suggested_max_dt();
    ode.initial_dt = 1e-5;
    es::batch_simulator sim(system.kernel(), std::move(x0), ode);
    system.attach(sim.lane(0));
    EXPECT_EQ(&system.plant(0), &system);
    EXPECT_THROW(system.plant(1), std::out_of_range);

    EXPECT_NEAR(system.storage_voltage(), 2.8, 1e-12);
    system.withdraw(5e-3, "probe");
    EXPECT_LT(system.storage_voltage(), 2.8);
    EXPECT_DOUBLE_EQ(system.ledger(0).total("probe"), 5e-3);
    EXPECT_DOUBLE_EQ(system.vibration_frequency(), 69.0);
    EXPECT_NEAR(system.phase_lag(), std::numbers::pi / 2.0, 0.35);
    EXPECT_THROW(system.withdraw(-1.0, "x"), std::invalid_argument);
    EXPECT_THROW(system.initial_state(-0.1, 0), std::invalid_argument);

    system.set_sustained_draw("load", 1e-3);
    ASSERT_TRUE(sim.run_until(0.5));
    EXPECT_LT(system.storage_voltage(), 2.8 - 5e-3 * 2.8 / 0.55 / 10.0);
}

TEST(TransientPlant, UnattachedThrows) {
    eh::electromagnetic_harvester em;
    eh::vibration_source vib(0.1, 69.0);
    ed::transient_system system(em, vib);
    EXPECT_THROW(system.storage_voltage(), std::logic_error);
}
