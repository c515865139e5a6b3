// Full transient model: physical sanity and agreement with the envelope
// fast path (the validation behind using the accelerated technique for the
// hour-long design-space runs).
#include <gtest/gtest.h>

#include <cmath>

#include "harvester/envelope.hpp"
#include "harvester/transient_model.hpp"
#include "harvester/tuning_table.hpp"
#include "power/supercapacitor.hpp"
#include "sim/batch_simulator.hpp"

namespace eh = ehdse::harvester;
namespace ep = ehdse::power;
namespace es = ehdse::sim;

namespace {
constexpr double k_accel_60mg = 0.060 * eh::k_gravity;

struct rig {
    rig() = default;
    explicit rig(eh::microgenerator g) : gen(std::move(g)) {}
    eh::microgenerator gen;
    eh::tuning_table table{gen};
    ep::supercapacitor cap{};
    ep::load_bank loads;
};

es::ode_options transient_options(double freq_hz) {
    es::ode_options opt;
    opt.abs_tol = 1e-9;
    opt.rel_tol = 1e-6;
    opt.initial_dt = 1e-5;
    opt.max_dt = eh::transient_model::suggested_max_dt(freq_hz);
    return opt;
}
}  // namespace

TEST(Transient, MassAtRestStaysAtRestWithoutExcitation) {
    rig r;
    const eh::vibration_source vib(0.0, 69.0);
    eh::transient_model model(r.gen, vib, r.cap, r.loads);
    model.set_position(r.table.lookup(69.0));
    auto x = eh::transient_model::initial_state(2.8);
    es::single_lane_system lane(model);
    es::batch_simulator sim(lane, x, transient_options(69.0));
    ASSERT_TRUE(sim.run_until(0.5));
    EXPECT_NEAR(sim.state_at(0, eh::transient_model::ix_displacement), 0.0, 1e-12);
    EXPECT_NEAR(sim.state_at(0, eh::transient_model::ix_harvested), 0.0, 1e-15);
}

TEST(Transient, CoilBlockedBelowThreshold) {
    rig r;
    const eh::vibration_source vib(k_accel_60mg, 69.0);
    eh::transient_model model(r.gen, vib, r.cap, r.loads);
    // Tiny velocity: emf below V + 2Vd -> no current.
    EXPECT_DOUBLE_EQ(model.coil_current(1e-4, 2.8), 0.0);
    // Large velocity conducts with the right sign.
    EXPECT_GT(model.coil_current(0.2, 2.8), 0.0);
    EXPECT_LT(model.coil_current(-0.2, 2.8), 0.0);
}

TEST(Transient, PositionValidation) {
    rig r;
    const eh::vibration_source vib(k_accel_60mg, 69.0);
    eh::transient_model model(r.gen, vib, r.cap, r.loads);
    EXPECT_THROW(model.set_position(-1), std::out_of_range);
    EXPECT_THROW(model.set_position(256), std::out_of_range);
    model.set_position(200);
    EXPECT_EQ(model.position(), 200);
}

TEST(Transient, DisplacementStaysNearEndStops) {
    // Excite hard at resonance with a model whose free response would exceed
    // the stop; the one-sided springs must keep the excursion close to it.
    eh::microgenerator_params p;
    p.max_displacement_m = 0.2e-3;
    rig r{eh::microgenerator{p}};
    const double f = r.gen.resonant_frequency(128);
    const eh::vibration_source vib(5.0 * k_accel_60mg, f);
    eh::transient_model model(r.gen, vib, r.cap, r.loads);
    model.set_position(128);
    auto x = eh::transient_model::initial_state(2.8);
    es::single_lane_system lane(model);
    es::batch_simulator sim(lane, x, transient_options(f));

    double worst = 0.0;
    sim.add_step_observer([&](std::size_t l, double) {
        worst = std::max(worst,
                         std::abs(sim.state_at(l, eh::transient_model::ix_displacement)));
    });
    ASSERT_TRUE(sim.run_until(2.0));
    EXPECT_LT(worst, 1.6 * p.max_displacement_m);
}

TEST(Transient, HarvestedEnergyAgreesWithEnvelope) {
    // Steady-state charging power of the full transient model must match
    // the cycle-averaged envelope solution within a few percent — this is
    // the core validation of the accelerated technique (paper ref [9]).
    rig r;
    const double f = 69.0;
    const int pos = r.table.lookup(f);
    const eh::vibration_source vib(k_accel_60mg, f);
    eh::transient_model model(r.gen, vib, r.cap, r.loads);
    model.set_position(pos);

    auto x = eh::transient_model::initial_state(2.8);
    es::single_lane_system lane(model);
    es::batch_simulator sim(lane, x, transient_options(f));
    // Let the mechanical envelope settle, then measure over a window.
    ASSERT_TRUE(sim.run_until(4.0));
    const double e0 = sim.state_at(0, eh::transient_model::ix_harvested);
    ASSERT_TRUE(sim.run_until(9.0));
    const double e1 = sim.state_at(0, eh::transient_model::ix_harvested);
    const double p_transient = (e1 - e0) / 5.0;

    const auto env = eh::solve_envelope(r.gen, pos, f, k_accel_60mg, 2.8);
    EXPECT_GT(p_transient, 0.0);
    EXPECT_NEAR(p_transient, env.elec.p_store_w, 0.10 * env.elec.p_store_w);
}

TEST(Transient, VoltageRisesWhileCharging) {
    rig r;
    const double f = 69.0;
    const eh::vibration_source vib(k_accel_60mg, f);
    eh::transient_model model(r.gen, vib, r.cap, r.loads);
    model.set_position(r.table.lookup(f));
    auto x = eh::transient_model::initial_state(2.6);
    es::single_lane_system lane(model);
    es::batch_simulator sim(lane, x, transient_options(f));
    ASSERT_TRUE(sim.run_until(5.0));
    EXPECT_GT(sim.state_at(0, eh::transient_model::ix_voltage), 2.6);
}

TEST(Transient, LoadDischargesFasterThanNoLoad) {
    rig r;
    const double f = 69.0;
    const eh::vibration_source vib(k_accel_60mg, f);

    // Detuned so almost nothing is harvested; a resistive load must pull
    // the voltage down faster than leakage alone.
    auto run_with = [&](bool with_load) {
        ep::load_bank loads;
        if (with_load) {
            const auto id = loads.add_load("burn");
            loads.set_resistance(id, 10'000.0);
        }
        eh::transient_model model(r.gen, vib, r.cap, loads);
        model.set_position(255);  // resonance ~88 Hz, far from 69 Hz input
        auto x = eh::transient_model::initial_state(2.8);
        es::single_lane_system lane(model);
        es::batch_simulator sim(lane, x, transient_options(f));
        EXPECT_TRUE(sim.run_until(2.0));
        return sim.state_at(0, eh::transient_model::ix_voltage);
    };

    EXPECT_LT(run_with(true), run_with(false) - 1e-4);
}
