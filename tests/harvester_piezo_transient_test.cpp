// Piezo transient model vs the cycle-averaged solution — cross-validation
// of the piezo formulas, mirroring the EM transient/envelope agreement test.
#include <gtest/gtest.h>

#include <cmath>

#include "harvester/piezo_transient.hpp"
#include "harvester/tuning_table.hpp"
#include "power/supercapacitor.hpp"
#include "sim/batch_simulator.hpp"

namespace eh = ehdse::harvester;
namespace ep = ehdse::power;
namespace es = ehdse::sim;

namespace {
constexpr double k_accel_60mg = 0.060 * eh::k_gravity;

struct rig {
    eh::piezo_microgenerator gen;
    eh::tuning_table table{eh::microgenerator{}};
    ep::supercapacitor cap{};
    ep::load_bank loads;
};

es::ode_options options_for(double f) {
    es::ode_options opt;
    opt.abs_tol = 1e-9;
    opt.rel_tol = 1e-6;
    opt.initial_dt = 1e-6;
    opt.max_dt = eh::piezo_transient_model::suggested_max_dt(f);
    return opt;
}
}  // namespace

TEST(PiezoTransient, RestStaysAtRest) {
    rig r;
    const eh::vibration_source vib(0.0, 69.0);
    eh::piezo_transient_model model(r.gen, vib, r.cap, r.loads);
    model.set_position(r.table.lookup(69.0));
    auto x = eh::piezo_transient_model::initial_state(2.8);
    es::single_lane_system lane(model);
    es::batch_simulator sim(lane, x, options_for(69.0));
    ASSERT_TRUE(sim.run_until(0.3));
    EXPECT_NEAR(sim.state_at(0, eh::piezo_transient_model::ix_displacement), 0.0, 1e-12);
    EXPECT_NEAR(sim.state_at(0, eh::piezo_transient_model::ix_harvested), 0.0, 1e-15);
}

TEST(PiezoTransient, BridgeClampBehaviour) {
    rig r;
    const eh::vibration_source vib(k_accel_60mg, 69.0);
    eh::piezo_transient_model model(r.gen, vib, r.cap, r.loads);
    EXPECT_DOUBLE_EQ(model.bridge_current(2.0, 2.8), 0.0);   // below U = 3.4
    EXPECT_GT(model.bridge_current(4.0, 2.8), 0.0);
    EXPECT_LT(model.bridge_current(-4.0, 2.8), 0.0);
    EXPECT_THROW(model.set_position(256), std::out_of_range);
    EXPECT_THROW(eh::piezo_transient_model(r.gen, vib, r.cap, r.loads, {}, 0.0),
                 std::invalid_argument);
}

TEST(PiezoTransient, ChargingAgreesWithAveragedSolution) {
    rig r;
    const double f = 69.0;
    const int pos = r.table.lookup(f);
    const eh::vibration_source vib(k_accel_60mg, f);
    eh::piezo_transient_model model(r.gen, vib, r.cap, r.loads);
    model.set_position(pos);

    auto x = eh::piezo_transient_model::initial_state(2.8);
    es::single_lane_system lane(model);
    es::batch_simulator sim(lane, x, options_for(f));
    ASSERT_TRUE(sim.run_until(4.0));  // settle
    const double e0 = sim.state_at(0, eh::piezo_transient_model::ix_harvested);
    ASSERT_TRUE(sim.run_until(10.0));
    const double e1 = sim.state_at(0, eh::piezo_transient_model::ix_harvested);
    const double p_transient = (e1 - e0) / 6.0;

    const auto avg = r.gen.solve(pos, f, k_accel_60mg, 2.8);
    ASSERT_GT(avg.p_store_w, 0.0);
    // The averaged model ignores the clamp overshoot and the piezo-voltage
    // waveform distortion; 15% is the expected agreement class.
    EXPECT_NEAR(p_transient, avg.p_store_w, 0.15 * avg.p_store_w);
}

TEST(PiezoTransient, BlockedAtHighStoreVoltage) {
    rig r;
    const double f = 69.0;
    const eh::vibration_source vib(k_accel_60mg, f);
    eh::piezo_transient_model model(r.gen, vib, r.cap, r.loads);
    model.set_position(r.table.lookup(f));
    // Open-circuit piezo amplitude is ~7.2 V; a sink above it blocks fully.
    auto x = eh::piezo_transient_model::initial_state(6.8);
    es::single_lane_system lane(model);
    es::batch_simulator sim(lane, x, options_for(f));
    ASSERT_TRUE(sim.run_until(3.0));
    EXPECT_LT(sim.state_at(0, eh::piezo_transient_model::ix_harvested), 1e-6);
}
