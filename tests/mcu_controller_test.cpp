// Tuning controller (Algorithms 1-3) driven against a scripted plant, on
// a width-1 batch kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numbers>

#include "mcu/tuning_controller.hpp"
#include "sim/batch_simulator.hpp"

namespace em = ehdse::mcu;
namespace eh = ehdse::harvester;
namespace es = ehdse::sim;

namespace {

class null_system final : public es::analog_system {
public:
    std::size_t state_size() const override { return 1; }
    void derivatives(double, std::span<const double>,
                     std::span<double> dxdt) const override {
        dxdt[0] = 0.0;
    }
};

/// Plant whose phase response is consistent with the tuning table:
/// time offset = slope * (f_vib - f_r(position)).
class scripted_plant final : public eh::plant {
public:
    explicit scripted_plant(const eh::tuning_table& table) : table_(table) {}

    double voltage = 2.9;
    double freq = 69.0;
    int pos = 0;
    std::map<std::string, double> withdrawals;
    double offset_slope_s_per_hz = 300e-6;

    double storage_voltage() const override { return voltage; }
    void withdraw(double joules, const std::string& account) override {
        withdrawals[account] += joules;
    }
    void set_sustained_draw(const std::string&, double) override {}
    int position() const override { return pos; }
    void set_position(int p) override { pos = p; }
    double vibration_frequency() const override { return freq; }
    double phase_lag() const override {
        const double detune = freq - table_.frequency_at(pos);
        return std::numbers::pi / 2.0 +
               offset_slope_s_per_hz * detune * 2.0 * std::numbers::pi * freq;
    }

    double total_withdrawn() const {
        double acc = 0.0;
        for (const auto& [k, v] : withdrawals) acc += v;
        return acc;
    }

private:
    const eh::tuning_table& table_;
};

struct fixture {
    eh::microgenerator gen;
    eh::tuning_table table{gen};
    null_system sys;
    es::single_lane_system kernel{sys};
    es::batch_simulator sim{kernel, {0.0}};
    es::sim_context& lane = sim.lane(0);
};

}  // namespace

TEST(Controller, WatchdogCadence) {
    fixture f;
    es::sim_context& sim = f.lane;
    scripted_plant plant(f.table);
    plant.pos = f.table.lookup(69.0);  // already tuned: wakes stay cheap
    em::controller_params params;
    params.watchdog_period_s = 100.0;
    em::tuning_controller ctl(sim, plant, f.table, params);
    ASSERT_TRUE(f.sim.run_until(1000.0));
    // 10 periods fit in the horizon; each wake's ~130 ms measurement delays
    // the next sleep slightly, so the final wake may fall just past it.
    EXPECT_GE(ctl.stats().wakeups, 9u);
    EXPECT_LE(ctl.stats().wakeups, 10u);
}

TEST(Controller, SkipsWhenStoreBelowActuatorMinimum) {
    fixture f;
    es::sim_context& sim = f.lane;
    scripted_plant plant(f.table);
    plant.voltage = 2.5;  // below the 2.6 V actuator gate
    em::controller_params params;
    params.watchdog_period_s = 50.0;
    em::tuning_controller ctl(sim, plant, f.table, params);
    ASSERT_TRUE(f.sim.run_until(500.0));
    EXPECT_EQ(ctl.stats().low_energy_skips, ctl.stats().wakeups);
    EXPECT_EQ(ctl.stats().measurements, 0u);
    EXPECT_EQ(ctl.stats().coarse_tunings, 0u);
}

TEST(Controller, CoarseTunesTowardsLookupTarget) {
    fixture f;
    es::sim_context& sim = f.lane;
    scripted_plant plant(f.table);
    plant.freq = 74.0;
    plant.pos = 0;  // far from the 74 Hz position
    em::controller_params params;
    params.watchdog_period_s = 60.0;
    params.mcu.clock_hz = 8e6;  // accurate measurement
    em::tuning_controller ctl(sim, plant, f.table, params);
    ASSERT_TRUE(f.sim.run_until(300.0));
    EXPECT_GE(ctl.stats().coarse_tunings, 1u);
    EXPECT_GT(ctl.stats().coarse_steps, 50u);
    const int target = f.table.lookup(74.0);
    EXPECT_NEAR(plant.pos, target, 3);
}

TEST(Controller, DeadbandSuppressesSmallCorrections) {
    fixture f;
    es::sim_context& sim = f.lane;
    scripted_plant plant(f.table);
    plant.freq = 69.0;
    plant.pos = f.table.lookup(69.0) + 2;  // within the default deadband of 2
    em::controller_params params;
    params.watchdog_period_s = 50.0;
    params.mcu.clock_hz = 8e6;
    em::tuning_controller ctl(sim, plant, f.table, params);
    ASSERT_TRUE(f.sim.run_until(500.0));
    EXPECT_EQ(ctl.stats().coarse_tunings, 0u);
    EXPECT_EQ(ctl.stats().position_matches, ctl.stats().measurements);
}

TEST(Controller, ChargesEnergyToExpectedAccounts) {
    fixture f;
    es::sim_context& sim = f.lane;
    scripted_plant plant(f.table);
    plant.freq = 74.0;
    plant.pos = 0;
    em::controller_params params;
    params.watchdog_period_s = 60.0;
    em::tuning_controller ctl(sim, plant, f.table, params);
    ASSERT_TRUE(f.sim.run_until(200.0));
    EXPECT_GT(plant.withdrawals["mcu.wake_check"], 0.0);
    EXPECT_GT(plant.withdrawals["mcu.measure"], 0.0);
    EXPECT_GT(plant.withdrawals["actuator.coarse"], 0.0);
    // A ~120-step coarse move at ~2 mJ/step dominates the budget.
    EXPECT_GT(plant.withdrawals["actuator.coarse"], 0.1e-3 * 100);
}

TEST(Controller, FineTuningRunsAfterCoarse) {
    fixture f;
    es::sim_context& sim = f.lane;
    scripted_plant plant(f.table);
    plant.freq = 74.0;
    plant.pos = 0;
    em::controller_params params;
    params.watchdog_period_s = 60.0;
    params.mcu.clock_hz = 8e6;
    em::tuning_controller ctl(sim, plant, f.table, params);
    ASSERT_TRUE(f.sim.run_until(300.0));
    EXPECT_GE(ctl.stats().fine_iterations, 1u);
    EXPECT_GT(plant.withdrawals["accelerometer"], 0.0);
    EXPECT_GT(plant.withdrawals["mcu.fine"], 0.0);
}

TEST(Controller, DisabledModeNeverTouchesPlant) {
    fixture f;
    es::sim_context& sim = f.lane;
    scripted_plant plant(f.table);
    plant.freq = 74.0;
    plant.pos = 0;
    em::controller_params params;
    params.mode = em::tuning_mode::disabled;
    params.watchdog_period_s = 50.0;
    em::tuning_controller ctl(sim, plant, f.table, params);
    ASSERT_TRUE(f.sim.run_until(500.0));
    EXPECT_GT(ctl.stats().wakeups, 0u);
    EXPECT_EQ(ctl.stats().measurements, 0u);
    EXPECT_EQ(plant.pos, 0);
    EXPECT_DOUBLE_EQ(plant.total_withdrawn(), 0.0);
}

TEST(Controller, CoarseOnlySkipsFine) {
    fixture f;
    es::sim_context& sim = f.lane;
    scripted_plant plant(f.table);
    plant.freq = 74.0;
    plant.pos = 0;
    em::controller_params params;
    params.mode = em::tuning_mode::coarse_only;
    params.watchdog_period_s = 60.0;
    em::tuning_controller ctl(sim, plant, f.table, params);
    ASSERT_TRUE(f.sim.run_until(300.0));
    EXPECT_GE(ctl.stats().coarse_tunings, 1u);
    EXPECT_EQ(ctl.stats().fine_iterations, 0u);
    EXPECT_EQ(plant.withdrawals.count("accelerometer"), 0u);
}

TEST(Controller, FineOnlyWalksWithoutCoarse) {
    fixture f;
    es::sim_context& sim = f.lane;
    scripted_plant plant(f.table);
    plant.freq = 69.0;
    // Start far enough off that the true phase offset (~0.066 Hz/step *
    // 300 us/Hz) clearly exceeds the 100 us convergence threshold.
    const int start = f.table.lookup(69.0) - 12;
    plant.pos = start;
    em::controller_params params;
    params.mode = em::tuning_mode::fine_only;
    params.watchdog_period_s = 60.0;
    params.mcu.clock_hz = 8e6;
    em::tuning_controller ctl(sim, plant, f.table, params);
    ASSERT_TRUE(f.sim.run_until(600.0));
    EXPECT_EQ(ctl.stats().coarse_tunings, 0u);
    EXPECT_GE(ctl.stats().fine_iterations, 1u);
    EXPECT_GT(ctl.stats().fine_steps, 0u);
    // The walk moves towards (not away from) the optimum.
    EXPECT_GT(plant.pos, start);
}

TEST(Controller, AccurateClockConvergesFineTuning) {
    fixture f;
    es::sim_context& sim = f.lane;
    scripted_plant plant(f.table);
    plant.freq = 74.0;
    plant.pos = 0;
    em::controller_params params;
    params.watchdog_period_s = 60.0;
    params.mcu.clock_hz = 8e6;  // phase noise ~4 us << 100 us threshold
    em::tuning_controller ctl(sim, plant, f.table, params);
    ASSERT_TRUE(f.sim.run_until(600.0));
    EXPECT_GE(ctl.stats().fine_converged, 1u);
}

TEST(Controller, InvalidParamsThrow) {
    fixture f;
    es::sim_context& sim = f.lane;
    scripted_plant plant(f.table);
    em::controller_params params;
    params.watchdog_period_s = 0.0;
    EXPECT_THROW(em::tuning_controller(sim, plant, f.table, params),
                 std::invalid_argument);
    params = {};
    params.phase_threshold_s = 0.0;
    EXPECT_THROW(em::tuning_controller(sim, plant, f.table, params),
                 std::invalid_argument);
    params = {};
    params.settle_time_s = -1.0;
    EXPECT_THROW(em::tuning_controller(sim, plant, f.table, params),
                 std::invalid_argument);
}
