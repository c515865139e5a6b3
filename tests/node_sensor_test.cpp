// Sensor node: Table III energy model, eq. 8 equivalent resistances, and
// the Table II voltage-banded policy on a scripted plant, on a width-1
// batch kernel.
#include <gtest/gtest.h>

#include <cmath>

#include "node/sensor_node.hpp"
#include "sim/batch_simulator.hpp"

namespace enode = ehdse::node;
namespace es = ehdse::sim;

namespace {

/// Plant stub with a settable voltage and withdrawal log.
class scripted_plant final : public ehdse::harvester::plant {
public:
    double voltage = 2.9;
    double withdrawn = 0.0;
    int withdraw_calls = 0;
    double sustained_amps = 0.0;

    double storage_voltage() const override { return voltage; }
    void withdraw(double joules, const std::string&) override {
        withdrawn += joules;
        ++withdraw_calls;
    }
    void set_sustained_draw(const std::string&, double amps) override {
        sustained_amps = amps;
    }
    int position() const override { return 0; }
    void set_position(int) override {}
    double vibration_frequency() const override { return 64.0; }
    double phase_lag() const override { return 1.5707963; }
};

/// Trivial analogue system (the node tests exercise only the digital side).
class null_system final : public es::analog_system {
public:
    std::size_t state_size() const override { return 1; }
    void derivatives(double, std::span<const double>,
                     std::span<double> dxdt) const override {
        dxdt[0] = 0.0;
    }
};

/// null_system on a width-1 kernel; `lane` hosts the node.
struct null_kernel {
    null_system sys;
    es::single_lane_system adapter{sys};
    es::batch_simulator sim{adapter, {0.0}};
    es::sim_context& lane = sim.lane(0);
};

}  // namespace

TEST(NodeEnergyModel, PaperTable3Figures) {
    const auto m = enode::derive_energy_model(enode::node_params{});
    EXPECT_NEAR(m.active_time_s, 4.5e-3, 1e-12);                 // 4.5 ms burst
    EXPECT_NEAR(m.charge_per_tx_c, 78.2e-6, 1e-9);               // 78.2 uC
    EXPECT_NEAR(m.energy_per_tx_j, 219e-6, 3e-6);                // ~227 uJ in the paper
    EXPECT_NEAR(m.r_transmit_ohm, 161.0, 2.0);                   // paper: 167 ohm
    EXPECT_NEAR(m.r_sleep_ohm, 5.6e6, 0.3e6);                    // paper: 5.8 Mohm
}

TEST(Node, RegistersSleepDrawOnConstruction) {
    null_kernel k;
    es::sim_context& sim = k.lane;
    scripted_plant plant;
    enode::sensor_node node(sim, plant);
    EXPECT_DOUBLE_EQ(plant.sustained_amps, 0.5e-6);
}

TEST(Node, FastBandTransmitsAtConfiguredInterval) {
    null_kernel k;
    es::sim_context& sim = k.lane;
    scripted_plant plant;
    plant.voltage = 2.9;  // above 2.8: fast band
    enode::node_params params;
    params.fast_interval_s = 2.0;
    enode::sensor_node node(sim, plant, params);
    ASSERT_TRUE(k.sim.run_until(10.5));
    // Wakes at t = 0, 2, 4, 6, 8, 10.
    EXPECT_EQ(node.transmissions(), 6u);
    EXPECT_EQ(node.low_band_transmissions(), 0u);
    EXPECT_EQ(plant.withdraw_calls, 6);
}

TEST(Node, LowBandTransmitsEveryMinute) {
    null_kernel k;
    es::sim_context& sim = k.lane;
    scripted_plant plant;
    plant.voltage = 2.75;  // Table II row 2
    enode::sensor_node node(sim, plant);
    ASSERT_TRUE(k.sim.run_until(180.5));
    EXPECT_EQ(node.transmissions(), 4u);  // t = 0, 60, 120, 180
    EXPECT_EQ(node.low_band_transmissions(), 4u);
}

TEST(Node, BelowCutoffNeverTransmits) {
    null_kernel k;
    es::sim_context& sim = k.lane;
    scripted_plant plant;
    plant.voltage = 2.65;  // Table II row 1
    enode::sensor_node node(sim, plant);
    ASSERT_TRUE(k.sim.run_until(300.0));
    EXPECT_EQ(node.transmissions(), 0u);
    EXPECT_GT(node.suppressed_wakeups(), 0u);
    EXPECT_DOUBLE_EQ(plant.withdrawn, 0.0);
}

TEST(Node, PolicyFollowsVoltageChanges) {
    null_kernel k;
    es::sim_context& sim = k.lane;
    scripted_plant plant;
    plant.voltage = 2.9;
    enode::node_params params;
    params.fast_interval_s = 1.0;
    enode::sensor_node node(sim, plant, params);
    // 10 s fast, then drop below cutoff.
    ASSERT_TRUE(k.sim.run_until(10.5));
    const auto fast_count = node.transmissions();
    EXPECT_EQ(fast_count, 11u);  // t=0..10
    plant.voltage = 2.5;
    ASSERT_TRUE(k.sim.run_until(70.0));
    EXPECT_EQ(node.transmissions(), fast_count);  // nothing while starved
    plant.voltage = 2.9;
    ASSERT_TRUE(k.sim.run_until(200.0));
    EXPECT_GT(node.transmissions(), fast_count + 100u);  // resumed at 1 Hz
}

TEST(Node, BurstEnergyScalesWithVoltage) {
    null_kernel k;
    es::sim_context& sim = k.lane;
    scripted_plant plant;
    enode::sensor_node node(sim, plant);
    const double e28 = node.burst_energy_at(2.8);
    EXPECT_NEAR(e28, 78.2e-6 * 2.8, 1e-8);
    EXPECT_NEAR(node.burst_energy_at(3.0) / e28, 3.0 / 2.8, 1e-12);
}

TEST(Node, TinyIntervalClampedToBurstDuration) {
    null_kernel k;
    es::sim_context& sim = k.lane;
    scripted_plant plant;
    plant.voltage = 2.9;
    enode::node_params params;
    params.fast_interval_s = 1e-4;  // shorter than the 4.5 ms burst
    enode::sensor_node node(sim, plant, params);
    ASSERT_TRUE(k.sim.run_until(1.0));
    // Bursts cannot overlap: at most one per 4.5 ms.
    EXPECT_LE(node.transmissions(), static_cast<std::uint64_t>(1.0 / 4.5e-3) + 2);
    EXPECT_GT(node.transmissions(), 200u);
}

TEST(Node, TelemetryLogsOnePacketPerTransmission) {
    null_kernel k;
    es::sim_context& sim = k.lane;
    scripted_plant plant;
    plant.voltage = 2.9;
    enode::node_params params;
    params.fast_interval_s = 2.0;
    enode::sensor_node node(sim, plant, params);
    node.enable_telemetry([](double t) { return 20.0 + t; });
    ASSERT_TRUE(k.sim.run_until(10.5));
    ASSERT_EQ(node.telemetry().size(), node.transmissions());
    for (const auto& pkt : node.telemetry()) {
        EXPECT_NEAR(pkt.temperature_c, 20.0 + pkt.time_s, 1e-9);
        EXPECT_DOUBLE_EQ(pkt.supercap_v, 2.9);
    }
    EXPECT_DOUBLE_EQ(node.telemetry()[1].time_s, 2.0);
}

TEST(Node, TelemetryRingBufferKeepsNewest) {
    null_kernel k;
    es::sim_context& sim = k.lane;
    scripted_plant plant;
    plant.voltage = 2.9;
    enode::node_params params;
    params.fast_interval_s = 1.0;
    enode::sensor_node node(sim, plant, params);
    node.enable_telemetry([](double) { return 0.0; }, 5);
    ASSERT_TRUE(k.sim.run_until(20.0));
    ASSERT_EQ(node.telemetry().size(), 5u);
    EXPECT_DOUBLE_EQ(node.telemetry().back().time_s, 20.0);
    EXPECT_DOUBLE_EQ(node.telemetry().front().time_s, 16.0);
}

TEST(Node, TelemetryValidation) {
    null_kernel k;
    es::sim_context& sim = k.lane;
    scripted_plant plant;
    enode::sensor_node node(sim, plant);
    EXPECT_THROW(node.enable_telemetry(nullptr), std::invalid_argument);
    EXPECT_THROW(node.enable_telemetry([](double) { return 0.0; }, 0),
                 std::invalid_argument);
    EXPECT_TRUE(node.telemetry().empty());
}

TEST(Node, InvalidParamsThrow) {
    null_kernel k;
    es::sim_context& sim = k.lane;
    scripted_plant plant;
    enode::node_params p;
    p.fast_interval_s = 0.0;
    EXPECT_THROW(enode::sensor_node(sim, plant, p), std::invalid_argument);
    p = {};
    p.cutoff_voltage_v = 2.9;  // above the low band edge
    EXPECT_THROW(enode::sensor_node(sim, plant, p), std::invalid_argument);
}
