// Mixed-signal coordination: analogue integration stopping exactly at
// digital events, state perturbation by events, process wake semantics,
// and waveform tracing — on the batch kernel at width 1, one scalar
// system behind single_lane_system.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/batch_simulator.hpp"
#include "sim/trace.hpp"

namespace es = ehdse::sim;

namespace {

/// dx/dt = rate (integrator ramp), rate adjustable by digital events.
class ramp_system final : public es::analog_system {
public:
    std::size_t state_size() const override { return 1; }
    void derivatives(double, std::span<const double>,
                     std::span<double> dxdt) const override {
        dxdt[0] = rate;
    }
    double rate = 1.0;
};

/// ramp_system from x = 0 on a width-1 kernel; `ctx` is its one lane.
struct ramp_rig {
    ramp_system sys;
    es::single_lane_system lane{sys};
    es::batch_simulator sim{lane, {0.0}};
    es::sim_context& ctx = sim.lane(0);
};

}  // namespace

TEST(Simulator, PureAnalogRun) {
    ramp_rig r;
    ASSERT_TRUE(r.sim.run_until(2.0));
    EXPECT_NEAR(r.ctx.state_at(0), 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(r.ctx.now(), 2.0);
}

TEST(Simulator, EventChangesAnalogInput) {
    ramp_rig r;
    r.ctx.at(1.0, [&] { r.sys.rate = 3.0; });
    ASSERT_TRUE(r.sim.run_until(2.0));
    // 1 s at rate 1 plus 1 s at rate 3.
    EXPECT_NEAR(r.ctx.state_at(0), 4.0, 1e-8);
}

TEST(Simulator, EventReadsConsistentAnalogState) {
    ramp_rig r;
    double observed = -1.0;
    r.ctx.at(1.5, [&] { observed = r.ctx.state_at(0); });
    ASSERT_TRUE(r.sim.run_until(3.0));
    EXPECT_NEAR(observed, 1.5, 1e-8);
}

TEST(Simulator, EventPerturbsState) {
    ramp_rig r;
    r.ctx.at(1.0, [&] { r.ctx.set_state(0, r.ctx.state_at(0) - 0.5); });
    ASSERT_TRUE(r.sim.run_until(2.0));
    EXPECT_NEAR(r.ctx.state_at(0), 1.5, 1e-8);
}

TEST(Simulator, SchedulingInPastThrows) {
    ramp_rig r;
    ASSERT_TRUE(r.sim.run_until(1.0));
    EXPECT_THROW(r.ctx.at(0.5, [] {}), std::invalid_argument);
    EXPECT_THROW(r.ctx.after(-1.0, [] {}), std::invalid_argument);
    EXPECT_THROW(r.sim.run_until(0.5), std::invalid_argument);
}

TEST(Simulator, InitialStateSizeMismatchThrows) {
    ramp_system sys;
    es::single_lane_system lane(sys);
    EXPECT_THROW(es::batch_simulator(lane, {0.0, 0.0}), std::invalid_argument);
}

TEST(Simulator, CascadedEventsWithinHorizon) {
    ramp_rig r;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5) r.ctx.after(0.1, chain);
    };
    r.ctx.after(0.1, chain);
    ASSERT_TRUE(r.sim.run_until(1.0));
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(r.sim.lane_events(0), 5u);
}

namespace {

class counting_process final : public es::process {
public:
    counting_process(es::sim_context& sim, double period)
        : es::process(sim), period_(period) {
        wake_after(period_);
    }
    int activations = 0;

private:
    void activate() override {
        ++activations;
        wake_after(period_);
    }
    double period_;
};

class reschedule_process final : public es::process {
public:
    explicit reschedule_process(es::sim_context& sim) : es::process(sim) {
        wake_after(10.0);  // will be replaced
        wake_after(1.0);   // replaces the pending wake
    }
    std::vector<double> activation_times;

private:
    void activate() override { activation_times.push_back(sim().now()); }
};

}  // namespace

TEST(Process, PeriodicActivation) {
    ramp_rig r;
    counting_process proc(r.ctx, 0.25);
    ASSERT_TRUE(r.sim.run_until(1.0));
    EXPECT_EQ(proc.activations, 4);
}

TEST(Process, RescheduleReplacesPendingWake) {
    ramp_rig r;
    reschedule_process proc(r.ctx);
    ASSERT_TRUE(r.sim.run_until(20.0));
    // Only the 1 s wake fires; the 10 s wake was cancelled by replacement.
    ASSERT_EQ(proc.activation_times.size(), 1u);
    EXPECT_DOUBLE_EQ(proc.activation_times[0], 1.0);
}

TEST(Process, CancelWakeStopsActivation) {
    ramp_rig r;

    class cancelling final : public es::process {
    public:
        explicit cancelling(es::sim_context& s) : es::process(s) {
            wake_after(1.0);
            EXPECT_TRUE(wake_pending());
            cancel_wake();
            EXPECT_FALSE(wake_pending());
        }
        bool activated = false;

    private:
        void activate() override { activated = true; }
    } proc(r.ctx);

    ASSERT_TRUE(r.sim.run_until(5.0));
    EXPECT_FALSE(proc.activated);
}

TEST(Trace, RecordsAndInterpolates) {
    es::trace tr("x");
    tr.record(0.0, 0.0);
    tr.record(1.0, 2.0);
    tr.record(2.0, 4.0);
    EXPECT_EQ(tr.size(), 3u);
    EXPECT_DOUBLE_EQ(tr.sample(0.5), 1.0);
    EXPECT_DOUBLE_EQ(tr.sample(-1.0), 0.0);  // clamped
    EXPECT_DOUBLE_EQ(tr.sample(9.0), 4.0);
    EXPECT_DOUBLE_EQ(tr.min_value(), 0.0);
    EXPECT_DOUBLE_EQ(tr.max_value(), 4.0);
    EXPECT_DOUBLE_EQ(tr.last_value(), 4.0);
}

TEST(Trace, MinIntervalThinsSamples) {
    es::trace tr("x", 0.5);
    for (int i = 0; i <= 100; ++i) tr.record(i * 0.01, i);
    EXPECT_LE(tr.size(), 4u);
}

TEST(Trace, SameTimeUpdateReplaces) {
    es::trace tr("x");
    tr.record(1.0, 5.0);
    tr.record(1.0, 7.0);
    EXPECT_EQ(tr.size(), 1u);
    EXPECT_DOUBLE_EQ(tr.last_value(), 7.0);
}

TEST(Trace, BackwardsTimeThrows) {
    es::trace tr("x");
    tr.record(1.0, 1.0);
    EXPECT_THROW(tr.record(0.5, 1.0), std::invalid_argument);
}

TEST(Trace, ObserverIntegrationWithSimulator) {
    ramp_rig r;
    es::trace tr("ramp", 0.0);
    r.sim.add_step_observer([&](std::size_t l, double t) {
        tr.record(t, r.sim.state_at(l, 0));
    });
    ASSERT_TRUE(r.sim.run_until(1.0));
    ASSERT_FALSE(tr.empty());
    EXPECT_NEAR(tr.last_value(), 1.0, 1e-8);
    EXPECT_NEAR(tr.sample(0.5), 0.5, 1e-6);
}
