// SoA batch kernel units: masked per-lane RK45 stepping, per-lane event
// queues, watch ranges, failure containment, and lane independence. A
// per-lane exponential decay dx/dt = -k[l] x gives every test a closed
// form to check against.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/batch_ode.hpp"
#include "sim/batch_simulator.hpp"

namespace {

using ehdse::sim::batch_analog_system;
using ehdse::sim::batch_rk45_integrator;
using ehdse::sim::batch_simulator;
using ehdse::sim::batch_state;
using ehdse::sim::lane_step;

/// B lanes of dx/dt = -k[lane] * x: exact solution x0 * exp(-k t).
class decay_batch final : public batch_analog_system {
public:
    explicit decay_batch(std::vector<double> k) : k_(std::move(k)) {}

    std::size_t state_size() const override { return 1; }
    std::size_t lanes() const override { return k_.size(); }
    void derivatives(std::span<const double> /*t*/, const batch_state& x,
                     batch_state& dxdt) const override {
        const double* xv = x.var(0);
        double* d = dxdt.var(0);
        for (std::size_t l = 0; l < k_.size(); ++l) d[l] = -k_[l] * xv[l];
    }

private:
    std::vector<double> k_;
};

TEST(BatchState, LaneRoundTripAndRowLayout) {
    batch_state s(3, 4);
    EXPECT_EQ(s.vars(), 3u);
    EXPECT_EQ(s.lanes(), 4u);
    const std::vector<double> lane2 = {1.5, -2.0, 7.25};
    s.set_lane(2, lane2);
    EXPECT_EQ(s.lane_state(2), lane2);
    // Rows are lane-contiguous: var(v)[lane] is the storage contract the
    // vectorised inner loops rely on.
    EXPECT_DOUBLE_EQ(s.var(1)[2], -2.0);
    s.var(1)[2] = 9.0;
    EXPECT_DOUBLE_EQ(s.at(1, 2), 9.0);
    // Untouched lanes stay zero-initialised.
    EXPECT_DOUBLE_EQ(s.at(0, 0), 0.0);
}

TEST(BatchRk45, MatchesClosedFormPerLane) {
    const std::vector<double> k = {0.5, 1.0, 2.0, 4.0};
    decay_batch sys(k);
    batch_rk45_integrator integ(1, k.size());

    batch_state x(1, k.size());
    for (std::size_t l = 0; l < k.size(); ++l) x.set(0, l, 1.0);
    std::vector<double> t(k.size(), 0.0);
    const std::vector<double> target(k.size(), 1.0);
    std::vector<lane_step> outcome(k.size());

    while (integ.step_once(sys, t, target, x, outcome) > 0) {
    }
    for (std::size_t l = 0; l < k.size(); ++l) {
        EXPECT_DOUBLE_EQ(t[l], 1.0) << "lane " << l;
        EXPECT_NEAR(x.at(0, l), std::exp(-k[l]), 1e-6) << "lane " << l;
        EXPECT_GT(integ.steps_taken(l), 0u) << "lane " << l;
        EXPECT_GT(integ.last_dt(l), 0.0) << "lane " << l;
    }
}

TEST(BatchRk45, MaskedSteppingLeavesArrivedLanesAlone) {
    const std::vector<double> k = {1.0, 1.0, 1.0};
    decay_batch sys(k);
    batch_rk45_integrator integ(1, k.size());

    batch_state x(1, k.size());
    for (std::size_t l = 0; l < k.size(); ++l) x.set(0, l, 1.0);
    // Lane 1 is already at its target; only lanes 0 and 2 may move.
    std::vector<double> t = {0.0, 0.5, 0.0};
    const std::vector<double> target = {1.0, 0.5, 1.0};
    std::vector<lane_step> outcome(k.size());

    const std::size_t attempted = integ.step_once(sys, t, target, x, outcome);
    EXPECT_EQ(attempted, 2u);
    EXPECT_EQ(outcome[1], lane_step::idle);
    EXPECT_DOUBLE_EQ(t[1], 0.5);
    EXPECT_DOUBLE_EQ(x.at(0, 1), 1.0);
    EXPECT_EQ(integ.steps_taken(1), 0u);

    while (integ.step_once(sys, t, target, x, outcome) > 0) {
    }
    EXPECT_NEAR(x.at(0, 0), std::exp(-1.0), 1e-6);
    EXPECT_NEAR(x.at(0, 2), std::exp(-1.0), 1e-6);
}

TEST(BatchSimulator, PerLaneEventQueuesFireAtExactTimes) {
    const std::vector<double> k = {1.0, 2.0};
    decay_batch sys(k);
    batch_simulator sim(sys, {1.0});

    // Each lane samples its own state at a lane-specific time; the kernel
    // contract is that integration stops exactly on the event time.
    std::vector<double> sampled(k.size(), -1.0);
    std::vector<double> sampled_at(k.size(), -1.0);
    for (std::size_t l = 0; l < k.size(); ++l) {
        const double when = 0.25 * static_cast<double>(l + 1);
        sim.lane(l).at(when, [&, l, when] {
            sampled[l] = sim.lane(l).state_at(0);
            sampled_at[l] = sim.lane(l).now();
            (void)when;
        });
    }
    EXPECT_TRUE(sim.run_until(1.0));
    for (std::size_t l = 0; l < k.size(); ++l) {
        const double when = 0.25 * static_cast<double>(l + 1);
        EXPECT_DOUBLE_EQ(sampled_at[l], when) << "lane " << l;
        EXPECT_NEAR(sampled[l], std::exp(-k[l] * when), 1e-6) << "lane " << l;
        EXPECT_EQ(sim.lane_events(l), 1u) << "lane " << l;
        EXPECT_DOUBLE_EQ(sim.now(l), 1.0) << "lane " << l;
        EXPECT_TRUE(sim.lane_ok(l)) << "lane " << l;
    }
}

TEST(BatchSimulator, EventsCanRescheduleAndPerturbTheirOwnLane) {
    decay_batch sys({1.0, 1.0});
    batch_simulator sim(sys, {1.0});

    // Lane 0: a self-rescheduling process that resets x to 1 every 0.2 s —
    // the batch equivalent of a digital controller kicking the analogue
    // state. Lane 1 decays undisturbed.
    int fires = 0;
    std::function<void()> kick = [&] {
        sim.lane(0).set_state(0, 1.0);
        ++fires;
        if (fires < 4) sim.lane(0).after(0.2, kick);
    };
    sim.lane(0).after(0.2, kick);

    EXPECT_TRUE(sim.run_until(1.0));
    EXPECT_EQ(fires, 4);
    EXPECT_EQ(sim.lane_events(0), 4u);
    EXPECT_EQ(sim.lane_events(1), 0u);
    // Lane 0 last reset at t=0.8, so it decayed only 0.2 s.
    EXPECT_NEAR(sim.state_at(0, 0), std::exp(-0.2), 1e-6);
    EXPECT_NEAR(sim.state_at(1, 0), std::exp(-1.0), 1e-6);
}

TEST(BatchSimulator, WatchRangeTracksPerLaneExtremes) {
    decay_batch sys({1.0, 1.0});
    batch_simulator sim(sys, {1.0});
    // Per-lane running extremes through the step observer, seeded from
    // the initial state (how the evaluator tracks the store voltage).
    std::vector<double> lo(2, 1.0), hi(2, 1.0);
    sim.add_step_observer([&](std::size_t l, double) {
        lo[l] = std::min(lo[l], sim.state_at(l, 0));
        hi[l] = std::max(hi[l], sim.state_at(l, 0));
    });

    // Lane 1 gets kicked above its initial value mid-run; the observer
    // must see the kick (event batches notify too, not just ODE steps).
    sim.lane(1).at(0.5, [&] { sim.lane(1).set_state(0, 2.0); });

    EXPECT_TRUE(sim.run_until(1.0));
    EXPECT_NEAR(lo[0], std::exp(-1.0), 1e-6);
    EXPECT_DOUBLE_EQ(hi[0], 1.0);
    EXPECT_DOUBLE_EQ(hi[1], 2.0);
    EXPECT_NEAR(lo[1], std::exp(-0.5), 1e-6);
}

TEST(BatchSimulator, NonFiniteLaneFailsAloneOthersFinish) {
    decay_batch sys({1.0, 1.0, 1.0});
    batch_simulator sim(sys, {1.0});

    sim.lane(1).at(0.5, [&] {
        sim.lane(1).set_state(0, std::numeric_limits<double>::quiet_NaN());
    });

    EXPECT_FALSE(sim.run_until(1.0));
    EXPECT_TRUE(sim.lane_ok(0));
    EXPECT_FALSE(sim.lane_ok(1));
    EXPECT_TRUE(sim.lane_ok(2));
    EXPECT_FALSE(sim.lane_state_finite(1));
    // The failed lane stopped where it broke; the healthy lanes reached
    // t_end with the exact closed-form answer.
    EXPECT_DOUBLE_EQ(sim.now(1), 0.5);
    for (const std::size_t l : {std::size_t{0}, std::size_t{2}}) {
        EXPECT_DOUBLE_EQ(sim.now(l), 1.0);
        EXPECT_NEAR(sim.state_at(l, 0), std::exp(-1.0), 1e-6);
    }
}

TEST(BatchSimulator, LanesAreIndependentOfBatchComposition) {
    // The same lane run alone and inside a wider batch must be bitwise
    // identical — trajectory, step counts, event count.
    const double k_probe = 1.3;

    const auto run = [&](std::vector<double> rates, std::size_t probe) {
        decay_batch sys(std::move(rates));
        batch_simulator sim(sys, {1.0});
        sim.lane(probe).at(0.4, [&sim, probe] {
            sim.lane(probe).set_state(0, sim.lane(probe).state_at(0) + 0.5);
        });
        EXPECT_TRUE(sim.run_until(1.0));
        return std::tuple{sim.state_at(probe, 0), sim.lane_steps(probe),
                          sim.lane_events(probe)};
    };

    const auto alone = run({k_probe}, 0);
    const auto batched = run({0.3, k_probe, 2.7, 5.1}, 1);
    EXPECT_EQ(alone, batched);
}

}  // namespace
