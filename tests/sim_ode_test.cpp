// Integrator accuracy against closed forms, across tolerance sweeps. The
// adaptive RK45 cases run a scalar system on the batch kernel at width 1
// (single_lane_system), the way every ehdse run integrates.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <numbers>

#include "sim/batch_simulator.hpp"
#include "sim/ode.hpp"

namespace es = ehdse::sim;

namespace {

/// dx/dt = -k x, solution x(t) = x0 exp(-k t).
es::functional_system exp_decay(double k) {
    return es::functional_system(
        1, [k](double, std::span<const double> x, std::span<double> dxdt) {
            dxdt[0] = -k * x[0];
        });
}

/// Harmonic oscillator x'' = -w^2 x as a 2-state system.
es::functional_system oscillator(double w) {
    return es::functional_system(
        2, [w](double, std::span<const double> x, std::span<double> dxdt) {
            dxdt[0] = x[1];
            dxdt[1] = -w * w * x[0];
        });
}

/// One width-1 kernel run of `sys` from x0 over [0, t1].
struct rk45_run {
    bool ok = false;
    std::vector<double> x;
    std::size_t steps = 0;
};

rk45_run integrate(const es::analog_system& sys, std::vector<double> x0, double t1,
                   es::ode_options opt = {},
                   const std::function<void(double)>& observer = {}) {
    es::single_lane_system lane(sys);
    es::batch_simulator sim(lane, std::move(x0), opt);
    if (observer) sim.add_step_observer([&](std::size_t, double t) { observer(t); });
    rk45_run r;
    r.ok = sim.run_until(t1);
    for (std::size_t v = 0; v < sys.state_size(); ++v) r.x.push_back(sim.state_at(0, v));
    r.steps = sim.lane_steps(0);
    return r;
}

}  // namespace

TEST(Rk4, ExponentialDecaySingleStepOrder) {
    const auto sys = exp_decay(1.0);
    // Error of one RK4 step scales as dt^5.
    double prev_err = 0.0;
    for (int i = 0; i < 2; ++i) {
        const double dt = i == 0 ? 0.1 : 0.05;
        std::vector<double> x{1.0};
        es::rk4_step(sys, 0.0, dt, x);
        const double err = std::abs(x[0] - std::exp(-dt));
        if (i == 0)
            prev_err = err;
        else
            EXPECT_LT(err, prev_err / 16.0);  // at least 4th-order convergence
    }
}

TEST(FixedIntegration, MatchesClosedForm) {
    const auto sys = exp_decay(2.0);
    std::vector<double> x{3.0};
    es::integrate_fixed(sys, 0.0, 1.0, 1e-3, x);
    EXPECT_NEAR(x[0], 3.0 * std::exp(-2.0), 1e-8);
}

TEST(FixedIntegration, BadDtThrows) {
    const auto sys = exp_decay(1.0);
    std::vector<double> x{1.0};
    EXPECT_THROW(es::integrate_fixed(sys, 0.0, 1.0, 0.0, x), std::invalid_argument);
}

TEST(Rk45, ExponentialDecayWithinTolerance) {
    const auto sys = exp_decay(1.0);
    es::ode_options opt;
    opt.abs_tol = 1e-10;
    opt.rel_tol = 1e-8;
    const rk45_run r = integrate(sys, {1.0}, 5.0, opt);
    EXPECT_TRUE(r.ok);
    EXPECT_NEAR(r.x[0], std::exp(-5.0), 1e-7);
}

TEST(Rk45, OscillatorEnergyConserved) {
    const double w = 2.0 * std::numbers::pi;
    const auto sys = oscillator(w);
    es::ode_options opt;
    opt.abs_tol = 1e-11;
    opt.rel_tol = 1e-9;
    const rk45_run r = integrate(sys, {1.0, 0.0}, 10.0, opt);
    ASSERT_TRUE(r.ok);
    const double energy = w * w * r.x[0] * r.x[0] + r.x[1] * r.x[1];
    EXPECT_NEAR(energy, w * w, w * w * 1e-6);
}

TEST(Rk45, ObserverSeesMonotoneTime) {
    const auto sys = exp_decay(1.0);
    double last_t = 0.0;
    std::size_t calls = 0;
    ASSERT_TRUE(integrate(sys, {1.0}, 1.0, {}, [&](double t) {
                    EXPECT_GT(t, last_t);
                    last_t = t;
                    ++calls;
                }).ok);
    EXPECT_GT(calls, 0u);
    EXPECT_DOUBLE_EQ(last_t, 1.0);
}

TEST(Rk45, SegmentedIntegrationMatchesSingleSegment) {
    const auto sys = exp_decay(1.5);
    const rk45_run a = integrate(sys, {2.0}, 2.0);
    ASSERT_TRUE(a.ok);
    // Same span in many short segments, as between digital events.
    es::single_lane_system lane(sys);
    es::batch_simulator b(lane, {2.0});
    double t = 0.0;
    while (t < 2.0) {
        t = std::min(t + 0.05, 2.0);
        ASSERT_TRUE(b.run_until(t));
    }
    EXPECT_NEAR(a.x[0], b.state_at(0, 0), 1e-7);
}

TEST(Rk45, RejectsBackwardSpanAndBadState) {
    const auto sys = exp_decay(1.0);
    es::single_lane_system lane(sys);
    es::batch_simulator sim(lane, {1.0});
    ASSERT_TRUE(sim.run_until(1.0));
    EXPECT_THROW(sim.run_until(0.0), std::invalid_argument);
    EXPECT_THROW(es::batch_simulator(lane, {1.0, 2.0}), std::invalid_argument);
}

TEST(Rk45, MaxDtHonoured) {
    const auto sys = exp_decay(0.01);  // nearly constant: steps would grow huge
    es::ode_options opt;
    opt.max_dt = 0.125;
    const rk45_run r = integrate(sys, {1.0}, 10.0, opt);
    EXPECT_TRUE(r.ok);
    EXPECT_GE(r.steps, static_cast<std::size_t>(10.0 / 0.125));
}

// ---------------------------------------------------------------------------
// Tolerance sweep: tighter tolerances must give monotonically better accuracy.

class Rk45ToleranceSweep : public ::testing::TestWithParam<double> {};

TEST_P(Rk45ToleranceSweep, DecayErrorBoundedByTolerance) {
    const double tol = GetParam();
    const auto sys = exp_decay(1.0);
    es::ode_options opt;
    opt.abs_tol = tol;
    opt.rel_tol = tol;
    const rk45_run r = integrate(sys, {1.0}, 3.0, opt);
    ASSERT_TRUE(r.ok);
    // Global error is bounded by a modest multiple of the per-step tolerance.
    EXPECT_NEAR(r.x[0], std::exp(-3.0), 1e4 * tol + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Tolerances, Rk45ToleranceSweep,
                         ::testing::Values(1e-4, 1e-6, 1e-8, 1e-10));
