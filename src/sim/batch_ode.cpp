#include "sim/batch_ode.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ehdse::sim {

void batch_state::set_lane(std::size_t lane, std::span<const double> x) {
    if (x.size() != vars_)
        throw std::invalid_argument("batch_state::set_lane: size mismatch");
    for (std::size_t v = 0; v < vars_; ++v) var(v)[lane] = x[v];
}

std::vector<double> batch_state::lane_state(std::size_t lane) const {
    std::vector<double> x(vars_);
    for (std::size_t v = 0; v < vars_; ++v) x[v] = var(v)[lane];
    return x;
}

namespace {
// Cash–Karp tableau — the same as the scalar integrator's (ode.cpp).
constexpr double a2 = 1.0 / 5.0;
constexpr double a3 = 3.0 / 10.0;
constexpr double a4 = 3.0 / 5.0;
constexpr double a5 = 1.0;
constexpr double a6 = 7.0 / 8.0;

constexpr double b21 = 1.0 / 5.0;
constexpr double b31 = 3.0 / 40.0, b32 = 9.0 / 40.0;
constexpr double b41 = 3.0 / 10.0, b42 = -9.0 / 10.0, b43 = 6.0 / 5.0;
constexpr double b51 = -11.0 / 54.0, b52 = 5.0 / 2.0, b53 = -70.0 / 27.0,
                 b54 = 35.0 / 27.0;
constexpr double b61 = 1631.0 / 55296.0, b62 = 175.0 / 512.0,
                 b63 = 575.0 / 13824.0, b64 = 44275.0 / 110592.0,
                 b65 = 253.0 / 4096.0;

constexpr double c1 = 37.0 / 378.0, c3 = 250.0 / 621.0, c4 = 125.0 / 594.0,
                 c6 = 512.0 / 1771.0;
constexpr double d1 = 2825.0 / 27648.0, d3 = 18575.0 / 48384.0,
                 d4 = 13525.0 / 55296.0, d5 = 277.0 / 14336.0, d6 = 1.0 / 4.0;
}  // namespace

batch_rk45_integrator::batch_rk45_integrator(std::size_t vars,
                                             std::size_t lanes,
                                             ode_options options)
    : vars_(vars),
      lanes_(lanes),
      opt_(options),
      dt_hint_(lanes, 0.0),
      dt_try_(vars * lanes, 0.0),
      stage_t_(lanes, 0.0),
      err_(vars * lanes, 0.0),
      attempt_(lanes, 0),
      failed_(lanes, 0),
      segment_attempts_(lanes, 0),
      steps_taken_(lanes, 0),
      steps_rejected_(lanes, 0),
      k1_(vars, lanes),
      k2_(vars, lanes),
      k3_(vars, lanes),
      k4_(vars, lanes),
      k5_(vars, lanes),
      k6_(vars, lanes),
      xtmp_(vars, lanes),
      x5_(vars, lanes) {
    if (vars == 0 || lanes == 0)
        throw std::invalid_argument("batch_rk45_integrator: empty batch");
}

std::size_t batch_rk45_integrator::step_once(const batch_analog_system& sys,
                                             std::span<double> t,
                                             std::span<const double> target,
                                             batch_state& x,
                                             std::span<lane_step> outcome) {
    const std::size_t B = lanes_;
    if (t.size() != B || target.size() != B || outcome.size() != B ||
        x.lanes() != B || x.vars() != vars_)
        throw std::invalid_argument("batch_rk45_integrator: size mismatch");

    // Build this sweep's attempt mask and per-lane trial steps. An
    // inactive lane gets dt_try = 0, which makes every stage below a
    // no-op for its slots (xtmp == x, stage time == t) without branching
    // inside the vectorised loops.
    std::size_t attempted = 0;
    for (std::size_t l = 0; l < B; ++l) {
        outcome[l] = lane_step::idle;
        const bool active = !failed_[l] && t[l] < target[l];
        attempt_[l] = active ? 1 : 0;
        if (!active) {
            dt_try_[l] = 0.0;
            continue;
        }
        ++attempted;
        double dt = dt_hint_[l] > 0.0 ? dt_hint_[l] : opt_.initial_dt;
        dt = std::min(dt, opt_.max_dt);
        dt = std::min(dt, target[l] - t[l]);
        dt_try_[l] = dt;
    }
    if (attempted == 0) return 0;
    // Every variable row carries its lane's dt, so each stage combination
    // below is ONE flat loop over all vars * lanes values — per-sweep loop
    // overhead independent of the state size, which dominates at narrow
    // widths.
    const std::size_t n = vars_ * B;
    double* h = dt_try_.data();
    for (std::size_t i = B; i < n; ++i) h[i] = h[i - B];

    const auto stage = [&](const batch_state& from, double frac,
                           batch_state& k) {
        for (std::size_t l = 0; l < B; ++l)
            stage_t_[l] = t[l] + frac * h[l];
        sys.derivatives(stage_t_, from, k);
    };

    // Six Cash–Karp stages.
    const double* x0 = x.data();
    const double* k1 = k1_.data();
    const double* k2 = k2_.data();
    const double* k3 = k3_.data();
    const double* k4 = k4_.data();
    const double* k5 = k5_.data();
    const double* k6 = k6_.data();
    double* tmp = xtmp_.data();
    stage(x, 0.0, k1_);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = x0[i] + h[i] * (b21 * k1[i]);
    stage(xtmp_, a2, k2_);
    for (std::size_t i = 0; i < n; ++i)
        tmp[i] = x0[i] + h[i] * (b31 * k1[i] + b32 * k2[i]);
    stage(xtmp_, a3, k3_);
    for (std::size_t i = 0; i < n; ++i)
        tmp[i] = x0[i] + h[i] * (b41 * k1[i] + b42 * k2[i] + b43 * k3[i]);
    stage(xtmp_, a4, k4_);
    for (std::size_t i = 0; i < n; ++i)
        tmp[i] = x0[i] + h[i] * (b51 * k1[i] + b52 * k2[i] + b53 * k3[i] +
                                  b54 * k4[i]);
    stage(xtmp_, a5, k5_);
    for (std::size_t i = 0; i < n; ++i)
        tmp[i] = x0[i] + h[i] * (b61 * k1[i] + b62 * k2[i] + b63 * k3[i] +
                                  b64 * k4[i] + b65 * k5[i]);
    stage(xtmp_, a6, k6_);

    // Embedded 4th/5th-order error estimate per value, then per lane the
    // max over variables (in variable order).
    double* x5v = x5_.data();
    double* err = err_.data();
    for (std::size_t i = 0; i < n; ++i) {
        const double x5 = x0[i] + h[i] * (c1 * k1[i] + c3 * k3[i] +
                                           c4 * k4[i] + c6 * k6[i]);
        const double x4 = x0[i] + h[i] * (d1 * k1[i] + d3 * k3[i] +
                                           d4 * k4[i] + d5 * k5[i] + d6 * k6[i]);
        x5v[i] = x5;
        const double sc =
            opt_.abs_tol + opt_.rel_tol * std::max(std::abs(x0[i]), std::abs(x5));
        err[i] = std::abs(x5 - x4) / sc;
    }

    // Per-lane accept/reject — scalar bookkeeping (pow is off the
    // vector path; it runs once per lane per sweep, not per stage).
    for (std::size_t l = 0; l < B; ++l) {
        if (!attempt_[l]) continue;
        if (segment_attempts_[l] >= opt_.max_steps) {
            failed_[l] = 1;
            outcome[l] = lane_step::failed;
            continue;
        }
        ++segment_attempts_[l];
        const double dt = dt_try_[l];
        double err_ratio = 0.0;
        for (std::size_t v = 0; v < vars_; ++v)
            err_ratio = std::max(err_ratio, err_[v * B + l]);
        if (err_ratio <= 1.0) {
            t[l] += dt;
            for (std::size_t v = 0; v < vars_; ++v)
                x.var(v)[l] = x5_.var(v)[l];
            ++steps_taken_[l];
            outcome[l] = lane_step::advanced;
            const double grow =
                err_ratio > 1e-10 ? 0.9 * std::pow(err_ratio, -0.2) : 5.0;
            dt_hint_[l] = std::min(dt * std::min(grow, 5.0), opt_.max_dt);
        } else {
            ++steps_rejected_[l];
            const double shrunk =
                dt * std::max(0.9 * std::pow(err_ratio, -0.25), 0.1);
            dt_hint_[l] = shrunk;
            if (shrunk < opt_.min_dt) {
                failed_[l] = 1;
                outcome[l] = lane_step::failed;
            } else {
                outcome[l] = lane_step::rejected;
            }
        }
    }
    return attempted;
}

}  // namespace ehdse::sim
