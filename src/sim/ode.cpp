#include "sim/ode.hpp"

#include <algorithm>
#include <stdexcept>

namespace ehdse::sim {

void rk4_step(const analog_system& sys, double t, double dt, std::vector<double>& x) {
    const std::size_t n = x.size();
    std::vector<double> k1(n), k2(n), k3(n), k4(n), tmp(n);
    sys.derivatives(t, x, k1);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i] + 0.5 * dt * k1[i];
    sys.derivatives(t + 0.5 * dt, tmp, k2);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i] + 0.5 * dt * k2[i];
    sys.derivatives(t + 0.5 * dt, tmp, k3);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i] + dt * k3[i];
    sys.derivatives(t + dt, tmp, k4);
    for (std::size_t i = 0; i < n; ++i)
        x[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
}

void integrate_fixed(const analog_system& sys, double t0, double t1, double dt,
                     std::vector<double>& x,
                     const std::function<void(double, std::span<const double>)>& observer) {
    if (dt <= 0.0) throw std::invalid_argument("integrate_fixed: dt must be > 0");
    double t = t0;
    while (t < t1) {
        const double step = std::min(dt, t1 - t);
        rk4_step(sys, t, step, x);
        t += step;
        if (observer) observer(t, x);
    }
}

}  // namespace ehdse::sim
