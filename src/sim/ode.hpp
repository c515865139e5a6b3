// Continuous-time (analogue) part of the mixed-signal kernel.
//
// SystemC-A couples an analogue equation set solved by a variable-step
// integrator with digital processes. Here the analogue side is an explicit
// ODE system dx/dt = f(t, x). The adaptive Cash–Karp RK45 integrator that
// advances it lives in batch_ode.hpp (one design point is a batch of one);
// batch_simulator stops integration exactly at digital event times, so
// digital processes observe and perturb a consistent analogue state. A
// fixed-step RK4 serves as the closed-form reference.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "numeric/matrix.hpp"

namespace ehdse::sim {

/// Interface for an analogue equation set dx/dt = f(t, x).
///
/// Implementations may hold mutable "inputs" (e.g. the present load
/// conductance across the supercapacitor) that digital processes adjust
/// between integration segments.
class analog_system {
public:
    virtual ~analog_system() = default;

    /// Number of continuous state variables.
    virtual std::size_t state_size() const = 0;

    /// Evaluate dx/dt into `dxdt` (pre-sized to state_size()).
    virtual void derivatives(double t, std::span<const double> x,
                             std::span<double> dxdt) const = 0;
};

/// Adapter turning a lambda into an analog_system.
class functional_system final : public analog_system {
public:
    using rhs_fn = std::function<void(double, std::span<const double>, std::span<double>)>;

    functional_system(std::size_t n, rhs_fn rhs)
        : n_(n), rhs_(std::move(rhs)) {}

    std::size_t state_size() const override { return n_; }
    void derivatives(double t, std::span<const double> x,
                     std::span<double> dxdt) const override {
        rhs_(t, x, dxdt);
    }

private:
    std::size_t n_;
    rhs_fn rhs_;
};

/// Integrator tuning knobs.
struct ode_options {
    double abs_tol = 1e-9;     ///< absolute error tolerance per step (RK45)
    double rel_tol = 1e-6;     ///< relative error tolerance per step (RK45)
    double initial_dt = 1e-4;  ///< first trial step
    double min_dt = 1e-12;     ///< below this the integrator reports failure
    double max_dt = 1e30;      ///< cap on step size (set ~1/(20 f) for AC work)
    std::size_t max_steps = 200'000'000;  ///< hard safety limit per segment
};

/// One classic fixed-step RK4 step: advances x from t by dt in place.
void rk4_step(const analog_system& sys, double t, double dt, std::vector<double>& x);

/// Fixed-step RK4 driver over [t0, t1] with the given dt (last step clipped).
void integrate_fixed(const analog_system& sys, double t0, double t1, double dt,
                     std::vector<double>& x,
                     const std::function<void(double, std::span<const double>)>& observer = {});

}  // namespace ehdse::sim
