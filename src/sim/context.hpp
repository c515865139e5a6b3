// The scheduling/state surface a digital process sees from its host kernel.
//
// Digital processes (sensor node, tuning controller, fault injectors) only
// ever need five things from the kernel: the clock, read/write access to
// individual analogue state variables, and event (un)scheduling. The batch
// kernel (`batch_simulator`) hosts B design points behind B of these
// contexts, one per lane, so the same process classes run on any lane of
// any width — a single design point is simply a batch of one.
#pragma once

#include <cstddef>
#include <functional>

#include "sim/event_queue.hpp"

namespace ehdse::sim {

/// Abstract per-lane kernel handle: simulated time, analogue state access,
/// and event scheduling. Implemented by `batch_simulator`'s lane handles.
class sim_context {
public:
    virtual ~sim_context() = default;

    /// Current simulation time in seconds.
    virtual double now() const = 0;

    /// Read one analogue state variable.
    virtual double state_at(std::size_t i) const = 0;

    /// Overwrite one analogue state variable (discrete perturbation by a
    /// digital process, e.g. an instantaneous charge withdrawal).
    virtual void set_state(std::size_t i, double value) = 0;

    /// Schedule `action` at absolute time t (must be >= now; throws otherwise).
    virtual event_id at(double t, std::function<void()> action) = 0;

    /// Schedule `action` after `delay` seconds (delay must be >= 0).
    virtual event_id after(double delay, std::function<void()> action) = 0;

    /// Cancel a pending event.
    virtual bool cancel(event_id id) = 0;
};

/// Base class for digital processes (microcontroller, sensor node, ...).
///
/// A process owns at most one pending wake-up; calling wake_after/wake_at
/// cancels any previous pending wake-up, which keeps the "reschedule on
/// state change" idiom (Table II's voltage-banded transmission policy) safe.
class process {
public:
    explicit process(sim_context& sim) : sim_(sim) {}
    // Within ehdse every process is destroyed before its kernel, so
    // cancelling here is safe and prevents dangling callbacks.
    virtual ~process() { cancel_wake(); }

    process(const process&) = delete;
    process& operator=(const process&) = delete;

protected:
    sim_context& sim() noexcept { return sim_; }
    const sim_context& sim() const noexcept { return sim_; }

    /// Schedule activate() after `delay` seconds, replacing any pending wake.
    void wake_after(double delay) {
        cancel_wake();
        pending_ = sim_.after(delay, [this] { fire(); });
    }

    /// Schedule activate() at absolute time t, replacing any pending wake.
    void wake_at(double t) {
        cancel_wake();
        pending_ = sim_.at(t, [this] { fire(); });
    }

    /// Cancel the pending wake-up, if any.
    void cancel_wake() {
        if (pending_ != 0) {
            sim_.cancel(pending_);
            pending_ = 0;
        }
    }

    /// True when a wake-up is pending.
    bool wake_pending() const noexcept { return pending_ != 0; }

    /// Called by the kernel at the scheduled time.
    virtual void activate() = 0;

private:
    void fire() {
        pending_ = 0;
        activate();
    }

    sim_context& sim_;
    event_id pending_ = 0;
};

}  // namespace ehdse::sim
