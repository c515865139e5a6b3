#include "sim/batch_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace ehdse::sim {

batch_simulator::batch_simulator(batch_analog_system& sys,
                                 std::vector<double> initial_state,
                                 ode_options options)
    : sys_(sys),
      lanes_(sys.lanes()),
      state_(sys.state_size(), sys.lanes()),
      integrator_(sys.state_size(), sys.lanes(), options),
      queues_(sys.lanes()),
      now_(sys.lanes(), 0.0),
      target_(sys.lanes(), 0.0),
      outcome_(sys.lanes(), lane_step::idle),
      ok_(sys.lanes(), 1),
      done_(sys.lanes(), 0) {
    if (initial_state.size() != sys.state_size())
        throw std::invalid_argument(
            "batch_simulator: initial state size mismatch");
    lane_ctx_.reserve(lanes_);
    for (std::size_t l = 0; l < lanes_; ++l) {
        lane_ctx_.emplace_back(*this, l);
        state_.set_lane(l, initial_state);
    }
    if (obs::metrics_registry* reg = obs::global_registry()) {
        steps_counter_ = &reg->get_counter("sim.batch.ode_steps");
        rejected_counter_ = &reg->get_counter("sim.batch.ode_steps_rejected");
        events_counter_ = &reg->get_counter("sim.batch.events");
        sweeps_counter_ = &reg->get_counter("sim.batch.sweeps");
    }
    sys_.attach(*this);
}

event_id batch_simulator::lane_context::at(double t,
                                           std::function<void()> action) {
    if (t < owner_->now_[lane_])
        throw std::invalid_argument(
            "batch_simulator: cannot schedule in the past");
    return owner_->queues_[lane_].schedule(t, std::move(action));
}

event_id batch_simulator::lane_context::after(double delay,
                                              std::function<void()> action) {
    if (delay < 0.0)
        throw std::invalid_argument("batch_simulator: negative delay");
    return owner_->queues_[lane_].schedule(owner_->now_[lane_] + delay,
                                           std::move(action));
}

void batch_simulator::add_step_observer(step_observer obs) {
    observers_.push_back(std::move(obs));
}

bool batch_simulator::lane_state_finite(std::size_t l) const {
    for (std::size_t v = 0; v < state_.vars(); ++v)
        if (!std::isfinite(state_.at(v, l))) return false;
    return true;
}

void batch_simulator::service_lane(std::size_t l, double t_end) {
    // Fire every event due at/before now (same-time re-schedules fire too:
    // FIFO), exactly like the scalar kernel's event loop.
    event_queue& q = queues_[l];
    const bool fired = !q.empty() && q.next_time() <= now_[l];
    while (!q.empty() && q.next_time() <= now_[l]) q.pop_and_run();
    if (fired) {
        // An event that corrupted the analogue state (fault-injected NaN,
        // runaway withdrawal) fails the lane here, cleanly, instead of
        // sending its integrator into a min_dt death spiral.
        if (!lane_state_finite(l)) {
            ok_[l] = 0;
            return;
        }
        notify(l);
    }
    // Next integration target: the earliest pending event within the
    // horizon, else the horizon itself.
    target_[l] =
        (!q.empty() && q.next_time() <= t_end) ? q.next_time() : t_end;
    if (now_[l] >= target_[l]) {
        // Reached the horizon with nothing left to run.
        done_[l] = 1;
        return;
    }
    // New segment between digital events: fresh max_steps budget, exactly
    // like one scalar integrate() call.
    integrator_.start_segment(l);
}

bool batch_simulator::run_until(double t_end) {
    for (std::size_t l = 0; l < lanes_; ++l) {
        if (t_end < now_[l])
            throw std::invalid_argument(
                "batch_simulator::run_until: horizon in the past");
        done_[l] = 0;
        // Treat every live lane as "arrived" so the first loop iteration
        // services initial events (e.g. wake-ups scheduled at t = 0).
        target_[l] = now_[l];
    }

    while (true) {
        std::size_t live = 0;
        for (std::size_t l = 0; l < lanes_; ++l) {
            if (!ok_[l] || done_[l]) continue;
            if (now_[l] >= target_[l]) {
                // Arrived: snap exactly onto the target (the scalar kernel
                // sets now_ = t_target after integrate_to) and service.
                now_[l] = target_[l];
                service_lane(l, t_end);
            }
            if (ok_[l] && !done_[l]) ++live;
        }
        if (live == 0) break;

        ++sweeps_;
        integrator_.step_once(sys_, now_, target_, state_, outcome_);
        for (std::size_t l = 0; l < lanes_; ++l) {
            switch (outcome_[l]) {
                case lane_step::advanced:
                    notify(l);
                    break;
                case lane_step::failed:
                    ok_[l] = 0;
                    break;
                case lane_step::idle:
                case lane_step::rejected:
                    break;
            }
        }
    }

    flush_metrics();
    bool all_ok = true;
    for (std::size_t l = 0; l < lanes_; ++l) {
        if (ok_[l] && !lane_state_finite(l)) ok_[l] = 0;
        all_ok = all_ok && ok_[l] != 0;
    }
    return all_ok;
}

void batch_simulator::flush_metrics() {
    if (!steps_counter_) return;
    std::uint64_t steps = 0, rejected = 0, events = 0;
    for (std::size_t l = 0; l < lanes_; ++l) {
        steps += integrator_.steps_taken(l);
        rejected += integrator_.steps_rejected(l);
        events += queues_[l].executed_count();
    }
    steps_counter_->add(steps - flushed_steps_);
    rejected_counter_->add(rejected - flushed_rejected_);
    events_counter_->add(events - flushed_events_);
    sweeps_counter_->add(sweeps_ - flushed_sweeps_);
    flushed_steps_ = steps;
    flushed_rejected_ = rejected;
    flushed_events_ = events;
    flushed_sweeps_ = sweeps_;
}

}  // namespace ehdse::sim
