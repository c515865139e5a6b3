// Batch mixed-signal coordinator: B design points, one step sweep.
//
// Mirrors `simulator` (the scalar kernel) lane-for-lane. Each lane owns a
// digital event queue and a `sim_context` handle, so the digital processes
// (sensor node, tuning controller) written against sim_context run
// unmodified per lane. The analogue side advances all lanes together
// through `batch_rk45_integrator` under a merged next-event horizon:
//
//   1. each lane's integration target is min(its next event time, t_end);
//   2. one masked RK45 sweep advances every lane still short of its
//      target (per-lane adaptive dt — a stiff lane cannot stall the rest);
//   3. lanes that arrive are snapped exactly onto their target (as the
//      scalar kernel snaps now_ = t_target), their due events fire in FIFO
//      order, their targets are recomputed, and the sweep loop continues
//      until every lane reaches t_end or fails.
//
// Lanes are fully independent: a lane's trajectory, step sizes and event
// schedule do not depend on which other lanes share the batch (the
// differential property checks batch(B) == batch(1) bitwise for all B).
// This is the only envelope-fidelity loop: dse::system_evaluator runs a
// single evaluate() as a batch of one.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/batch_ode.hpp"
#include "sim/context.hpp"
#include "sim/event_queue.hpp"

namespace ehdse::obs {
class counter;
}

namespace ehdse::sim {

/// Drives one batch_analog_system plus one event queue per lane.
class batch_simulator {
public:
    /// Every lane starts from the same initial state (design points that
    /// differ in initial state can overwrite per lane via set_state before
    /// running). The system must outlive the simulator.
    batch_simulator(batch_analog_system& sys, std::vector<double> initial_state,
                    ode_options options = {});

    std::size_t lanes() const noexcept { return lanes_; }

    /// Per-lane kernel handle for digital processes. Valid for the
    /// simulator's lifetime.
    sim_context& lane(std::size_t l) { return lane_ctx_.at(l); }

    double now(std::size_t l) const { return now_.at(l); }
    double state_at(std::size_t l, std::size_t var) const {
        return state_.at(var, l);
    }
    void set_state(std::size_t l, std::size_t var, double value) {
        state_.set(var, l, value);
    }

    /// Called for lane l after each of its accepted steps and after each
    /// of its event batches, with the lane's time — the batch form of the
    /// scalar simulator's step observer. Read the lane's state through
    /// state_at(l, ...). Serves min/max tracking and waveform traces.
    using step_observer = std::function<void(std::size_t lane, double t)>;
    void add_step_observer(step_observer obs);

    /// Advance every lane to t_end, firing due events per lane. Returns
    /// true when ALL lanes completed; per-lane success via lane_ok().
    /// A failed lane (integrator underflow or non-finite state after an
    /// event) stops where it failed; the others keep running.
    bool run_until(double t_end);

    bool lane_ok(std::size_t l) const { return ok_.at(l) != 0; }
    bool lane_state_finite(std::size_t l) const;

    std::size_t lane_steps(std::size_t l) const {
        return integrator_.steps_taken(l);
    }
    std::size_t lane_rejected_steps(std::size_t l) const {
        return integrator_.steps_rejected(l);
    }
    std::uint64_t lane_events(std::size_t l) const {
        return queues_.at(l).executed_count();
    }

    ode_options& options() noexcept { return integrator_.options(); }

private:
    /// sim_context implementation forwarding to one lane of the owner.
    class lane_context final : public sim_context {
    public:
        lane_context(batch_simulator& owner, std::size_t lane)
            : owner_(&owner), lane_(lane) {}
        double now() const override { return owner_->now_[lane_]; }
        double state_at(std::size_t i) const override {
            return owner_->state_.at(i, lane_);
        }
        void set_state(std::size_t i, double value) override {
            owner_->state_.set(i, lane_, value);
        }
        event_id at(double t, std::function<void()> action) override;
        event_id after(double delay, std::function<void()> action) override;
        bool cancel(event_id id) override {
            return owner_->queues_[lane_].cancel(id);
        }

    private:
        batch_simulator* owner_;
        std::size_t lane_;
    };

    /// Fire lane l's due events, verify finiteness, notify the observers,
    /// and recompute its integration target. Marks the lane done when it has
    /// reached t_end with no due events left.
    void service_lane(std::size_t l, double t_end);
    void notify(std::size_t l) {
        for (const step_observer& obs : observers_) obs(l, now_[l]);
    }
    void flush_metrics();

    batch_analog_system& sys_;
    std::size_t lanes_;
    batch_state state_;
    batch_rk45_integrator integrator_;
    std::vector<event_queue> queues_;
    std::vector<lane_context> lane_ctx_;
    std::vector<double> now_;
    std::vector<double> target_;
    std::vector<lane_step> outcome_;
    std::vector<std::uint8_t> ok_;
    std::vector<std::uint8_t> done_;
    std::vector<step_observer> observers_;
    // Process-wide metrics (sim.batch.*), resolved once at construction and
    // flushed per run — never touched inside the sweep loop.
    obs::counter* steps_counter_ = nullptr;
    obs::counter* rejected_counter_ = nullptr;
    obs::counter* events_counter_ = nullptr;
    obs::counter* sweeps_counter_ = nullptr;
    std::uint64_t flushed_steps_ = 0;
    std::uint64_t flushed_rejected_ = 0;
    std::uint64_t flushed_events_ = 0;
    std::uint64_t sweeps_ = 0;
    std::uint64_t flushed_sweeps_ = 0;
};

}  // namespace ehdse::sim
