// Deterministic fault injection for the whole evaluation stack.
//
// Every fault a wrapper injects is decided by a PRNG stream keyed on
// (fault seed, request content hash) — never on call order — so a flow
// running over a thread pool sees exactly the same faults in exactly the
// same runs as a sequential flow, and a reported EHDSE_TESTKIT_SEED
// reproduces the failure byte-for-byte. Three interposition points:
//
//   * faulty_evaluator  — overrides system_evaluator::evaluate to throw a
//     typed evaluator_fault before the run starts (exercises the flow's
//     error path), and overrides decorate_kernel() to wrap the envelope
//     batch kernel's analogue model with...
//   * faulty_batch_system — a lane-wise batch_analog_system decorator
//     injecting harvester dropout windows (harvest derivative clamped to
//     zero) and supercap leakage steps (instantaneous voltage drops,
//     optionally a NaN that the simulator's non-finite halt must catch)
//     at PRNG-chosen times, per lane from that lane's request;
//   * faulty_objective  — an opt::objective_fn wrapper returning NaN at
//     PRNG-chosen call indices (first call always clean so optimisers
//     keep a finite incumbent).
//
// Fault-injected flows run the production kernel: evaluate_batch is not
// overridden. Analogue faults exist at envelope fidelity only; a plan
// with dropouts or leaks for a transient request is rejected
// (std::invalid_argument) rather than silently dropped.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dse/batch_envelope_system.hpp"
#include "dse/system_evaluator.hpp"
#include "opt/optimizer.hpp"
#include "spec/spec_hash.hpp"
#include "testkit/prng.hpp"

namespace ehdse::testkit {

/// Knobs for deterministic fault generation. All probabilities are per
/// evaluation request (dropout/leak/exception) or per objective call
/// (NaN); 0 disables that fault class entirely.
struct fault_options {
    std::uint64_t seed = k_default_seed;
    double dropout_probability = 0.0;    ///< run gets harvester dropout windows
    double leak_probability = 0.0;       ///< run gets supercap leakage steps
    double nan_probability = 0.0;        ///< a leak step writes NaN instead
    double exception_probability = 0.0;  ///< evaluate() throws evaluator_fault
};

/// A window during which the harvester delivers nothing.
struct dropout_window {
    double start_s = 0.0;
    double end_s = 0.0;
};

/// An instantaneous supercap disturbance at a fixed time.
struct leak_step {
    double at_s = 0.0;
    double drop_v = 0.0;    ///< voltage removed (clamped at 0 V)
    bool inject_nan = false;  ///< overwrite the voltage with NaN instead
};

/// The concrete faults one evaluation request will experience. Pure
/// function of (options.seed, request hash, horizon) — two calls with the
/// same request always get the same plan, regardless of thread or order.
struct fault_plan {
    std::vector<dropout_window> dropouts;
    std::vector<leak_step> leaks;
    bool throw_before_run = false;

    bool empty() const noexcept {
        return dropouts.empty() && leaks.empty() && !throw_before_run;
    }

    static fault_plan make(const fault_options& opts,
                           std::uint64_t request_hash, double duration_s) {
        prng r(mix(mix(opts.seed, 0xfa017ULL), request_hash));
        fault_plan plan;
        plan.throw_before_run = r.chance(opts.exception_probability);
        if (r.chance(opts.dropout_probability)) {
            const std::size_t n = r.integer(1, 2);
            for (std::size_t i = 0; i < n; ++i) {
                dropout_window w;
                w.start_s = r.uniform(0.0, 0.8 * duration_s);
                w.end_s = w.start_s +
                          r.uniform(0.05 * duration_s, 0.2 * duration_s);
                w.end_s = std::min(w.end_s, duration_s);
                plan.dropouts.push_back(w);
            }
        }
        if (r.chance(opts.leak_probability)) {
            const std::size_t n = r.integer(1, 3);
            for (std::size_t i = 0; i < n; ++i) {
                leak_step s;
                // Strictly inside the horizon so the event always fires.
                s.at_s = r.uniform(0.05 * duration_s, 0.95 * duration_s);
                s.drop_v = r.uniform(0.1, 1.0);
                s.inject_nan = r.chance(opts.nan_probability);
                plan.leaks.push_back(s);
            }
        }
        return plan;
    }
};

/// Typed failure injected by faulty_evaluator: distinguishable from any
/// production exception, so tests asserting the flow's error path know
/// the fault they planted is the one that surfaced.
class evaluator_fault : public std::runtime_error {
public:
    explicit evaluator_fault(const std::string& what_arg)
        : std::runtime_error(what_arg) {}
};

/// batch_analog_system decorator applying one fault_plan per lane to the
/// envelope kernel: inside a lane's dropout window its harvested-energy
/// derivative is clamped to zero and its storage voltage may only fall;
/// each leak step is an event on that lane that drops (or NaN-corrupts)
/// the storage voltage.
class faulty_batch_system final : public sim::batch_analog_system {
public:
    using ix = dse::batch_envelope_system::state_index;

    /// plans[l] applies to lane l of `inner`, which must outlive this.
    faulty_batch_system(dse::batch_envelope_system& inner,
                        std::vector<fault_plan> plans)
        : inner_(inner), plans_(std::move(plans)) {
        if (plans_.size() != inner_.lanes())
            throw std::invalid_argument(
                "testkit::faulty_batch_system: one plan per lane");
    }

    std::size_t state_size() const override { return inner_.state_size(); }
    std::size_t lanes() const override { return inner_.lanes(); }

    void attach(sim::batch_simulator& bsim) override {
        inner_.attach(bsim);
        for (std::size_t l = 0; l < plans_.size(); ++l) {
            sim::sim_context& lane = bsim.lane(l);
            for (const leak_step& leak : plans_[l].leaks) {
                lane.at(leak.at_s, [&lane, leak] {
                    lane.set_state(ix::ix_voltage,
                                   leak.inject_nan
                                       ? std::numeric_limits<double>::quiet_NaN()
                                       : std::max(0.0, lane.state_at(ix::ix_voltage) -
                                                           leak.drop_v));
                });
            }
        }
    }

    void derivatives(std::span<const double> t, const sim::batch_state& x,
                     sim::batch_state& dxdt) const override {
        inner_.derivatives(t, x, dxdt);
        double* dv = dxdt.var(ix::ix_voltage);
        double* dh = dxdt.var(ix::ix_harvested);
        for (std::size_t l = 0; l < plans_.size(); ++l) {
            if (!in_dropout(plans_[l], t[l])) continue;
            dh[l] = 0.0;
            dv[l] = std::min(dv[l], 0.0);
        }
    }

private:
    static bool in_dropout(const fault_plan& plan, double t) noexcept {
        for (const dropout_window& w : plan.dropouts)
            if (t >= w.start_s && t < w.end_s) return true;
        return false;
    }

    dse::batch_envelope_system& inner_;
    std::vector<fault_plan> plans_;
};

/// system_evaluator that injects the faults of a per-request fault_plan.
/// Drop-in anywhere a `const system_evaluator&` is taken (cached_evaluator,
/// run_rsm_flow): exception faults throw evaluator_fault before any
/// simulation starts; analogue faults wrap the envelope kernel with
/// faulty_batch_system. Thread-safe and call-order independent like the
/// base class — the plan depends only on the request.
class faulty_evaluator : public dse::system_evaluator {
public:
    faulty_evaluator(dse::scenario scn, fault_options faults,
                     harvester::microgenerator_params gen = {},
                     power::supercapacitor_params cap = {},
                     power::rectifier_params rect = {})
        : system_evaluator(scn, gen, cap, rect), faults_(faults) {}

    /// Apply ONE fixed plan to every request instead of deriving it —
    /// lets a test pin an exact fault (e.g. a full-horizon dropout) and
    /// assert its physical consequence directly.
    faulty_evaluator(dse::scenario scn, fault_plan fixed)
        : system_evaluator(scn), fixed_(std::move(fixed)) {}

    /// The plan `evaluate(config, options)` will apply.
    fault_plan plan_for(const dse::system_config& config,
                        const dse::evaluation_options& options) const {
        if (fixed_) return *fixed_;
        return fault_plan::make(faults_,
                                spec::evaluation_request_hash(config, options),
                                scene().duration_s);
    }

    /// Throws evaluator_fault for a throw_before_run plan (either
    /// fidelity), std::invalid_argument for analogue faults on a
    /// transient request; otherwise runs the base evaluation, whose
    /// envelope kernel picks the analogue faults up in decorate_kernel().
    dse::evaluation_result evaluate(
        const dse::system_config& config,
        const dse::evaluation_options& options = {}) const override {
        const fault_plan plan = checked_plan(config, options);
        if (options.model == dse::fidelity::transient &&
            !(plan.dropouts.empty() && plan.leaks.empty()))
            throw std::invalid_argument(
                "testkit::faulty_evaluator: dropouts and leaks are "
                "envelope-only; transient request " +
                spec::spec_hash_hex(
                    spec::evaluation_request_hash(config, options)));
        return system_evaluator::evaluate(config, options);
    }

protected:
    std::unique_ptr<sim::batch_analog_system> decorate_kernel(
        dse::batch_envelope_system& system,
        std::span<const dse::system_config> chunk,
        const dse::evaluation_options& options) const override {
        std::vector<fault_plan> plans;
        bool any = false;
        for (const dse::system_config& config : chunk) {
            plans.push_back(checked_plan(config, options));
            any = any || !plans.back().empty();
        }
        if (!any) return nullptr;
        return std::make_unique<faulty_batch_system>(system, std::move(plans));
    }

private:
    fault_plan checked_plan(const dse::system_config& config,
                            const dse::evaluation_options& options) const {
        fault_plan plan = plan_for(config, options);
        if (plan.throw_before_run) {
            throw evaluator_fault(
                "testkit::faulty_evaluator: injected fault for request " +
                spec::spec_hash_hex(
                    spec::evaluation_request_hash(config, options)));
        }
        return plan;
    }

    fault_options faults_;
    std::optional<fault_plan> fixed_;
};

/// Wrap an optimiser objective so PRNG-chosen calls return NaN. The first
/// call is always clean, so every optimiser holds a finite incumbent that
/// a NaN can never displace (`nan > best` is false) — the property the
/// optimiser-robustness suite asserts. Deterministic in the call index;
/// intended for the single-threaded objective loops of the optimisers.
inline opt::objective_fn faulty_objective(opt::objective_fn inner,
                                          std::uint64_t seed,
                                          double nan_probability) {
    auto calls = std::make_shared<std::uint64_t>(0);
    return [inner = std::move(inner), seed, nan_probability,
            calls](const numeric::vec& x) -> double {
        const std::uint64_t i = (*calls)++;
        if (i > 0) {
            prng r(mix(seed, i));
            if (r.chance(nan_probability))
                return std::numeric_limits<double>::quiet_NaN();
        }
        return inner(x);
    };
}

}  // namespace ehdse::testkit
