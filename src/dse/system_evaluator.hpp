// One-hour whole-system evaluation of a configuration — the "simulation
// run" of the paper's methodology (its SystemC-A model run for each DOE
// design point), producing the response y = number of transmissions.
//
// The request types (scenario, evaluation_options, fidelity) are part of
// the canonical experiment spec (src/spec); the aliases below keep the
// historical dse:: spellings working across the tree.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dse/batch_envelope_system.hpp"
#include "dse/system_config.hpp"
#include "harvester/harvester_model.hpp"
#include "harvester/tuning_table.hpp"
#include "mcu/tuning_controller.hpp"
#include "node/sensor_node.hpp"
#include "power/supercapacitor.hpp"
#include "sim/trace.hpp"
#include "spec/experiment_spec.hpp"

namespace ehdse::obs {
class stopwatch;
}

namespace ehdse::dse {

/// Stimulus and initial conditions (paper section V: 60 mg, +5 Hz steps
/// every 25 minutes, one-hour horizon).
using scenario = spec::scenario;

/// Analogue fidelity of a run.
using fidelity = spec::fidelity;

/// Options controlling one evaluation.
using evaluation_options = spec::evaluation_options;

/// Everything a run produces.
struct evaluation_result {
    std::uint64_t transmissions = 0;      ///< the response variable y
    std::uint64_t suppressed_wakeups = 0; ///< node polls below cut-off
    std::uint64_t low_band_transmissions = 0;
    mcu::controller_stats tuning;
    double final_voltage_v = 0.0;
    double min_voltage_v = 0.0;
    double max_voltage_v = 0.0;
    double harvested_energy_j = 0.0;      ///< delivered into the store
    double sustained_load_energy_j = 0.0; ///< sleep floors etc.
    double withdrawn_energy_j = 0.0;      ///< discrete bursts (ledger total)
    power::energy_ledger ledger;          ///< per-account discrete withdrawals
    std::size_t ode_steps = 0;
    std::size_t ode_steps_rejected = 0;   ///< error-controlled integrator retries
    std::uint64_t events = 0;
    /// Wall clock of the kernel run that produced this result, divided
    /// evenly among its lanes: a lane of an n-wide evaluate_batch chunk
    /// reports the chunk's wall time / n (an equal share of a shared run,
    /// not a per-lane measurement); evaluate() is a run of one lane.
    double wall_time_s = 0.0;
    bool sim_ok = true;
    std::optional<sim::trace> voltage_trace;   ///< when tracing was requested
    std::optional<sim::trace> position_trace;  ///< actuator position over time
};

/// Reusable evaluator: fixed physics (harvester backend, scenario, node
/// and controller base parameters), varying system_config per call.
///
/// There is exactly one simulation loop, the SoA batch kernel
/// (sim::batch_simulator). Envelope fidelity runs batch_envelope_system
/// on it: evaluate() at width 1, evaluate_batch() at up to
/// k_max_batch_lanes, so a design point's result is bit-identical
/// whichever entry point (and batch) produced it. Transient fidelity runs
/// transient_system on it at width 1, through the same digital wiring,
/// observers and result fill (run_lanes).
///
/// Polymorphic by design: evaluate() and evaluate_batch() are virtual so
/// test harnesses and forwarders can interpose on the whole-request level
/// (inject an exception before any simulation starts, route through a
/// shared cache), and decorate_kernel() lets a fault harness wrap the
/// envelope kernel's analogue model — see testkit::faulty_evaluator.
/// Everything downstream (cached_evaluator, run_rsm_flow) takes
/// `const system_evaluator&`, so a wrapper threads through the entire
/// flow unchanged.
class system_evaluator {
public:
    /// Throws std::invalid_argument (offending field named) when the
    /// scenario fails spec::scenario::validate().
    explicit system_evaluator(scenario scn = {},
                              harvester::microgenerator_params gen = {},
                              power::supercapacitor_params cap = {},
                              power::rectifier_params rect = {},
                              node::node_params node = {},
                              mcu::controller_params controller = {});

    /// Build the harvester backend from the registry (`harv.model`).
    /// The controller's actuator cost model is taken from the backend
    /// (harvester_model::actuator()) — each device class knows its own
    /// retune mechanism — overriding whatever `controller.actuator` held.
    /// Throws std::invalid_argument for an unknown harvester name or an
    /// invalid scenario.
    system_evaluator(scenario scn, spec::harvester_spec harv,
                     power::supercapacitor_params cap = {},
                     power::rectifier_params rect = {},
                     node::node_params node = {},
                     mcu::controller_params controller = {});

    virtual ~system_evaluator() = default;

    const scenario& scene() const noexcept { return scenario_; }
    const harvester::harvester_model& model() const noexcept { return *model_; }
    const harvester::tuning_table& table() const noexcept { return table_; }

    /// Canonical spec fragment naming this evaluator's backend — rsm_flow
    /// rebuilds the full experiment spec (for hashing/manifests) from it.
    const spec::harvester_spec& harvester_config() const noexcept {
        return harv_;
    }

    /// Replace the storage element for subsequent evaluations (e.g. a
    /// power::thin_film_battery); nullptr restores the default
    /// supercapacitor built from the constructor's parameters.
    void set_storage(std::shared_ptr<const power::storage_model> storage) {
        storage_ = std::move(storage);
    }

    /// Run the full mixed-signal simulation for `config`: the envelope
    /// kernel at width 1, or the transient model (options.model).
    virtual evaluation_result evaluate(
        const system_config& config,
        const evaluation_options& options = {}) const;

    /// Evaluate many configs against the same scenario/options in one
    /// call. Envelope fidelity runs the batch kernel in chunks of at most
    /// k_max_batch_lanes; transient fidelity falls back to per-config
    /// evaluate(), one width-1 kernel run each. Results are positional:
    /// out[i] corresponds to
    /// configs[i], and each lane's result is bit-identical to evaluate()
    /// of the same config, whichever other configs share its batch.
    virtual std::vector<evaluation_result> evaluate_batch(
        std::span<const system_config> configs,
        const evaluation_options& options = {}) const;

    /// Widest batch the default evaluate_batch runs as one SoA sweep.
    static constexpr std::size_t k_max_batch_lanes = 16;

    /// Number of evaluated configs so far (DOE bookkeeping); batch lanes
    /// count individually.
    std::size_t runs() const noexcept { return runs_.load(); }

    /// evaluate() is safe to call concurrently from several threads: each
    /// call builds its own simulator/plant; the shared physics objects are
    /// only read. run_rsm_flow exploits this when flow_options::parallel
    /// is set. Overrides must preserve both properties (wrappers keyed on
    /// the request, never on call order, stay deterministic under a pool).

protected:
    /// Fault seam of the envelope kernel, called once per chunk before
    /// the run: the analogue model the lockstep loop integrates in place
    /// of `system` (typically a lane-wise decorator of it), or nullptr to
    /// integrate `system` itself — the default. Lane l of `system` hosts
    /// chunk[l]. The decorator is bound to the simulator through
    /// sim::batch_analog_system::attach, so it may schedule per-lane
    /// disturbances there.
    virtual std::unique_ptr<sim::batch_analog_system> decorate_kernel(
        batch_envelope_system& system, std::span<const system_config> chunk,
        const evaluation_options& options) const;

private:
    /// The envelope kernel over `configs`, in chunks; fills `out`.
    void run_envelope(std::span<const system_config> configs,
                      const evaluation_options& options,
                      std::span<evaluation_result> out) const;
    /// transient_system on the kernel at width 1.
    void run_transient(const system_config& config,
                       const evaluation_options& options,
                       evaluation_result& out) const;
    /// What a kernel run does once its simulator exists, whatever the
    /// fidelity: lane l of `bsim` hosts chunk[l] on system.plant(l); wire
    /// the digital side, track min/max voltage (and traces), run to the
    /// horizon and fill results[l]. `watch` started with the run.
    template <class System>
    void run_lanes(System& system, sim::batch_simulator& bsim,
                   std::span<const system_config> chunk,
                   const evaluation_options& options,
                   std::span<evaluation_result> results,
                   const obs::stopwatch& watch) const;

    scenario scenario_;
    spec::harvester_spec harv_;
    std::shared_ptr<const harvester::harvester_model> model_;
    harvester::tuning_table table_;
    power::supercapacitor_params cap_;
    std::shared_ptr<const power::storage_model> storage_;  ///< optional override
    power::rectifier_params rect_;
    node::node_params node_;
    mcu::controller_params controller_;
    mutable std::atomic<std::size_t> runs_{0};
};

}  // namespace ehdse::dse
