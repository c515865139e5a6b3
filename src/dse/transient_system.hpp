// The complete sensor-node system over the FULL nonlinear transient model
// — same digital processes, same plant interface as the envelope model
// (batch_envelope_system's per-lane plants), but the analogue side
// resolves every vibration cycle and every conditioning-circuit switching
// event. The per-cycle ODE system comes from the harvester_model registry
// entry (harvester_model::make_transient) and runs on sim::batch_simulator
// as a batch of one (kernel()); the system answers the same per-lane
// accessors as batch_envelope_system (plant(0), ledger(0), state indices),
// so one evaluator loop serves both fidelities.
//
// Roughly 5000x slower than the envelope plant (tens of milliseconds of
// wall clock per simulated minute), so it serves validation
// (bench_ablation_fidelity) and short-window studies rather than the DOE.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "harvester/harvester_model.hpp"
#include "harvester/plant.hpp"
#include "harvester/vibration.hpp"
#include "power/energy_ledger.hpp"
#include "power/load_bank.hpp"
#include "power/supercapacitor.hpp"
#include "sim/batch_ode.hpp"
#include "sim/context.hpp"

namespace ehdse::dse {

class transient_system final : public harvester::plant {
public:
    /// `model` and `vib` must outlive the system. Storage defaults to the
    /// paper's supercapacitor built from `cap`.
    transient_system(const harvester::harvester_model& model,
                     const harvester::vibration_source& vib,
                     power::supercapacitor_params cap = {},
                     power::rectifier_params rect = {});

    /// Same, with an explicit storage element (e.g. a thin-film battery).
    transient_system(const harvester::harvester_model& model,
                     const harvester::vibration_source& vib,
                     std::shared_ptr<const power::storage_model> storage,
                     power::rectifier_params rect = {});

    /// The transient RHS as a width-1 batch system, for the simulator.
    sim::batch_analog_system& kernel() noexcept { return kernel_; }

    /// Bind the simulator lane whose state this system reads/writes when
    /// servicing plant calls. Must be called before the first event fires.
    void attach(sim::sim_context& lane) { sim_ = &lane; }

    /// Initial state: mass at rest, store at v0, actuator at the position.
    std::vector<double> initial_state(double v0, int initial_position);

    /// Tight tolerances and an initial/maximum step resolving the fastest
    /// resonance.
    sim::ode_options suggested_ode_options() const;

    /// Where the storage voltage and the cumulative harvested energy live
    /// in the state vector. The transient models fold sustained loads into
    /// dV/dt directly, so there is no separate load-energy state.
    std::size_t voltage_index() const { return rhs_->voltage_index(); }
    std::size_t harvested_index() const { return rhs_->harvested_index(); }
    std::optional<std::size_t> load_energy_index() const { return std::nullopt; }

    /// Integrator ceiling that resolves the fastest resonance.
    double suggested_max_dt() const;

    // --- plant ---
    double storage_voltage() const override;
    void withdraw(double joules, const std::string& account) override;
    void set_sustained_draw(const std::string& account, double amps) override;
    int position() const override { return rhs_->position(); }
    void set_position(int position) override { rhs_->set_position(position); }
    double vibration_frequency() const override;
    double phase_lag() const override;

    /// The plant of lane 0, the only lane (out_of_range for any other).
    harvester::plant& plant(std::size_t lane);

    /// Energy accounting of lane 0's discrete withdrawals.
    const power::energy_ledger& ledger(std::size_t lane) const;

    const harvester::harvester_model& model() const noexcept { return *model_; }

private:
    sim::sim_context& sim() const;

    const harvester::harvester_model* model_;
    const harvester::vibration_source& vib_;
    std::shared_ptr<const power::storage_model> storage_;
    power::rectifier_params rect_;
    power::load_bank loads_;
    std::unique_ptr<harvester::transient_rhs> rhs_;
    sim::single_lane_system kernel_;
    std::unordered_map<std::string, power::load_id> load_slots_;
    power::energy_ledger ledger_;
    sim::sim_context* sim_ = nullptr;
};

}  // namespace ehdse::dse
