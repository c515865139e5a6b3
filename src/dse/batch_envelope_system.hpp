// The complete sensor-node system as an envelope-mode analogue model —
// SoA over B design points with identical analogue structure, advanced in
// lockstep by sim::batch_simulator. It is the only envelope-fidelity
// node model: system_evaluator runs a single evaluate() as a batch of one.
//
// Continuous states, per lane:
//   V      supercapacitor voltage
//   z_env  mechanical displacement-amplitude envelope (relaxes towards the
//          cycle-averaged steady state with the physical time constant
//          2m / c_total)
//   E_h    cumulative energy delivered into the store
//   E_l    cumulative energy consumed by sustained loads
//
// The system is backend-blind. It owns the lane plumbing — per-lane
// actuator position, load bank, energy ledger and plant handle — and the
// slow states; the harvester physics comes from the registry entry's
// lane-span envelope hook (harvester_model::envelope_lanes), called once
// per RHS for all lanes: for the electromagnetic device the lockstep
// damping solve of harvester/envelope.cpp, for the electrostatic one its
// closed form.
//
// Digital processes drive lane l through plant(l): instantaneous charge
// withdrawals (transmission bursts, MCU activity), sustained draws (sleep
// floors), actuator position changes, and the measurement taps (true
// vibration frequency, true phase lag) on which the controller's noisy
// measurement models operate.
//
// Lanes are independent: shared (read-only) model, vibration source and
// storage model. One instance hosts one batch_simulator run and is not
// thread-safe across concurrent runs — the evaluator builds one per call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "harvester/harvester_model.hpp"
#include "harvester/plant.hpp"
#include "harvester/vibration.hpp"
#include "power/energy_ledger.hpp"
#include "power/load_bank.hpp"
#include "power/rectifier.hpp"
#include "power/storage.hpp"
#include "sim/batch_ode.hpp"
#include "sim/batch_simulator.hpp"
#include "spec/experiment_spec.hpp"

namespace ehdse::dse {

/// Power-conditioning front-end between coil and store — canonical
/// definition lives with the experiment spec (spec::frontend_kind); this
/// alias keeps the historical dse:: spelling working.
using frontend_kind = spec::frontend_kind;

/// spec::frontend_kind -> the harvester-layer conditioning enum (the
/// harvester library cannot depend on spec).
harvester::conditioning_kind conditioning_of(frontend_kind kind) noexcept;

class batch_envelope_system final : public sim::batch_analog_system {
public:
    enum state_index : std::size_t {
        ix_voltage = 0,
        ix_amplitude = 1,
        ix_harvested = 2,
        ix_load_energy = 3,
        k_state_count = 4,
    };

    /// `model` and `vib` must outlive the system; `storage` is shared
    /// read-only across lanes.
    batch_envelope_system(const harvester::harvester_model& model,
                          const harvester::vibration_source& vib,
                          std::shared_ptr<const power::storage_model> storage,
                          power::rectifier_params rect, std::size_t lanes);

    /// Select the power front-end for every lane (default: the paper's
    /// diode bridge). `efficiency` applies to the mppt kind only; must be
    /// in (0, 1].
    void set_frontend(frontend_kind kind, double efficiency = 0.75);
    frontend_kind frontend() const noexcept { return frontend_; }

    /// Initial state shared by all lanes (identical scenario => identical
    /// start): store at v0, amplitude at the model's converged steady
    /// state so t=0 is not an artificial transient. Also sets every lane's
    /// actuator position.
    std::vector<double> initial_state(double v0, int initial_position);

    /// Volts-scale tolerances; max_dt resolves watchdog/settling dynamics.
    sim::ode_options suggested_ode_options() const;

    /// Per-lane plant handle for the digital processes of lane l.
    harvester::plant& plant(std::size_t l) { return *plants_.at(l); }

    const power::energy_ledger& ledger(std::size_t l) const {
        return ledgers_.at(l);
    }

    // --- batch_analog_system ---
    std::size_t state_size() const override { return k_state_count; }
    std::size_t lanes() const override { return lanes_; }
    /// Bind the batch simulator whose state the per-lane plants read/write.
    void attach(sim::batch_simulator& bsim) override { bsim_ = &bsim; }
    void derivatives(std::span<const double> t, const sim::batch_state& x,
                     sim::batch_state& dxdt) const override;

private:
    /// harvester::plant over one lane of this system.
    class lane_plant final : public harvester::plant {
    public:
        lane_plant(batch_envelope_system& owner, std::size_t lane)
            : owner_(&owner), lane_(lane) {}
        double storage_voltage() const override;
        void withdraw(double joules, const std::string& account) override;
        void set_sustained_draw(const std::string& account,
                                double amps) override;
        int position() const override { return owner_->position_[lane_]; }
        void set_position(int position) override;
        double vibration_frequency() const override;
        double phase_lag() const override;

    private:
        batch_envelope_system* owner_;
        std::size_t lane_;
    };

    sim::batch_simulator& bsim() const;

    const harvester::harvester_model& model_;
    const harvester::vibration_source& vib_;
    std::shared_ptr<const power::storage_model> storage_;
    power::rectifier_params rect_;
    std::size_t lanes_;
    sim::batch_simulator* bsim_ = nullptr;
    frontend_kind frontend_ = frontend_kind::diode_bridge;
    double frontend_efficiency_ = 0.75;

    // Per-lane digital-facing state.
    std::vector<int> position_;
    std::vector<power::load_bank> loads_;
    std::vector<std::unordered_map<std::string, power::load_id>> load_slots_;
    std::vector<power::energy_ledger> ledgers_;
    std::vector<std::unique_ptr<lane_plant>> plants_;

    // Per-derivatives-call inputs/outputs of the envelope hook and its
    // work arrays, lane-contiguous. Mutable because derivatives() is
    // logically const; a system instance hosts exactly one
    // (single-threaded) batch_simulator run at a time.
    mutable std::vector<double> freq_, accel_, v_, z_, i_charge_;
    mutable harvester::envelope_scratch scratch_;
};

}  // namespace ehdse::dse
