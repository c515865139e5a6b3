// Pluggable harvester backend interface — the registry pattern (PR 4's
// design/surrogate/optimizer registries) applied to the physics layer.
//
// A harvester_model bundles everything the node simulators need from one
// device class:
//
//   * the tuning law          resonant_frequency(position) over a discrete
//                             actuator range (the firmware LUT samples it);
//   * the power envelope      envelope_lanes(): cycle-averaged amplitude
//                             relaxation rate and store charging current
//                             for B operating points at once — the RHS
//                             contribution the envelope fast path
//                             integrates, scalar (B = 1) and batch alike;
//   * the transient RHS       make_transient(): the full per-cycle ODE
//                             system for validation runs;
//   * the retune energy cost  actuator(): what one tuning move costs the
//                             energy budget (stepper motor for the
//                             electromagnetic device, bias DAC for the
//                             electrostatic one);
//   * describe()              machine-readable parameter summary for
//                             --list-harvesters and service manifests.
//
// Numerical contract: envelope_lanes / initial_amplitude / phase_lag are
// pure functions of their arguments, and envelope_lanes is lane-wise:
// lane l of a B-lane call equals a width-1 call on lane l's inputs
// bitwise, whatever the other lanes hold. That is what lets the scalar
// envelope system (width 1) and the batch kernel (width B) share one
// implementation of each backend's physics.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "power/load_bank.hpp"
#include "power/rectifier.hpp"
#include "power/storage.hpp"
#include "sim/ode.hpp"

namespace ehdse::harvester {

class vibration_source;

/// Power-conditioning mode of the envelope path. Mirrors
/// spec::frontend_kind (spec depends on harvester, so the canonical enum
/// cannot be referenced from here); dse::make_node_system maps between
/// the two.
enum class conditioning_kind {
    diode_bridge,  ///< passive bridge straight into the store
    mppt,          ///< matched-load converter at fixed efficiency
};

/// What one actuator move costs — the numbers the tuning controller
/// budgets against before committing to a retune. Defaults are the
/// electromagnetic device's Haydon 21000 stepper (mcu::actuator_params).
struct retune_cost {
    double step_time_s = 5.0e-3;         ///< wall time per position step
    double single_step_energy_j = 4.06e-3;
    double multi_step_energy_j = 2.03e-3;  ///< per step in a multi-step move
    double min_drive_voltage_v = 2.6;    ///< store voltage floor to actuate
};

/// Envelope RHS contribution at one operating point: how fast the
/// displacement-amplitude envelope relaxes and what average current the
/// conditioning circuit delivers into the store.
struct envelope_rates {
    double amplitude_rate = 0.0;    ///< d z_env / dt (m/s)
    double charge_current_a = 0.0;  ///< average current into the store
};

/// Operating points of B lanes, structure-of-arrays: lane l runs at
/// excitation (freq_hz[l], accel_amp_ms2[l]) with the actuator at
/// position[l], the store at store_v[l] >= 0 and the displacement-
/// amplitude envelope at z_env[l] >= 0. All spans have the same length.
struct envelope_lane_inputs {
    std::span<const double> freq_hz;
    std::span<const double> accel_amp_ms2;
    std::span<const double> store_v;
    std::span<const double> z_env;
    std::span<const int> position;

    std::size_t lanes() const noexcept { return freq_hz.size(); }
};

/// Where envelope_lanes() writes lane l's envelope_rates.
struct envelope_lane_outputs {
    std::span<double> amplitude_rate;
    std::span<double> charge_current_a;
};

/// Caller-owned work arrays for envelope_lanes(): k_rows double rows and
/// k_masks byte rows of lanes() entries each. A backend uses them as it
/// likes, so the model itself stays stateless and thread-safe. Sized once
/// per system; width 1 lives inline, so a scalar caller allocates nothing.
class envelope_scratch {
public:
    static constexpr std::size_t k_rows = 16;
    static constexpr std::size_t k_masks = 3;

    explicit envelope_scratch(std::size_t lanes);

    std::size_t lanes() const noexcept { return lanes_; }
    double* row(std::size_t k) noexcept {
        return (lanes_ == 1 ? one_row_ : rows_.data()) + k * lanes_;
    }
    std::uint8_t* mask(std::size_t k) noexcept {
        return (lanes_ == 1 ? one_mask_ : masks_.data()) + k * lanes_;
    }

private:
    std::size_t lanes_;
    std::vector<double> rows_;
    std::vector<std::uint8_t> masks_;
    double one_row_[k_rows] = {};
    std::uint8_t one_mask_[k_masks] = {};
};

/// Full transient ODE system of one harvester: mechanics + conditioning
/// circuit resolved every vibration cycle. The wrapper (transient_system)
/// only needs the state layout taps and integration ceiling; everything
/// else is the analog_system contract.
class transient_rhs : public sim::analog_system {
public:
    ~transient_rhs() override = default;

    /// Initial state: mass at rest, store at `v0` volts.
    virtual std::vector<double> initial_state(double v0) const = 0;

    virtual int position() const = 0;
    virtual void set_position(int position) = 0;

    /// Where the store voltage / cumulative harvested energy live.
    virtual std::size_t voltage_index() const = 0;
    virtual std::size_t harvested_index() const = 0;

    /// Integrator step ceiling resolving the fastest dynamics.
    virtual double suggested_max_dt() const = 0;
};

/// One registered harvester device class. Stateless and thread-safe: all
/// queries are pure functions of the parameters, shared read-only across
/// concurrent evaluations exactly like the microgenerator it generalises.
class harvester_model {
public:
    virtual ~harvester_model() = default;

    /// Registry name ("electromagnetic", "electrostatic").
    virtual const std::string& name() const noexcept = 0;

    /// Machine-readable parameter summary (JSON object) for
    /// --list-harvesters, manifests and debugging.
    virtual obs::json_value describe() const = 0;

    /// Number of discrete actuator positions (8-bit in the paper).
    virtual int position_count() const noexcept = 0;

    /// Tuning law: resonant frequency (Hz) at a discrete position. Must be
    /// monotone non-decreasing in position (tuning_table's invariant).
    virtual double resonant_frequency(int position) const = 0;

    double min_frequency() const { return resonant_frequency(0); }
    double max_frequency() const {
        return resonant_frequency(position_count() - 1);
    }

    /// Energy/time cost of actuating the tuning mechanism.
    virtual retune_cost actuator() const noexcept = 0;

    /// Converged steady-state displacement amplitude at t = 0 — the
    /// envelope integrator's initial condition (so the run does not start
    /// on an artificial transient).
    virtual double initial_amplitude(double freq_hz, double accel_amp_ms2,
                                     int position, double store_v,
                                     const power::rectifier_params& rect) const = 0;

    /// The envelope hook: envelope RHS of every lane of `in` — amplitude
    /// relaxation rate for the current envelope value z_env plus the
    /// average current the conditioning circuit delivers at store_v —
    /// written to `out`. `efficiency` applies to the mppt conditioning kind
    /// only. `scratch` must hold at least in.lanes() lanes. Lane-wise
    /// (see the numerical contract above) and allocation-free.
    virtual void envelope_lanes(const envelope_lane_inputs& in,
                                conditioning_kind conditioning,
                                double efficiency,
                                const power::rectifier_params& rect,
                                envelope_scratch& scratch,
                                const envelope_lane_outputs& out) const = 0;

    /// envelope_lanes() at one operating point (width 1).
    envelope_rates envelope_dynamics(double freq_hz, double accel_amp_ms2,
                                     int position, double store_v,
                                     double z_env,
                                     conditioning_kind conditioning,
                                     double efficiency,
                                     const power::rectifier_params& rect) const;

    /// Steady-state phase lag between excitation and displacement — the
    /// measurement tap the fine-tuning controller's phase detector reads.
    virtual double phase_lag(double freq_hz, double accel_amp_ms2,
                             int position, double store_v,
                             const power::rectifier_params& rect) const = 0;

    /// Build the full transient ODE system for validation-fidelity runs.
    /// All referenced objects must outlive the returned system.
    virtual std::unique_ptr<transient_rhs> make_transient(
        const vibration_source& vib, const power::storage_model& storage,
        const power::load_bank& loads,
        const power::rectifier_params& rect) const = 0;
};

/// One registry row: the spellings --list-harvesters prints.
struct harvester_info {
    std::string name;
    std::string description;
};

/// Registered harvester device classes, in presentation order.
const std::vector<harvester_info>& harvester_registry();

/// True when `name` is a registered harvester.
bool is_known_harvester(std::string_view name) noexcept;

/// Comma-separated registered names, for error messages.
std::string harvester_names();

/// Build the named harvester with its default (paper-calibrated)
/// parameters. Throws std::invalid_argument for an unknown name
/// (offender named, valid choices listed).
std::unique_ptr<harvester_model> make_harvester(std::string_view name);

}  // namespace ehdse::harvester
