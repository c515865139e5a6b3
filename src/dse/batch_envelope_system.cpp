#include "dse/batch_envelope_system.hpp"

#include <algorithm>
#include <stdexcept>

namespace ehdse::dse {

harvester::conditioning_kind conditioning_of(frontend_kind kind) noexcept {
    return kind == frontend_kind::mppt
               ? harvester::conditioning_kind::mppt
               : harvester::conditioning_kind::diode_bridge;
}

batch_envelope_system::batch_envelope_system(
    const harvester::harvester_model& model,
    const harvester::vibration_source& vib,
    std::shared_ptr<const power::storage_model> storage,
    power::rectifier_params rect, std::size_t lanes)
    : model_(model),
      vib_(vib),
      storage_(std::move(storage)),
      rect_(rect),
      lanes_(lanes),
      position_(lanes, 0),
      loads_(lanes),
      load_slots_(lanes),
      ledgers_(lanes),
      freq_(lanes), accel_(lanes), v_(lanes), z_(lanes), i_charge_(lanes),
      scratch_(lanes) {
    if (!storage_)
        throw std::invalid_argument("batch_envelope_system: null storage");
    if (lanes == 0)
        throw std::invalid_argument("batch_envelope_system: zero lanes");
    plants_.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l)
        plants_.push_back(std::make_unique<lane_plant>(*this, l));
}

sim::batch_simulator& batch_envelope_system::bsim() const {
    if (bsim_ == nullptr)
        throw std::logic_error("batch_envelope_system: no simulator attached");
    return *bsim_;
}

void batch_envelope_system::set_frontend(frontend_kind kind,
                                         double efficiency) {
    if (kind == frontend_kind::mppt && !(efficiency > 0.0 && efficiency <= 1.0))
        throw std::invalid_argument(
            "batch_envelope_system: mppt efficiency must be in (0, 1]");
    frontend_ = kind;
    frontend_efficiency_ = efficiency;
}

std::vector<double> batch_envelope_system::initial_state(
    double v0, int initial_position) {
    if (v0 < 0.0)
        throw std::invalid_argument(
            "batch_envelope_system: negative initial voltage");
    for (std::size_t l = 0; l < lanes_; ++l)
        plant(l).set_position(initial_position);
    std::vector<double> x(k_state_count, 0.0);
    x[ix_voltage] = v0;
    x[ix_amplitude] = model_.initial_amplitude(vib_.frequency_at(0.0),
                                               vib_.amplitude_at(0.0),
                                               initial_position, v0, rect_);
    return x;
}

sim::ode_options batch_envelope_system::suggested_ode_options() const {
    sim::ode_options ode;
    ode.abs_tol = 1e-8;   // volts-scale states: ~10 nV step error
    ode.rel_tol = 1e-6;
    ode.initial_dt = 1e-3;
    ode.max_dt = 5.0;     // resolve watchdog/settling dynamics comfortably
    return ode;
}

void batch_envelope_system::derivatives(
    std::span<const double> t, const sim::batch_state& x,
    sim::batch_state& dxdt) const {
    // Full-width computation: lanes the integrator masked out get
    // (ignored) values computed too — cheaper than breaking the hook's
    // lane loops up.
    const std::size_t B = lanes_;
    const double* xv = x.var(ix_voltage);
    const double* xz = x.var(ix_amplitude);
    double* dv = dxdt.var(ix_voltage);
    double* dz = dxdt.var(ix_amplitude);
    double* dh = dxdt.var(ix_harvested);
    double* de = dxdt.var(ix_load_energy);

    // Per-lane stimulus. The schedule lookups are scalar per lane
    // (piecewise-constant, a handful of segments) — negligible next to
    // the harvester physics. Local row pointers: the out-of-line lookups
    // would otherwise force the member vectors' buffers to be reloaded.
    double* v = v_.data();
    double* z = z_.data();
    double* freq = freq_.data();
    double* accel = accel_.data();
    double* i_charge = i_charge_.data();
    for (std::size_t l = 0; l < B; ++l) {
        v[l] = std::max(xv[l], 0.0);
        z[l] = std::max(xz[l], 0.0);
        freq[l] = vib_.frequency_at(t[l]);
        accel[l] = vib_.amplitude_at(t[l]);
    }

    model_.envelope_lanes({{freq, B}, {accel, B}, {v, B}, {z, B}, position_},
                          conditioning_of(frontend_), frontend_efficiency_,
                          rect_, scratch_, {{dz, B}, {i_charge, B}});

    // Common tail: sustained loads, storage dynamics, energy integrals.
    // Per-lane load banks and the (shared, virtual) storage model run
    // scalar — they are event-rate-configured and cheap next to the
    // harvester physics.
    const power::storage_model& storage = *storage_;
    for (std::size_t l = 0; l < B; ++l) {
        const double i_loads = loads_[l].total_current(v[l]);
        dv[l] = storage.dv_dt(v[l], i_charge[l] - i_loads);
        dh[l] = v[l] * i_charge[l];
        de[l] = v[l] * i_loads;
    }
}

// --- lane_plant -----------------------------------------------------------

double batch_envelope_system::lane_plant::storage_voltage() const {
    return owner_->bsim().state_at(lane_, ix_voltage);
}

void batch_envelope_system::lane_plant::withdraw(double joules,
                                                 const std::string& account) {
    if (joules < 0.0)
        throw std::invalid_argument(
            "batch_envelope_system: negative withdrawal");
    const double v = storage_voltage();
    owner_->bsim().set_state(
        lane_, ix_voltage, owner_->storage_->voltage_after_withdrawal(v, joules));
    owner_->ledgers_[lane_].record(account, joules);
}

void batch_envelope_system::lane_plant::set_sustained_draw(
    const std::string& account, double amps) {
    auto& slots = owner_->load_slots_[lane_];
    auto it = slots.find(account);
    if (it == slots.end())
        it = slots.emplace(account, owner_->loads_[lane_].add_load(account))
                 .first;
    owner_->loads_[lane_].set_current(it->second, amps);
}

void batch_envelope_system::lane_plant::set_position(int position) {
    if (position < 0 || position >= owner_->model_.position_count())
        throw std::out_of_range(
            "batch_envelope_system: actuator position outside [0,255]");
    owner_->position_[lane_] = position;
}

double batch_envelope_system::lane_plant::vibration_frequency() const {
    return owner_->vib_.frequency_at(owner_->bsim().now(lane_));
}

double batch_envelope_system::lane_plant::phase_lag() const {
    // Event-rate measurement tap: the model's steady-state phase at the
    // lane's (t, V, position).
    const double tnow = owner_->bsim().now(lane_);
    const double v = storage_voltage();
    return owner_->model_.phase_lag(owner_->vib_.frequency_at(tnow),
                                    owner_->vib_.amplitude_at(tnow),
                                    owner_->position_[lane_], v, owner_->rect_);
}

}  // namespace ehdse::dse
