#include "dse/system_evaluator.hpp"

#include <algorithm>
#include <deque>
#include <memory>

#include "dse/transient_system.hpp"
#include "harvester/electromagnetic.hpp"
#include "obs/metrics.hpp"
#include "obs/timing.hpp"

namespace ehdse::dse {

system_evaluator::system_evaluator(scenario scn,
                                   harvester::microgenerator_params gen,
                                   power::supercapacitor_params cap,
                                   power::rectifier_params rect,
                                   node::node_params node,
                                   mcu::controller_params controller)
    : scenario_(scn),
      harv_{},  // default: electromagnetic
      model_(std::make_shared<const harvester::electromagnetic_harvester>(gen)),
      table_(*model_),
      cap_(cap),
      rect_(rect),
      node_(node),
      controller_(controller) {
    scenario_.validate();
}

system_evaluator::system_evaluator(scenario scn, spec::harvester_spec harv,
                                   power::supercapacitor_params cap,
                                   power::rectifier_params rect,
                                   node::node_params node,
                                   mcu::controller_params controller)
    : scenario_(scn),
      harv_(harv.canonicalized()),
      model_((harv_.validate(), harvester::make_harvester(harv_.model))),
      table_(*model_),
      cap_(cap),
      rect_(rect),
      node_(node),
      controller_(controller) {
    scenario_.validate();
    // Each device class knows its own retune mechanism: the EM cantilever
    // moves a magnet with a stepper, the electrostatic device programs a
    // bias DAC. The controller charges whatever the backend quotes.
    const harvester::retune_cost cost = model_->actuator();
    controller_.actuator.step_time_s = cost.step_time_s;
    controller_.actuator.single_step_energy_j = cost.single_step_energy_j;
    controller_.actuator.multi_step_energy_j = cost.multi_step_energy_j;
    controller_.actuator.min_drive_voltage_v = cost.min_drive_voltage_v;
}

namespace {

/// The digital side of one design point: node and controller parameters
/// with the config's knobs applied.
struct digital_params {
    node::node_params node;
    mcu::controller_params controller;
};

digital_params digital_for(const system_config& config,
                           const evaluation_options& options,
                           const node::node_params& node_base,
                           const mcu::controller_params& ctrl_base) {
    digital_params p{node_base, ctrl_base};
    p.node.fast_interval_s = config.tx_interval_s;
    p.controller.mcu.clock_hz = config.mcu_clock_hz;
    p.controller.watchdog_period_s = config.watchdog_period_s;
    p.controller.rng_seed = options.controller_seed;
    return p;
}

/// Actuator position at t = 0: the scenario's, else the firmware LUT's
/// entry for the starting frequency.
int start_position(const scenario& scn, const harvester::tuning_table& table) {
    if (scn.initial_position >= 0) return scn.initial_position;
    return table.lookup(scn.frequency_schedule.empty()
                            ? scn.f_start_hz
                            : scn.frequency_schedule.front().second);
}

/// The evaluator's storage override, else the supercapacitor from `cap`.
std::shared_ptr<const power::storage_model> storage_or(
    std::shared_ptr<const power::storage_model> storage,
    const power::supercapacitor_params& cap) {
    if (storage) return storage;
    return std::make_shared<power::supercapacitor>(cap);
}

/// Book one finished run into the process-wide metrics sink, if attached.
void record_run_metrics(const evaluation_result& r) {
    obs::metrics_registry* reg = obs::global_registry();
    if (!reg) return;
    reg->get_counter("dse.evaluate.runs").add();
    if (!r.sim_ok) reg->get_counter("dse.evaluate.failures").add();
    reg->get_histogram("dse.evaluate.seconds").observe(r.wall_time_s);
    reg->get_histogram("dse.evaluate.ode_steps")
        .observe(static_cast<double>(r.ode_steps));
    reg->get_histogram("dse.evaluate.transmissions")
        .observe(static_cast<double>(r.transmissions));
}

/// Book one finished batch into the dse.batch.* metrics, if attached.
void record_batch_metrics(std::size_t lanes, bool fallback) {
    obs::metrics_registry* reg = obs::global_registry();
    if (!reg) return;
    if (fallback) {
        reg->get_counter("dse.batch.fallbacks").add();
        return;
    }
    reg->get_counter("dse.batch.batches").add();
    reg->get_counter("dse.batch.lanes").add(lanes);
}

}  // namespace

evaluation_result system_evaluator::evaluate(const system_config& config,
                                             const evaluation_options& options) const {
    evaluation_result out;
    if (options.model == fidelity::transient)
        run_transient(config, options, out);
    else
        run_envelope({&config, 1}, options, {&out, 1});
    return out;
}

std::vector<evaluation_result> system_evaluator::evaluate_batch(
    const std::span<const system_config> configs,
    const evaluation_options& options) const {
    std::vector<evaluation_result> out(configs.size());
    if (configs.empty()) return out;
    if (options.model == fidelity::transient) {
        record_batch_metrics(configs.size(), /*fallback=*/true);
        for (std::size_t i = 0; i < configs.size(); ++i)
            out[i] = evaluate(configs[i], options);
        return out;
    }
    run_envelope(configs, options, out);
    return out;
}

std::unique_ptr<sim::batch_analog_system> system_evaluator::decorate_kernel(
    batch_envelope_system& /*system*/, std::span<const system_config> /*chunk*/,
    const evaluation_options& /*options*/) const {
    return nullptr;
}

void system_evaluator::run_envelope(const std::span<const system_config> configs,
                                    const evaluation_options& options,
                                    const std::span<evaluation_result> out) const {
    for (std::size_t first = 0; first < configs.size();
         first += k_max_batch_lanes) {
        const std::size_t lanes =
            std::min(k_max_batch_lanes, configs.size() - first);
        const std::span<const system_config> chunk = configs.subspan(first, lanes);
        const obs::stopwatch watch;

        // Per-chunk stimulus — same scenario for every lane, so one
        // vibration source is shared read-only across lanes.
        const harvester::vibration_source vib = scenario_.make_vibration();
        batch_envelope_system system(*model_, vib, storage_or(storage_, cap_),
                                     rect_, lanes);
        system.set_frontend(options.frontend, options.frontend_efficiency);
        std::vector<double> x0 = system.initial_state(
            scenario_.v_initial, start_position(scenario_, table_));
        const std::unique_ptr<sim::batch_analog_system> decorated =
            decorate_kernel(system, chunk, options);
        sim::batch_simulator bsim(decorated ? *decorated : system, std::move(x0),
                                  system.suggested_ode_options());
        run_lanes(system, bsim, chunk, options, out.subspan(first, lanes), watch);
    }
}

void system_evaluator::run_transient(const system_config& config,
                                     const evaluation_options& options,
                                     evaluation_result& out) const {
    const obs::stopwatch watch;
    const harvester::vibration_source vib = scenario_.make_vibration();
    transient_system system(*model_, vib, storage_or(storage_, cap_), rect_);
    std::vector<double> x0 =
        system.initial_state(scenario_.v_initial, start_position(scenario_, table_));
    sim::batch_simulator bsim(system.kernel(), std::move(x0),
                              system.suggested_ode_options());
    system.attach(bsim.lane(0));
    run_lanes(system, bsim, {&config, 1}, options, {&out, 1}, watch);
}

template <class System>
void system_evaluator::run_lanes(System& system, sim::batch_simulator& bsim,
                                 const std::span<const system_config> chunk,
                                 const evaluation_options& options,
                                 const std::span<evaluation_result> results,
                                 const obs::stopwatch& watch) const {
    const std::size_t lanes = chunk.size();
    const std::size_t iv = system.voltage_index();
    runs_ += lanes;

    // Digital side per lane: node first, then controller (each lane's
    // event queue keeps that FIFO order for same-time events).
    std::deque<node::sensor_node> nodes;
    std::deque<mcu::tuning_controller> controllers;
    for (std::size_t l = 0; l < lanes; ++l) {
        const digital_params p = digital_for(chunk[l], options, node_, controller_);
        nodes.emplace_back(bsim.lane(l), system.plant(l), p.node,
                           /*first_wake_s=*/0.0);
        controllers.emplace_back(bsim.lane(l), system.plant(l), table_,
                                 p.controller);
    }

    std::vector<double> v_min(lanes, scenario_.v_initial);
    std::vector<double> v_max(lanes, scenario_.v_initial);
    bsim.add_step_observer([&](std::size_t l, double) {
        const double v = bsim.state_at(l, iv);
        v_min[l] = std::min(v_min[l], v);
        v_max[l] = std::max(v_max[l], v);
    });
    if (options.record_traces) {
        for (evaluation_result& r : results) {
            r.voltage_trace.emplace("supercap_voltage", options.trace_interval_s);
            r.position_trace.emplace("actuator_position", options.trace_interval_s);
        }
        bsim.add_step_observer([&](std::size_t l, double t) {
            results[l].voltage_trace->record(t, bsim.state_at(l, iv));
            results[l].position_trace->record(
                t, static_cast<double>(system.plant(l).position()));
        });
    }

    bsim.run_until(scenario_.duration_s);

    // Wall clock is shared by construction; attribute an even share to
    // each lane so throughput metrics stay meaningful.
    const double wall_s = watch.seconds() / static_cast<double>(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        evaluation_result& r = results[l];
        r.sim_ok = bsim.lane_ok(l);
        r.transmissions = nodes[l].transmissions();
        r.suppressed_wakeups = nodes[l].suppressed_wakeups();
        r.low_band_transmissions = nodes[l].low_band_transmissions();
        r.tuning = controllers[l].stats();
        r.final_voltage_v = bsim.state_at(l, iv);
        r.min_voltage_v = v_min[l];
        r.max_voltage_v = v_max[l];
        r.harvested_energy_j = bsim.state_at(l, system.harvested_index());
        if (const std::optional<std::size_t> il = system.load_energy_index())
            r.sustained_load_energy_j = bsim.state_at(l, *il);
        r.ledger = system.ledger(l);
        r.withdrawn_energy_j = r.ledger.grand_total();
        r.ode_steps = bsim.lane_steps(l);
        r.ode_steps_rejected = bsim.lane_rejected_steps(l);
        r.events = bsim.lane_events(l);
        r.wall_time_s = wall_s;
        record_run_metrics(r);
    }
    record_batch_metrics(lanes, /*fallback=*/false);
}

}  // namespace ehdse::dse
