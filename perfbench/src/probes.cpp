#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>

#include "dse/system_config.hpp"
#include "harvester/harvester_model.hpp"
#include "harvester/vibration.hpp"
#include "power/load_bank.hpp"
#include "power/supercapacitor.hpp"

namespace perfbench {

namespace harvester = ehdse::harvester;
namespace numeric = ehdse::numeric;
namespace power = ehdse::power;
namespace rsm = ehdse::rsm;

namespace {

constexpr double k_burst_s = 4.5e-3;  // one wake/sense/tx burst

/// Time `calls` invocations of `fn(i)` and return seconds per call.
template <typename F>
double per_call(std::size_t calls, F&& fn) {
    volatile double sink = 0.0;
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < calls; ++i) sink = sink + fn(i);
    return seconds_since(t0) / static_cast<double>(calls);
}

}  // namespace

void check_result(report& rep, const dse::evaluation_result& r,
                  const spec::scenario& scn, const std::string& what) {
    const power::supercapacitor_params cap{};
    rep.check(r.sim_ok, what + ": sim_ok is false");
    rep.check(std::isfinite(r.final_voltage_v) && r.final_voltage_v >= 0.0 &&
                  r.final_voltage_v <= cap.max_voltage_v,
              what + ": final voltage outside [0, rating]");
    const double max_tx = scn.duration_s / k_burst_s + 1.0;
    rep.check(r.low_band_transmissions <= r.transmissions &&
                  r.transmissions <= r.events &&
                  static_cast<double>(r.transmissions) <= max_tx,
              what + ": transmission count not physically bounded (" +
                  std::to_string(r.transmissions) + ")");
    const double initial_j =
        0.5 * cap.capacitance_f * scn.v_initial * scn.v_initial;
    const double out_j = r.withdrawn_energy_j + r.sustained_load_energy_j;
    rep.check(out_j <= (initial_j + r.harvested_energy_j) * (1.0 + 1e-6) + 1e-9,
              what + ": store delivered more energy than it received");
}

void add_to_digest(digest& d, const dse::evaluation_result& r) {
    d.add(r.transmissions);
    d.add(r.low_band_transmissions);
    d.add(r.suppressed_wakeups);
}

void harvester_probe(report& rep, const std::vector<spec::scenario>& scenarios,
                     ehdse::testkit::prng& rng) {
    constexpr std::size_t k_points = 64;
    constexpr std::size_t k_calls = 20000;
    const power::rectifier_params rect{};
    for (const char* name : {"electromagnetic", "electrostatic"}) {
        const auto model = harvester::make_harvester(name);
        struct point {
            double f, a, v, z;
            int pos;
        };
        std::vector<point> pts;
        for (std::size_t i = 0; i < k_points; ++i) {
            const spec::scenario& scn = scenarios[rng.index(scenarios.size())];
            const harvester::vibration_source vib = scn.make_vibration();
            const double t = rng.uniform(0.0, scn.duration_s);
            point p{};
            p.f = vib.frequency_at(t);
            p.a = vib.amplitude_at(t);
            p.v = rng.uniform(2.0, 3.5);
            p.pos = static_cast<int>(rng.index(
                static_cast<std::size_t>(model->position_count())));
            p.z = model->initial_amplitude(p.f, p.a, p.pos, p.v, rect) *
                  rng.uniform(0.5, 1.5);
            pts.push_back(p);
        }
        const double s = per_call(k_calls, [&](std::size_t i) {
            const point& p = pts[i % pts.size()];
            return model
                ->envelope_dynamics(p.f, p.a, p.pos, p.v, p.z,
                                    harvester::conditioning_kind::diode_bridge,
                                    0.75, rect)
                .charge_current_a;
        });
        rep.layer(std::string("harvester.envelope_dynamics_s.") + name, s, "s",
                  "mean of one call over " + std::to_string(k_points) +
                      " drawn operating points");
    }

    const auto model = harvester::make_harvester("electromagnetic");
    const spec::scenario& scn = scenarios[rng.index(scenarios.size())];
    const harvester::vibration_source vib = scn.make_vibration();
    const power::supercapacitor storage{};
    power::load_bank loads;
    const auto rhs = model->make_transient(vib, storage, loads, rect);
    const std::vector<double> x0 = rhs->initial_state(scn.v_initial);
    std::vector<std::vector<double>> states;
    for (std::size_t i = 0; i < k_points; ++i) {
        std::vector<double> x = x0;
        for (double& xi : x) xi += rng.uniform(-1e-4, 1e-4);
        states.push_back(std::move(x));
    }
    std::vector<double> dxdt(rhs->state_size());
    const double s = per_call(k_calls, [&](std::size_t i) {
        const double t = static_cast<double>(i) * 1e-4;
        rhs->derivatives(t, states[i % states.size()], dxdt);
        return dxdt[0];
    });
    rep.layer("harvester.transient_rhs_s", s, "s",
              "mean of one electromagnetic transient RHS call");
}

void batch_lane_probe(report& rep, const spec::scenario& scn,
                      const std::vector<spec::system_config>& configs) {
    for (const char* name : {"electromagnetic", "electrostatic"}) {
        const dse::system_evaluator eval(scn, spec::harvester_spec{name});
        const auto t0 = clock::now();
        const auto out = eval.evaluate_batch(configs);
        const double wall = seconds_since(t0);
        for (std::size_t i = 0; i < out.size(); ++i) {
            rep.attempted();
            check_result(rep, out[i], scn,
                         std::string("batch probe ") + name + " lane " +
                             std::to_string(i));
        }
        rep.layer(std::string("dse.batch.lane_s.") + name,
                  wall / static_cast<double>(configs.size()), "s",
                  std::to_string(configs.size()) + "-lane evaluate_batch, " +
                      std::to_string(scn.duration_s) + " s horizon");
    }
}

double scalar_batch_divergence(report& rep, const dse::system_evaluator& eval,
                               const std::vector<spec::system_config>& configs,
                               const spec::evaluation_options& options,
                               const std::string& what) {
    const auto batch = eval.evaluate_batch(configs, options);
    double worst = 0.0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const dse::evaluation_result scalar = eval.evaluate(configs[i], options);
        rep.attempted();
        check_result(rep, scalar, eval.scene(), what + " scalar");
        rep.check(scalar.transmissions == batch[i].transmissions,
                  what + ": scalar and batch transmissions differ (" +
                      std::to_string(scalar.transmissions) + " vs " +
                      std::to_string(batch[i].transmissions) + ")");
        worst = std::max(worst,
                         std::abs(scalar.final_voltage_v - batch[i].final_voltage_v));
    }
    std::cout << "scalar_vs_batch_max_final_voltage_diff_v = " << worst << "  ("
              << what << ", " << configs.size() << " configs)\n";
    return worst;
}

double snapshot_counter(const obs::json_value& snap, const char* name) {
    const obs::json_value* counters = snap.find("counters");
    const obs::json_value* v = counters ? counters->find(name) : nullptr;
    return v && v->is_number() ? v->as_number() : 0.0;
}

double snapshot_hist(const obs::json_value& snap, const char* name,
                     const char* field) {
    const obs::json_value* hists = snap.find("histograms");
    const obs::json_value* h = hists ? hists->find(name) : nullptr;
    const obs::json_value* v = h ? h->find(field) : nullptr;
    return v && v->is_number() ? v->as_number() : 0.0;
}

void registry_layers(report& rep, const obs::json_value& snap, double wall_s,
                     bool has_pool) {
    const double batches = snapshot_counter(snap, "dse.batch.batches");
    const double fallbacks = snapshot_counter(snap, "dse.batch.fallbacks");
    if (batches + fallbacks == 0) {
        const char* why = "this workload never calls evaluate_batch";
        rep.absent("dse.batch.lanes_per_batch", "count", why);
        rep.absent("dse.batch.fallbacks", "count", why);
        rep.absent("sim.batch.lane_occupancy", "ratio", why);
    } else {
        const double per_batch =
            batches > 0 ? snapshot_counter(snap, "dse.batch.lanes") / batches : 0.0;
        rep.layer("dse.batch.lanes_per_batch", per_batch, "count");
        rep.layer("dse.batch.fallbacks", fallbacks, "count");
        const double sweeps = snapshot_counter(snap, "sim.batch.sweeps");
        const double steps = snapshot_counter(snap, "sim.batch.ode_steps") +
                             snapshot_counter(snap, "sim.batch.ode_steps_rejected");
        rep.layer("sim.batch.lane_occupancy",
                  sweeps > 0 && per_batch > 0 ? steps / (sweeps * per_batch) : 0.0,
                  "ratio", "(steps + rejected) / (sweeps x mean lanes per batch)");
    }
    if (!has_pool) {
        const char* why = "this workload runs without an exec pool";
        rep.absent("exec.pool.task_wait_s_p50", "s", why);
        rep.absent("exec.pool.busy_ratio", "ratio", why);
        rep.absent("exec.pool.steals", "count", why);
        return;
    }
    rep.layer("exec.pool.task_wait_s_p50",
              snapshot_hist(snap, "exec.pool.task_wait_seconds", "p50"), "s",
              "obs histogram bucket midpoint");
    const double workers = static_cast<double>(pool_workers());
    rep.layer("exec.pool.busy_ratio",
              snapshot_hist(snap, "exec.pool.task_run_seconds", "sum") /
                  (workers * wall_s),
              "ratio", "task run seconds / (workers x window)");
    rep.layer("exec.pool.steals", snapshot_counter(snap, "exec.pool.steals"),
              "count");
}

void absent_svc_layers(report& rep, const std::string& why) {
    for (const char* name : {"svc.admit_s", "svc.queue_wait_s", "svc.run_s", "svc.ping_rtt_s"})
        rep.absent(name, "s", why);
    rep.absent("svc.result_bytes", "bytes", why);
    rep.absent("svc.rejected_ratio", "ratio", why);
    rep.absent("loadgen.lag_s_p99", "s", why);
}

std::vector<spec::system_config> stratified_configs(std::size_t n,
                                                    ehdse::testkit::prng& rng) {
    const rsm::design_space space = dse::paper_design_space();
    std::vector<std::vector<std::size_t>> strata(3, std::vector<std::size_t>(n));
    for (auto& axis : strata) {
        std::iota(axis.begin(), axis.end(), std::size_t{0});
        for (std::size_t i = n; i > 1; --i) std::swap(axis[i - 1], axis[rng.index(i)]);
    }
    std::vector<spec::system_config> out;
    for (std::size_t i = 0; i < n; ++i) {
        numeric::vec coded(3);
        for (std::size_t a = 0; a < 3; ++a)
            coded[a] = -1.0 + 2.0 * (static_cast<double>(strata[a][i]) + rng.uniform()) /
                                  static_cast<double>(n);
        out.push_back(dse::config_from_coded(space, coded));
    }
    return out;
}

std::vector<spec::system_config> grid_configs(std::size_t k, ehdse::testkit::prng& rng) {
    const rsm::design_space space = dse::paper_design_space();
    const auto cell = [&](std::size_t i) {
        return -1.0 + 2.0 * (static_cast<double>(i) + rng.uniform()) / static_cast<double>(k);
    };
    std::vector<spec::system_config> out;
    for (std::size_t a = 0; a < k; ++a)
        for (std::size_t b = 0; b < k; ++b)
            for (std::size_t c = 0; c < k; ++c) {
                const double x1 = cell(a), x2 = cell(b), x3 = cell(c);
                out.push_back(dse::config_from_coded(space, {x1, x2, x3}));
            }
    return out;
}

}  // namespace perfbench
