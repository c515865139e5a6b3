// transient_sweep: back-to-back system_evaluator::evaluate at transient
// fidelity (closed loop, one caller, no pool, no cache) on a short
// horizon whose frequency steps twice, for a seed-drawn catalogue of
// design points that alternates the two harvester backends.
#include <sched.h>

#include <algorithm>
#include <map>
#include <memory>

#include "dse/system_evaluator.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "spec/json_codec.hpp"
#include "spec/spec_hash.hpp"
#include "testkit/fault_injection.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace testkit = ehdse::testkit;

struct request {
    spec::experiment_spec spec;  ///< canonical
    std::uint64_t hash = 0;
    std::size_t evaluator = 0;   ///< index into the setup's evaluators
};

/// Evaluator e serves scenario e / 2 on backend k_backends[e % 2].
struct catalogue {
    std::vector<spec::scenario> scenarios;
    std::vector<request> requests;
};

constexpr const char* k_backends[] = {"electromagnetic", "electrostatic"};

catalogue make_catalogue(const run_options& opts, std::string& inputs) {
    testkit::prng rng(testkit::mix(opts.seed, 0x7472616e73ULL));
    catalogue cat;
    // Two scenarios, accel_mg stratified over [50, 70] mg; the horizon
    // holds two +5 Hz steps so retune events fire inside it.
    for (int s = 0; s < 2; ++s) {
        spec::scenario scn;
        scn.duration_s = opts.tiny ? 3.0 : 60.0;
        scn.step_period_s = scn.duration_s / 3.0;
        scn.accel_mg = 50.0 + 10.0 * (s + rng.uniform());
        cat.scenarios.push_back(scn.canonicalized());
    }
    // Every point of a jittered 3x3x3 grid on both backends, in a
    // seed-shuffled order; the scenario alternates over the grid.
    const std::vector<spec::system_config> configs = grid_configs(opts.tiny ? 2 : 3, rng);
    std::vector<std::size_t> order(2 * configs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.index(i)]);
    for (std::size_t i = 0; i < order.size(); ++i) {
        const std::size_t point = order[i] / 2;
        const std::size_t backend = order[i] % 2;
        const std::size_t scn = point % cat.scenarios.size();
        request r;
        r.evaluator = scn * 2 + backend;
        r.spec.scn = cat.scenarios[scn];
        r.spec.harv.model = k_backends[backend];
        r.spec.config = configs[point];
        r.spec.eval.model = spec::fidelity::transient;
        r.spec.eval.controller_seed = rng() >> 12;
        r.spec.validate();
        r.spec = r.spec.canonicalized();
        r.hash = write_input(inputs, i, "simulate", r.spec);
        cat.requests.push_back(std::move(r));
    }
    return cat;
}

std::vector<std::unique_ptr<dse::system_evaluator>> make_setup(
    const run_options& opts, const catalogue& cat) {
    std::vector<std::unique_ptr<dse::system_evaluator>> evals;
    for (std::size_t e = 0; e < 2 * cat.scenarios.size(); ++e) {
        const spec::scenario& scn = cat.scenarios[e / 2];
        const spec::harvester_spec backend{k_backends[e % 2]};
        if (opts.fault_rate > 0.0 && backend.model == "electromagnetic") {
            testkit::fault_options faults;
            faults.seed = opts.seed;
            faults.exception_probability = opts.fault_rate;
            evals.push_back(std::make_unique<testkit::faulty_evaluator>(scn, faults));
        } else {
            evals.push_back(std::make_unique<dse::system_evaluator>(scn, backend));
        }
    }
    return evals;
}

/// Restrict the calling thread to the n-th CPU (cyclically) of `allowed`.
void pin_to_nth_cpu(const cpu_set_t& allowed, std::size_t n) {
    const int count = CPU_COUNT(&allowed);
    if (count <= 1) return;
    int skip = static_cast<int>(n % static_cast<std::size_t>(count));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
        return;
    }
}

struct sweep_pass {
    std::vector<double> eval_s;  ///< in call order, failed evaluations too
    double simulated_s = 0.0;
    double wall_s = 0.0;
    double steps = 0, rejected = 0, events = 0;
    std::map<std::size_t, std::uint64_t> first_digest;
};

sweep_pass run_pass(const catalogue& cat,
                    const std::vector<std::unique_ptr<dse::system_evaluator>>& evals,
                    report& rep, tracer& tr, double window_s) {
    sweep_pass pass;
    cpu_set_t all_cpus;
    sched_getaffinity(0, sizeof all_cpus, &all_cpus);
    const auto t0 = clock::now();
    for (std::size_t i = 0;; ++i) {
        if (i >= cat.requests.size() && seconds_since(t0) >= window_s) break;
        const std::size_t k = i % cat.requests.size();
        // One thread on a shared host can sit on a CPU whose sibling is
        // busy for a whole run; moving to the next allowed CPU at every
        // cycle lets the block statistics see each CPU.
        if (k == 0) pin_to_nth_cpu(all_cpus, i / cat.requests.size());
        const request& req = cat.requests[k];
        rep.attempted();
        const std::size_t timed = pass.eval_s.size();
        auto start = clock::now();
        try {
            span request_span(tr, "request", i + 1);
            std::string text;
            {
                span s(tr, "spec.encode", i + 1);
                text = spec::to_json(req.spec).dump();
            }
            spec::experiment_spec parsed;
            {
                span s(tr, "spec.parse", i + 1);
                parsed = spec::parse_spec(text);
            }
            {
                span s(tr, "spec.hash", i + 1);
                rep.check(spec::spec_hash(parsed.canonicalized()) == req.hash,
                          "request spec did not round-trip to its hash");
            }
            start = clock::now();
            const dse::evaluation_result r = [&] {
                span s(tr, "dse.evaluate", i + 1);
                return evals[req.evaluator]->evaluate(parsed.config, parsed.eval);
            }();
            pass.eval_s.push_back(seconds_since(start));
            pass.simulated_s += req.spec.scn.duration_s;
            pass.steps += static_cast<double>(r.ode_steps);
            pass.rejected += static_cast<double>(r.ode_steps_rejected);
            pass.events += static_cast<double>(r.events);
            check_result(rep, r, req.spec.scn,
                         "transient " + req.spec.harv.model + " request " +
                             std::to_string(k));
            digest d;
            add_to_digest(d, r);
            const auto it = pass.first_digest.emplace(k, d.value()).first;
            rep.check(it->second == d.value(),
                      "repeated evaluation gave different integer results");
        } catch (const std::exception& e) {
            rep.failed(std::string("evaluate threw: ") + e.what());
            // Keep eval_s aligned with the catalogue cycle.
            if (pass.eval_s.size() == timed) pass.eval_s.push_back(seconds_since(start));
        }
    }
    pass.wall_s = seconds_since(t0);
    sched_setaffinity(0, sizeof all_cpus, &all_cpus);
    return pass;
}

}  // namespace

std::shared_ptr<void> setup_transient_sweep(const run_options& opts) {
    std::string inputs;
    return std::make_shared<std::vector<std::unique_ptr<dse::system_evaluator>>>(
        make_setup(opts, make_catalogue(opts, inputs)));
}

void run_transient_sweep(const run_options& opts, report& rep, tracer& tr) {
    std::string inputs;
    const catalogue cat = make_catalogue(opts, inputs);
    digest stream;
    for (const request& r : cat.requests) stream.add(r.hash);
    write_text(opts.out_dir + "/inputs.jsonl", inputs);
    rep.note("stream_digest", obs::json_value(stream.hex()));

    std::vector<double> setups;
    for (int i = 0; i < k_setup_repeats; ++i) setups.push_back(time_process_setup(opts));
    std::vector<std::unique_ptr<dse::system_evaluator>> evals = make_setup(opts, cat);

    tracer quiet(false);
    const sweep_pass pass = run_pass(cat, evals, rep, quiet, window_s(opts));
    const double rss = self_peak_rss_mb();

    digest results;
    for (const auto& [k, d] : pass.first_digest) results.add(d);
    rep.note("results_digest", obs::json_value(results.hex()));

    const std::size_t n = cat.requests.size();
    const blocked_samples eval_blocks = blocked_samples::by_cycles(pass.eval_s, n);
    const double p50 = eval_blocks.best_quantile(0.5);
    const double p90 = eval_blocks.best_quantile(0.9);
    const double evals_per_s = eval_blocks.best_rate(
        blocked_samples::by_cycles(std::vector<double>(pass.eval_s.size(), 1.0), n));
    const std::string note = "fastest block; n=" + std::to_string(pass.eval_s.size()) +
                             " evaluations, whole window ";
    rep.shown("eval_s_p50", p50, "s", note + std::to_string(quantile(pass.eval_s, 0.5)));
    rep.shown("eval_s_p90", p90, "s", note + std::to_string(quantile(pass.eval_s, 0.9)));
    rep.shown("sim_evals_per_s", evals_per_s, "evals/s",
              "fastest block, evaluations / evaluate() seconds; whole window " +
                  std::to_string(static_cast<double>(pass.eval_s.size()) / pass.wall_s));
    rep.shown("sim_s_per_host_s", pass.simulated_s / pass.wall_s, "s/s");
    rep.end_to_end("setup_s", quantile(setups, 0.5), "s", "median of process starts");
    rep.end_to_end("latency_s_p50", p50, "s", "eval_s_p50");
    rep.end_to_end("latency_s_p90", p90, "s", "eval_s_p90");
    rep.end_to_end("throughput_per_s", evals_per_s, "1/s", "sim_evals_per_s");
    rep.end_to_end("peak_rss_mb", rss, "MiB");

    // The transient path has no batch form; the divergence probe runs the
    // same design points at envelope fidelity on both backends.
    std::vector<spec::system_config> configs;
    for (const request& r : cat.requests) configs.push_back(r.spec.config);
    double worst = 0.0;
    for (const char* b : k_backends) {
        const dse::system_evaluator clean(cat.scenarios[0], spec::harvester_spec{b});
        worst = std::max(worst, scalar_batch_divergence(rep, clean, configs, {},
                                                        std::string("envelope ") + b));
    }
    rep.note("scalar_vs_batch_max_final_voltage_diff_v", obs::json_value(worst));

    if (!tr.enabled()) return;

    obs::metrics_registry registry;
    obs::set_global_registry(&registry);
    evals = make_setup(opts, cat);
    const sweep_pass traced = run_pass(cat, evals, rep, tr, window_s(opts));
    const obs::json_value snap = registry.to_json();

    rep.layer("spec.encode_s", quantile(tr.durations("spec.encode"), 0.5), "s");
    rep.layer("spec.parse_s", quantile(tr.durations("spec.parse"), 0.5), "s");
    rep.layer("spec.hash_s", quantile(tr.durations("spec.hash"), 0.5), "s");
    rep.layer("dse.evaluate_s", quantile(tr.durations("dse.evaluate"), 0.5), "s",
              "median transient evaluate()");
    const double runs = std::max<double>(static_cast<double>(traced.eval_s.size()), 1.0);
    rep.layer("sim.ode_steps_per_eval", traced.steps / runs, "count");
    rep.layer("sim.ode_reject_ratio",
              traced.rejected / std::max(traced.steps + traced.rejected, 1.0), "ratio");
    rep.layer("sim.events_per_eval", traced.events / runs, "count");
    double eval_wall = 0.0;
    for (double s : traced.eval_s) eval_wall += s;
    rep.layer("sim.host_s_per_step", eval_wall / std::max(traced.steps, 1.0), "s");
    registry_layers(rep, snap, traced.wall_s, false);
    rep.layer("obs.trace_overhead_ratio", mean(traced.eval_s) / mean(pass.eval_s), "ratio",
              "mean traced evaluation / mean untraced evaluation");

    testkit::prng rng(testkit::mix(opts.seed, 0x4a7));
    harvester_probe(rep, cat.scenarios, rng);
    batch_lane_probe(rep, cat.scenarios[0], configs);

    absent_svc_layers(rep, "transient_sweep runs in process, in a closed loop");
    const char* no_cache = "transient_sweep calls evaluate() without a cache";
    rep.absent("cache.hit_ratio", "ratio", no_cache);
    rep.absent("cache.evictions", "count", no_cache);
    rep.absent("cache.flow_hit_ratio", "ratio", no_cache);
    for (const char* phase : {"d_optimal", "simulate", "fit", "baseline", "optimise",
                              "validate"})
        rep.absent(std::string("dse.flow.") + phase + "_s", "s",
                   "transient_sweep runs no flow");
    rep.absent("opt.surface_evals", "count", "transient_sweep runs no optimiser");
}

}  // namespace perfbench
