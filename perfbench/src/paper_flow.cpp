// paper_flow: back-to-back run_rsm_flow on the paper spec (closed loop,
// one caller), each flow fanned out over an exec pool of nproc workers
// like `ehdse_cli flow --parallel`. The seed draws a small catalogue of
// flows that differ in accel_mg, controller_seed and optimizer_seed; the
// run cycles through it so every variant is timed several times.
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>

#include "dse/rsm_flow.hpp"
#include "dse/system_config.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/run_manifest.hpp"
#include "probes.hpp"
#include "spec/json_codec.hpp"
#include "spec/spec_hash.hpp"
#include "testkit/fault_injection.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace testkit = ehdse::testkit;
namespace exec = ehdse::exec;

struct catalogue_entry {
    spec::experiment_spec spec;  ///< canonical
    std::uint64_t hash = 0;
};

std::vector<catalogue_entry> make_catalogue(const run_options& opts,
                                            std::string& inputs) {
    testkit::prng rng(testkit::mix(opts.seed, 0x70617065725fULL));
    const std::size_t n = opts.tiny ? 2 : 8;
    // accel_mg is stratified over [55, 65] mg so every seed spans the band.
    std::vector<std::size_t> strata(n);
    for (std::size_t i = 0; i < n; ++i) strata[i] = i;
    for (std::size_t i = n; i > 1; --i) std::swap(strata[i - 1], strata[rng.index(i)]);
    std::vector<catalogue_entry> out;
    for (std::size_t i = 0; i < n; ++i) {
        spec::experiment_spec s;
        if (opts.tiny) s.scn.duration_s = 300.0;
        s.scn.accel_mg = 55.0 + 10.0 * (static_cast<double>(strata[i]) + rng.uniform()) /
                                    static_cast<double>(n);
        s.eval.controller_seed = rng() >> 12;
        s.flow.optimizer_seed = rng() >> 12;
        s.flow.parallel = true;
        s.flow.jobs = pool_workers();
        s.validate();
        catalogue_entry e;
        e.spec = s.canonicalized();
        e.hash = write_input(inputs, i, "flow", e.spec);
        out.push_back(std::move(e));
    }
    return out;
}

/// What a user has to wait for before the first flow can start: one
/// evaluator (tuning table) per catalogue scenario and the pool.
struct flow_setup {
    std::vector<std::unique_ptr<dse::system_evaluator>> evaluators;
    std::unique_ptr<exec::thread_pool> pool;
};

flow_setup make_setup(const run_options& opts,
                      const std::vector<catalogue_entry>& cat) {
    flow_setup s;
    for (const catalogue_entry& e : cat) {
        if (opts.fault_rate > 0.0) {
            testkit::fault_options faults;
            faults.seed = opts.seed;
            faults.exception_probability = opts.fault_rate;
            s.evaluators.push_back(
                std::make_unique<testkit::faulty_evaluator>(e.spec.scn, faults));
        } else {
            s.evaluators.push_back(
                std::make_unique<dse::system_evaluator>(e.spec.scn, e.spec.harv));
        }
    }
    s.pool = std::make_unique<exec::thread_pool>(pool_workers());
    return s;
}

bool in_box(const spec::system_config& c) {
    return dse::paper_design_space().contains(
        dse::config_to_coded(dse::paper_design_space(), c));
}

struct flow_pass {
    std::vector<double> flow_s;   ///< in call order, failed flows too
    std::vector<double> flow_sims;  ///< simulations per flow, same order
    std::size_t simulations = 0;
    double wall_s = 0.0;
    std::map<std::size_t, std::uint64_t> first_digest;  ///< catalogue index -> digest
    std::map<std::size_t, double> gain;                 ///< catalogue index -> gain
    std::vector<dse::flow_result> results;              ///< traced pass only
    std::vector<std::unique_ptr<obs::run_manifest>> manifests;
    std::vector<spec::system_config> first_design;
};

flow_pass run_pass(const std::vector<catalogue_entry>& cat,
                   const flow_setup& setup, report& rep, tracer& tr,
                   double window_s) {
    flow_pass pass;
    const auto t0 = clock::now();
    for (std::size_t i = 0;; ++i) {
        // At least one full cycle, so the digest covers the catalogue.
        if (i >= cat.size() && seconds_since(t0) >= window_s) break;
        const std::size_t k = i % cat.size();
        const catalogue_entry& entry = cat[k];
        rep.attempted();
        const auto start = clock::now();
        try {
            span flow_span(tr, "flow", i + 1);
            std::string text;
            {
                span s(tr, "spec.encode", i + 1);
                text = spec::to_json(entry.spec).dump();
            }
            spec::experiment_spec parsed;
            {
                span s(tr, "spec.parse", i + 1);
                parsed = spec::parse_spec(text);
            }
            std::uint64_t hash = 0;
            {
                span s(tr, "spec.hash", i + 1);
                hash = spec::spec_hash(parsed.canonicalized());
            }
            rep.check(hash == entry.hash, "flow spec did not round-trip to its hash");

            dse::flow_options runtime;
            runtime.pool = setup.pool.get();
            std::unique_ptr<obs::run_manifest> manifest;
            if (tr.enabled()) {
                manifest = std::make_unique<obs::run_manifest>();
                runtime.manifest = manifest.get();
            }
            dse::flow_result result = [&] {
                span s(tr, "dse.run_rsm_flow", i + 1);
                return dse::run_rsm_flow(*setup.evaluators[k],
                                         dse::flow_options_from_spec(parsed, runtime));
            }();
            pass.flow_s.push_back(seconds_since(start));
            pass.flow_sims.push_back(static_cast<double>(result.cache.misses));
            pass.simulations += result.cache.misses;

            const spec::scenario& scn = entry.spec.scn;
            digest d;
            check_result(rep, result.original_eval, scn, "baseline");
            add_to_digest(d, result.original_eval);
            for (const double y : result.responses) d.add(static_cast<std::uint64_t>(y));
            for (const spec::system_config& c : result.design_configs)
                rep.check(in_box(c), "design point outside the design box");
            std::uint64_t best = 0;
            for (const dse::optimizer_outcome& o : result.outcomes) {
                check_result(rep, o.validated, scn, "validation " + o.name);
                rep.check(in_box(o.config), o.name + " optimum outside the design box");
                add_to_digest(d, o.validated);
                best = std::max(best, o.validated.transmissions);
            }
            const auto [it, first] = pass.first_digest.emplace(k, d.value());
            rep.check(it->second == d.value(),
                      "repeated flow gave different integer results");
            if (first) {
                pass.gain[k] = result.original_eval.transmissions == 0
                                   ? 0.0
                                   : static_cast<double>(best) /
                                         static_cast<double>(result.original_eval.transmissions);
                if (k == 0) pass.first_design = result.design_configs;
            }
            if (manifest) {
                pass.manifests.push_back(std::move(manifest));
                pass.results.push_back(std::move(result));
            }
        } catch (const std::exception& e) {
            rep.failed(std::string("flow threw: ") + e.what());
            pass.flow_s.push_back(seconds_since(start));
            pass.flow_sims.push_back(0.0);
        }
    }
    pass.wall_s = seconds_since(t0);
    return pass;
}

void flow_layers(report& rep, const flow_pass& pass, const tracer& tr) {
    rep.layer("spec.encode_s", quantile(tr.durations("spec.encode"), 0.5), "s");
    rep.layer("spec.parse_s", quantile(tr.durations("spec.parse"), 0.5), "s");
    rep.layer("spec.hash_s", quantile(tr.durations("spec.hash"), 0.5), "s");

    std::map<std::string, std::vector<double>> phases;
    double steps = 0, rejected = 0, events = 0, runs = 0, sim_wall = 0, surface = 0;
    for (const auto& m : pass.manifests) {
        for (const obs::phase_record& p : m->phases()) {
            phases[p.name].push_back(p.wall_s);
            if (p.name == "simulate" || p.name == "baseline" || p.name == "validate")
                sim_wall += p.wall_s;
        }
        for (const obs::sim_run_record& r : m->sim_runs()) {
            steps += static_cast<double>(r.ode_steps);
            rejected += static_cast<double>(r.ode_steps_rejected);
            events += static_cast<double>(r.events);
            ++runs;
        }
        for (const obs::optimizer_record& o : m->optimizers())
            surface += static_cast<double>(o.evaluations);
    }
    for (const char* phase : {"d_optimal", "simulate", "fit", "baseline", "optimise",
                              "validate"})
        rep.layer(std::string("dse.flow.") + phase + "_s",
                  quantile(phases[phase], 0.5), "s", "median over flows");
    const double flows = static_cast<double>(std::max<std::size_t>(pass.manifests.size(), 1));
    rep.layer("opt.surface_evals", surface / flows, "count", "per flow, all optimisers");
    runs = std::max(runs, 1.0);
    rep.layer("sim.ode_steps_per_eval", steps / runs, "count");
    rep.layer("sim.ode_reject_ratio", rejected / std::max(steps + rejected, 1.0), "ratio");
    rep.layer("sim.events_per_eval", events / runs, "count");
    rep.layer("sim.host_s_per_step", sim_wall / std::max(steps, 1.0), "s",
              "simulate + baseline + validate phase wall / ODE steps");

    double hits = 0, total = 0;
    for (const dse::flow_result& r : pass.results) {
        hits += static_cast<double>(r.cache.hits);
        total += static_cast<double>(r.cache.hits + r.cache.misses);
    }
    rep.layer("cache.flow_hit_ratio", total > 0 ? hits / total : 0.0, "ratio",
              "flow_result.cache over the traced flows");
}

}  // namespace

std::shared_ptr<void> setup_paper_flow(const run_options& opts) {
    std::string inputs;
    return std::make_shared<flow_setup>(make_setup(opts, make_catalogue(opts, inputs)));
}

void run_paper_flow(const run_options& opts, report& rep, tracer& tr) {
    std::string inputs;
    const std::vector<catalogue_entry> cat = make_catalogue(opts, inputs);
    digest stream;
    for (const catalogue_entry& e : cat) stream.add(e.hash);
    write_text(opts.out_dir + "/inputs.jsonl", inputs);
    rep.note("stream_digest", obs::json_value(stream.hex()));

    std::vector<double> setups;
    for (int i = 0; i < k_setup_repeats; ++i) setups.push_back(time_process_setup(opts));
    flow_setup setup = make_setup(opts, cat);

    // End-to-end numbers always come from an untraced pass.
    tracer quiet(false);
    const flow_pass pass = run_pass(cat, setup, rep, quiet, window_s(opts));
    const double rss = self_peak_rss_mb();

    digest results;
    double gain = 0.0;
    for (const auto& [k, d] : pass.first_digest) results.add(d);
    for (const auto& [k, g] : pass.gain) gain += g;
    gain /= static_cast<double>(std::max<std::size_t>(pass.gain.size(), 1));
    rep.note("results_digest", obs::json_value(results.hex()));

    const blocked_samples flow_blocks = blocked_samples::by_cycles(pass.flow_s, cat.size());
    const double p50 = flow_blocks.best_quantile(0.5);
    const double p90 = flow_blocks.best_quantile(0.9);
    const double evals_per_s =
        flow_blocks.best_rate(blocked_samples::by_cycles(pass.flow_sims, cat.size()));
    const std::string n = "fastest block; n=" + std::to_string(pass.flow_s.size()) +
                          " flows, whole window ";
    rep.shown("flow_s_p50", p50, "s", n + std::to_string(quantile(pass.flow_s, 0.5)));
    rep.shown("flow_s_p90", p90, "s", n + std::to_string(quantile(pass.flow_s, 0.9)));
    rep.shown("flow_gain_x", gain, "x", "mean over the catalogue");
    rep.shown("sim_evals_per_s", evals_per_s, "evals/s",
              "fastest block; whole window " +
                  std::to_string(static_cast<double>(pass.simulations) / pass.wall_s));
    rep.end_to_end("setup_s", quantile(setups, 0.5), "s", "median of process starts");
    rep.end_to_end("latency_s_p50", p50, "s", "flow_s_p50");
    rep.end_to_end("latency_s_p90", p90, "s", "flow_s_p90");
    rep.end_to_end("throughput_per_s", evals_per_s, "1/s", "sim_evals_per_s");
    rep.end_to_end("peak_rss_mb", rss, "MiB");

    // The known scalar-versus-batch divergence, on design points of the
    // first catalogue flow (which the flow simulated through the batch
    // kernel).
    if (!pass.first_design.empty()) {
        testkit::prng pick(testkit::mix(opts.seed, 0xd1f));
        std::vector<spec::system_config> sample;
        for (int i = 0; i < 3; ++i)
            sample.push_back(pass.first_design[pick.index(pass.first_design.size())]);
        const dse::system_evaluator clean(cat[0].spec.scn, cat[0].spec.harv);
        rep.note("scalar_vs_batch_max_final_voltage_diff_v",
                 obs::json_value(scalar_batch_divergence(rep, clean, sample,
                                                         cat[0].spec.eval,
                                                         "paper_flow design points")));
    }

    if (!tr.enabled()) return;

    // Traced pass: registry first, then a fresh setup, so the pool and
    // evaluators resolve their instruments; manifests attached per flow.
    obs::metrics_registry registry;
    obs::set_global_registry(&registry);
    const double untraced_mean = mean(pass.flow_s);
    setup = make_setup(opts, cat);
    const flow_pass traced = run_pass(cat, setup, rep, tr, window_s(opts));
    const obs::json_value snap = registry.to_json();

    flow_layers(rep, traced, tr);
    const double hits = snapshot_counter(snap, "dse.cache.hits");
    const double misses = snapshot_counter(snap, "dse.cache.misses");
    rep.layer("cache.hit_ratio", hits / std::max(hits + misses, 1.0), "ratio",
              "dse.cache.* counters");
    rep.layer("cache.evictions", snapshot_counter(snap, "dse.cache.evictions"), "count");
    rep.layer("dse.evaluate_s", snapshot_hist(snap, "dse.evaluate.seconds", "mean"), "s",
              "mean scalar evaluate() (baseline and validation runs)");
    registry_layers(rep, snap, traced.wall_s, true);
    rep.layer("obs.trace_overhead_ratio", mean(traced.flow_s) / untraced_mean, "ratio",
              "mean traced flow / mean untraced flow");

    testkit::prng rng(testkit::mix(opts.seed, 0x4a7));
    std::vector<spec::scenario> scenarios;
    for (const catalogue_entry& e : cat) scenarios.push_back(e.spec.scn);
    harvester_probe(rep, scenarios, rng);
    // The flow's own design points, or grid points when every flow failed.
    batch_lane_probe(rep, cat[0].spec.scn,
                     pass.first_design.empty() ? grid_configs(2, rng) : pass.first_design);
    absent_svc_layers(rep, "paper_flow runs in process, in a closed loop");
}

}  // namespace perfbench
