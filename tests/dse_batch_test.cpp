// Batch evaluation path: system_evaluator::evaluate_batch (positional
// results, lane independence, bit-equality with evaluate(), the
// transient fallback), the memoising
// cached_evaluator::evaluate_batch (hit/miss accounting, duplicates,
// exception recovery), and run_rsm_flow equivalence with batching on
// vs off.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "doe/d_optimal.hpp"
#include "doe/designs.hpp"
#include "dse/cached_evaluator.hpp"
#include "dse/rsm_flow.hpp"
#include "harvester/harvester_model.hpp"
#include "obs/run_manifest.hpp"
#include "rsm/quadratic_model.hpp"

namespace ed = ehdse::dse;

namespace {

/// Two minutes with one frequency step: long enough to transmit and to
/// exercise the tuning controller, fast enough for a unit test.
ed::scenario fast_scenario() {
    ed::scenario s;
    s.duration_s = 120.0;
    s.step_period_s = 50.0;
    s.step_count = 1;
    return s;
}

std::vector<ed::system_config> spread_configs(std::size_t n) {
    std::vector<ed::system_config> configs;
    for (std::size_t i = 0; i < n; ++i) {
        ed::system_config cfg = ed::system_config::original();
        cfg.tx_interval_s += static_cast<double>(i);
        cfg.watchdog_period_s += 10.0 * static_cast<double>(i);
        configs.push_back(cfg);
    }
    return configs;
}

/// Exact equality of the deterministic fields (wall_time_s excluded),
/// traces included.
void expect_results_equal(const ed::evaluation_result& a,
                          const ed::evaluation_result& b,
                          const std::string& what) {
    EXPECT_EQ(a.transmissions, b.transmissions) << what;
    EXPECT_EQ(a.suppressed_wakeups, b.suppressed_wakeups) << what;
    EXPECT_EQ(a.low_band_transmissions, b.low_band_transmissions) << what;
    EXPECT_EQ(a.events, b.events) << what;
    EXPECT_EQ(a.ode_steps, b.ode_steps) << what;
    EXPECT_EQ(a.ode_steps_rejected, b.ode_steps_rejected) << what;
    EXPECT_EQ(a.final_voltage_v, b.final_voltage_v) << what;
    EXPECT_EQ(a.min_voltage_v, b.min_voltage_v) << what;
    EXPECT_EQ(a.max_voltage_v, b.max_voltage_v) << what;
    EXPECT_EQ(a.harvested_energy_j, b.harvested_energy_j) << what;
    EXPECT_EQ(a.sustained_load_energy_j, b.sustained_load_energy_j) << what;
    EXPECT_EQ(a.withdrawn_energy_j, b.withdrawn_energy_j) << what;
    EXPECT_EQ(a.sim_ok, b.sim_ok) << what;
    for (const auto& [x, y] : {std::pair{&a.voltage_trace, &b.voltage_trace},
                               std::pair{&a.position_trace, &b.position_trace}}) {
        ASSERT_EQ(x->has_value(), y->has_value()) << what;
        if (!x->has_value()) continue;
        EXPECT_EQ((*x)->times(), (*y)->times()) << what << ": " << (*x)->name();
        EXPECT_EQ((*x)->values(), (*y)->values()) << what << ": " << (*x)->name();
    }
}

}  // namespace

TEST(EvaluateBatch, MatchesScalarWithinKernelTolerance) {
    // evaluate() is the batch kernel at width 1, so every lane of a wider
    // batch equals it bit for bit — no tolerance left to allow.
    const ed::system_evaluator evaluator(fast_scenario());
    const auto configs = spread_configs(5);

    const auto batch = evaluator.evaluate_batch(configs);
    ASSERT_EQ(batch.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i)
        expect_results_equal(batch[i], evaluator.evaluate(configs[i]),
                             "lane " + std::to_string(i));
}

TEST(EvaluateBatch, WidthOneMatchesScalarForEveryBackend) {
    // The perf-gate workload: the paper's 10-point D-optimal set on a
    // 10-minute scenario. evaluate() and a batch of one run the same
    // loop, so they agree bit for bit on every backend.
    ed::scenario s;
    s.duration_s = 600.0;
    s.step_period_s = 250.0;
    s.step_count = 1;
    const auto candidates = ehdse::doe::full_factorial(3, 3);
    const auto selection = ehdse::doe::d_optimal_design(
        candidates,
        [](const ehdse::numeric::vec& x) {
            return ehdse::rsm::quadratic_basis(x);
        },
        10, {});
    std::vector<ed::system_config> configs;
    for (const std::size_t idx : selection.selected)
        configs.push_back(
            ed::config_from_coded(ed::paper_design_space(), candidates[idx]));
    ASSERT_EQ(configs.size(), 10u);

    for (const auto& info : ehdse::harvester::harvester_registry()) {
        const ed::system_evaluator evaluator(
            s, ehdse::spec::harvester_spec{info.name});
        for (std::size_t i = 0; i < configs.size(); ++i)
            expect_results_equal(
                evaluator.evaluate(configs[i]),
                evaluator.evaluate_batch({&configs[i], 1}).front(),
                info.name + " point " + std::to_string(i));
    }
}

TEST(EvaluateBatch, ResultsArePositionalAndLaneIndependent) {
    const ed::system_evaluator evaluator(fast_scenario());
    const auto two = spread_configs(2);
    const std::vector<ed::system_config> mixed = {two[0], two[1], two[0]};

    const auto batch = evaluator.evaluate_batch(mixed);
    ASSERT_EQ(batch.size(), 3u);
    // Identical configs in different lanes produce bitwise-identical
    // results, and each lane equals the same config run as a batch of one.
    expect_results_equal(batch[0], batch[2], "duplicate lanes");
    const auto alone = evaluator.evaluate_batch({&mixed[1], 1});
    expect_results_equal(batch[1], alone.front(), "batched vs alone");
}

TEST(EvaluateBatch, ChunksBeyondMaxLanes) {
    const ed::system_evaluator evaluator(fast_scenario());
    const auto configs =
        spread_configs(ed::system_evaluator::k_max_batch_lanes + 4);

    const auto batch = evaluator.evaluate_batch(configs);
    ASSERT_EQ(batch.size(), configs.size());
    // Chunk boundaries are invisible: every lane equals its batch-of-one
    // evaluation regardless of which chunk it landed in.
    for (const std::size_t i :
         {std::size_t{0}, ed::system_evaluator::k_max_batch_lanes - 1,
          ed::system_evaluator::k_max_batch_lanes,
          configs.size() - 1}) {
        const auto alone = evaluator.evaluate_batch({&configs[i], 1});
        expect_results_equal(batch[i], alone.front(),
                             "chunked lane " + std::to_string(i));
    }
}

TEST(EvaluateBatch, FallsBackToScalarForTraces) {
    // Traced requests run the batch kernel too (its step observer records
    // the traces); every lane, traces included, equals evaluate().
    const ed::system_evaluator evaluator(fast_scenario());
    ed::evaluation_options eval;
    eval.record_traces = true;
    const auto configs = spread_configs(2);

    const auto batch = evaluator.evaluate_batch(configs, eval);
    ASSERT_EQ(batch.size(), 2u);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(batch[i].voltage_trace.has_value()) << "lane " << i;
        EXPECT_FALSE(batch[i].voltage_trace->empty()) << "lane " << i;
        expect_results_equal(batch[i], evaluator.evaluate(configs[i], eval),
                             "traced lane " + std::to_string(i));
    }
}

TEST(EvaluateBatch, FallsBackToScalarForTransientFidelity) {
    // Transient configs never share a kernel run: evaluate_batch runs each
    // as its own width-1 run through evaluate() (the "scalar" of the name
    // is a batch of one now), so each result equals evaluate() of its config.
    ed::scenario s = fast_scenario();
    s.duration_s = 20.0;  // transient runs resolve the carrier — keep short
    s.step_count = 0;
    const ed::system_evaluator evaluator(s);
    ed::evaluation_options eval;
    eval.model = ed::fidelity::transient;
    const auto configs = spread_configs(2);

    const auto batch = evaluator.evaluate_batch(configs, eval);
    ASSERT_EQ(batch.size(), 2u);
    for (std::size_t i = 0; i < batch.size(); ++i)
        expect_results_equal(batch[i], evaluator.evaluate(configs[i], eval),
                             "transient lane " + std::to_string(i));
}

TEST(CachedEvaluatorBatch, MissesOnceThenHits) {
    const ed::system_evaluator inner(fast_scenario());
    const ed::cached_evaluator cache(inner);
    const auto configs = spread_configs(4);

    const auto first = cache.evaluate_batch(configs);
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(inner.runs(), 4u);

    const auto second = cache.evaluate_batch(configs);
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.stats().hits, 4u);
    EXPECT_EQ(inner.runs(), 4u);  // nothing re-simulated
    for (std::size_t i = 0; i < configs.size(); ++i)
        expect_results_equal(first[i], second[i],
                             "hit lane " + std::to_string(i));

    // The scalar path shares the same entries.
    const auto scalar = cache.evaluate(configs[2]);
    EXPECT_EQ(cache.stats().hits, 5u);
    expect_results_equal(first[2], scalar, "scalar hit on batch entry");
}

TEST(CachedEvaluatorBatch, DuplicatesWithinOneBatchSimulateOnce) {
    const ed::system_evaluator inner(fast_scenario());
    const ed::cached_evaluator cache(inner);
    const auto two = spread_configs(2);
    const std::vector<ed::system_config> mixed = {two[0], two[1], two[0],
                                                  two[0]};

    const auto results = cache.evaluate_batch(mixed);
    ASSERT_EQ(results.size(), 4u);
    // Two distinct keys simulate; the repeats join the first lane's
    // future inside the same call.
    EXPECT_EQ(inner.runs(), 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().entries, 2u);
    expect_results_equal(results[0], results[2], "duplicate joins future");
    expect_results_equal(results[0], results[3], "duplicate joins future");
}

namespace {

/// Throws on the first batch, works from the second on — exercises the
/// cache's error path: waiters get the exception, entries are removed, a
/// retry re-simulates.
class flaky_once_evaluator final : public ed::system_evaluator {
public:
    using ed::system_evaluator::system_evaluator;

    std::vector<ed::evaluation_result> evaluate_batch(
        std::span<const ed::system_config> configs,
        const ed::evaluation_options& options = {}) const override {
        if (!failed_) {
            failed_ = true;
            throw std::runtime_error("injected batch failure");
        }
        return ed::system_evaluator::evaluate_batch(configs, options);
    }

private:
    mutable bool failed_ = false;
};

}  // namespace

TEST(CachedEvaluatorBatch, ExceptionEvictsEntriesAndRetrySucceeds) {
    const flaky_once_evaluator inner(fast_scenario());
    const ed::cached_evaluator cache(inner);
    const auto configs = spread_configs(3);

    EXPECT_THROW(cache.evaluate_batch(configs), std::runtime_error);
    // Failed entries must not poison the cache: nothing retained, and the
    // identical request re-simulates instead of rethrowing a stored error.
    EXPECT_EQ(cache.stats().entries, 0u);
    const auto retry = cache.evaluate_batch(configs);
    ASSERT_EQ(retry.size(), configs.size());
    for (const auto& r : retry) EXPECT_TRUE(r.sim_ok);
    EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(FlowBatch, BatchingOnAndOffProduceTheSameFlow) {
    const ed::system_evaluator evaluator(fast_scenario());

    const auto run = [&](std::size_t width, ehdse::obs::run_manifest* m) {
        ed::flow_options opts;
        opts.doe_runs = 10;
        opts.batch_width = width;
        opts.manifest = m;
        return ed::run_rsm_flow(evaluator, opts);
    };

    ehdse::obs::run_manifest with_m, without_m;
    const auto with = run(16, &with_m);
    const auto without = run(0, &without_m);

    // Same design, same responses, same optimum: batch_width is a runtime
    // execution knob, invisible in every recorded objective.
    ASSERT_EQ(with.responses.size(), without.responses.size());
    for (std::size_t i = 0; i < with.responses.size(); ++i)
        EXPECT_EQ(with.responses[i], without.responses[i]) << "point " << i;
    expect_results_equal(with.original_eval, without.original_eval,
                         "baseline");
    ASSERT_EQ(with.outcomes.size(), without.outcomes.size());
    for (std::size_t i = 0; i < with.outcomes.size(); ++i) {
        EXPECT_EQ(with.outcomes[i].name, without.outcomes[i].name);
        expect_results_equal(with.outcomes[i].validated,
                             without.outcomes[i].validated,
                             "outcome " + with.outcomes[i].name);
    }

    // The manifests key the same experiment: batch_width is absent from
    // the canonical spec, so both runs stamp the identical spec_hash.
    const auto hash_of = [](const ehdse::obs::run_manifest& m) {
        const std::string dump = m.to_json().dump();
        const auto pos = dump.find("\"spec_hash\"");
        EXPECT_NE(pos, std::string::npos);
        return dump.substr(pos, 40);
    };
    EXPECT_EQ(hash_of(with_m), hash_of(without_m));
}
