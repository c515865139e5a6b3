// Deterministic fault injection, end to end: plans are pure functions of
// (seed, request), analogue faults bend the physics the way they claim,
// an injected NaN fails the run cleanly, and an injected evaluator
// exception surfaces through the whole flow as a typed dse::flow_error
// with the failure recorded in the manifest — never a crash.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "dse/cached_evaluator.hpp"
#include "dse/rsm_flow.hpp"
#include "obs/run_manifest.hpp"
#include "testkit/fault_injection.hpp"
#include "testkit_oracles.hpp"

namespace tk = ehdse::testkit;
namespace spec = ehdse::spec;
namespace dse = ehdse::dse;

namespace {

spec::experiment_spec gen_short_case(tk::prng& r) {
    spec::experiment_spec s = tk::gen_experiment_spec(r);
    s.scn.duration_s = r.uniform(60.0, 180.0);
    s.eval.record_traces = false;
    return s;
}

}  // namespace

TEST(TestkitFaultInjection, PlansAreRequestKeyedAndDeterministic) {
    tk::property_def<spec::experiment_spec> def;
    def.name = "TestkitFaultInjection.PlansAreRequestKeyedAndDeterministic";
    def.generate = [](tk::prng& r) { return tk::gen_experiment_spec(r); };
    def.property = [](const spec::experiment_spec& s) {
        tk::fault_options faults;
        faults.seed = 0x7e57;
        faults.dropout_probability = 0.5;
        faults.leak_probability = 0.5;
        faults.nan_probability = 0.2;
        faults.exception_probability = 0.3;
        const std::uint64_t hash =
            spec::evaluation_request_hash(s.config, s.eval);
        const tk::fault_plan a =
            tk::fault_plan::make(faults, hash, s.scn.duration_s);
        const tk::fault_plan b =
            tk::fault_plan::make(faults, hash, s.scn.duration_s);
        tk::require(a.throw_before_run == b.throw_before_run &&
                        a.dropouts.size() == b.dropouts.size() &&
                        a.leaks.size() == b.leaks.size(),
                    "same request produced different fault plans");
        for (std::size_t i = 0; i < a.dropouts.size(); ++i)
            tk::require(a.dropouts[i].start_s == b.dropouts[i].start_s &&
                            a.dropouts[i].end_s == b.dropouts[i].end_s,
                        "dropout windows differ between identical requests");
        for (std::size_t i = 0; i < a.leaks.size(); ++i)
            tk::require(a.leaks[i].at_s == b.leaks[i].at_s &&
                            a.leaks[i].drop_v == b.leaks[i].drop_v &&
                            a.leaks[i].inject_nan == b.leaks[i].inject_nan,
                        "leak steps differ between identical requests");
        for (const tk::dropout_window& w : a.dropouts)
            tk::require(0.0 <= w.start_s && w.start_s < w.end_s &&
                            w.end_s <= s.scn.duration_s,
                        "dropout window outside the horizon");
        for (const tk::leak_step& l : a.leaks)
            tk::require(0.0 < l.at_s && l.at_s < s.scn.duration_s,
                        "leak step outside the horizon");
    };
    const auto result = tk::run_property(def);
    EXPECT_TRUE(result.ok) << result.report();
}

TEST(TestkitFaultInjection, DropoutReducesHarvestDeterministically) {
    tk::property_def<spec::experiment_spec> def;
    def.name = "TestkitFaultInjection.DropoutReducesHarvestDeterministically";
    def.generate = gen_short_case;
    def.property = [](const spec::experiment_spec& s) {
        // Random windows: the run must stay healthy and deterministic.
        tk::fault_options faults;
        faults.dropout_probability = 1.0;
        const tk::faulty_evaluator faulty(s.scn, faults);
        tk::require(!faulty.plan_for(s.config, s.eval).dropouts.empty(),
                    "dropout_probability=1 planned no windows");
        const dse::evaluation_result hit = faulty.evaluate(s.config, s.eval);
        const dse::evaluation_result hit2 = faulty.evaluate(s.config, s.eval);
        tk::require(hit.sim_ok, "dropout run failed to simulate");
        tk::oracles::require_results_bit_equal(
            hit, hit2, "repeated faulty evaluation");
        // A dropout covering the WHOLE horizon starves the store: the
        // clean run harvests strictly more than the blacked-out run.
        tk::fault_plan blackout;
        blackout.dropouts.push_back({0.0, s.scn.duration_s});
        const tk::faulty_evaluator dark(s.scn, blackout);
        const dse::system_evaluator clean(s.scn);
        const dse::evaluation_result base = clean.evaluate(s.config, s.eval);
        const dse::evaluation_result none = dark.evaluate(s.config, s.eval);
        tk::require(none.harvested_energy_j <= 1e-9,
                    "a full-horizon dropout still harvested energy");
        tk::require(base.harvested_energy_j >= none.harvested_energy_j,
                    "clean run harvested less than a blacked-out run");
    };
    def.shrink = [](const spec::experiment_spec& s) {
        return tk::shrink_spec(s);
    };
    tk::property_options options;
    options.cases = 30;
    const auto result = tk::run_property(def, options);
    EXPECT_TRUE(result.ok) << result.report();
}

TEST(TestkitFaultInjection, LeakStepsAreDeterministicAndBounded) {
    tk::property_def<spec::experiment_spec> def;
    def.name = "TestkitFaultInjection.LeakStepsAreDeterministicAndBounded";
    def.generate = gen_short_case;
    def.property = [](const spec::experiment_spec& s) {
        tk::fault_options faults;
        faults.leak_probability = 1.0;
        const tk::faulty_evaluator faulty(s.scn, faults);
        const tk::fault_plan plan = faulty.plan_for(s.config, s.eval);
        tk::require(!plan.leaks.empty(), "leak_probability=1 planned no leaks");
        const dse::evaluation_result a = faulty.evaluate(s.config, s.eval);
        const dse::evaluation_result b = faulty.evaluate(s.config, s.eval);
        tk::require(a.sim_ok, "leak run failed to simulate");
        tk::require(a.min_voltage_v >= 0.0,
                    "leak drove the storage voltage negative");
        tk::oracles::require_results_bit_equal(a, b,
                                               "repeated leak evaluation");
    };
    def.shrink = [](const spec::experiment_spec& s) {
        return tk::shrink_spec(s);
    };
    tk::property_options options;
    options.cases = 30;
    const auto result = tk::run_property(def, options);
    EXPECT_TRUE(result.ok) << result.report();
}

TEST(TestkitFaultInjection, InjectedNanFailsTheRunCleanly) {
    tk::property_def<spec::experiment_spec> def;
    def.name = "TestkitFaultInjection.InjectedNanFailsTheRunCleanly";
    def.generate = gen_short_case;
    def.property = [](const spec::experiment_spec& s) {
        tk::fault_options faults;
        faults.leak_probability = 1.0;
        faults.nan_probability = 1.0;
        const tk::faulty_evaluator faulty(s.scn, faults);
        // Never throws, never hangs: the simulator's non-finite halt turns
        // the corrupted state into sim_ok = false.
        const dse::evaluation_result out = faulty.evaluate(s.config, s.eval);
        tk::require(!out.sim_ok,
                    "a NaN storage voltage still reported sim_ok = true");
        const dse::evaluation_result again = faulty.evaluate(s.config, s.eval);
        tk::require(!again.sim_ok && out.events == again.events,
                    "NaN-corrupted run is not deterministic");
    };
    def.shrink = [](const spec::experiment_spec& s) {
        return tk::shrink_spec(s);
    };
    tk::property_options options;
    options.cases = 20;
    const auto result = tk::run_property(def, options);
    EXPECT_TRUE(result.ok) << result.report();
}

TEST(TestkitFaultInjection, EvaluatorExceptionSurfacesAsTypedFlowError) {
    ehdse::spec::scenario scn;
    scn.duration_s = 120.0;
    tk::fault_options faults;
    faults.exception_probability = 1.0;
    const tk::faulty_evaluator faulty(scn, faults);
    ehdse::obs::run_manifest manifest;
    dse::flow_options options;
    options.doe_runs = 10;
    options.manifest = &manifest;
    try {
        (void)dse::run_rsm_flow(faulty, options);
        FAIL() << "flow over an always-throwing evaluator did not throw";
    } catch (const dse::flow_error& e) {
        EXPECT_FALSE(e.phase().empty());
        EXPECT_NE(std::string(e.what()).find("injected fault"),
                  std::string::npos)
            << e.what();
    }
    const ehdse::obs::json_value doc = manifest.to_json();
    const ehdse::obs::json_value& opts = doc.at("options");
    ASSERT_TRUE(opts.contains("error"));
    ASSERT_TRUE(opts.contains("error_phase"));
    EXPECT_NE(opts.at("error").as_string().find("injected fault"),
              std::string::npos);
    EXPECT_FALSE(opts.at("error_phase").as_string().empty());
}

TEST(TestkitFaultInjection, CachedEvaluatorPropagatesInjectedExceptions) {
    ehdse::spec::scenario scn;
    scn.duration_s = 120.0;
    tk::fault_options faults;
    faults.exception_probability = 1.0;
    const tk::faulty_evaluator faulty(scn, faults);
    const dse::cached_evaluator cached(faulty, 4);
    const ehdse::spec::system_config config;
    // The exception is not memoised: both calls throw the typed fault.
    EXPECT_THROW((void)cached.evaluate(config), tk::evaluator_fault);
    EXPECT_THROW((void)cached.evaluate(config), tk::evaluator_fault);
    EXPECT_EQ(cached.stats().entries, 0u);
}

TEST(TestkitFaultInjection, BatchLanesCarryTheirOwnFaults) {
    // evaluate_batch is not overridden: the faults ride on the production
    // kernel, lane by lane, and each lane equals its evaluate().
    ehdse::spec::scenario scn;
    scn.duration_s = 120.0;
    tk::fault_options faults;
    faults.seed = 0x5eed;
    faults.dropout_probability = 0.5;
    faults.leak_probability = 0.5;
    const tk::faulty_evaluator faulty(scn, faults);
    std::vector<ehdse::spec::system_config> configs;
    tk::prng r(11);
    for (int i = 0; i < 6; ++i) configs.push_back(tk::gen_system_config(r));
    const std::vector<dse::evaluation_result> batch =
        faulty.evaluate_batch(configs);
    ASSERT_EQ(batch.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i)
        tk::oracles::require_results_bit_equal(
            batch[i], faulty.evaluate(configs[i]),
            "faulty lane " + std::to_string(i) + " vs evaluate()");

    tk::fault_plan blackout;
    blackout.dropouts.push_back({0.0, scn.duration_s});
    const tk::faulty_evaluator dark(scn, blackout);
    for (const dse::evaluation_result& lane : dark.evaluate_batch(configs))
        EXPECT_LE(lane.harvested_energy_j, 1e-9);
}

TEST(TestkitFaultInjection, TransientAnalogueFaultsAreRejected) {
    ehdse::spec::scenario scn;
    scn.duration_s = 2.0;
    scn.step_count = 0;
    dse::evaluation_options transient;
    transient.model = dse::fidelity::transient;
    const ehdse::spec::system_config config;

    tk::fault_plan dropout;
    dropout.dropouts.push_back({0.5, 1.0});
    const tk::faulty_evaluator with_dropout(scn, dropout);
    EXPECT_THROW((void)with_dropout.evaluate(config, transient),
                 std::invalid_argument);

    tk::fault_plan leak;
    leak.leaks.push_back({1.0, 0.2, false});
    const tk::faulty_evaluator with_leak(scn, leak);
    EXPECT_THROW((void)with_leak.evaluate(config, transient),
                 std::invalid_argument);

    // Exception faults still fire at transient fidelity, batched or not.
    tk::fault_plan exception;
    exception.throw_before_run = true;
    const tk::faulty_evaluator throwing(scn, exception);
    EXPECT_THROW((void)throwing.evaluate(config, transient),
                 tk::evaluator_fault);
    EXPECT_THROW((void)throwing.evaluate_batch({&config, 1}, transient),
                 tk::evaluator_fault);
}
