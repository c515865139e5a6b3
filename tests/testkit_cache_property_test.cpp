// Metamorphic properties: memoisation is invisible. For any valid
// request, the cached evaluator answers bit-identically to the uncached
// one, a repeated request hits, requests equal after canonicalisation
// share one entry, and the answer does not depend on whether a batch or a
// single evaluation filled the entry.
#include <gtest/gtest.h>

#include "testkit_oracles.hpp"

namespace tk = ehdse::testkit;

TEST(TestkitCacheProperty, CachedEqualsUncachedBitForBit) {
    tk::property_def<ehdse::spec::experiment_spec> def;
    def.name = "TestkitCacheProperty.CachedEqualsUncachedBitForBit";
    def.generate = [](tk::prng& r) {
        ehdse::spec::experiment_spec s = tk::gen_experiment_spec(r);
        // Keep the evaluation itself short: the property needs four runs
        // per case, and the invariant is fidelity-independent.
        s.scn.duration_s = r.uniform(60.0, 180.0);
        return s;
    };
    def.property = tk::oracles::check_cache_bit_equality;
    def.shrink = [](const ehdse::spec::experiment_spec& s) {
        return tk::shrink_spec(s);
    };
    def.show = [](const ehdse::spec::experiment_spec& s) {
        return ehdse::spec::to_json(s).dump();
    };
    tk::property_options options;
    options.cases = 60;
    const auto result = tk::run_property(def, options);
    EXPECT_TRUE(result.ok) << result.report();
}

TEST(TestkitCacheProperty, AnswerIndependentOfFillPath) {
    tk::property_def<ehdse::spec::experiment_spec> def;
    def.name = "TestkitCacheProperty.AnswerIndependentOfFillPath";
    def.generate = [](tk::prng& r) {
        ehdse::spec::experiment_spec s = tk::gen_experiment_spec(r);
        // Horizons of 10-20 minutes: long enough for two differently
        // stepping integrators to drift apart (the defect this pins), short
        // enough for three 16-lane batches per case.
        s.scn.duration_s = r.uniform(600.0, 1200.0);
        return s;
    };
    def.property = tk::oracles::check_cache_history_independence;
    def.shrink = [](const ehdse::spec::experiment_spec& s) {
        return tk::shrink_spec(s);
    };
    def.show = [](const ehdse::spec::experiment_spec& s) {
        return ehdse::spec::to_json(s).dump();
    };
    tk::property_options options;
    options.cases = 10;
    const auto result = tk::run_property(def, options);
    EXPECT_TRUE(result.ok) << result.report();
}
