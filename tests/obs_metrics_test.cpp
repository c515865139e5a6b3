// obs metrics — concurrent counter/gauge/histogram correctness, log-scale
// bucketing edge cases, registry snapshots, scoped timers.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timing.hpp"

namespace eo = ehdse::obs;

TEST(Counter, ConcurrentIncrementsAreExact) {
    eo::metrics_registry reg;
    constexpr int k_threads = 8;
    constexpr int k_increments = 50'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < k_threads; ++t)
        threads.emplace_back([&reg] {
            // Every thread resolves the same name; lookups contend on the
            // registry mutex but the returned instrument is shared.
            eo::counter& c = reg.get_counter("test.hits");
            for (int i = 0; i < k_increments; ++i) c.add();
        });
    for (auto& t : threads) t.join();
    EXPECT_EQ(reg.get_counter("test.hits").value(),
              static_cast<std::uint64_t>(k_threads) * k_increments);
}

TEST(Gauge, ConcurrentAddAccumulates) {
    eo::metrics_registry reg;
    eo::gauge& g = reg.get_gauge("test.level");
    constexpr int k_threads = 4;
    constexpr int k_adds = 10'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < k_threads; ++t)
        threads.emplace_back([&g] {
            for (int i = 0; i < k_adds; ++i) g.add(0.5);
        });
    for (auto& t : threads) t.join();
    EXPECT_DOUBLE_EQ(g.value(), k_threads * k_adds * 0.5);
    g.set(-3.25);
    EXPECT_DOUBLE_EQ(g.value(), -3.25);
}

TEST(Histogram, BucketEdges) {
    using h = eo::histogram;
    // Bucket 0 starts exactly at the minimum trackable value.
    EXPECT_EQ(h::bucket_index(h::k_min_value), 0u);
    EXPECT_DOUBLE_EQ(h::bucket_lower(0), h::k_min_value);
    // Each bucket doubles the previous lower edge.
    for (std::size_t b = 1; b < h::k_buckets; ++b)
        EXPECT_DOUBLE_EQ(h::bucket_lower(b), 2.0 * h::bucket_lower(b - 1));
    // Midpoints land in their own bucket; index is monotone in value.
    for (std::size_t b = 0; b < h::k_buckets; ++b)
        EXPECT_EQ(h::bucket_index(1.5 * h::bucket_lower(b)), b) << b;
    // Values past the last bucket clamp to the overflow index.
    EXPECT_EQ(h::bucket_index(h::bucket_lower(h::k_buckets) * 10.0),
              h::k_buckets);
}

TEST(Histogram, UnderflowOverflowAndNan) {
    eo::histogram h;
    h.observe(0.0);                       // below min -> underflow
    h.observe(-1.0);                      // negative -> underflow
    h.observe(0.5e-9);                    // below min -> underflow
    h.observe(std::nan(""));              // NaN -> underflow, not summed
    h.observe(1e12);                      // past the top -> overflow
    h.observe(1.0);                       // a regular bucket
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.underflow(), 4u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.min(), -1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1e12);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0 - 1.0 + 0.5e-9 + 1e12 + 1.0);
}

TEST(Histogram, EmptyIsWellDefined) {
    eo::histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, QuantilesApproximateDistribution) {
    eo::histogram h;
    // 100 observations at ~1 ms, 10 at ~1 s: p50 near 1 ms, p99 near 1 s.
    for (int i = 0; i < 100; ++i) h.observe(1.1e-3);
    for (int i = 0; i < 10; ++i) h.observe(1.1);
    const double p50 = h.quantile(0.5);
    EXPECT_GT(p50, 0.5e-3);
    EXPECT_LT(p50, 4e-3);
    const double p99 = h.quantile(0.99);
    EXPECT_GT(p99, 0.5);
    EXPECT_LT(p99, 4.0);
    // Quantiles are monotone in q.
    EXPECT_LE(h.quantile(0.1), h.quantile(0.9));
}

TEST(Histogram, QuantilesStayWithinObservedRange) {
    // Ten identical observations share one power-of-two bucket whose
    // midpoint (~1649) lies above them: every quantile is the value itself.
    eo::histogram h;
    for (int i = 0; i < 10; ++i) h.observe(1153.0);
    for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(h.quantile(q), 1153.0) << "q = " << q;
    // A spread inside one bucket stays inside [min, max] too.
    eo::histogram g;
    g.observe(1030.0);
    g.observe(1100.0);
    EXPECT_GE(g.quantile(0.5), g.min());
    EXPECT_LE(g.quantile(0.99), g.max());
}

TEST(Histogram, ConcurrentObservationsKeepTotals) {
    eo::histogram h;
    constexpr int k_threads = 8;
    constexpr int k_obs = 20'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < k_threads; ++t)
        threads.emplace_back([&h, t] {
            for (int i = 0; i < k_obs; ++i)
                h.observe(1e-3 * (1 + t));  // distinct buckets per thread
        });
    for (auto& t : threads) t.join();
    EXPECT_EQ(h.count(), static_cast<std::uint64_t>(k_threads) * k_obs);
    std::uint64_t bucketed = h.underflow() + h.overflow();
    for (std::size_t b = 0; b < eo::histogram::k_buckets; ++b)
        bucketed += h.bucket(b);
    EXPECT_EQ(bucketed, h.count());
    EXPECT_NEAR(h.sum(), k_obs * 1e-3 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8), 1e-6);
}

TEST(Registry, SameNameReturnsSameInstrument) {
    eo::metrics_registry reg;
    EXPECT_EQ(&reg.get_counter("a"), &reg.get_counter("a"));
    EXPECT_NE(&reg.get_counter("a"), &reg.get_counter("b"));
    // Counters, gauges and histograms live in separate namespaces.
    reg.get_gauge("a");
    reg.get_histogram("a");
    EXPECT_EQ(reg.counter_names(), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(reg.gauge_names(), (std::vector<std::string>{"a"}));
    EXPECT_EQ(reg.histogram_names(), (std::vector<std::string>{"a"}));
}

TEST(Registry, JsonSnapshot) {
    eo::metrics_registry reg;
    reg.get_counter("runs").add(3);
    reg.get_gauge("level").set(1.5);
    reg.get_histogram("lat").observe(0.25);
    const eo::json_value snap = reg.to_json();
    EXPECT_DOUBLE_EQ(snap.at("counters").at("runs").as_number(), 3.0);
    EXPECT_DOUBLE_EQ(snap.at("gauges").at("level").as_number(), 1.5);
    const auto& lat = snap.at("histograms").at("lat");
    EXPECT_DOUBLE_EQ(lat.at("count").as_number(), 1.0);
    EXPECT_DOUBLE_EQ(lat.at("sum").as_number(), 0.25);
    EXPECT_EQ(lat.at("buckets").size(), 1u);
    // The snapshot survives a serialise/parse round trip.
    EXPECT_EQ(eo::json_value::parse(snap.dump(2)), snap);
}

TEST(ScopedTimer, RecordsIntoHistogram) {
    eo::histogram h;
    {
        eo::scoped_timer timer(&h);
    }
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.max(), 0.0);
}

TEST(ScopedTimer, StopIsIdempotentAndReturnsElapsed) {
    eo::histogram h;
    eo::scoped_timer timer(&h);
    const double s = timer.stop();
    EXPECT_GE(s, 0.0);
    EXPECT_DOUBLE_EQ(timer.stop(), 0.0);  // second stop is a no-op
    EXPECT_EQ(h.count(), 1u);
}

TEST(ScopedTimer, NullSinkIsSafe) {
    eo::scoped_timer a(static_cast<eo::histogram*>(nullptr));
    eo::scoped_timer b(static_cast<eo::metrics_registry*>(nullptr), "x");
    EXPECT_DOUBLE_EQ(a.stop(), 0.0);
    // b records nothing at scope exit either.
}

TEST(GlobalRegistry, DefaultsOffAndInstallable) {
    // Note: other tests must not leave a global registry installed.
    EXPECT_EQ(eo::global_registry(), nullptr);
    eo::metrics_registry reg;
    eo::set_global_registry(&reg);
    EXPECT_EQ(eo::global_registry(), &reg);
    eo::set_global_registry(nullptr);
    EXPECT_EQ(eo::global_registry(), nullptr);
}
