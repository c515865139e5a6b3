// Thread-safe process metrics: named counters, gauges and fixed-bucket
// log-scale histograms behind a registry, plus an optional process-wide
// sink. Everything here is lock-free on the hot path:
//
//   * instruments (counter/gauge/histogram) are plain atomics — safe to
//     hit from the flow's concurrent design-point evaluations;
//   * the registry's name->instrument maps take a mutex only on first
//     lookup; call sites cache the returned reference/pointer;
//   * when no sink is attached (obs::global_registry() == nullptr, the
//     default) instrumented code paths reduce to one relaxed pointer
//     load and a branch — cheap enough to stay on in the benches.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace ehdse::obs {

/// Monotonically increasing event count.
class counter {
public:
    void add(std::uint64_t n = 1) noexcept {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (also supports accumulate).
class gauge {
public:
    void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
    void add(double delta) noexcept {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + delta,
                                             std::memory_order_relaxed)) {
        }
    }
    double value() const noexcept { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<double> value_{0.0};
};

/// Distribution sketch with fixed base-2 log-scale buckets.
///
/// Bucket b (0-based) spans [min_value * 2^b, min_value * 2^(b+1)) with
/// min_value = 1e-9; 64 buckets reach ~1.8e10, so the same shape covers
/// nanosecond timings and whole-run step counts. Observations below
/// min_value (including zero, negatives and NaN) land in the underflow
/// bucket; observations at or past the top land in the overflow bucket.
class histogram {
public:
    static constexpr std::size_t k_buckets = 64;
    static constexpr double k_min_value = 1e-9;

    void observe(double v) noexcept;

    std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
    double mean() const noexcept {
        const std::uint64_t n = count();
        return n ? sum() / static_cast<double>(n) : 0.0;
    }
    double min() const noexcept { return count() ? min_.load(std::memory_order_relaxed) : 0.0; }
    double max() const noexcept { return count() ? max_.load(std::memory_order_relaxed) : 0.0; }

    std::uint64_t underflow() const noexcept {
        return underflow_.load(std::memory_order_relaxed);
    }
    std::uint64_t overflow() const noexcept {
        return overflow_.load(std::memory_order_relaxed);
    }
    std::uint64_t bucket(std::size_t b) const {
        return buckets_.at(b).load(std::memory_order_relaxed);
    }

    /// Lower edge of bucket b; bucket_lower(k_buckets) is the overflow edge.
    static double bucket_lower(std::size_t b) noexcept;
    /// Bucket index a finite value >= k_min_value falls into (clamped to
    /// k_buckets for overflow); exposed for the bucketing tests.
    static std::size_t bucket_index(double v) noexcept;

    /// Approximate quantile (q in [0,1]) from the bucket midpoints,
    /// clamped to [min(), max()]; under/overflow observations resolve to
    /// the range edges.
    double quantile(double q) const;

    /// {count, sum, mean, min, max, p50, p90, p99, underflow, overflow,
    ///  buckets: [[lower_edge, count], ...]}  (only non-empty buckets).
    json_value to_json() const;

private:
    std::array<std::atomic<std::uint64_t>, k_buckets> buckets_{};
    std::atomic<std::uint64_t> underflow_{0};
    std::atomic<std::uint64_t> overflow_{0};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    // +/-inf sentinels: the first observe() always wins the CAS races.
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Named instruments. Lookup creates on first use; returned references
/// stay valid for the registry's lifetime (instruments are never removed).
class metrics_registry {
public:
    counter& get_counter(std::string_view name);
    gauge& get_gauge(std::string_view name);
    histogram& get_histogram(std::string_view name);

    /// Sorted instrument names, for introspection/tests.
    std::vector<std::string> counter_names() const;
    std::vector<std::string> gauge_names() const;
    std::vector<std::string> histogram_names() const;

    /// Snapshot: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
    json_value to_json() const;
    void write_json(std::ostream& os, int indent = 2) const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<histogram>, std::less<>> histograms_;
};

/// Process-wide sink. Defaults to nullptr = observability off; library
/// instrumentation checks this once per object (cached pointer) or per
/// coarse operation, never per inner-loop iteration.
metrics_registry* global_registry() noexcept;

/// Install (or clear, with nullptr) the process-wide sink. The registry
/// must outlive all objects that cache instrument pointers from it —
/// in practice: install once at startup, detach never.
void set_global_registry(metrics_registry* registry) noexcept;

}  // namespace ehdse::obs
