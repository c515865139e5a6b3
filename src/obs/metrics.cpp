#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace ehdse::obs {

namespace {

void atomic_add(std::atomic<double>& a, double delta) noexcept {
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
}

void atomic_min(std::atomic<double>& a, double v) noexcept {
    double cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

void atomic_max(std::atomic<double>& a, double v) noexcept {
    double cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

}  // namespace

std::size_t histogram::bucket_index(double v) noexcept {
    // v >= k_min_value and finite. ilogb gives floor(log2(v / 1)) cheaply;
    // rescale so bucket 0 starts at k_min_value.
    const int e = std::ilogb(v / k_min_value);
    if (e < 0) return 0;  // rounding guard at the lower edge
    return std::min<std::size_t>(static_cast<std::size_t>(e), k_buckets);
}

double histogram::bucket_lower(std::size_t b) noexcept {
    return k_min_value * std::ldexp(1.0, static_cast<int>(b));
}

void histogram::observe(double v) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    if (std::isnan(v)) {  // uncountable: tallied as underflow, excluded from moments
        underflow_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (v < k_min_value) {
        underflow_.fetch_add(1, std::memory_order_relaxed);
    } else {
        const std::size_t b = bucket_index(v);
        if (b >= k_buckets)
            overflow_.fetch_add(1, std::memory_order_relaxed);
        else
            buckets_[b].fetch_add(1, std::memory_order_relaxed);
    }
    atomic_add(sum_, v);
    atomic_min(min_, v);
    atomic_max(max_, v);
}

double histogram::quantile(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    std::uint64_t seen = underflow();
    if (seen >= target && seen > 0) return min();
    const double lo = min();
    const double hi = max();
    for (std::size_t b = 0; b < k_buckets; ++b) {
        seen += bucket(b);
        if (seen >= target) {
            // A bucket midpoint can lie outside what was observed (ten
            // observations of 1153 share a bucket whose midpoint is ~1649).
            const double mid = 0.5 * (bucket_lower(b) + bucket_lower(b + 1));
            return lo <= hi ? std::clamp(mid, lo, hi) : mid;
        }
    }
    return hi;
}

json_value histogram::to_json() const {
    json_object o;
    o.emplace_back("count", json_value(count()));
    o.emplace_back("sum", json_value(sum()));
    o.emplace_back("mean", json_value(mean()));
    o.emplace_back("min", json_value(min()));
    o.emplace_back("max", json_value(max()));
    o.emplace_back("p50", json_value(quantile(0.50)));
    o.emplace_back("p90", json_value(quantile(0.90)));
    o.emplace_back("p99", json_value(quantile(0.99)));
    o.emplace_back("underflow", json_value(underflow()));
    o.emplace_back("overflow", json_value(overflow()));
    json_array buckets;
    for (std::size_t b = 0; b < k_buckets; ++b) {
        const std::uint64_t c = bucket(b);
        if (c == 0) continue;
        buckets.push_back(json_value(json_array{
            json_value(bucket_lower(b)), json_value(c)}));
    }
    o.emplace_back("buckets", json_value(std::move(buckets)));
    return json_value(std::move(o));
}

counter& metrics_registry::get_counter(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    if (it == counters_.end())
        it = counters_.emplace(std::string(name), std::make_unique<counter>()).first;
    return *it->second;
}

gauge& metrics_registry::get_gauge(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        it = gauges_.emplace(std::string(name), std::make_unique<gauge>()).first;
    return *it->second;
}

histogram& metrics_registry::get_histogram(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(std::string(name), std::make_unique<histogram>())
                 .first;
    return *it->second;
}

std::vector<std::string> metrics_registry::counter_names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    for (const auto& [name, _] : counters_) names.push_back(name);
    return names;
}

std::vector<std::string> metrics_registry::gauge_names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    for (const auto& [name, _] : gauges_) names.push_back(name);
    return names;
}

std::vector<std::string> metrics_registry::histogram_names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    for (const auto& [name, _] : histograms_) names.push_back(name);
    return names;
}

json_value metrics_registry::to_json() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    json_object counters;
    for (const auto& [name, c] : counters_)
        counters.emplace_back(name, json_value(c->value()));
    json_object gauges;
    for (const auto& [name, g] : gauges_)
        gauges.emplace_back(name, json_value(g->value()));
    json_object histograms;
    for (const auto& [name, h] : histograms_)
        histograms.emplace_back(name, h->to_json());
    json_object root;
    root.emplace_back("counters", json_value(std::move(counters)));
    root.emplace_back("gauges", json_value(std::move(gauges)));
    root.emplace_back("histograms", json_value(std::move(histograms)));
    return json_value(std::move(root));
}

void metrics_registry::write_json(std::ostream& os, int indent) const {
    to_json().write(os, indent);
    os << '\n';
}

namespace {
std::atomic<metrics_registry*> g_registry{nullptr};
}  // namespace

metrics_registry* global_registry() noexcept {
    return g_registry.load(std::memory_order_relaxed);
}

void set_global_registry(metrics_registry* registry) noexcept {
    g_registry.store(registry, std::memory_order_release);
}

}  // namespace ehdse::obs
