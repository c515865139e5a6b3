// Shared pieces of the ehdse benchmark program: run options, sample
// statistics, benchmark-side spans, the host fingerprint, the result
// digest, output files, and the report that becomes the final JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "spec/experiment_spec.hpp"

namespace perfbench {

namespace obs = ehdse::obs;

using clock = std::chrono::steady_clock;

inline double seconds_between(clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(clock::time_point t0) {
    return seconds_between(t0, clock::now());
}

struct run_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// "tiny" shrinks every horizon and window for the self-test.
    bool tiny = false;
    /// Only build the workload's set-up, print "ready" and exit (see
    /// time_process_setup).
    bool setup_probe = false;
    /// Per-request probability of an injected evaluator fault
    /// (testkit::faulty_evaluator); in-process workloads only.
    double fault_rate = 0.0;
    std::string out_dir;      ///< per-run output directory (created)
    std::string ehdsed;       ///< path of the built daemon
    std::string git_commit;   ///< "none" outside a git checkout
    std::string source_digest;
};

/// Length of one measured pass. A traced run splits its window between
/// the untraced pass (the base of obs.trace_overhead_ratio) and the
/// traced pass, so it takes about as long as an untraced run.
inline double window_s(const run_options& o) {
    return o.trace ? o.seconds / 2.0 : o.seconds;
}

// -- statistics -----------------------------------------------------------

/// Linearly interpolated sample quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Samples of one measured window, kept in blocks. The host is shared
/// and its speed drifts by 10-20% over tens of seconds, so a whole-window
/// statistic does not repeat from run to run; the end-to-end timings are
/// taken from the least-disturbed block instead (the whole-window values
/// are printed beside them).
class blocked_samples {
public:
    static constexpr std::size_t k_blocks = 6;

    /// `at` is where in the window the sample belongs, in [0, 1).
    void add(double at, double value);
    /// For a closed loop over a catalogue of `n` inputs: sample i belongs
    /// to cycle i / n, and each block holds whole cycles, so every block
    /// runs the same inputs. The last, incomplete cycle is left out.
    static blocked_samples by_cycles(const std::vector<double>& values, std::size_t n);
    std::vector<double> all() const;
    /// Smallest per-block q-quantile over blocks holding >= 5 samples.
    double best_quantile(double q) const;
    /// Largest per-block sum(work) / sum(value) over the same blocks,
    /// where each sample's value is the seconds its `work` took.
    double best_rate(const blocked_samples& work) const;

private:
    std::vector<double> blocks_[k_blocks];
};

// -- digests --------------------------------------------------------------

/// Order-sensitive 64-bit digest over integers (splitmix64 combine).
class digest {
public:
    void add(std::uint64_t value) noexcept;
    void add(std::string_view text) noexcept;
    std::uint64_t value() const noexcept { return state_; }
    std::string hex() const;

private:
    std::uint64_t state_ = 0x6568647365ULL;
};

// -- spans ----------------------------------------------------------------

struct span_record {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;  ///< spans of one request share this id
    clock::time_point start;
    clock::time_point end;
    std::uint32_t thread = 0;
};

/// In-memory span store, written out when the run ends. Disabled
/// tracers record nothing, so the untraced run pays one branch per span.
class tracer {
public:
    explicit tracer(bool enabled) : enabled_(enabled) {}
    bool enabled() const noexcept { return enabled_; }

    /// Open a span on the calling thread; the innermost open span of the
    /// thread becomes its parent. Returns 0 when disabled.
    std::uint64_t open(std::string_view name, std::uint64_t request);
    void close(std::uint64_t id);
    /// Record a finished span whose times were taken elsewhere (the
    /// load generator's frame timestamps). Returns its id.
    std::uint64_t record(std::string_view name, clock::time_point start,
                         clock::time_point end, std::uint64_t parent,
                         std::uint64_t request);

    std::vector<span_record> spans() const;
    /// Total and self seconds per span name; self time is a span's
    /// duration minus the part of it its children cover.
    struct time_split {
        std::size_t count = 0;
        double total_s = 0.0;
        double self_s = 0.0;
    };
    std::map<std::string, time_split> self_times() const;
    /// Durations (s) of every finished span called `name`.
    std::vector<double> durations(std::string_view name) const;
    /// Chrome trace-event JSON (loads in Perfetto and chrome://tracing).
    void write_chrome_trace(const std::string& path,
                            const obs::json_value& metadata) const;

private:
    bool enabled_;
    clock::time_point origin_ = clock::now();
    mutable std::mutex mutex_;
    std::vector<span_record> finished_;
    std::map<std::uint64_t, span_record> open_;
    std::uint64_t next_id_ = 1;
};

/// RAII span on a tracer (a no-op when the tracer is disabled).
class span {
public:
    span(tracer& t, std::string_view name, std::uint64_t request = 0)
        : tracer_(t), id_(t.enabled() ? t.open(name, request) : 0) {}
    ~span() {
        if (id_ != 0) tracer_.close(id_);
    }
    span(const span&) = delete;
    span& operator=(const span&) = delete;

private:
    tracer& tracer_;
    std::uint64_t id_;
};

// -- report ---------------------------------------------------------------

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
};

/// Everything one workload run reports. end_to_end() values go into the
/// final JSON of an untraced run, layer() values into that of a traced
/// run; shown() values are the workload's own named metrics, printed as
/// lines and written to results.json.
class report {
public:
    void end_to_end(std::string name, double value, std::string unit,
                    std::string note = "");
    void shown(std::string name, double value, std::string unit,
               std::string note = "");
    void layer(std::string name, double value, std::string unit,
               std::string note = "");
    /// A per-layer metric this workload does not exercise: reported as 0
    /// with the reason printed beside it.
    void absent(std::string name, std::string unit, std::string reason);

    /// Start one attempted operation. failed() and a false check() mark
    /// the current operation failed (once, however many checks fail) and
    /// keep the first messages for the report.
    void attempted() {
        ++attempted_;
        current_failed_ = false;
    }
    void failed(const std::string& why);
    /// Returns `ok`; marks the current operation failed when it is false.
    bool check(bool ok, const std::string& why);

    void note(std::string key, obs::json_value value);

    /// Human-readable lines (stdout), results.json, and the final JSON
    /// line with the metric set the mode asks for.
    void finish(const run_options& opts, const obs::json_value& fingerprint);

private:
    std::vector<metric> e2e_;
    std::vector<metric> shown_;
    std::vector<metric> layer_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool current_failed_ = false;
    std::vector<std::string> failures_;
    obs::json_object notes_;
};

// -- environment ----------------------------------------------------------

/// nproc, CPU model, compiler, build type, EHDSE_NATIVE_ARCH, git commit,
/// source digest, workload and seed.
obs::json_value host_fingerprint(const run_options& opts);

/// Peak resident set of this process (MiB).
double self_peak_rss_mb();
/// Peak resident set of another live process (MiB), from /proc.
double process_peak_rss_mb(int pid);

void make_dirs(const std::string& path);
void write_text(const std::string& path, const std::string& text);

/// Append one replayable input: canonical spec JSON plus its spec_hash.
/// Returns the hash.
std::uint64_t write_input(std::string& jsonl, std::size_t index,
                          std::string_view kind,
                          const ehdse::spec::experiment_spec& canon);

/// Set-up repetitions per run; set-up takes milliseconds, so its median
/// needs many.
inline constexpr int k_setup_repeats = 11;

/// Set-up time of an in-process workload as a user sees it: start this
/// binary in --setup-probe mode and time it from fork until it reports
/// that its first request could start.
double time_process_setup(const run_options& opts);

/// Worker count of the pools the workloads use (the host's nproc).
std::size_t pool_workers();

}  // namespace perfbench
