#include "bench.hpp"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "exec/thread_pool.hpp"
#include "spec/json_codec.hpp"
#include "spec/spec_hash.hpp"
#include "testkit/prng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE_ARCH
#define PERFBENCH_NATIVE_ARCH 0
#endif

namespace perfbench {

namespace {

/// The metric sets BENCHMARK.json declares, in its order. A workload that
/// forgets one is a benchmark bug, caught before the result line.
struct declared {
    const char* name;
    const char* unit;
};

constexpr declared k_end_to_end[] = {
    {"setup_s", "s"},
    {"latency_s_p50", "s"},
    {"latency_s_p90", "s"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr declared k_per_layer[] = {
    {"spec.encode_s", "s"},
    {"spec.parse_s", "s"},
    {"spec.hash_s", "s"},
    {"svc.admit_s", "s"},
    {"svc.queue_wait_s", "s"},
    {"svc.run_s", "s"},
    {"svc.ping_rtt_s", "s"},
    {"svc.result_bytes", "bytes"},
    {"svc.rejected_ratio", "ratio"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"cache.flow_hit_ratio", "ratio"},
    {"dse.flow.d_optimal_s", "s"},
    {"dse.flow.simulate_s", "s"},
    {"dse.flow.fit_s", "s"},
    {"dse.flow.baseline_s", "s"},
    {"dse.flow.optimise_s", "s"},
    {"dse.flow.validate_s", "s"},
    {"dse.evaluate_s", "s"},
    {"dse.batch.lane_s.electromagnetic", "s"},
    {"dse.batch.lane_s.electrostatic", "s"},
    {"dse.batch.lanes_per_batch", "count"},
    {"dse.batch.fallbacks", "count"},
    {"sim.ode_steps_per_eval", "count"},
    {"sim.ode_reject_ratio", "ratio"},
    {"sim.events_per_eval", "count"},
    {"sim.batch.lane_occupancy", "ratio"},
    {"sim.host_s_per_step", "s"},
    {"harvester.envelope_dynamics_s.electromagnetic", "s"},
    {"harvester.envelope_dynamics_s.electrostatic", "s"},
    {"harvester.transient_rhs_s", "s"},
    {"exec.pool.task_wait_s_p50", "s"},
    {"exec.pool.busy_ratio", "ratio"},
    {"exec.pool.steals", "count"},
    {"opt.surface_evals", "count"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"loadgen.lag_s_p99", "s"},
};

std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::uint32_t thread_tag() {
    static std::mutex mutex;
    static std::map<std::thread::id, std::uint32_t> tags;
    std::lock_guard lock(mutex);
    const auto [it, inserted] = tags.emplace(
        std::this_thread::get_id(), static_cast<std::uint32_t>(tags.size() + 1));
    return it->second;
}

thread_local std::vector<std::uint64_t> t_open_stack;

obs::json_value metrics_json(const std::vector<metric>& ms) {
    obs::json_object doc;
    for (const metric& m : ms) {
        obs::json_object entry;
        entry.emplace_back("value", obs::json_value(m.value));
        entry.emplace_back("unit", obs::json_value(m.unit));
        doc.emplace_back(m.name, obs::json_value(std::move(entry)));
    }
    return obs::json_value(std::move(doc));
}

/// Pick the declared metrics out of `have`, in declared order; throws
/// naming the first one missing or carrying another unit.
template <std::size_t N>
std::vector<metric> declared_subset(const std::vector<metric>& have,
                                    const declared (&want)[N]) {
    std::vector<metric> out;
    for (const declared& d : want) {
        const auto it = std::find_if(have.begin(), have.end(),
                                     [&](const metric& m) { return m.name == d.name; });
        if (it == have.end())
            throw std::logic_error(std::string("metric not reported: ") + d.name);
        if (it->unit != d.unit)
            throw std::logic_error(std::string("metric ") + d.name +
                                   " reported in " + it->unit + ", declared " +
                                   d.unit);
        if (!std::isfinite(it->value))
            throw std::logic_error(std::string("metric not finite: ") + d.name);
        out.push_back(*it);
    }
    return out;
}

}  // namespace

// -- statistics -----------------------------------------------------------

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (double v : values) sum += v;
    return sum / static_cast<double>(values.size());
}

void blocked_samples::add(double at, double value) {
    const auto b = static_cast<std::size_t>(std::clamp(at, 0.0, 0.999999) * k_blocks);
    blocks_[b].push_back(value);
}

blocked_samples blocked_samples::by_cycles(const std::vector<double>& values,
                                           std::size_t n) {
    blocked_samples out;
    const std::size_t cycles = n == 0 ? 0 : values.size() / n;
    if (cycles == 0) {
        out.blocks_[0] = values;
        return out;
    }
    for (std::size_t i = 0; i < cycles * n; ++i)
        out.blocks_[std::min(k_blocks - 1, (i / n) * k_blocks / cycles)].push_back(values[i]);
    return out;
}

std::vector<double> blocked_samples::all() const {
    std::vector<double> out;
    for (const auto& b : blocks_) out.insert(out.end(), b.begin(), b.end());
    return out;
}

double blocked_samples::best_quantile(double q) const {
    double best = 0.0;
    bool any = false;
    for (const auto& b : blocks_) {
        if (b.size() < 5) continue;
        const double v = quantile(b, q);
        best = any ? std::min(best, v) : v;
        any = true;
    }
    return any ? best : quantile(all(), q);
}

double blocked_samples::best_rate(const blocked_samples& work) const {
    double best = 0.0, all_secs = 0.0, all_done = 0.0;
    for (std::size_t i = 0; i < k_blocks; ++i) {
        double secs = 0.0, done = 0.0;
        for (double v : blocks_[i]) secs += v;
        for (double w : work.blocks_[i]) done += w;
        all_secs += secs;
        all_done += done;
        if (blocks_[i].size() >= 5 && secs > 0.0) best = std::max(best, done / secs);
    }
    return best > 0.0 ? best : (all_secs > 0.0 ? all_done / all_secs : 0.0);
}

// -- digest ---------------------------------------------------------------

void digest::add(std::uint64_t value) noexcept {
    state_ = ehdse::testkit::mix(state_, value);
}

void digest::add(std::string_view text) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
    for (unsigned char c : text) h = (h ^ c) * 0x100000001b3ULL;
    add(h);
}

std::string digest::hex() const { return ehdse::spec::spec_hash_hex(state_); }

// -- tracer ---------------------------------------------------------------

std::uint64_t tracer::open(std::string_view name, std::uint64_t request) {
    span_record rec;
    rec.name = std::string(name);
    rec.request = request;
    rec.parent = t_open_stack.empty() ? 0 : t_open_stack.back();
    rec.thread = thread_tag();
    {
        std::lock_guard lock(mutex_);
        rec.id = next_id_++;
        rec.start = clock::now();
        open_.emplace(rec.id, rec);
    }
    t_open_stack.push_back(rec.id);
    return rec.id;
}

void tracer::close(std::uint64_t id) {
    const clock::time_point end = clock::now();
    if (!t_open_stack.empty() && t_open_stack.back() == id)
        t_open_stack.pop_back();
    std::lock_guard lock(mutex_);
    const auto it = open_.find(id);
    if (it == open_.end()) return;
    it->second.end = end;
    finished_.push_back(std::move(it->second));
    open_.erase(it);
}

std::uint64_t tracer::record(std::string_view name, clock::time_point start,
                             clock::time_point end, std::uint64_t parent,
                             std::uint64_t request) {
    if (!enabled_) return 0;
    span_record rec;
    rec.name = std::string(name);
    rec.parent = parent;
    rec.request = request;
    rec.start = start;
    rec.end = end;
    rec.thread = thread_tag();
    std::lock_guard lock(mutex_);
    rec.id = next_id_++;
    finished_.push_back(std::move(rec));
    return finished_.back().id;
}

std::vector<span_record> tracer::spans() const {
    std::lock_guard lock(mutex_);
    return finished_;
}

std::vector<double> tracer::durations(std::string_view name) const {
    std::vector<double> out;
    std::lock_guard lock(mutex_);
    for (const span_record& s : finished_)
        if (s.name == name) out.push_back(seconds_between(s.start, s.end));
    return out;
}

std::map<std::string, tracer::time_split> tracer::self_times() const {
    const std::vector<span_record> all = spans();
    std::map<std::uint64_t, std::vector<const span_record*>> children;
    for (const span_record& s : all)
        if (s.parent != 0) children[s.parent].push_back(&s);
    std::map<std::string, time_split> out;
    for (const span_record& s : all) {
        const double total = seconds_between(s.start, s.end);
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<clock::time_point, clock::time_point>> iv;
        for (const span_record* c : children[s.id])
            iv.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        clock::time_point reach = s.start;
        for (const auto& [a, b] : iv) {
            const clock::time_point from = std::max(a, reach);
            if (b > from) {
                covered += seconds_between(from, b);
                reach = b;
            }
        }
        time_split& agg = out[s.name];
        ++agg.count;
        agg.total_s += total;
        agg.self_s += std::max(0.0, total - covered);
    }
    return out;
}

void tracer::write_chrome_trace(const std::string& path,
                                const obs::json_value& metadata) const {
    obs::json_array events;
    const auto us = [this](clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    for (const span_record& s : spans()) {
        obs::json_object args;
        args.emplace_back("span_id", obs::json_value(s.id));
        args.emplace_back("parent_id", obs::json_value(s.parent));
        args.emplace_back("request_id", obs::json_value(s.request));
        obs::json_object ev;
        ev.emplace_back("name", obs::json_value(s.name));
        ev.emplace_back("cat", obs::json_value(s.name.substr(0, s.name.find('.'))));
        ev.emplace_back("ph", obs::json_value("X"));
        ev.emplace_back("ts", obs::json_value(us(s.start)));
        ev.emplace_back("dur", obs::json_value(us(s.end) - us(s.start)));
        ev.emplace_back("pid", obs::json_value(1));
        ev.emplace_back("tid", obs::json_value(s.thread));
        ev.emplace_back("args", obs::json_value(std::move(args)));
        events.push_back(obs::json_value(std::move(ev)));
    }
    obs::json_object doc = {
        {"traceEvents", obs::json_value(std::move(events))},
        {"displayTimeUnit", obs::json_value("ms")},
        {"metadata", metadata},
    };
    write_text(path, obs::json_value(std::move(doc)).dump() + "\n");
}

// -- report ---------------------------------------------------------------

void report::end_to_end(std::string name, double value, std::string unit,
                        std::string note) {
    e2e_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void report::shown(std::string name, double value, std::string unit,
                   std::string note) {
    shown_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void report::layer(std::string name, double value, std::string unit,
                   std::string note) {
    layer_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void report::absent(std::string name, std::string unit, std::string reason) {
    layer_.push_back({std::move(name), 0.0, std::move(unit),
                      "absent: " + std::move(reason)});
}

void report::failed(const std::string& why) {
    if (!current_failed_) ++failed_;
    current_failed_ = true;
    if (failures_.size() < 20) failures_.push_back(why);
}

bool report::check(bool ok, const std::string& why) {
    if (!ok) failed(why);
    return ok;
}

void report::note(std::string key, obs::json_value value) {
    notes_.emplace_back(std::move(key), std::move(value));
}

void report::finish(const run_options& opts,
                    const obs::json_value& fingerprint) {
    const double ratio =
        attempted_ == 0 ? 0.0
                        : static_cast<double>(failed_) / static_cast<double>(attempted_);
    shown("failed_ops_ratio", ratio, "ratio",
          std::to_string(failed_) + " of " + std::to_string(attempted_));

    std::cout << "fingerprint " << fingerprint.dump() << "\n";
    const auto print = [](const char* tag, const std::vector<metric>& ms) {
        for (const metric& m : ms) {
            std::cout << tag << ' ' << m.name << " = " << fmt(m.value) << ' '
                      << m.unit;
            if (!m.note.empty()) std::cout << "  (" << m.note << ')';
            std::cout << '\n';
        }
    };
    print("metric", shown_);
    print("metric", e2e_);
    if (opts.trace) print("layer", layer_);
    for (const auto& [key, value] : notes_)
        std::cout << "note " << key << " = " << value.dump() << '\n';
    for (const std::string& why : failures_)
        std::cout << "failure " << why << '\n';

    obs::json_object results;
    results.emplace_back("fingerprint", fingerprint);
    results.emplace_back("attempted", obs::json_value(attempted_));
    results.emplace_back("failed", obs::json_value(failed_));
    results.emplace_back("workload_metrics", metrics_json(shown_));
    results.emplace_back("end_to_end", metrics_json(e2e_));
    if (opts.trace) results.emplace_back("per_layer", metrics_json(layer_));
    obs::json_array failures;
    for (const std::string& why : failures_) failures.push_back(obs::json_value(why));
    results.emplace_back("failures", obs::json_value(std::move(failures)));
    results.emplace_back("notes", obs::json_value(notes_));
    write_text(opts.out_dir + "/results.json",
               obs::json_value(std::move(results)).dump(2) + "\n");

    const std::vector<metric> chosen =
        opts.trace ? declared_subset(layer_, k_per_layer)
                   : declared_subset(e2e_, k_end_to_end);
    obs::json_object line;
    line.emplace_back("correct", obs::json_value(failed_ == 0));
    line.emplace_back("attempted", obs::json_value(std::max<std::uint64_t>(attempted_, 1)));
    line.emplace_back("failed", obs::json_value(failed_));
    line.emplace_back("metrics", metrics_json(chosen));
    std::cout << obs::json_value(std::move(line)).dump() << std::endl;
}

// -- environment ----------------------------------------------------------

obs::json_value host_fingerprint(const run_options& opts) {
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) cpu = line.substr(colon + 2);
            break;
        }
    }
    obs::json_object fp;
    fp.emplace_back("nproc", obs::json_value(pool_workers()));
    fp.emplace_back("cpu_model", obs::json_value(cpu));
    fp.emplace_back("compiler", obs::json_value(std::string("gcc ") + __VERSION__));
    fp.emplace_back("build_type", obs::json_value(PERFBENCH_BUILD_TYPE));
    fp.emplace_back("ehdse_native_arch", obs::json_value(PERFBENCH_NATIVE_ARCH != 0));
    fp.emplace_back("git_commit", obs::json_value(opts.git_commit));
    fp.emplace_back("source_digest", obs::json_value(opts.source_digest));
    fp.emplace_back("workload", obs::json_value(opts.workload));
    fp.emplace_back("seed", obs::json_value(std::to_string(opts.seed)));
    fp.emplace_back("seconds", obs::json_value(opts.seconds));
    fp.emplace_back("trace", obs::json_value(opts.trace));
    fp.emplace_back("size", obs::json_value(opts.tiny ? "tiny" : "full"));
    return obs::json_value(std::move(fp));
}

double self_peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

double process_peak_rss_mb(int pid) {
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    return 0.0;
}

void make_dirs(const std::string& path) {
    for (std::size_t pos = 0; pos != std::string::npos;) {
        pos = path.find('/', pos + 1);
        const std::string prefix = path.substr(0, pos);
        if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
            throw std::runtime_error("cannot create directory " + prefix);
    }
}

void write_text(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out) throw std::runtime_error("cannot write " + path);
}

std::uint64_t write_input(std::string& jsonl, std::size_t index,
                          std::string_view kind,
                          const ehdse::spec::experiment_spec& canon) {
    const std::uint64_t hash = ehdse::spec::spec_hash(canon);
    obs::json_object line;
    line.emplace_back("index", obs::json_value(index));
    line.emplace_back("kind", obs::json_value(kind));
    line.emplace_back("spec_hash", obs::json_value(ehdse::spec::spec_hash_hex(hash)));
    line.emplace_back("spec", ehdse::spec::to_json(canon));
    jsonl += obs::json_value(std::move(line)).dump();
    jsonl += '\n';
    return hash;
}

double time_process_setup(const run_options& opts) {
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
    const std::string seed = std::to_string(opts.seed);
    const auto t0 = clock::now();
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
        ::dup2(out[1], STDOUT_FILENO);
        ::close(out[0]);
        ::close(out[1]);
        std::vector<const char*> argv = {"ehdse_perf", "--workload", opts.workload.c_str(),
                                         "--seed", seed.c_str(), "--seconds", "1",
                                         "--out-dir", opts.out_dir.c_str(), "--setup-probe"};
        if (opts.tiny) argv.push_back("--tiny");
        argv.push_back(nullptr);
        ::execv("/proc/self/exe", const_cast<char* const*>(argv.data()));
        ::_exit(127);
    }
    ::close(out[1]);
    std::string seen;
    double ready_s = -1.0;
    char buf[64];
    for (ssize_t n; (n = ::read(out[0], buf, sizeof buf)) > 0;) {
        seen.append(buf, static_cast<std::size_t>(n));
        if (ready_s < 0.0 && seen.find("ready\n") != std::string::npos)
            ready_s = seconds_since(t0);
    }
    ::close(out[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (ready_s < 0.0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("set-up probe failed");
    return ready_s;
}

std::size_t pool_workers() { return ehdse::exec::default_concurrency(); }

}  // namespace perfbench
