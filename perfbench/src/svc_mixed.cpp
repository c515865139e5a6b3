// svc_mixed: an open loop of Poisson arrivals at a fixed nominal rate
// over four unix-socket connections to a freshly started ehdsed. Most
// requests are `simulate` submits, some `flow` submits; specs come from a
// seed-generated catalogue over both harvester backends and three
// scenarios. The request kinds are stratified in blocks of 20 so every
// window carries the same mix:
//
//    5 repeats of a hot simulate spec   (warm: answered from the cache)
//    1 repeat of a hot flow spec        (warm: every evaluation a hit)
//   12 fresh electromagnetic simulates  (cold: one scalar evaluate())
//    2 fresh electrostatic simulates    (cold, about 25x cheaper)
//
// so 30% of requests repeat. The shares put both the median and the
// 90th percentile inside the cold electromagnetic mode, which is bound
// by compute. Warm requests cost a millisecond or a few, mostly thread
// hand-offs whose length varies several-fold from run to run on a
// shared virtual machine, so a percentile on those modes would not
// repeat; they are reported as svc_warm_latency_s_p50.
// The hot set (48 simulate + 8 flow specs) is answered once before the
// window opens, so it is warm inside it, and it fits the daemon's
// default 512-entry caches many times over. Each request is timed from
// the moment it was due to be sent. After the window (untraced runs
// only) a closed-loop burst finds the saturation throughput, and a
// ladder of open-loop rates below it finds the highest rate whose p99
// meets the latency limit.
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "dse/system_config.hpp"
#include "dse/system_evaluator.hpp"
#include "probes.hpp"
#include "spec/json_codec.hpp"
#include "spec/spec_hash.hpp"
#include "svc/framing.hpp"
#include "svc/protocol.hpp"
#include "svc/socket.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace svc = ehdse::svc;
namespace testkit = ehdse::testkit;

constexpr std::size_t k_connections = 4;
/// p99 limit of the rate ladder: about twice one cold electromagnetic
/// simulate of the 1800 s scenarios on this workload's hardware class.
constexpr double k_latency_limit_s = 0.1;
constexpr double k_ping_period_s = 0.1;
constexpr const char* k_backends[] = {"electromagnetic", "electrostatic"};

// -- inputs ---------------------------------------------------------------

enum class kind { hot_sim, hot_flow, fresh_em, fresh_es };

struct item {
    svc::workload work = svc::workload::simulate;
    spec::experiment_spec spec;  ///< canonical
    std::uint64_t hash = 0;
    std::string frame_body;      ///< encoded spec document
};

struct catalogue {
    std::vector<spec::scenario> scenarios;
    std::vector<item> hot_sims;
    std::vector<item> hot_flows;
};

item make_item(svc::workload work, spec::experiment_spec s, tracer& tr,
               std::uint64_t request) {
    s.validate();
    item it;
    it.work = work;
    it.spec = s.canonicalized();
    {
        span sp(tr, "spec.hash", request);
        it.hash = spec::spec_hash(it.spec);
    }
    {
        span sp(tr, "spec.encode", request);
        it.frame_body = spec::to_json(it.spec).dump();
    }
    return it;
}

catalogue make_catalogue(const run_options& opts, tracer& tr) {
    testkit::prng rng(testkit::mix(opts.seed, 0x737663ULL));
    catalogue cat;
    for (int s = 0; s < 3; ++s) {
        spec::scenario scn;
        scn.duration_s = opts.tiny ? 60.0 : 1800.0;
        scn.step_period_s = scn.duration_s / 3.0;
        scn.accel_mg = 50.0 + 20.0 * (s + rng.uniform()) / 3.0;
        cat.scenarios.push_back(scn);
    }
    const std::size_t n_hot = opts.tiny ? 6 : 48;
    const std::size_t n_flows = opts.tiny ? 2 : 8;
    const std::vector<spec::system_config> configs = stratified_configs(n_hot, rng);
    for (std::size_t i = 0; i < n_hot; ++i) {
        spec::experiment_spec s;
        s.scn = cat.scenarios[(i / 2) % cat.scenarios.size()];
        s.harv.model = k_backends[i % 2];
        s.config = configs[i];
        s.eval.controller_seed = rng() >> 12;
        cat.hot_sims.push_back(make_item(svc::workload::simulate, s, tr, 0));
    }
    for (std::size_t i = 0; i < n_flows; ++i) {
        spec::experiment_spec s;
        s.scn = cat.scenarios[i % cat.scenarios.size()];
        s.harv.model = k_backends[i % 2];
        s.eval.controller_seed = rng() >> 12;
        s.flow.optimizer_seed = rng() >> 12;
        cat.hot_flows.push_back(make_item(svc::workload::flow, s, tr, 0));
    }
    return cat;
}

/// The request stream: kinds stratified per block of 20, fresh specs
/// drawn uniformly over the design box. A pure function of its seed.
class stream {
public:
    stream(const catalogue& cat, std::uint64_t seed) : cat_(cat), rng_(seed) {}

    item next(tracer& tr, std::uint64_t request) {
        if (pos_ == block_.size()) refill();
        switch (block_[pos_++]) {
            case kind::hot_sim:
                return cat_.hot_sims[rng_.index(cat_.hot_sims.size())];
            case kind::hot_flow:
                return cat_.hot_flows[rng_.index(cat_.hot_flows.size())];
            case kind::fresh_em:
                return fresh("electromagnetic", tr, request);
            case kind::fresh_es:
                return fresh("electrostatic", tr, request);
        }
        return {};
    }

    double exponential(double rate) { return -std::log(1.0 - rng_.uniform()) / rate; }

private:
    void refill() {
        block_.assign(5, kind::hot_sim);
        block_.insert(block_.end(), 1, kind::hot_flow);
        block_.insert(block_.end(), 12, kind::fresh_em);
        block_.insert(block_.end(), 2, kind::fresh_es);
        for (std::size_t i = block_.size(); i > 1; --i)
            std::swap(block_[i - 1], block_[rng_.index(i)]);
        pos_ = 0;
        // Fresh design points are stratified within the block, so every
        // block costs about the same to simulate.
        fresh_configs_[0] = stratified_configs(12, rng_);
        fresh_configs_[1] = stratified_configs(2, rng_);
    }

    item fresh(const char* backend, tracer& tr, std::uint64_t request) {
        const int b = std::string(backend) == "electromagnetic" ? 0 : 1;
        spec::experiment_spec s;
        s.scn = cat_.scenarios[rng_.index(cat_.scenarios.size())];
        s.harv.model = backend;
        s.config = fresh_configs_[b].back();
        fresh_configs_[b].pop_back();
        s.eval.controller_seed = rng_() >> 12;
        return make_item(svc::workload::simulate, s, tr, request);
    }

    const catalogue& cat_;
    testkit::prng rng_;
    std::vector<kind> block_;
    std::vector<spec::system_config> fresh_configs_[2];
    std::size_t pos_ = 0;
};

// -- the daemon -----------------------------------------------------------

/// One ehdsed child process. stop() drains it (SIGTERM) and returns the
/// metrics snapshot it writes on exit.
class daemon {
public:
    daemon(const run_options& opts, const std::string& tag)
        : sock_(opts.out_dir + "/" + tag + ".sock"),
          metrics_(opts.out_dir + "/" + tag + ".metrics.json") {
        int out[2];
        if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
        ::unlink(sock_.c_str());
        pid_ = ::fork();
        if (pid_ < 0) throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            ::dup2(out[1], STDOUT_FILENO);
            ::close(out[0]);
            ::close(out[1]);
            const std::string jobs = std::to_string(pool_workers());
            const char* argv[] = {opts.ehdsed.c_str(), "--unix", sock_.c_str(),
                                  "--jobs", jobs.c_str(), "--metrics-out",
                                  metrics_.c_str(), nullptr};
            ::execv(argv[0], const_cast<char* const*>(argv));
            ::_exit(127);
        }
        ::close(out[1]);
        out_fd_ = out[0];
        // Wait for the "ready" line.
        std::string seen;
        const auto t0 = clock::now();
        while (seen.find("ready\n") == std::string::npos) {
            pollfd p{out_fd_, POLLIN, 0};
            if (seconds_since(t0) > 60.0 || ::poll(&p, 1, 1000) < 0)
                throw std::runtime_error("ehdsed did not become ready");
            char buf[256];
            const ssize_t n = ::read(out_fd_, buf, sizeof buf);
            if (n <= 0) throw std::runtime_error("ehdsed exited before ready");
            seen.append(buf, static_cast<std::size_t>(n));
        }
    }
    ~daemon() {
        try {
            stop();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "ehdse_perf: %s\n", e.what());
        }
    }
    daemon(const daemon&) = delete;
    daemon& operator=(const daemon&) = delete;

    const std::string& socket_path() const { return sock_; }
    int pid() const { return pid_; }

    obs::json_value stop() {
        if (pid_ <= 0) return obs::json_value(nullptr);
        ::kill(pid_, SIGTERM);
        // The drain finishes accepted work; read stdout to EOF, and kill
        // the daemon if it has not exited within a minute.
        const auto t0 = clock::now();
        char buf[4096];
        for (;;) {
            pollfd p{out_fd_, POLLIN, 0};
            const bool late = seconds_since(t0) > 60.0;
            if (late || ::poll(&p, 1, 1000) < 0) {
                ::kill(pid_, SIGKILL);
                break;
            }
            if (p.revents == 0) continue;
            if (::read(out_fd_, buf, sizeof buf) <= 0) break;
        }
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        ::close(out_fd_);
        ::unlink(sock_.c_str());
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("ehdsed did not exit cleanly");
        std::ifstream in(metrics_);
        std::stringstream text;
        text << in.rdbuf();
        return obs::json_value::parse(text.str());
    }

private:
    std::string sock_;
    std::string metrics_;
    int pid_ = -1;
    int out_fd_ = -1;
};

// -- the load generator ---------------------------------------------------

struct request {
    std::uint64_t index = 0;  ///< 1-based, the request id on the wire
    svc::workload work = svc::workload::simulate;
    std::uint64_t hash = 0;
    const spec::experiment_spec* spec = nullptr;  ///< owned by the session
    std::size_t conn = 0;
    clock::time_point due, sent, accepted, started, done;
    bool finished = false;
    bool ok = false;
    bool warm = false;
    std::string error;
    std::string response;  ///< result.response, compact JSON
    obs::json_value manifest;
    std::size_t result_bytes = 0;
    double latency() const {
        return ok ? seconds_between(due, done) : 1.0e6;  // failed = misses any limit
    }
};

struct connection {
    svc::socket_fd fd;
    svc::frame_splitter splitter;
    std::deque<clock::time_point> pings;
};

class session {
public:
    session(const run_options& opts, const std::string& tag, tracer& tr)
        : tr_(tr) {
        const auto t0 = clock::now();
        daemon_ = std::make_unique<daemon>(opts, tag);
        for (std::size_t c = 0; c < k_connections; ++c) {
            auto conn = std::make_unique<connection>();
            conn->fd = svc::connect_unix(daemon_->socket_path());
            conns_.push_back(std::move(conn));
        }
        setup_s_ = seconds_since(t0);
    }

    double setup_s() const { return setup_s_; }
    int daemon_pid() const { return daemon_->pid(); }

    /// Send one submit now; `due` is when it was scheduled.
    request& submit(const item& it, clock::time_point due) {
        items_.push_back(std::make_unique<item>(it));
        auto req = std::make_unique<request>();
        req->index = requests_.size() + 1;
        req->work = it.work;
        req->hash = it.hash;
        req->spec = &items_.back()->spec;
        req->conn = requests_.size() % conns_.size();
        req->due = due;
        const auto answered = answered_.find(key(it.work, it.hash));
        req->warm = answered != answered_.end() && answered->second <= due;
        std::string frame = "{\"type\":\"submit\",\"id\":\"r" + std::to_string(req->index) +
                            "\",\"kind\":\"" + svc::to_string(it.work) + "\",\"spec\":" +
                            it.frame_body + "}\n";
        req->sent = clock::now();
        if (!svc::send_all(conns_[req->conn]->fd.get(), frame.data(), frame.size()))
            throw std::runtime_error("send to ehdsed failed");
        ++outstanding_;
        requests_.push_back(std::move(req));
        return *requests_.back();
    }

    void ping(std::size_t c) {
        connection& conn = *conns_[c];
        if (!conn.pings.empty()) return;
        static const std::string frame = "{\"type\":\"ping\"}\n";
        conn.pings.push_back(clock::now());
        svc::send_all(conn.fd.get(), frame.data(), frame.size());
    }

    obs::json_value stats() {
        static const std::string frame = "{\"type\":\"stats\"}\n";
        stats_ = obs::json_value(nullptr);
        svc::send_all(conns_[0]->fd.get(), frame.data(), frame.size());
        const auto t0 = clock::now();
        while (stats_.is_null()) {
            if (seconds_since(t0) > 30.0) throw std::runtime_error("no stats reply");
            pump(50);
        }
        return stats_;
    }

    /// Read and dispatch whatever frames arrive within `timeout_ms`.
    void pump(int timeout_ms) {
        std::vector<pollfd> fds;
        for (const auto& c : conns_) fds.push_back({c->fd.get(), POLLIN, 0});
        if (::poll(fds.data(), fds.size(), std::max(timeout_ms, 0)) <= 0) return;
        char buf[65536];
        for (std::size_t c = 0; c < fds.size(); ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
            const long n = svc::recv_some(fds[c].fd, buf, sizeof buf);
            if (n <= 0) throw std::runtime_error("ehdsed closed a connection");
            const auto now = clock::now();
            connection& conn = *conns_[c];
            conn.splitter.feed(buf, static_cast<std::size_t>(n));
            std::string frame;
            for (;;) {
                const auto st = conn.splitter.next(frame);
                if (st == svc::frame_splitter::status::need_more) break;
                if (st == svc::frame_splitter::status::overflow)
                    throw std::runtime_error("oversized frame from ehdsed");
                dispatch(conn, frame, now);
            }
        }
    }

    /// Pump until every submitted request has its terminal frame.
    void drain(double timeout_s) {
        const auto t0 = clock::now();
        while (outstanding_ > 0) {
            if (seconds_since(t0) > timeout_s)
                throw std::runtime_error("requests still outstanding after drain timeout");
            pump(50);
        }
    }

    std::size_t outstanding() const { return outstanding_; }
    const std::vector<std::unique_ptr<request>>& requests() const { return requests_; }
    const std::vector<double>& ping_rtts() const { return ping_rtts_; }

    /// Close the connections and drain the daemon; returns its metrics.
    obs::json_value stop() {
        conns_.clear();
        return daemon_->stop();
    }

private:
    static std::string key(svc::workload w, std::uint64_t hash) {
        return svc::to_string(w) + ":" + std::to_string(hash);
    }

    request* find(const obs::json_value& doc) {
        const obs::json_value* id = doc.find("id");
        if (!id || !id->is_string() || id->as_string().size() < 2) return nullptr;
        const std::uint64_t index = std::stoull(id->as_string().substr(1));
        return index >= 1 && index <= requests_.size() ? requests_[index - 1].get()
                                                       : nullptr;
    }

    void finish(request& r, clock::time_point now, bool ok, std::string error) {
        if (r.finished) return;
        r.finished = true;
        r.done = now;
        r.ok = ok;
        r.error = std::move(error);
        --outstanding_;
        if (ok) answered_.emplace(key(r.work, r.hash), now);
    }

    void dispatch(connection& conn, const std::string& frame, clock::time_point now) {
        const obs::json_value doc = obs::json_value::parse(frame);
        const std::string& type = doc.at("type").as_string();
        if (type == "pong") {
            if (!conn.pings.empty()) {
                ping_rtts_.push_back(seconds_between(conn.pings.front(), now));
                conn.pings.pop_front();
            }
            return;
        }
        if (type == "stats") {
            stats_ = doc;
            return;
        }
        request* r = find(doc);
        if (type == "accepted" && r) {
            r->accepted = now;
        } else if (type == "event" && r) {
            if (doc.at("event").as_string() == "started") r->started = now;
        } else if (type == "result" && r) {
            r->result_bytes = frame.size() + 1;
            r->response = doc.at("response").dump();
            if (tr_.enabled())
                r->manifest = doc.at("manifest");
            finish(*r, now, doc.at("status").as_string() == "ok",
                   doc.at("status").as_string() == "ok" ? "" : r->response);
        } else if ((type == "rejected" || type == "error" || type == "cancelled") && r) {
            finish(*r, now, false, type + ": " + frame);
        } else if (type == "error") {
            throw std::runtime_error("connection error from ehdsed: " + frame);
        }
    }

    tracer& tr_;
    std::unique_ptr<daemon> daemon_;
    std::vector<std::unique_ptr<connection>> conns_;
    std::vector<std::unique_ptr<item>> items_;
    std::vector<std::unique_ptr<request>> requests_;
    std::map<std::string, clock::time_point> answered_;
    std::vector<double> ping_rtts_;
    obs::json_value stats_;
    std::size_t outstanding_ = 0;
    double setup_s_ = 0.0;
};

/// Answer every hot spec once, so the window opens with a warm cache.
void prefill(session& s, const catalogue& cat) {
    const auto now = clock::now();
    for (const item& it : cat.hot_sims) s.submit(it, now);
    for (const item& it : cat.hot_flows) s.submit(it, now);
    s.drain(300.0);
}

struct scheduled {
    double offset_s = 0.0;
    item it;
};

/// The window's schedule: Poisson arrivals at `rate` for `seconds`.
std::vector<scheduled> make_schedule(const catalogue& cat, std::uint64_t seed,
                                     double rate, double seconds, tracer& tr,
                                     std::uint64_t first_request) {
    stream gen(cat, seed);
    std::vector<scheduled> out;
    for (double t = gen.exponential(rate); t < seconds; t += gen.exponential(rate)) {
        scheduled s;
        s.offset_s = t;
        s.it = gen.next(tr, first_request + out.size());
        out.push_back(std::move(s));
    }
    return out;
}

/// The requests one open-loop window sent: indices [first, last) into
/// session.requests(), and the window's start and planned length.
struct window {
    std::size_t first = 0;
    std::size_t last = 0;
    clock::time_point t0;
    double seconds = 0.0;
};

/// Open loop: send each request when due, whatever is outstanding, then
/// wait for every answer.
window run_open_loop(session& s, const std::vector<scheduled>& plan, double seconds) {
    const std::size_t first = s.requests().size();
    const auto t0 = clock::now();
    std::size_t next = 0;
    double next_ping = 0.0;
    std::size_t ping_conn = 0;
    while (next < plan.size()) {
        const double now = seconds_since(t0);
        while (next < plan.size() && plan[next].offset_s <= now) {
            s.submit(plan[next].it,
                     t0 + std::chrono::duration_cast<clock::duration>(
                              std::chrono::duration<double>(plan[next].offset_s)));
            ++next;
        }
        if (now >= next_ping) {
            s.ping(ping_conn++ % k_connections);
            next_ping += k_ping_period_s;
        }
        const double wait = next < plan.size() ? plan[next].offset_s - seconds_since(t0) : 0.0;
        s.pump(static_cast<int>(std::clamp(wait * 1000.0, 0.0, 5.0)));
    }
    s.drain(120.0);
    return {first, s.requests().size(), t0, seconds};
}

/// Closed loop at 8 outstanding per connection for `seconds`; returns
/// the completions per second of the busiest of its blocks.
double saturation_rate(session& s, const catalogue& cat, std::uint64_t seed,
                       double seconds, tracer& tr) {
    stream gen(cat, seed);
    const std::size_t depth = 8 * k_connections;
    const std::size_t first = s.requests().size();
    const auto t0 = clock::now();
    while (seconds_since(t0) < seconds) {
        while (s.outstanding() < depth) s.submit(gen.next(tr, 0), clock::now());
        s.pump(5);
    }
    const double elapsed = seconds_since(t0);
    std::vector<double> per_block(blocked_samples::k_blocks, 0.0);
    for (std::size_t i = first; i < s.requests().size(); ++i) {
        const request& r = *s.requests()[i];
        const double at = seconds_between(t0, r.done) / elapsed;
        if (r.finished && at < 1.0)
            per_block[static_cast<std::size_t>(at * blocked_samples::k_blocks)] += 1.0;
    }
    s.drain(120.0);
    return *std::max_element(per_block.begin(), per_block.end()) /
           (elapsed / blocked_samples::k_blocks);
}

/// Latency of every request of `w` (optionally warm ones only), in
/// blocks by due time.
blocked_samples latencies(const session& s, const window& w, bool warm_only = false) {
    blocked_samples out;
    for (std::size_t i = w.first; i < w.last; ++i) {
        const request& r = *s.requests()[i];
        if (!warm_only || r.warm)
            out.add(seconds_between(w.t0, r.due) / w.seconds, r.latency());
    }
    return out;
}

// -- checks ---------------------------------------------------------------

double number(const obs::json_value& doc, const char* key) {
    const obs::json_value* v = doc.find(key);
    return v && v->is_number() ? v->as_number() : std::nan("");
}

bool config_in_box(const obs::json_value& c) {
    spec::system_config cfg;
    cfg.mcu_clock_hz = number(c, "mcu_clock_hz");
    cfg.watchdog_period_s = number(c, "watchdog_period_s");
    cfg.tx_interval_s = number(c, "tx_interval_s");
    const auto space = dse::paper_design_space();
    return space.contains(dse::config_to_coded(space, cfg));
}

/// Check every answered request of `range`; feed the digest; keep the
/// first answer per spec and require every later one to equal it.
void check_requests(report& rep, const session& s, std::size_t first, std::size_t last,
                    std::map<std::string, std::string>& first_answer, digest& d) {
    for (std::size_t i = first; i < last; ++i) {
        const request& r = *s.requests()[i];
        rep.attempted();
        const std::string what = "request r" + std::to_string(r.index);
        if (!rep.check(r.ok, what + " failed: " + r.error.substr(0, 200))) continue;
        const obs::json_value resp = obs::json_value::parse(r.response);
        if (r.work == svc::workload::simulate) {
            const double tx = number(resp, "transmissions");
            const double low = number(resp, "low_band_transmissions");
            const double events = number(resp, "events");
            const double v = number(resp, "final_voltage_v");
            rep.check(resp.at("sim_ok").as_bool(), what + ": sim_ok is false");
            rep.check(v >= 0.0 && v <= 5.0, what + ": final voltage outside [0, rating]");
            rep.check(low <= tx && tx <= events &&
                          tx <= r.spec->scn.duration_s / 4.5e-3 + 1.0,
                      what + ": transmission count not physically bounded");
            d.add(static_cast<std::uint64_t>(tx));
            d.add(static_cast<std::uint64_t>(low));
            d.add(static_cast<std::uint64_t>(number(resp, "suppressed_wakeups")));
        } else {
            d.add(static_cast<std::uint64_t>(number(resp, "baseline_transmissions")));
            for (const obs::json_value& o : resp.at("outcomes").as_array()) {
                rep.check(config_in_box(o.at("config")),
                          what + ": validated flow config outside the design box");
                d.add(static_cast<std::uint64_t>(number(o, "validated")));
            }
        }
        const std::string k = svc::to_string(r.work) + ":" + std::to_string(r.hash);
        const auto it = first_answer.emplace(k, r.response).first;
        rep.check(it->second == r.response,
                  what + ": warm answer differs from the first answer for spec " +
                      spec::spec_hash_hex(r.hash));
    }
}

/// Re-run a seed-chosen sample of answered simulate requests in process.
double cross_check(report& rep, const session& s, const window& w, std::uint64_t seed) {
    std::vector<const request*> sims[2];
    for (std::size_t i = w.first; i < w.last; ++i) {
        const request& r = *s.requests()[i];
        if (r.ok && r.work == svc::workload::simulate)
            sims[r.spec->harv.model == "electromagnetic" ? 0 : 1].push_back(&r);
    }
    testkit::prng rng(testkit::mix(seed, 0xc4ec));
    double worst = 0.0;
    for (auto& pool : sims) {
        for (int n = 0; n < 3 && !pool.empty(); ++n) {
            const request& r = *pool[rng.index(pool.size())];
            const dse::system_evaluator eval(r.spec->scn, r.spec->harv);
            const dse::evaluation_result local = eval.evaluate(r.spec->config, r.spec->eval);
            const obs::json_value resp = obs::json_value::parse(r.response);
            rep.attempted();
            rep.check(static_cast<double>(local.transmissions) == number(resp, "transmissions"),
                      "ehdsed and in-process transmissions differ for spec " +
                          spec::spec_hash_hex(r.hash));
            worst = std::max(worst, std::abs(local.final_voltage_v -
                                             number(resp, "final_voltage_v")));
        }
    }
    std::cout << "svc_vs_in_process_max_final_voltage_diff_v = " << worst << '\n';
    rep.note("svc_vs_in_process_max_final_voltage_diff_v", obs::json_value(worst));
    return worst;
}

void write_inputs(const run_options& opts, const catalogue& cat,
                  const std::vector<scheduled>& plan, report& rep) {
    std::string jsonl;
    digest d;
    std::size_t index = 0;
    for (const item& it : cat.hot_sims) d.add(write_input(jsonl, index++, "simulate", it.spec));
    for (const item& it : cat.hot_flows) d.add(write_input(jsonl, index++, "flow", it.spec));
    for (const scheduled& s : plan) {
        d.add(write_input(jsonl, index++, svc::to_string(s.it.work), s.it.spec));
        d.add(static_cast<std::uint64_t>(std::llround(s.offset_s * 1e9)));
    }
    write_text(opts.out_dir + "/inputs.jsonl", jsonl);
    rep.note("stream_digest", obs::json_value(d.hex()));
}

double nominal_rate(const run_options& opts) { return opts.tiny ? 10.0 : 30.0; }

}  // namespace

void run_svc_mixed(const run_options& opts, report& rep, tracer& tr) {
    if (opts.ehdsed.empty()) throw std::runtime_error("svc_mixed needs --ehdsed");
    tracer quiet(false);
    const catalogue cat = make_catalogue(opts, quiet);
    const std::uint64_t stream_seed = testkit::mix(opts.seed, 0x5747);
    const std::vector<scheduled> plan =
        make_schedule(cat, stream_seed, nominal_rate(opts), window_s(opts), quiet, 0);
    write_inputs(opts, cat, plan, rep);

    // Set-up: cold starts of the daemon; the last one serves.
    std::vector<double> setups;
    std::unique_ptr<session> s;
    for (int i = 0; i < k_setup_repeats; ++i) {
        if (s) s->stop();
        s = std::make_unique<session>(opts, "ehdsed" + std::to_string(i), quiet);
        setups.push_back(s->setup_s());
    }

    prefill(*s, cat);
    const std::size_t prefilled = s->requests().size();
    // Untraced runs measure the saturation throughput in two bursts, one
    // on each side of the window, and keep the busiest block of either.
    const double burst_s = opts.tiny ? 0.6 : 6.0;
    double sat = tr.enabled() ? 0.0
                              : saturation_rate(*s, cat, testkit::mix(stream_seed, 1),
                                                burst_s, quiet);
    const window win = run_open_loop(*s, plan, window_s(opts));

    // The digest covers the prefill and the window, whose requests are a
    // pure function of the seed; burst requests are checked too.
    std::map<std::string, std::string> first_answer;
    digest results, bursts;
    check_requests(rep, *s, 0, prefilled, first_answer, results);
    check_requests(rep, *s, prefilled, win.first, first_answer, bursts);
    check_requests(rep, *s, win.first, win.last, first_answer, results);
    rep.note("results_digest", obs::json_value(results.hex()));

    const blocked_samples lat = latencies(*s, win);
    const std::vector<double> all = lat.all();
    const std::vector<double> warm = latencies(*s, win, true).all();
    const double p50 = lat.best_quantile(0.5), p90 = lat.best_quantile(0.9);
    const std::string n = "fastest block; n=" + std::to_string(all.size()) + " requests at " +
                          std::to_string(nominal_rate(opts)) + "/s, whole window ";
    rep.shown("svc_latency_s_p50", p50, "s", n + std::to_string(quantile(all, 0.5)));
    rep.shown("svc_latency_s_p90", p90, "s", n + std::to_string(quantile(all, 0.9)));
    rep.shown("svc_latency_s_p99", quantile(all, 0.99), "s",
              "whole window, n=" + std::to_string(all.size()));
    rep.shown("svc_warm_latency_s_p50", quantile(warm, 0.5), "s",
              "whole window, n=" + std::to_string(warm.size()) + " warm requests");

    if (!tr.enabled()) {
        const std::size_t second_burst = s->requests().size();
        sat = std::max(sat, saturation_rate(*s, cat, testkit::mix(stream_seed, 3), burst_s,
                                            quiet));
        check_requests(rep, *s, second_burst, s->requests().size(), first_answer, bursts);
        double max_rate = 0.0;
        std::string ladder;
        for (const double share : {0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2}) {
            const double step_s = opts.tiny ? 0.5 : 2.0;
            const std::vector<scheduled> step = make_schedule(
                cat, testkit::mix(stream_seed, 2), sat * share, step_s, quiet, 0);
            const double step_p99 =
                quantile(latencies(*s, run_open_loop(*s, step, step_s)).all(), 0.99);
            ladder += std::to_string(sat * share) + "/s p99 " + std::to_string(step_p99) + " s; ";
            if (step_p99 <= k_latency_limit_s) {
                max_rate = sat * share;
                break;
            }
        }
        rep.shown("svc_max_rate_rps", max_rate, "req/s",
                  "p99 limit " + std::to_string(k_latency_limit_s) + " s; ladder " + ladder);
        rep.shown("svc_saturation_rps", sat, "req/s",
                  "closed loop, 8 outstanding per connection, busiest block");
        const double rss = process_peak_rss_mb(s->daemon_pid());
        cross_check(rep, *s, win, opts.seed);
        s->stop();
        rep.end_to_end("setup_s", quantile(setups, 0.5), "s", "median of daemon starts");
        rep.end_to_end("latency_s_p50", p50, "s", "svc_latency_s_p50");
        rep.end_to_end("latency_s_p90", p90, "s", "svc_latency_s_p90");
        rep.end_to_end("throughput_per_s", sat, "1/s", "svc_saturation_rps");
        rep.end_to_end("peak_rss_mb", rss, "MiB", "ehdsed VmHWM");
        return;
    }

    // Traced run: the untraced window above gives the overhead base; a
    // fresh daemon serves the same stream with client-side spans on.
    const double untraced_mean = mean(all);
    cross_check(rep, *s, win, opts.seed);
    s->stop();
    s.reset();

    const catalogue tcat = make_catalogue(opts, tr);
    const std::vector<scheduled> tplan =
        make_schedule(tcat, stream_seed, nominal_rate(opts), window_s(opts), tr,
                      tcat.hot_sims.size() + tcat.hot_flows.size() + 1);
    session ts(opts, "ehdsed-traced", tr);
    const auto t_ready = clock::now();
    prefill(ts, tcat);
    const obs::json_value tbefore = ts.stats();
    const window twin = run_open_loop(ts, tplan, window_s(opts));
    const obs::json_value tafter = ts.stats();
    std::map<std::string, std::string> tfirst;
    digest tdigest;
    check_requests(rep, ts, 0, twin.last, tfirst, tdigest);
    rep.attempted();
    rep.check(tdigest.value() == results.value(),
              "traced run answered the stream differently");

    std::vector<double> admit, queue, run, bytes, evaluate_s, lag;
    double steps = 0, rejected_steps = 0, events = 0, sims = 0, sim_wall = 0, surface = 0;
    double flows = 0, rejected = 0;
    std::map<std::string, std::vector<double>> phases;
    for (std::size_t i = twin.first; i < twin.last; ++i) {
        const request& r = *ts.requests()[i];
        const std::uint64_t root = tr.record("svc.request", r.due, r.done, 0, r.index);
        tr.record("loadgen.send_lag", r.due, r.sent, root, r.index);
        lag.push_back(seconds_between(r.due, r.sent));
        if (!r.ok) {
            ++rejected;
            continue;
        }
        tr.record("svc.admit", r.sent, r.accepted, root, r.index);
        tr.record("svc.queue_wait", r.accepted, r.started, root, r.index);
        tr.record("svc.run", r.started, r.done, root, r.index);
        admit.push_back(seconds_between(r.sent, r.accepted));
        queue.push_back(seconds_between(r.accepted, r.started));
        run.push_back(seconds_between(r.started, r.done));
        bytes.push_back(static_cast<double>(r.result_bytes));
        if (r.manifest.is_null()) continue;
        for (const obs::json_value& p : r.manifest.at("phases").as_array())
            phases[p.at("name").as_string()].push_back(number(p, "wall_s"));
        for (const obs::json_value& o : r.manifest.at("optimizers").as_array())
            surface += number(o, "evaluations");
        if (r.work == svc::workload::flow) {
            ++flows;
            continue;
        }
        if (r.warm) continue;
        for (const obs::json_value& run_rec : r.manifest.at("runs").as_array()) {
            steps += number(run_rec, "ode_steps");
            rejected_steps += number(run_rec, "ode_steps_rejected");
            events += number(run_rec, "events");
            sim_wall += number(run_rec, "wall_s");
            evaluate_s.push_back(number(run_rec, "wall_s"));
            ++sims;
        }
    }
    const double total = static_cast<double>(twin.last - twin.first);
    rep.layer("spec.encode_s", quantile(tr.durations("spec.encode"), 0.5), "s",
              "client-side encode of each submitted spec");
    rep.layer("spec.hash_s", quantile(tr.durations("spec.hash"), 0.5), "s");
    {
        std::vector<double> parse_s;
        for (const scheduled& sch : tplan) {
            span sp(tr, "spec.parse", 0);
            const auto t0 = clock::now();
            const spec::experiment_spec back = spec::parse_spec(sch.it.frame_body);
            parse_s.push_back(seconds_since(t0));
            rep.check(back.canonicalized() == sch.it.spec, "spec did not round-trip");
        }
        rep.layer("spec.parse_s", quantile(parse_s, 0.5), "s",
                  "parse_spec of each submitted spec text, timed client-side");
    }
    rep.layer("svc.admit_s", quantile(admit, 0.5), "s", "send -> accepted");
    rep.layer("svc.queue_wait_s", quantile(queue, 0.5), "s", "accepted -> started");
    rep.layer("svc.run_s", quantile(run, 0.5), "s", "started -> result");
    rep.layer("svc.ping_rtt_s", quantile(ts.ping_rtts(), 0.5), "s");
    rep.layer("svc.result_bytes", mean(bytes), "bytes", "mean result frame");
    rep.layer("svc.rejected_ratio", rejected / std::max(total, 1.0), "ratio");
    const auto cache_delta = [&](const char* field) {
        return number(tafter.at("cache"), field) - number(tbefore.at("cache"), field);
    };
    const double hits = cache_delta("hits"), misses = cache_delta("misses");
    rep.layer("cache.hit_ratio", hits / std::max(hits + misses, 1.0), "ratio",
              "stats frame, window delta");
    rep.layer("cache.evictions", cache_delta("evictions"), "count", "stats frame, window delta");
    rep.absent("cache.flow_hit_ratio", "ratio",
               "ehdsed runs flows with the flow cache off; their evaluations count in "
               "cache.hit_ratio");
    for (const char* phase : {"d_optimal", "simulate", "fit", "baseline", "optimise",
                              "validate"})
        rep.layer(std::string("dse.flow.") + phase + "_s", quantile(phases[phase], 0.5), "s",
                  "median over warm flow results' manifests");
    rep.layer("opt.surface_evals", surface / std::max(flows, 1.0), "count", "per flow");
    rep.layer("dse.evaluate_s", quantile(evaluate_s, 0.5), "s",
              "median manifest wall_s of cold simulate requests");
    sims = std::max(sims, 1.0);
    rep.layer("sim.ode_steps_per_eval", steps / sims, "count", "cold simulate requests");
    rep.layer("sim.ode_reject_ratio", rejected_steps / std::max(steps + rejected_steps, 1.0),
              "ratio");
    rep.layer("sim.events_per_eval", events / sims, "count");
    rep.layer("sim.host_s_per_step", sim_wall / std::max(steps, 1.0), "s");
    rep.layer("loadgen.lag_s_p99", quantile(lag, 0.99), "s", "send time - due time");
    rep.layer("obs.trace_overhead_ratio", mean(latencies(ts, twin).all()) / untraced_mean,
              "ratio",
              "mean traced latency / mean untraced latency");

    const double served_s = seconds_since(t_ready);
    const obs::json_value snap = ts.stop();
    registry_layers(rep, snap, served_s, true);

    testkit::prng rng(testkit::mix(opts.seed, 0x4a7));
    harvester_probe(rep, tcat.scenarios, rng);
    std::vector<spec::system_config> configs;
    for (const item& it : tcat.hot_sims) {
        if (configs.size() == 16) break;
        configs.push_back(it.spec.config);
    }
    batch_lane_probe(rep, tcat.scenarios[0], configs);
}

}  // namespace perfbench
