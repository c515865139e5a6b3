// ehdse_perf — the benchmark program (README.md). One process runs one
// workload for a fixed window, checks every output, and prints one JSON
// result line last on stdout:
//
//   ehdse_perf --workload paper_flow|svc_mixed|transient_sweep
//              --seed N --seconds S --trace 0|1 --out-dir DIR
//              [--ehdsed PATH] [--git-commit ID] [--source-digest HEX]
//              [--tiny] [--fault-rate P]
//
// Exit status 0 means a result line was printed; its `correct` field
// says whether every check passed. Any other status means no result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "error: %s\nusage: ehdse_perf --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR [--ehdsed PATH] [--git-commit ID] "
                 "[--source-digest HEX] [--tiny] [--fault-rate P]\n",
                 why.c_str());
    std::exit(2);
}

run_options parse(int argc, char** argv) {
    std::map<std::string, std::string> kv;
    run_options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (key == "--setup-probe") {
            o.setup_probe = true;
            continue;
        }
        if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
        kv[key.substr(2)] = argv[++i];
    }
    const auto take = [&kv](const char* key) {
        const auto it = kv.find(key);
        std::string v = it == kv.end() ? "" : it->second;
        if (it != kv.end()) kv.erase(it);
        return v;
    };
    o.workload = take("workload");
    const std::string seed = take("seed");
    const std::string seconds = take("seconds");
    const std::string trace = take("trace");
    o.out_dir = take("out-dir");
    o.ehdsed = take("ehdsed");
    o.git_commit = take("git-commit");
    o.source_digest = take("source-digest");
    const std::string fault = take("fault-rate");
    if (!kv.empty()) usage("unknown flag --" + kv.begin()->first);
    if (o.workload.empty() || seed.empty() || seconds.empty() || o.out_dir.empty())
        usage("--workload, --seed, --seconds and --out-dir are required");
    try {
        o.seed = std::stoull(seed);
        o.seconds = std::stod(seconds);
        o.fault_rate = fault.empty() ? 0.0 : std::stod(fault);
    } catch (const std::exception&) {
        usage("--seed, --seconds and --fault-rate take numbers");
    }
    if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    if (trace != "" && trace != "0" && trace != "1") usage("--trace takes 0 or 1");
    o.trace = trace == "1";
    if (o.git_commit.empty()) o.git_commit = "none";
    if (o.source_digest.empty()) o.source_digest = "none";
    return o;
}

}  // namespace

int main(int argc, char** argv) {
    const run_options opts = parse(argc, argv);
    const std::map<std::string, void (*)(const run_options&, report&, tracer&)> workloads = {
        {"paper_flow", run_paper_flow},
        {"svc_mixed", run_svc_mixed},
        {"transient_sweep", run_transient_sweep},
    };
    const auto it = workloads.find(opts.workload);
    if (it == workloads.end()) usage("unknown workload " + opts.workload);
    if (opts.setup_probe) {
        const std::shared_ptr<void> ready = opts.workload == "paper_flow"
                                                ? setup_paper_flow(opts)
                                                : setup_transient_sweep(opts);
        std::fputs("ready\n", stdout);
        std::fflush(stdout);
        std::_Exit(0);  // the parent timed up to "ready"; skip teardown
    }
    try {
        make_dirs(opts.out_dir);
        const obs::json_value fingerprint = host_fingerprint(opts);
        write_text(opts.out_dir + "/fingerprint.json", fingerprint.dump(2) + "\n");
        report rep;
        tracer tr(opts.trace);
        it->second(opts, rep, tr);
        if (opts.trace) {
            tr.write_chrome_trace(opts.out_dir + "/trace.json", fingerprint);
            obs::json_object self;
            for (const auto& [name, split] : tr.self_times()) {
                obs::json_object row;
                row.emplace_back("count", obs::json_value(split.count));
                row.emplace_back("total_s", obs::json_value(split.total_s));
                row.emplace_back("self_s", obs::json_value(split.self_s));
                self.emplace_back(name, obs::json_value(std::move(row)));
                std::cout << "self_time " << name << " self_s=" << split.self_s
                          << " total_s=" << split.total_s << " n=" << split.count << '\n';
            }
            write_text(opts.out_dir + "/self_time.json",
                       obs::json_value(std::move(self)).dump(2) + "\n");
        }
        rep.finish(opts, fingerprint);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ehdse_perf: %s\n", e.what());
        return 1;
    }
    return 0;
}
