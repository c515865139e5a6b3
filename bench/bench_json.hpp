// Machine-readable benchmark output: each harness records named metrics
// and writes BENCH_<name>.json next to the working directory (or into
// $EHDSE_BENCH_OUT when set). The format is deliberately flat — one
// metric object per line — so scripts/check_perf.sh can diff a fresh run
// against the committed baselines with awk, no JSON library required:
//
//   {
//     "bench": "batch_kernel",
//     "build": {"build_type": "Release", "native_arch": false, "sanitize": "off", "compiler": "GNU 12.2.0"},
//     "metrics": [
//       {"metric": "scalar_evals_per_s", "value": 77.31, "unit": "evals/s", "config": "..."},
//       ...
//     ]
//   }
//
// The "build" line records the configuration the numbers came from
// (bench/CMakeLists.txt defines the EHDSE_BENCH_* macros): check_perf.sh
// refuses to compare files whose build type, native-arch or sanitizer
// setting differ; the compiler is information only.
//
// Committed BENCH_*.json files at the repo root pin the perf trajectory;
// EXPERIMENTS.md points at them and the perf-labelled ctest compares.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#ifndef EHDSE_BENCH_BUILD_TYPE
#define EHDSE_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef EHDSE_BENCH_NATIVE_ARCH
#define EHDSE_BENCH_NATIVE_ARCH 0
#endif
#ifndef EHDSE_BENCH_SANITIZE
#define EHDSE_BENCH_SANITIZE ""
#endif
#ifndef EHDSE_BENCH_COMPILER
#define EHDSE_BENCH_COMPILER "unknown"
#endif

namespace ehdse::bench {

class json_emitter {
public:
    explicit json_emitter(std::string name) : name_(std::move(name)) {}

    /// Record one metric. `config` describes the workload (free text).
    void record(const std::string& metric, double value,
                const std::string& unit, const std::string& config) {
        rows_.push_back({metric, value, unit, config});
    }

    /// Write BENCH_<name>.json; throws std::runtime_error on I/O failure.
    /// Call explicitly at the end of main so a crashed bench leaves no
    /// half-written baseline behind.
    void write() const {
        const char* dir = std::getenv("EHDSE_BENCH_OUT");
        const std::string path =
            (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : "") +
            "BENCH_" + name_ + ".json";
        std::FILE* out = std::fopen(path.c_str(), "w");
        if (out == nullptr)
            throw std::runtime_error("bench_json: cannot write " + path);
        const char* sanitize = EHDSE_BENCH_SANITIZE;
        std::fprintf(out,
                     "{\n  \"bench\": \"%s\",\n"
                     "  \"build\": {\"build_type\": \"%s\", "
                     "\"native_arch\": %s, \"sanitize\": \"%s\", "
                     "\"compiler\": \"%s\"},\n"
                     "  \"metrics\": [\n",
                     name_.c_str(), EHDSE_BENCH_BUILD_TYPE,
                     EHDSE_BENCH_NATIVE_ARCH ? "true" : "false",
                     *sanitize != '\0' ? sanitize : "off",
                     EHDSE_BENCH_COMPILER);
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const row& r = rows_[i];
            std::fprintf(out,
                         "    {\"metric\": \"%s\", \"value\": %.6g, "
                         "\"unit\": \"%s\", \"config\": \"%s\"}%s\n",
                         r.metric.c_str(), r.value, r.unit.c_str(),
                         r.config.c_str(),
                         i + 1 < rows_.size() ? "," : "");
        }
        std::fprintf(out, "  ]\n}\n");
        if (std::fclose(out) != 0)
            throw std::runtime_error("bench_json: short write to " + path);
        std::printf("wrote %s\n", path.c_str());
    }

private:
    struct row {
        std::string metric;
        double value;
        std::string unit;
        std::string config;
    };

    std::string name_;
    std::vector<row> rows_;
};

}  // namespace ehdse::bench
