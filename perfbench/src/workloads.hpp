// The three workloads of the benchmark (README.md gives the reason for
// each). Every function runs the workload for opts.seconds, checks its
// outputs, writes its replayable inputs under opts.out_dir, and fills
// `rep` with the end-to-end metrics and, when opts.trace is set, the
// per-layer metrics and the span trace.
#pragma once

#include <memory>

#include "bench.hpp"

namespace perfbench {

void run_paper_flow(const run_options& opts, report& rep, tracer& tr);
/// Build what an in-process workload needs before its first request
/// (the --setup-probe mode of ehdse_perf); the result keeps it alive.
std::shared_ptr<void> setup_paper_flow(const run_options& opts);
std::shared_ptr<void> setup_transient_sweep(const run_options& opts);
void run_svc_mixed(const run_options& opts, report& rep, tracer& tr);
void run_transient_sweep(const run_options& opts, report& rep, tracer& tr);

}  // namespace perfbench
