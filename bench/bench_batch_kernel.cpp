// Batch-kernel throughput: the paper's 10-point D-optimal workload
// evaluated per-config through the scalar envelope path versus in one
// SoA batch through system_evaluator::evaluate_batch, on one thread.
// Both rates are perf-gated against BENCH_batch_kernel.json (>15%
// regression fails, scripts/check_perf.sh). Both paths run the same
// envelope physics, so the printed speedup is lane amortisation alone
// and is informational.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "doe/d_optimal.hpp"
#include "doe/designs.hpp"
#include "dse/rsm_flow.hpp"
#include "dse/system_evaluator.hpp"
#include "obs/timing.hpp"
#include "rsm/quadratic_model.hpp"

int main() {
    using namespace ehdse;

    // Same workload as bench_exec_throughput's pool rows: the flow's
    // simulate phase in isolation on a 10-minute scenario.
    dse::scenario scn;
    scn.duration_s = 600.0;
    scn.step_period_s = 250.0;
    scn.step_count = 1;
    dse::system_evaluator evaluator(scn);

    const auto space = dse::paper_design_space();
    const auto candidates = doe::full_factorial(3, 3);
    const auto selection = doe::d_optimal_design(
        candidates,
        [](const numeric::vec& x) { return rsm::quadratic_basis(x); }, 10, {});
    std::vector<dse::system_config> configs;
    for (std::size_t idx : selection.selected)
        configs.push_back(dse::config_from_coded(space, candidates[idx]));
    const double n = static_cast<double>(configs.size());
    const std::string workload =
        std::to_string(configs.size()) + "-point d-optimal, 600 s scenario, 1 thread";

    std::printf("=== Batch kernel throughput ===\n");
    std::printf("workload: %s\n\n", workload.c_str());

    // Warm-up, then best-of-3 each way: the numbers feed a regression
    // gate, so keep scheduler noise out of the committed baseline.
    (void)evaluator.evaluate(configs.front());
    (void)evaluator.evaluate_batch(configs);

    double scalar_wall = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        obs::stopwatch watch;
        for (const dse::system_config& config : configs)
            (void)evaluator.evaluate(config);
        scalar_wall = std::min(scalar_wall, watch.seconds());
    }
    double batch_wall = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        obs::stopwatch watch;
        (void)evaluator.evaluate_batch(configs);
        batch_wall = std::min(batch_wall, watch.seconds());
    }

    const double scalar_rate = n / scalar_wall;
    const double batch_rate = n / batch_wall;
    const double speedup = batch_rate / scalar_rate;
    std::printf("scalar: %.3f s (%.2f evals/s)\n", scalar_wall, scalar_rate);
    std::printf("batch:  %.3f s (%.2f evals/s)\n", batch_wall, batch_rate);
    std::printf("speedup: %.2fx\n", speedup);

    bench::json_emitter json("batch_kernel");
    json.record("scalar_evals_per_s", scalar_rate, "evals/s", workload);
    json.record("batch_evals_per_s", batch_rate, "evals/s", workload);
    json.record("batch_speedup_x", speedup, "x", workload);
    json.write();
    return 0;
}
