// Standalone validator for a run manifest produced by `ehdse_cli flow
// --metrics-out`. Registered in CTest behind the cli_flow_metrics fixture,
// so the acceptance path "the CLI writes a manifest and a test parses it"
// is exercised end-to-end against the real binary's real output file.
//
//   manifest_check <manifest.json> [expected_doe_runs]
//
// Exits 0 when the manifest is well-formed and complete, 1 with a message
// on the first violation.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/run_manifest.hpp"

namespace {

int fail(const std::string& what) {
    std::fprintf(stderr, "manifest_check: %s\n", what.c_str());
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return fail("usage: manifest_check <manifest.json> [doe_runs]");
    const std::size_t expected_runs =
        argc > 2 ? static_cast<std::size_t>(std::strtoul(argv[2], nullptr, 10))
                 : 0;

    std::ifstream in(argv[1]);
    if (!in) return fail(std::string("cannot read ") + argv[1]);
    std::ostringstream buf;
    buf << in.rdbuf();

    ehdse::obs::json_value doc;
    try {
        doc = ehdse::obs::json_value::parse(buf.str());
    } catch (const std::exception& e) {
        return fail(std::string("invalid JSON: ") + e.what());
    }

    try {
        if (doc.at("schema").as_string() != ehdse::obs::run_manifest::k_schema)
            return fail("unexpected schema id");

        // Per-phase wall times: every flow phase present and timed.
        const auto& phases = doc.at("phases").as_array();
        if (phases.empty()) return fail("no phases recorded");
        bool saw_simulate = false;
        for (const auto& p : phases) {
            if (p.at("wall_s").as_number() < 0.0)
                return fail("negative phase wall time");
            if (p.at("name").as_string() == "simulate") saw_simulate = true;
        }
        if (!saw_simulate) return fail("no 'simulate' phase");

        // Per-design-point simulation stats.
        const auto& runs = doc.at("runs").as_array();
        std::size_t design_points = 0;
        for (const auto& r : runs) {
            if (r.at("ode_steps").as_number() <= 0.0)
                return fail("run without ODE steps");
            if (r.at("events").as_number() <= 0.0)
                return fail("run without events");
            if (r.at("wall_s").as_number() < 0.0)
                return fail("negative run wall time");
            if (!r.at("sim_ok").as_bool()) return fail("failed simulation");
            if (r.at("config").at("mcu_clock_hz").as_number() <= 0.0)
                return fail("run without a configuration");
            if (r.at("kind").as_string() == "design_point") ++design_points;
        }
        if (expected_runs && design_points != expected_runs)
            return fail("expected " + std::to_string(expected_runs) +
                        " design points, found " + std::to_string(design_points));

        // Per-optimiser evaluation counts; SA must report acceptance.
        const auto& optimizers = doc.at("optimizers").as_array();
        if (optimizers.empty()) return fail("no optimizer records");
        bool saw_acceptance = false;
        for (const auto& o : optimizers) {
            if (o.at("evaluations").as_number() <= 0.0)
                return fail("optimizer without evaluations");
            if (const auto* rate = o.find("acceptance_rate")) {
                const double v = rate->as_number();
                if (v < 0.0 || v > 1.0) return fail("acceptance rate out of range");
                saw_acceptance = true;
            }
        }
        if (!saw_acceptance)
            return fail("no optimizer reported an acceptance rate");

        // The metrics snapshot rides along with live counters.
        const auto& counters = doc.at("metrics").at("counters");
        if (counters.at("sim.batch.ode_steps").as_number() <= 0.0)
            return fail("metrics snapshot missing sim.batch.ode_steps");
        if (counters.at("dse.evaluate.runs").as_number() <
            static_cast<double>(design_points))
            return fail("metrics snapshot undercounts evaluations");
    } catch (const std::exception& e) {
        return fail(std::string("manifest incomplete: ") + e.what());
    }

    std::printf("manifest_check: %s ok\n", argv[1]);
    return 0;
}
