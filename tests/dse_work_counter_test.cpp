// Exact work-counter pins: accepted and rejected ODE steps, digital events
// and transmissions of one envelope and one short transient evaluate() per
// harvester backend. These counts are deterministic, so they are compared
// exactly: a change to the kernel's arithmetic or step control moves them,
// host load never does (a wall-clock gate cannot tell the two apart).
#include <gtest/gtest.h>

#include <cstdint>

#include "dse/system_evaluator.hpp"

namespace ed = ehdse::dse;

namespace {

struct work {
    std::size_t steps;
    std::size_t rejected;
    std::uint64_t events;
    std::uint64_t transmissions;
};

struct pin {
    const char* backend;
    work expected;
};

void expect_work(const ed::scenario& scn, const ed::evaluation_options& options,
                 const pin& p) {
    SCOPED_TRACE(p.backend);
    const ed::system_evaluator ev(scn, ehdse::spec::harvester_spec{p.backend});
    const ed::evaluation_result r = ev.evaluate(ed::system_config::original(), options);
    EXPECT_TRUE(r.sim_ok);
    EXPECT_EQ(r.ode_steps, p.expected.steps);
    EXPECT_EQ(r.ode_steps_rejected, p.expected.rejected);
    EXPECT_EQ(r.events, p.expected.events);
    EXPECT_EQ(r.transmissions, p.expected.transmissions);
}

}  // namespace

TEST(WorkCounters, EnvelopeEvaluatePinnedPerBackend) {
    // The paper's hour (64 -> 69 -> 74 Hz) at the original configuration.
    for (const pin& p : {pin{"electromagnetic", {4445, 620, 747, 721}},
                         pin{"electrostatic", {2791, 560, 463, 435}}})
        expect_work(ed::scenario{}, {}, p);
}

TEST(WorkCounters, TransientEvaluatePinnedPerBackend) {
    // 20 s resolving every vibration cycle, one +5 Hz step at 10 s.
    ed::scenario scn;
    scn.duration_s = 20.0;
    scn.step_period_s = 10.0;
    scn.step_count = 1;
    ed::evaluation_options options;
    options.model = ed::fidelity::transient;
    for (const pin& p : {pin{"electromagnetic", {37791, 7188, 5, 5}},
                         pin{"electrostatic", {37620, 0, 2, 2}}})
        expect_work(scn, options, p);
}
