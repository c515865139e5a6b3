// Randomised differential test, on the testkit harness: the event queue
// against a reference model (std::multimap ordered by (time, sequence))
// under random schedule/cancel/pop operation tapes; plus simulator edge
// cases (one scalar system on the batch kernel at width 1). EHDSE_TESTKIT_SEED reseeds the tapes, EHDSE_FUZZ_MS trades the
// fixed case count for a wall-time budget (the nightly fuzz knob), and a
// failure shrinks to a minimal op tape and prints a one-line repro.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/batch_simulator.hpp"
#include "testkit/property.hpp"
#include "testkit/prng.hpp"

namespace es = ehdse::sim;
namespace tk = ehdse::testkit;

namespace {

struct reference_queue {
    struct entry {
        es::event_id id;
        int payload;
    };
    std::multimap<std::pair<double, std::uint64_t>, entry> entries;
    std::uint64_t seq = 0;

    void schedule(double t, es::event_id id, int payload) {
        entries.emplace(std::make_pair(t, seq++), entry{id, payload});
    }
    bool cancel(es::event_id id) {
        for (auto it = entries.begin(); it != entries.end(); ++it)
            if (it->second.id == id) {
                entries.erase(it);
                return true;
            }
        return false;
    }
    entry pop() {
        auto it = entries.begin();
        entry e = it->second;
        entries.erase(it);
        return e;
    }
};

/// One step of an operation tape. Times are coarse so ties are common
/// (the interesting case for a (time, sequence)-ordered queue).
struct fuzz_op {
    enum kind_t { schedule, cancel, pop } kind = schedule;
    double t = 0.0;       ///< schedule time
    std::size_t pick = 0; ///< cancel target (mod live id count)

    bool operator==(const fuzz_op&) const = default;
};

std::vector<fuzz_op> gen_op_tape(tk::prng& rng) {
    const std::size_t n = 500 + rng.index(1500);
    std::vector<fuzz_op> ops;
    ops.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        fuzz_op op;
        const double dice = rng.uniform();
        op.kind = dice < 0.5    ? fuzz_op::schedule
                  : dice < 0.65 ? fuzz_op::cancel
                                : fuzz_op::pop;
        op.t = static_cast<double>(rng.index(50));
        op.pick = rng.index(1024);
        ops.push_back(op);
    }
    return ops;
}

/// Replay a tape against queue + reference; throws property_failure on
/// the first divergence.
void run_op_tape(const std::vector<fuzz_op>& ops) {
    es::event_queue queue;
    reference_queue reference;
    std::vector<int> fired;
    std::vector<es::event_id> live_ids;
    int next_payload = 0;

    for (std::size_t i = 0; i < ops.size(); ++i) {
        const fuzz_op& op = ops[i];
        const std::string at = " (op " + std::to_string(i) + ")";
        switch (op.kind) {
            case fuzz_op::schedule: {
                const int payload = next_payload++;
                const es::event_id id = queue.schedule(
                    op.t, [payload, &fired] { fired.push_back(payload); });
                reference.schedule(op.t, id, payload);
                live_ids.push_back(id);
                break;
            }
            case fuzz_op::cancel: {
                if (live_ids.empty()) break;
                const es::event_id id =
                    live_ids[op.pick % live_ids.size()];
                const bool ours = queue.cancel(id);
                const bool refs = reference.cancel(id);
                tk::require(ours == refs, "cancel result diverged" + at);
                break;
            }
            case fuzz_op::pop: {
                tk::require(queue.empty() == reference.entries.empty(),
                            "emptiness diverged before pop" + at);
                if (queue.empty()) break;
                const auto expected = reference.pop();
                fired.clear();
                queue.pop_and_run();
                tk::require(fired.size() == 1,
                            "pop fired " + std::to_string(fired.size()) +
                                " events" + at);
                tk::require(fired[0] == expected.payload,
                            "pop order diverged from the reference" + at);
                break;
            }
        }
        tk::require(queue.size() == reference.entries.size(),
                    "size diverged" + at);
    }

    // Drain both: total order identical.
    while (!queue.empty()) {
        const auto expected = reference.pop();
        fired.clear();
        queue.pop_and_run();
        tk::require(!fired.empty() && fired[0] == expected.payload,
                    "drain order diverged from the reference");
    }
    tk::require(reference.entries.empty(),
                "reference still holds entries after the drain");
}

}  // namespace

TEST(SimFuzz, EventQueueMatchesReferenceModel) {
    tk::property_def<std::vector<fuzz_op>> def;
    def.name = "SimFuzz.EventQueueMatchesReferenceModel";
    def.generate = gen_op_tape;
    def.property = run_op_tape;
    def.shrink = [](const std::vector<fuzz_op>& ops) {
        return tk::shrink_sequence(ops);
    };
    def.show = [](const std::vector<fuzz_op>& ops) {
        std::ostringstream os;
        os << ops.size() << " ops:";
        for (const fuzz_op& op : ops)
            os << (op.kind == fuzz_op::schedule ? " s@"
                   : op.kind == fuzz_op::cancel ? " c#"
                                                : " p@")
               << (op.kind == fuzz_op::cancel ? static_cast<double>(op.pick)
                                              : op.t);
        return os.str();
    };
    tk::property_options options;
    options.cases = 12;
    options.budget_ms = tk::env_fuzz_ms(0.0);  // nightly: fuzz by wall time
    const auto result = tk::run_property(def, options);
    EXPECT_TRUE(result.ok) << result.report();
}

// --- simulator edge cases -------------------------------------------------

namespace {
class still_system final : public es::analog_system {
public:
    std::size_t state_size() const override { return 1; }
    void derivatives(double, std::span<const double>,
                     std::span<double> d) const override {
        d[0] = 0.0;
    }
};

/// still_system from x0 on a width-1 kernel; `ctx` is its one lane.
struct still_rig {
    explicit still_rig(double x0) : sim(lane, {x0}) {}
    still_system sys;
    es::single_lane_system lane{sys};
    es::batch_simulator sim;
    es::sim_context& ctx = sim.lane(0);
};
}  // namespace

TEST(SimulatorEdge, EventExactlyAtHorizonFires) {
    still_rig r(0.0);
    bool fired = false;
    r.ctx.at(1.0, [&] { fired = true; });
    ASSERT_TRUE(r.sim.run_until(1.0));
    EXPECT_TRUE(fired);
}

TEST(SimulatorEdge, ZeroDurationRunIsNoop) {
    still_rig r(0.5);
    ASSERT_TRUE(r.sim.run_until(0.0));
    EXPECT_DOUBLE_EQ(r.ctx.now(), 0.0);
    EXPECT_DOUBLE_EQ(r.ctx.state_at(0), 0.5);
}

TEST(SimulatorEdge, EventSchedulingAtCurrentTimeRunsThisSweep) {
    still_rig r(0.0);
    std::vector<int> order;
    r.ctx.at(1.0, [&] {
        order.push_back(1);
        r.ctx.at(1.0, [&] { order.push_back(2); });  // same-time follow-up
    });
    ASSERT_TRUE(r.sim.run_until(2.0));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorEdge, ManyZeroSpacedEventsTerminate) {
    still_rig r(0.0);
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 1000) r.ctx.at(r.ctx.now(), chain);
    };
    r.ctx.at(0.5, chain);
    ASSERT_TRUE(r.sim.run_until(1.0));
    EXPECT_EQ(count, 1000);
}

TEST(SimulatorEdge, NonFiniteStateFailsTheRunCleanly) {
    // An event corrupting the state to NaN (what the fault-injection
    // wrappers do deliberately) must fail run_until instead of stalling
    // the error-controlled integrator.
    still_rig r(1.0);
    r.ctx.at(0.5, [&] {
        r.ctx.set_state(0, std::numeric_limits<double>::quiet_NaN());
    });
    EXPECT_TRUE(r.sim.lane_state_finite(0));
    EXPECT_FALSE(r.sim.run_until(1.0));
    EXPECT_FALSE(r.sim.lane_ok(0));
    EXPECT_FALSE(r.sim.lane_state_finite(0));
}
