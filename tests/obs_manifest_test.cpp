// obs::run_manifest — record accounting, JSON/JSONL serialisation, and a
// full write -> parse -> verify round trip.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "obs/run_manifest.hpp"

namespace eo = ehdse::obs;

namespace {

// run_manifest owns a mutex, so it is neither copyable nor movable; the
// sample is filled in place.
void fill_sample(eo::run_manifest& m) {
    m.set_tool("unit-test", "0.1");
    m.set_option("doe_runs", eo::json_value(10));
    m.set_option("optimizer_seed", eo::json_value(0x0b7a1));
    m.add_phase({"candidates", 0.001, 27});
    m.add_phase({"simulate", 1.25, 10});

    eo::sim_run_record run;
    run.kind = "design_point";
    run.index = 3;
    run.coded = {-1.0, 0.0, 1.0};
    run.mcu_clock_hz = 4e6;
    run.watchdog_period_s = 320.0;
    run.tx_interval_s = 5.0;
    run.seed = 0x5eed;
    run.response = 4242.0;
    run.wall_s = 0.075;
    run.ode_steps = 123456;
    run.ode_steps_rejected = 78;
    run.events = 9876;
    m.add_sim_run(run);

    eo::optimizer_record opt;
    opt.name = "simulated-annealing";
    opt.evaluations = 20033;
    opt.iterations = 400;
    opt.proposed_moves = 20000;
    opt.accepted_moves = 9000;
    opt.acceptance_rate = 0.45;
    opt.converged = true;
    opt.predicted = 7101.0;
    opt.validated_response = 7056.0;
    opt.coded = {1.0, -1.0, -1.0};
    opt.wall_s = 0.4;
    m.add_optimizer(opt);
}

}  // namespace

TEST(Manifest, CountsByKind) {
    eo::run_manifest m;
    fill_sample(m);
    EXPECT_EQ(m.sim_run_count("design_point"), 1u);
    EXPECT_EQ(m.sim_run_count("baseline"), 0u);
    EXPECT_EQ(m.phases().size(), 2u);
    EXPECT_EQ(m.optimizers().size(), 1u);
}

TEST(Manifest, JsonRoundTrip) {
    eo::run_manifest m;
    fill_sample(m);
    std::ostringstream os;
    m.write_json(os);

    const eo::json_value doc = eo::json_value::parse(os.str());
    EXPECT_EQ(doc.at("schema").as_string(), eo::run_manifest::k_schema);
    EXPECT_EQ(doc.at("tool").at("name").as_string(), "unit-test");
    EXPECT_DOUBLE_EQ(doc.at("options").at("doe_runs").as_number(), 10.0);

    ASSERT_EQ(doc.at("phases").size(), 2u);
    EXPECT_EQ(doc.at("phases").at(1).at("name").as_string(), "simulate");
    EXPECT_DOUBLE_EQ(doc.at("phases").at(1).at("items").as_number(), 10.0);

    ASSERT_EQ(doc.at("runs").size(), 1u);
    const auto& run = doc.at("runs").at(0);
    EXPECT_EQ(run.at("kind").as_string(), "design_point");
    EXPECT_DOUBLE_EQ(run.at("index").as_number(), 3.0);
    EXPECT_DOUBLE_EQ(run.at("coded").at(0).as_number(), -1.0);
    EXPECT_DOUBLE_EQ(run.at("config").at("mcu_clock_hz").as_number(), 4e6);
    EXPECT_DOUBLE_EQ(run.at("response").as_number(), 4242.0);
    EXPECT_DOUBLE_EQ(run.at("ode_steps").as_number(), 123456.0);
    EXPECT_DOUBLE_EQ(run.at("ode_steps_rejected").as_number(), 78.0);
    EXPECT_DOUBLE_EQ(run.at("events").as_number(), 9876.0);
    EXPECT_TRUE(run.at("sim_ok").as_bool());

    ASSERT_EQ(doc.at("optimizers").size(), 1u);
    const auto& opt = doc.at("optimizers").at(0);
    EXPECT_EQ(opt.at("name").as_string(), "simulated-annealing");
    EXPECT_DOUBLE_EQ(opt.at("evaluations").as_number(), 20033.0);
    EXPECT_DOUBLE_EQ(opt.at("acceptance_rate").as_number(), 0.45);
    EXPECT_TRUE(opt.at("converged").as_bool());

    // No metrics snapshot attached -> key absent entirely.
    EXPECT_FALSE(doc.contains("metrics"));
}

TEST(Manifest, MetricsSnapshotEmbedded) {
    eo::run_manifest m;
    fill_sample(m);
    eo::json_value metrics = eo::json_object{};
    metrics.set("counters", eo::json_value(eo::json_object{
                                {"sim.batch.ode_steps", eo::json_value(42)}}));
    m.set_metrics(std::move(metrics));
    const auto doc = eo::json_value::parse(m.to_json().dump());
    EXPECT_DOUBLE_EQ(
        doc.at("metrics").at("counters").at("sim.batch.ode_steps").as_number(), 42.0);
}

TEST(Manifest, JsonlOneRecordPerLine) {
    eo::run_manifest m;
    fill_sample(m);
    std::ostringstream os;
    m.write_jsonl(os);
    std::istringstream is(os.str());
    std::string line;
    std::vector<std::string> kinds;
    while (std::getline(is, line)) {
        const auto rec = eo::json_value::parse(line);  // every line parses alone
        kinds.push_back(rec.at("record").as_string());
    }
    EXPECT_EQ(kinds, (std::vector<std::string>{"header", "phase", "phase",
                                               "run", "optimizer"}));
}

TEST(Manifest, ConcurrentAppendsAreLossless) {
    eo::run_manifest m;
    constexpr int k_threads = 8;
    constexpr int k_records = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < k_threads; ++t)
        threads.emplace_back([&m, t] {
            for (int i = 0; i < k_records; ++i) {
                eo::sim_run_record r;
                r.kind = "design_point";
                r.index = static_cast<std::size_t>(t * k_records + i);
                m.add_sim_run(r);
            }
        });
    for (auto& t : threads) t.join();
    EXPECT_EQ(m.sim_runs().size(),
              static_cast<std::size_t>(k_threads) * k_records);
    EXPECT_EQ(m.sim_run_count("design_point"),
              static_cast<std::size_t>(k_threads) * k_records);
}
