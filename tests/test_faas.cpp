// Tests for the green-ACCESS FaaS platform: broker, telemetry, RAPL
// emulation, endpoints, the streaming monitor, and the end-to-end pipeline.
#include <gtest/gtest.h>

#include <cmath>

#include "faas/broker.hpp"
#include "faas/endpoint.hpp"
#include "faas/monitor.hpp"
#include "faas/platform.hpp"
#include "faas/rapl.hpp"
#include "faas/telemetry.hpp"
#include "kernels/kernel.hpp"
#include "util/error.hpp"

namespace {

namespace fs = ga::faas;
namespace mc = ga::machine;

// ---------------------------------------------------------------- broker
TEST(Broker, TopicLifecycle) {
    fs::Broker broker;
    EXPECT_FALSE(broker.has_topic("t"));
    broker.create_topic("t", 3);
    EXPECT_TRUE(broker.has_topic("t"));
    EXPECT_EQ(broker.partition_count("t"), 3u);
    EXPECT_THROW(broker.create_topic("t"), ga::util::PreconditionError);
    EXPECT_THROW((void)broker.partition_count("missing"), ga::util::RuntimeError);
}

TEST(Broker, ProduceConsumeOrdered) {
    fs::Broker broker;
    broker.create_topic("t", 1);
    for (int i = 0; i < 5; ++i) {
        broker.produce_to("t", 0, "k", "v" + std::to_string(i));
    }
    const auto msgs = broker.consume("g", "t", 0, 100);
    ASSERT_EQ(msgs.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(msgs[i].offset, i);
        EXPECT_EQ(msgs[i].value, "v" + std::to_string(i));
    }
}

TEST(Broker, ConsumerGroupsIndependent) {
    fs::Broker broker;
    broker.create_topic("t", 1);
    broker.produce_to("t", 0, "k", "a");
    EXPECT_EQ(broker.consume("g1", "t", 0, 10).size(), 1u);
    EXPECT_EQ(broker.consume("g1", "t", 0, 10).size(), 0u);  // offset advanced
    EXPECT_EQ(broker.consume("g2", "t", 0, 10).size(), 1u);  // fresh group
    EXPECT_EQ(broker.committed("g1", "t", 0), 1u);
}

TEST(Broker, SeekReplays) {
    fs::Broker broker;
    broker.create_topic("t", 1);
    broker.produce_to("t", 0, "k", "x");
    (void)broker.consume("g", "t", 0, 10);
    broker.seek("g", "t", 0, 0);
    EXPECT_EQ(broker.consume("g", "t", 0, 10).size(), 1u);
    EXPECT_THROW(broker.seek("g", "t", 0, 99), ga::util::PreconditionError);
}

TEST(Broker, KeyHashingIsStable) {
    fs::Broker broker;
    broker.create_topic("t", 4);
    const auto [p1, o1] = broker.produce("t", "same-key", "a");
    const auto [p2, o2] = broker.produce("t", "same-key", "b");
    EXPECT_EQ(p1, p2);
    EXPECT_EQ(o2, o1 + 1);
}

TEST(Broker, MaxMessagesRespected) {
    fs::Broker broker;
    broker.create_topic("t", 1);
    for (int i = 0; i < 10; ++i) broker.produce_to("t", 0, "k", "v");
    EXPECT_EQ(broker.consume("g", "t", 0, 3).size(), 3u);
    EXPECT_EQ(broker.consume("g", "t", 0, 100).size(), 7u);
}

// ---------------------------------------------------------------- telemetry
TEST(Telemetry, PowerRoundTrip) {
    const fs::PowerSample s{"Desktop", 12.5, 78.25};
    const auto decoded = fs::decode_power(fs::encode(s));
    EXPECT_EQ(decoded.endpoint, "Desktop");
    EXPECT_DOUBLE_EQ(decoded.t_seconds, 12.5);
    EXPECT_DOUBLE_EQ(decoded.node_watts, 78.25);
}

TEST(Telemetry, CounterRoundTrip) {
    const fs::CounterSample s{"Ice Lake", 3.0, 42u, 7.5, 33.25, 8};
    const auto decoded = fs::decode_counters(fs::encode(s));
    EXPECT_EQ(decoded.endpoint, "Ice Lake");
    EXPECT_EQ(decoded.task_id, 42u);
    EXPECT_DOUBLE_EQ(decoded.gips, 7.5);
    EXPECT_EQ(decoded.cores, 8);
}

TEST(Telemetry, RejectsGarbage) {
    EXPECT_THROW((void)fs::decode_power("garbage"), ga::util::RuntimeError);
    EXPECT_THROW((void)fs::decode_counters("P|x|1|2"), ga::util::RuntimeError);
}

// ---------------------------------------------------------------- rapl
TEST(Rapl, AccumulatesAndWraps) {
    fs::RaplCounter c;
    c.advance(1.0);  // 1e6 uJ
    EXPECT_EQ(c.raw(), 1000000u);
    EXPECT_DOUBLE_EQ(c.total_joules(), 1.0);
    // Wrap-safe delta across the 2^32 boundary.
    const std::uint32_t before = 0xFFFFFF00u;
    const std::uint32_t after = 0x00000100u;
    EXPECT_DOUBLE_EQ(fs::RaplCounter::delta_joules(before, after),
                     (0x100u + 0x100u) * 1e-6);
    EXPECT_THROW(c.advance(-1.0), ga::util::PreconditionError);
}

TEST(Rapl, SubMicrojouleResidualPreserved) {
    fs::RaplCounter c;
    for (int i = 0; i < 1000; ++i) c.advance(0.5e-6);  // half a uJ at a time
    EXPECT_NEAR(static_cast<double>(c.raw()), 500.0, 1.0);
}

// ---------------------------------------------------------------- endpoint
TEST(Endpoint, ExecutesAndEmitsTelemetry) {
    fs::Broker broker;
    fs::Endpoint ep(mc::find(mc::CatalogId::Desktop), &broker, 1.0, 0.0);
    ga::machine::WorkProfile p{20e9, 1e6, 1.0};  // 2 s on one Desktop core
    const auto exec = ep.execute(p, 1, 0.0);
    EXPECT_GT(exec.seconds(), 1.0);
    ep.flush_until(exec.end_s + 2.0);
    EXPECT_GT(broker.end_offset(fs::kPowerTopic, 0) +
                  broker.end_offset(fs::kPowerTopic, 1) +
                  broker.end_offset(fs::kPowerTopic, 2) +
                  broker.end_offset(fs::kPowerTopic, 3),
              0u);
    // RAPL accumulated idle + task energy over the flushed window.
    EXPECT_GT(ep.rapl().total_joules(), exec.model_joules);
}

TEST(Endpoint, RejectsOvercommit) {
    fs::Broker broker;
    fs::Endpoint ep(mc::find(mc::CatalogId::Desktop), &broker);
    ga::machine::WorkProfile p{1e12, 1e6, 1.0};
    (void)ep.execute(p, 10, 0.0);
    EXPECT_THROW((void)ep.execute(p, 10, 0.0), ga::util::PreconditionError);
    EXPECT_THROW((void)ep.execute(p, 17, 0.0), ga::util::PreconditionError);
}

TEST(Endpoint, ClockMonotonic) {
    fs::Broker broker;
    fs::Endpoint ep(mc::find(mc::CatalogId::Desktop), &broker);
    ep.flush_until(5.0);
    EXPECT_THROW(ep.flush_until(1.0), ga::util::PreconditionError);
    ga::machine::WorkProfile p{1e9, 1e6, 1.0};
    EXPECT_THROW((void)ep.execute(p, 1, 1.0), ga::util::PreconditionError);
}

// ---------------------------------------------------------------- monitor
TEST(Monitor, AttributesTaskEnergyCloseToModel) {
    fs::Broker broker;
    fs::Endpoint ep(mc::find(mc::CatalogId::CascadeLake), &broker, 1.0,
                    /*noise_w=*/0.2);
    fs::EndpointMonitor monitor(&broker);

    // A mixed sequence of tasks so the fit sees varied counters.
    ga::machine::WorkProfile compute{60e9, 1e6, 1.0};
    ga::machine::WorkProfile memory{1e6, 30e9, 1.0};
    const auto e1 = ep.execute(compute, 2, 0.0);
    const auto e2 = ep.execute(memory, 4, 1.0);
    const auto e3 = ep.execute(compute, 8, 3.0);
    const double end = std::max({e1.end_s, e2.end_s, e3.end_s});
    ep.flush_until(end + 40.0);  // plenty of idle ticks anchor the intercept
    monitor.poll();

    EXPECT_GT(monitor.sample_count("Cascade Lake"), 16u);
    for (const auto& e : {e1, e2, e3}) {
        const double measured = monitor.task_energy_j(e.task_id);
        EXPECT_NEAR(measured, e.model_joules,
                    std::max(1.0, e.model_joules * 0.30))
            << "task " << e.task_id;
    }
}

TEST(Monitor, IdleEstimateNearNodeIdle) {
    fs::Broker broker;
    const auto& entry = mc::find(mc::CatalogId::IceLake);
    fs::Endpoint ep(entry, &broker, 1.0, 0.1);
    fs::EndpointMonitor monitor(&broker);
    ga::machine::WorkProfile p{50e9, 1e9, 1.0};
    const auto exec = ep.execute(p, 4, 0.0);
    ep.flush_until(exec.end_s + 30.0);
    monitor.poll();
    EXPECT_NEAR(monitor.idle_estimate_w("Ice Lake"), entry.node.idle_w(),
                entry.node.idle_w() * 0.1);
}

TEST(Monitor, UnknownTaskHasZeroEnergy) {
    fs::Broker broker;
    fs::EndpointMonitor monitor(&broker);
    EXPECT_DOUBLE_EQ(monitor.task_energy_j(12345), 0.0);
    monitor.poll();  // no topics yet: must not throw
}

// ---------------------------------------------------------------- platform
TEST(Platform, EndToEndSubmitAndCharge) {
    fs::GreenAccess platform({"EBA", {}});
    platform.register_endpoint(mc::find(mc::CatalogId::Desktop));
    platform.register_endpoint(mc::find(mc::CatalogId::CascadeLake));
    platform.create_user("alice", 1e9);

    ga::machine::WorkProfile p{30e9, 1e6, 1.0};
    const auto r = platform.submit("alice", p, 1);
    ASSERT_TRUE(r.accepted) << r.reject_reason;
    // The EBA-cheapest machine for compute-bound work is the Desktop.
    EXPECT_EQ(r.machine, "Desktop");
    EXPECT_GT(r.measured_energy_j, 0.0);
    EXPECT_GT(r.cost, 0.0);
    EXPECT_NEAR(platform.ledger().spent("alice", "credits"), r.cost, 1e-9);
    ASSERT_EQ(platform.ledger().history().size(), 1u);
}

TEST(Platform, PredictionServiceRanks) {
    fs::GreenAccess platform({"EBA", {}});
    for (const auto& e : mc::chameleon_cpu_nodes()) platform.register_endpoint(e);
    ga::machine::WorkProfile p{30e9, 1e6, 1.0};
    const auto ranked = platform.predict(p, 1);
    ASSERT_EQ(ranked.size(), 4u);
    EXPECT_EQ(ranked.front().machine, "Desktop");
    for (std::size_t i = 1; i < ranked.size(); ++i) {
        EXPECT_LE(ranked[i - 1].cost, ranked[i].cost);
    }
}

TEST(Platform, AccessControl) {
    fs::GreenAccess platform({"EBA", {}});
    platform.register_endpoint(mc::find(mc::CatalogId::Desktop));
    ga::machine::WorkProfile p{1e9, 1e6, 1.0};

    const auto unknown = platform.submit("nobody", p, 1);
    EXPECT_FALSE(unknown.accepted);
    EXPECT_EQ(unknown.reject_reason, "unknown user");

    platform.create_user("poor", 1e-6);
    const auto broke = platform.submit("poor", p, 1);
    EXPECT_FALSE(broke.accepted);
    EXPECT_EQ(broke.reject_reason, "insufficient allocation");

    const auto bad_machine = [&] {
        platform.create_user("bob", 1e9);
        return platform.submit("bob", p, 1, "NoSuchMachine");
    }();
    EXPECT_FALSE(bad_machine.accepted);
    EXPECT_EQ(bad_machine.reject_reason, "unknown machine");
}

TEST(Platform, ExplicitMachineRouting) {
    fs::GreenAccess platform({"Runtime", {}});
    platform.register_endpoint(mc::find(mc::CatalogId::Desktop));
    platform.register_endpoint(mc::find(mc::CatalogId::Zen3));
    platform.create_user("carol", 1e9);
    ga::machine::WorkProfile p{5e9, 1e6, 1.0};
    const auto r = platform.submit("carol", p, 1, "Zen3");
    ASSERT_TRUE(r.accepted);
    EXPECT_EQ(r.machine, "Zen3");
}

TEST(Platform, MultipleSubmissionsAccumulate) {
    fs::GreenAccess platform({"Energy", {}});
    platform.register_endpoint(mc::find(mc::CatalogId::Desktop));
    platform.create_user("dave", 1e9);
    ga::machine::WorkProfile p{10e9, 1e6, 1.0};
    double total = 0.0;
    for (int i = 0; i < 3; ++i) {
        const auto r = platform.submit("dave", p, 2);
        ASSERT_TRUE(r.accepted);
        total += r.cost;
    }
    EXPECT_NEAR(platform.ledger().spent("dave", "credits"), total, 1e-9);
    EXPECT_EQ(platform.ledger().history().size(), 3u);
}

TEST(Platform, SettlementRefusesAChargeAboveTheRemainingBudget) {
    // Admission checks the estimate, settlement charges the measured
    // energy. MatMul on one core costs more measured than estimated under
    // EBA, so a budget between the two figures admits the job and then
    // refuses its charge.
    const auto matmul = ga::kernels::make_matmul();
    const auto profile = matmul->run(matmul->test_scale()).profile;
    const auto deploy = [](fs::GreenAccess& platform, double budget) {
        for (const auto& e : mc::chameleon_cpu_nodes()) {
            platform.register_endpoint(e);
        }
        platform.create_user("frank", budget);
    };

    fs::GreenAccess probe({"EBA", {}});
    deploy(probe, 1e9);
    const double estimate = probe.predict(profile, 1).front().cost;
    const auto paid = probe.submit("frank", profile, 1);
    ASSERT_TRUE(paid.accepted) << paid.reject_reason;
    ASSERT_LT(estimate, paid.cost);

    fs::GreenAccess platform({"EBA", {}});
    deploy(platform, 0.5 * (estimate + paid.cost));
    const auto r = platform.submit("frank", profile, 1);
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.reject_reason, "allocation exhausted at settlement");
    EXPECT_DOUBLE_EQ(platform.ledger().spent("frank", "credits"), 0.0);
    EXPECT_TRUE(platform.ledger().history().empty());
}

TEST(Platform, LedgerSurvivesExportAndImport) {
    // The platform's currency is defined from its spec, so a snapshot of
    // its ledger re-binds it: the restored ledger prices the same usage on
    // the same machine at the platform's cost.
    fs::GreenAccess platform({"EBA", {}});
    const auto& desktop = mc::find(mc::CatalogId::Desktop);
    platform.register_endpoint(desktop);
    platform.create_user("grace", 1e9);
    const auto r = platform.submit("grace", {10e9, 1e6, 1.0}, 2);
    ASSERT_TRUE(r.accepted) << r.reject_reason;
    const auto history = platform.ledger().history();
    ASSERT_EQ(history.size(), 1u);

    ga::acct::Ledger restored;
    restored.import_state(platform.ledger().export_state());
    ga::acct::JobUsage usage;
    usage.duration_s = history[0].duration_s;
    usage.energy_j = history[0].energy_j;
    usage.priced_at_s = history[0].priced_at_s;
    usage.cores = history[0].cores;
    usage.gpus = history[0].gpus;
    const auto again = restored.charge("grace", usage, desktop);
    ASSERT_TRUE(again.admitted);
    EXPECT_EQ(again.costs.at("credits"), r.cost);
}

}  // namespace
