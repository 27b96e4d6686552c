// Observability module suite: exact-sum metrics under a thread ladder,
// deterministic expositions, the span tracer's golden byte format, and the
// contract the whole module hangs on — instrumentation never perturbs
// simulation results.
//
// The metrics/tracing switches are process-global, so every test that flips
// one uses an RAII guard restoring the previous state; isolated Registry /
// Tracer instances keep renders free of cross-test (and cross-module)
// instruments.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim_result_matchers.hpp"
#include "util/error.hpp"
#include "workload/workload.hpp"

namespace {

namespace obs = ga::obs;
namespace sm = ga::sim;
namespace wl = ga::workload;

/// Scoped metrics switch; restores the prior state on exit.
struct MetricsSwitch {
    explicit MetricsSwitch(bool on) : prior(obs::metrics_enabled()) {
        obs::set_metrics_enabled(on);
    }
    ~MetricsSwitch() { obs::set_metrics_enabled(prior); }
    bool prior;
};

/// Scoped tracing switch; restores the prior state on exit.
struct TracingSwitch {
    explicit TracingSwitch(bool on) : prior(obs::tracing_enabled()) {
        obs::set_tracing_enabled(on);
    }
    ~TracingSwitch() { obs::set_tracing_enabled(prior); }
    bool prior;
};

// ---------------------------------------------------------------- metrics

TEST(ObsCounter, ExactSumAcrossThreadLadder) {
    const MetricsSwitch metrics(true);
    obs::Registry registry;
    obs::Counter& counter = registry.counter_handle("test.ladder");
    constexpr std::uint64_t kIncsPerThread = 25'000;
    std::uint64_t expected = 0;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        std::vector<std::thread> workers;
        workers.reserve(threads);
        for (unsigned t = 0; t < threads; ++t) {
            workers.emplace_back([&counter] {
                for (std::uint64_t i = 0; i < kIncsPerThread; ++i) {
                    counter.inc();
                }
            });
        }
        for (auto& w : workers) w.join();
        expected += threads * kIncsPerThread;
        // Exact, not approximate: striped relaxed adds lose nothing once
        // the writers have joined.
        EXPECT_EQ(counter.value(), expected) << threads << " threads";
    }
    counter.inc(42);
    EXPECT_EQ(counter.value(), expected + 42);
}

TEST(ObsCounter, DisabledRecordsNothing) {
    const MetricsSwitch metrics(false);
    obs::Registry registry;
    obs::Counter& counter = registry.counter_handle("test.off");
    counter.inc();
    counter.inc(100);
    EXPECT_EQ(counter.value(), 0u);
}

TEST(ObsGauge, SetAndAddValue) {
    const MetricsSwitch metrics(true);
    obs::Registry registry;
    obs::Gauge& gauge = registry.gauge_handle("test.gauge");
    EXPECT_EQ(gauge.value(), 0.0);
    gauge.set_value(2.5);
    EXPECT_EQ(gauge.value(), 2.5);
    gauge.add_value(1.0);
    gauge.add_value(-0.5);
    EXPECT_EQ(gauge.value(), 3.0);
}

TEST(ObsHistogram, BucketBoundariesFollowPrometheusLeSemantics) {
    const MetricsSwitch metrics(true);
    obs::Registry registry;
    obs::Histogram& h = registry.histogram_handle("test.hist", {1.0, 2.0, 5.0});
    ASSERT_EQ(h.bucket_count(), 4u);  // three bounds + the +Inf bucket
    h.observe(0.5);  // <= 1
    h.observe(1.0);  // <= 1 (le is inclusive)
    h.observe(1.5);  // <= 2
    h.observe(2.0);  // <= 2
    h.observe(5.0);  // <= 5
    h.observe(7.0);  // +Inf
    EXPECT_EQ(h.bucket_value(0), 2u);
    EXPECT_EQ(h.bucket_value(1), 2u);
    EXPECT_EQ(h.bucket_value(2), 1u);
    EXPECT_EQ(h.bucket_value(3), 1u);
    EXPECT_EQ(h.total_count(), 6u);
    // All observed values add without rounding, so the sum is exact.
    EXPECT_EQ(h.total_sum(), 17.0);
}

TEST(ObsHistogram, ConcurrentObservationsSumExactly) {
    const MetricsSwitch metrics(true);
    obs::Registry registry;
    obs::Histogram& h = registry.histogram_handle("test.conc", {0.5, 1.5});
    constexpr std::uint64_t kPerThread = 10'000;
    constexpr unsigned kThreads = 8;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&h] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) h.observe(1.0);
        });
    }
    for (auto& w : workers) w.join();
    const std::uint64_t expected = kThreads * kPerThread;
    EXPECT_EQ(h.total_count(), expected);
    EXPECT_EQ(h.bucket_value(1), expected);  // 1.0 lands in the le=1.5 bucket
    EXPECT_EQ(h.total_sum(), static_cast<double>(expected));
}

TEST(ObsHistogram, ReregistrationWithDifferentBoundsThrows) {
    obs::Registry registry;
    registry.histogram_handle("test.fixed", {1.0, 2.0});
    EXPECT_THROW(registry.histogram_handle("test.fixed", {1.0, 3.0}),
                 ga::util::PreconditionError);
    // Same bounds resolve to the same instrument.
    obs::Histogram& again = registry.histogram_handle("test.fixed", {1.0, 2.0});
    EXPECT_EQ(again.name(), "test.fixed");
}

TEST(ObsRegistry, PrometheusRenderIsByteStable) {
    const MetricsSwitch metrics(true);
    obs::Registry registry;
    registry.counter_handle("sim.runs").inc(3);
    registry.gauge_handle("g").set_value(1.5);
    obs::Histogram& lat = registry.histogram_handle("lat", {1.0, 2.0});
    lat.observe(0.5);
    lat.observe(3.0);
    EXPECT_EQ(registry.render_prometheus(),
              "# TYPE ga_sim_runs counter\n"
              "ga_sim_runs 3\n"
              "# TYPE ga_g gauge\n"
              "ga_g 1.5\n"
              "# TYPE ga_lat histogram\n"
              "ga_lat_bucket{le=\"1\"} 1\n"
              "ga_lat_bucket{le=\"2\"} 1\n"
              "ga_lat_bucket{le=\"+Inf\"} 2\n"
              "ga_lat_sum 3.5\n"
              "ga_lat_count 2\n");
}

TEST(ObsRegistry, JsonRenderIsByteStableAndParses) {
    const MetricsSwitch metrics(true);
    obs::Registry registry;
    registry.counter_handle("sim.runs").inc(3);
    registry.gauge_handle("g").set_value(1.5);
    obs::Histogram& lat = registry.histogram_handle("lat", {1.0, 2.0});
    lat.observe(0.5);
    lat.observe(3.0);
    const std::string text = registry.render_json();
    EXPECT_EQ(text,
              "{\"counters\":{\"sim.runs\":3},"
              "\"gauges\":{\"g\":1.5},"
              "\"histograms\":{\"lat\":{\"bounds\":[1,2],\"counts\":[1,0,1],"
              "\"sum\":3.5,\"count\":2}}}");
    // The hand-rolled writer (obs cannot include io/json — io is a higher
    // layer) must still produce strict JSON the io parser accepts.
    const ga::io::JsonValue doc = ga::io::parse_json(text);
    ASSERT_TRUE(doc.is_object());
    ASSERT_NE(doc.find("counters"), nullptr);
    EXPECT_EQ(doc.at("counters").at("sim.runs").as_number(), 3.0);
    EXPECT_EQ(doc.at("histograms").at("lat").at("count").as_number(), 2.0);
}

TEST(ObsRegistry, ZeroAllResetsValuesButKeepsInstruments) {
    const MetricsSwitch metrics(true);
    obs::Registry registry;
    obs::Counter& counter = registry.counter_handle("z.c");
    obs::Gauge& gauge = registry.gauge_handle("z.g");
    obs::Histogram& h = registry.histogram_handle("z.h", {1.0});
    counter.inc(5);
    gauge.set_value(2.0);
    h.observe(0.5);
    registry.zero_all();
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(gauge.value(), 0.0);
    EXPECT_EQ(h.total_count(), 0u);
    EXPECT_EQ(h.total_sum(), 0.0);
    // The handles stay valid and usable after the reset.
    counter.inc();
    EXPECT_EQ(counter.value(), 1u);
}

// ---------------------------------------------------------------- tracing

TEST(ObsTracer, ChromeTraceGoldenBytes) {
    const TracingSwitch tracing(true);
    obs::Tracer tracer;
    tracer.span_begin("sim.drain", 0.0);
    tracer.span_instant("sim.submit", 1.0);
    tracer.span_end("sim.drain", 2.0);
    // Logical-time-only events recorded from one thread render to exactly
    // these bytes — the determinism the --trace golden ctest leans on.
    EXPECT_EQ(tracer.render_chrome_trace(),
              "{\"traceEvents\":[\n"
              "{\"name\":\"sim.drain\",\"ph\":\"B\",\"ts\":0,\"pid\":0,"
              "\"tid\":0},\n"
              "{\"name\":\"sim.submit\",\"ph\":\"i\",\"ts\":1e+06,\"pid\":0,"
              "\"tid\":0,\"s\":\"t\"},\n"
              "{\"name\":\"sim.drain\",\"ph\":\"E\",\"ts\":2e+06,\"pid\":0,"
              "\"tid\":0}\n"
              "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(ObsTracer, ChromeTraceParsesWithExpectedEventSchema) {
    const TracingSwitch tracing(true);
    obs::Tracer tracer;
    tracer.span_begin("a", 0.25);
    tracer.span_end("a", 0.75);
    tracer.span_instant("b", 0.5);
    const ga::io::JsonValue doc =
        ga::io::parse_json(tracer.render_chrome_trace());
    ASSERT_TRUE(doc.is_object());
    const ga::io::JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    ASSERT_EQ(events->as_array().size(), 3u);
    for (const auto& event : events->as_array()) {
        ASSERT_TRUE(event.is_object());
        for (const std::string_view key : {"name", "ph", "ts", "pid", "tid"}) {
            EXPECT_NE(event.find(key), nullptr) << "missing \"" << key << "\"";
        }
    }
    // Events are globally sorted by logical timestamp.
    EXPECT_EQ(events->as_array()[0].at("ts").as_number(), 0.25 * 1e6);
    EXPECT_EQ(events->as_array()[1].at("ts").as_number(), 0.5 * 1e6);
    EXPECT_EQ(events->as_array()[2].at("ts").as_number(), 0.75 * 1e6);
}

TEST(ObsTracer, DisabledRecordsNothing) {
    const TracingSwitch tracing(false);
    obs::Tracer tracer;
    tracer.span_begin("x", 0.0);
    tracer.span_end("x", 1.0);
    EXPECT_EQ(tracer.recorded_events(), 0u);
    EXPECT_EQ(tracer.render_chrome_trace(),
              "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(ObsTracer, RingWrapsOverwritingOldestAndCountsDrops) {
    const TracingSwitch tracing(true);
    obs::Tracer tracer;
    const std::size_t total = obs::kTraceRingCapacity + 5;
    for (std::size_t i = 0; i < total; ++i) {
        tracer.span_instant("tick", static_cast<double>(i));
    }
    EXPECT_EQ(tracer.recorded_events(), obs::kTraceRingCapacity);
    EXPECT_EQ(tracer.dropped_events(), 5u);
    tracer.discard_events();
    EXPECT_EQ(tracer.recorded_events(), 0u);
    EXPECT_EQ(tracer.dropped_events(), 0u);
}

// ------------------------------------------------- results never perturbed

TEST(ObsDeterminism, SimResultsByteIdenticalWithInstrumentationOn) {
    wl::TraceOptions trace;
    trace.base_jobs = 500;
    trace.users = 20;
    trace.span_days = 1.0;
    trace.seed = 99;
    const sm::BatchSimulator sim(wl::build_workload(trace));
    sm::SimOptions options;
    options.finish_times = true;

    const auto baseline = sim.run(options);
    {
        const MetricsSwitch metrics(true);
        const TracingSwitch tracing(true);
        const auto instrumented = sim.run(options);
        ga::testutil::expect_identical(baseline, instrumented);
    }
    // And again with everything back off, proving the switches left no
    // residue in simulation state.
    ga::testutil::expect_identical(baseline, sim.run(options));
}

TEST(ObsDeterminism, ParallelSweepIdenticalWithInstrumentationOn) {
    wl::TraceOptions trace;
    trace.base_jobs = 200;
    trace.users = 10;
    trace.span_days = 1.0;
    trace.seed = 7;
    const sm::BatchSimulator sim(wl::build_workload(trace));

    sm::SweepGrid grid;
    grid.base.finish_times = true;
    grid.grid_seeds = {1, 2, 3, 4, 5, 6};
    const auto specs = grid.expand();

    sm::SweepRunner runner(sim, 4);
    const auto baseline = runner.run(specs);
    const MetricsSwitch metrics(true);
    const TracingSwitch tracing(true);
    const auto instrumented = runner.run(specs);
    ASSERT_EQ(baseline.size(), instrumented.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(baseline[i].spec.label, instrumented[i].spec.label);
        ga::testutil::expect_identical(baseline[i].result,
                                       instrumented[i].result);
    }
}

}  // namespace
