// Tests for the scenario-sweep engine (sim/sweep.hpp) and the threading
// utilities behind it (util/parallel.hpp): grid expansion, parallel/serial
// bit-identity over a shared simulator, and the new scenario dimensions
// (cluster outages, arrival-burst compression).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/sweep.hpp"
#include "sim_result_matchers.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "workload/workload.hpp"

namespace {

namespace sm = ga::sim;
namespace wl = ga::workload;
using ga::testutil::expect_identical;

const sm::BatchSimulator& shared_simulator() {
    static const sm::BatchSimulator simulator = [] {
        wl::TraceOptions o;
        o.base_jobs = 2000;
        o.users = 50;
        o.span_days = 6.0;
        o.seed = 21;
        return sm::BatchSimulator(wl::build_workload(o));
    }();
    return simulator;
}

// ----------------------------------------------------------- util/parallel
TEST(Parallel, ParallelForCoversEveryIndexExactlyOnce) {
    std::vector<std::atomic<int>> hits(1000);
    ga::util::parallel_for(hits.size(), 8,
                           [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ParallelForSingleThreadIsPlainLoop) {
    std::vector<int> order;
    ga::util::parallel_for(5, 1, [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Parallel, ParallelForPropagatesExceptions) {
    EXPECT_THROW(ga::util::parallel_for(
                     100, 4,
                     [](std::size_t i) {
                         if (i == 17) throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
}

TEST(Parallel, ThreadPoolRunsEveryTaskAndIsReusable) {
    ga::util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 50; ++i) {
            pool.submit([&count] { count.fetch_add(1); });
        }
        pool.wait_idle();
        EXPECT_EQ(count.load(), (batch + 1) * 50);
    }
}

// ------------------------------------------------------------- SweepGrid
TEST(SweepGrid, EmptyGridExpandsToSingleDefaultScenario) {
    const sm::SweepGrid grid;
    EXPECT_EQ(grid.size(), 1u);
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].options.policy, (sm::PolicySpec{"Greedy", {}}));
    EXPECT_EQ(specs[0].options.pricing, (ga::acct::AccountantSpec{"EBA", {}}));
    EXPECT_EQ(specs[0].options.budget, 0.0);
    EXPECT_FALSE(specs[0].options.outage.has_value());
}

TEST(SweepGrid, ExpansionIsCartesianProductInDeclaredOrder) {
    sm::SweepGrid grid;
    grid.policies = {sm::PolicySpec{"Greedy", {}}, sm::PolicySpec{"EFT", {}}};
    grid.budgets = {100.0, 0.0};
    grid.arrival_compressions = {1.0, 4.0};
    EXPECT_EQ(grid.size(), 8u);
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 8u);
    // Policies vary slowest, compressions fastest.
    EXPECT_EQ(specs[0].options.policy.name, "Greedy");
    EXPECT_EQ(specs[0].options.budget, 100.0);
    EXPECT_EQ(specs[0].options.arrival_compression, 1.0);
    EXPECT_EQ(specs[1].options.arrival_compression, 4.0);
    EXPECT_EQ(specs[2].options.budget, 0.0);
    EXPECT_EQ(specs[4].options.policy.name, "EFT");
    // Labels are unique scenario identifiers.
    for (std::size_t a = 0; a < specs.size(); ++a) {
        for (std::size_t b = a + 1; b < specs.size(); ++b) {
            EXPECT_NE(specs[a].label, specs[b].label);
        }
    }
}

TEST(SweepGrid, PolicySpecsExtendThePolicyAxis) {
    sm::SweepGrid grid;
    grid.policies = {sm::PolicySpec{"Greedy", {}}, sm::PolicySpec{"EFT", {}},
                     sm::PolicySpec{"CarbonAware", {}},
                     sm::PolicySpec{"Mixed", {{"threshold", 1.5}}}};
    grid.budgets = {100.0};
    EXPECT_EQ(grid.size(), 4u);
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 4u);
    // Paper and context-aware policies share the one axis, in order.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(specs[i].options.policy, grid.policies[i]);
    }
    EXPECT_EQ(specs[0].label, "Greedy/EBA/budget=100");
    EXPECT_EQ(specs[2].label, "CarbonAware/EBA/budget=100");
    EXPECT_EQ(specs[3].label, "Mixed(threshold=1.5)/EBA/budget=100");
}

TEST(SweepGrid, AccountantSpecsExtendThePricingAxis) {
    sm::SweepGrid grid;
    grid.policies = {sm::PolicySpec{"Greedy", {}}};
    grid.pricings = {ga::acct::AccountantSpec{"EBA", {}},
                     ga::acct::AccountantSpec{"CBA", {}},
                     ga::acct::AccountantSpec{"Blended", {}},
                     ga::acct::AccountantSpec{"EBA", {{"beta", 0.5}}}};
    EXPECT_EQ(grid.size(), 4u);
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 4u);
    // Paper and composite methods share the one axis, in order.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(specs[i].options.pricing, grid.pricings[i]);
    }
    EXPECT_DOUBLE_EQ(specs[3].options.pricing.param("beta", 1.0), 0.5);
    EXPECT_EQ(specs[0].label, "Greedy/EBA");
    EXPECT_EQ(specs[2].label, "Greedy/Blended");
    EXPECT_EQ(specs[3].label, "Greedy/EBA(beta=0.5)");
}

TEST(SweepGrid, MixedThresholdSpecsRunTheirThresholdUnderTheirWrittenLabel) {
    // A threshold sweep is one Mixed spec per value. Each point runs its
    // spec's threshold, and its label is the spec as written, so a bare
    // "Mixed" (default threshold 2) stays bare.
    sm::SweepGrid grid;
    grid.base.finish_times = true;
    grid.policies = {sm::PolicySpec{"Mixed", {{"threshold", 1.25}}},
                     sm::PolicySpec{"Mixed", {{"threshold", 100.0}}},
                     sm::PolicySpec{"Mixed", {}}};
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].label, "Mixed(threshold=1.25)/EBA");
    EXPECT_EQ(specs[1].label, "Mixed(threshold=100)/EBA");
    EXPECT_EQ(specs[2].label, "Mixed/EBA");
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(specs[i].options.policy, grid.policies[i]);
    }

    sm::SweepRunner runner(shared_simulator(), 2);
    const auto outcomes = runner.run(specs);
    const double ran[] = {1.25, 100.0, 2.0};
    for (std::size_t i = 0; i < specs.size(); ++i) {
        sm::SimOptions direct;
        direct.finish_times = true;
        direct.policy = sm::PolicySpec{"Mixed", {{"threshold", ran[i]}}};
        expect_identical(outcomes[i].result, shared_simulator().run(direct));
    }
    // The thresholds route differently: a low one chases completion time.
    EXPECT_NE(outcomes[0].result.total_cost, outcomes[1].result.total_cost);
}

TEST(SweepGrid, SpecOnlyGridNeedsNoEnumAxis) {
    sm::SweepGrid grid;
    grid.policies = {sm::PolicySpec{"LeastLoaded", {}}};
    EXPECT_EQ(grid.size(), 1u);
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].label, "LeastLoaded/EBA");
}

// ------------------------------------------------------------ SweepRunner
TEST(SweepRunner, ParallelResultsBitIdenticalToSerial) {
    // A full policy x pricing x budget grid over every field a route quote
    // reads (pricing, regional grids, grid seed, arrival compression), run
    // over 4 worker threads and compared field-for-field against serial
    // BatchSimulator::run calls. The sweep shares one quote table among the
    // 8 points of each of the 16 quote keys; each direct run builds its
    // own, so a key that merged two pricings would show here.
    const double budget =
        shared_simulator().run(sm::SimOptions{}).total_cost * 0.5;
    sm::SweepGrid grid;
    grid.base.finish_times = true;
    grid.policies = {sm::PolicySpec{"Greedy", {}}, sm::PolicySpec{"Energy", {}},
                     sm::PolicySpec{"EFT", {}}, sm::PolicySpec{"Mixed", {}}};
    grid.pricings = {ga::acct::AccountantSpec{"EBA", {}},
                     ga::acct::AccountantSpec{"CBA", {}}};
    grid.budgets = {0.0, budget};
    grid.regional_grids = {false, true};
    grid.grid_seeds = {77, 5};
    grid.arrival_compressions = {1.0, 4.0};
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 128u);

    sm::SweepRunner runner(shared_simulator(), 4);
    EXPECT_EQ(runner.threads(), 4u);
    const auto parallel = runner.run(specs);
    const auto serial = runner.run_serial(specs);
    ASSERT_EQ(parallel.size(), specs.size());
    ASSERT_EQ(serial.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(parallel[i].spec.label, specs[i].label);
        expect_identical(parallel[i].result, serial[i].result);
        // And against a direct run of the same options.
        expect_identical(parallel[i].result,
                         shared_simulator().run(specs[i].options));
    }
}

TEST(SweepRunner, OneKeyPerPointMatchesDirectRuns) {
    // ga-bench's sweep shape: every point its own arrival compression, so
    // its own quote key and table, each built when its point starts and
    // freed when it finishes. Serial and on 2 threads, each point must
    // equal a direct run of its options.
    sm::SweepGrid grid;
    grid.base.finish_times = true;
    grid.arrival_compressions = {1.0, 1.0 + 1e-9, 1.5, 2.0, 3.0, 4.0};
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 6u);

    sm::SweepRunner runner(shared_simulator(), 2);
    const auto parallel = runner.run(specs);
    const auto serial = runner.run_serial(specs);
    ASSERT_EQ(parallel.size(), specs.size());
    ASSERT_EQ(serial.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(parallel[i].spec.label, specs[i].label);
        const auto direct = shared_simulator().run(specs[i].options);
        expect_identical(parallel[i].result, direct);
        expect_identical(serial[i].result, direct);
    }
}

TEST(SweepRunner, RegistryPoliciesParallelBitIdenticalToSerial) {
    // The acceptance bar for the open policy API: the three beyond-paper
    // context-aware policies, swept by name alongside a paper policy, keep
    // the engine's parallel == serial bit-identity guarantee.
    const double budget =
        shared_simulator().run(sm::SimOptions{}).total_cost * 0.5;
    sm::SweepGrid grid;
    grid.policies = {sm::PolicySpec{"Greedy", {}}};
    grid.policies.insert(grid.policies.end(),
                         sm::beyond_paper_policies().begin(),
                         sm::beyond_paper_policies().end());
    grid.budgets = {0.0, budget};
    grid.regional_grids = {true};
    grid.base.finish_times = true;
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 8u);

    sm::SweepRunner runner(shared_simulator(), 4);
    const auto parallel = runner.run(specs);
    const auto serial = runner.run_serial(specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(parallel[i].spec.label, specs[i].label);
        expect_identical(parallel[i].result, serial[i].result);
        expect_identical(parallel[i].result,
                         shared_simulator().run(specs[i].options));
    }
}

TEST(SweepRunner, BudgetLaddersMatchDirectRuns) {
    // Each (policy, pricing, outage) triple has four budgets, one of them
    // twice. Greedy reads the cost, so each of its triples is a ladder;
    // EFT, Theta and LeastLoaded read neither cost nor budget, so each of
    // their (policy, outage) pairs is one ladder over both pricings;
    // BudgetPacing reads the budget, so its points run alone. The budgets
    // come from both pricings' unbudgeted costs, so some bind under each.
    // The outage strands queued jobs mid-trace. On the pool and serially,
    // every point equals a direct run, the sweep counts points and runs,
    // and the ladders' routing decisions are pinned: 171,918, against
    // 320,000 for one run per point.
    const double eba = shared_simulator().run(sm::SimOptions{}).total_cost;
    sm::SimOptions cba_options;
    cba_options.pricing = {"CBA", {}};
    const double cba = shared_simulator().run(cba_options).total_cost;
    sm::SweepGrid grid;
    grid.base.finish_times = true;
    grid.policies = {sm::PolicySpec{"Greedy", {}}, sm::PolicySpec{"EFT", {}},
                     sm::PolicySpec{"Theta", {}},
                     sm::PolicySpec{"BudgetPacing", {}},
                     sm::PolicySpec{"LeastLoaded", {}}};
    grid.pricings = {{"EBA", {}}, {"CBA", {}}};
    grid.budgets = {0.4 * eba, 0.0, 0.8 * cba, 0.4 * eba};
    grid.outages = {std::nullopt, sm::ClusterOutage{0, 2.0 * 86400.0, 32}};
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 80u);

    const bool prior = ga::obs::metrics_enabled();
    ga::obs::set_metrics_enabled(true);
    auto& registry = ga::obs::Registry::global();
    const auto& points = registry.counter_handle("sweep.points_completed");
    const auto& runs = registry.counter_handle("sim.runs");
    const auto& decisions = registry.counter_handle("sim.route.decisions");
    const std::uint64_t points_before = points.value();
    const std::uint64_t runs_before = runs.value();
    const std::uint64_t decisions_before = decisions.value();
    sm::SweepRunner runner(shared_simulator(), 4);
    const auto parallel = runner.run(specs);
    EXPECT_EQ(points.value() - points_before, specs.size());
    EXPECT_EQ(runs.value() - runs_before, specs.size());
    const std::uint64_t pooled_decisions = decisions.value() - decisions_before;
    const auto serial = runner.run_serial(specs);
    const std::uint64_t serial_decisions =
        decisions.value() - decisions_before - pooled_decisions;
    ga::obs::set_metrics_enabled(prior);
    EXPECT_EQ(pooled_decisions, 171918u);
    EXPECT_EQ(serial_decisions, 171918u);

    ASSERT_EQ(parallel.size(), specs.size());
    ASSERT_EQ(serial.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].label);
        EXPECT_EQ(parallel[i].spec, specs[i]);
        EXPECT_EQ(serial[i].spec, specs[i]);
        const auto direct = shared_simulator().run(specs[i].options);
        expect_identical(parallel[i].result, direct);
        expect_identical(serial[i].result, direct);
    }
}

/// `options` over `table`, as a ladder of one.
sm::SimResult run_over(const sm::SimOptions& options, const sm::QuoteTable& table) {
    sm::SimResult result;
    const sm::QuoteTable* const tables[] = {&table};
    shared_simulator().run_ladder(
        std::span(&options, 1), tables,
        [&](std::size_t /*member*/, const sm::SimResult& r) { result = r; });
    return result;
}

TEST(QuoteTable, RunsShareATableOnlyWhenTheyPriceAlike) {
    sm::SimOptions o;
    o.finish_times = true;
    const sm::QuoteTable table =
        shared_simulator().quote_table(sm::QuoteKey::of(o));
    ASSERT_EQ(table.quotes.size(), shared_simulator().workload().jobs.size() *
                                       shared_simulator().clusters().size());
    expect_identical(run_over(o, table), shared_simulator().run(o));

    // Policy, budget and outage never reach a quote: the table serves.
    sm::SimOptions other = o;
    other.policy = {"EFT", {}};
    other.budget = 1e9;
    other.outage = sm::ClusterOutage{0, 3600.0, 4};
    expect_identical(run_over(other, table), shared_simulator().run(other));

    // Each of the four quote fields makes the table another run's.
    std::vector<sm::SimOptions> refused(4, o);
    refused[0].pricing = {"CBA", {}};
    refused[1].regional_grids = true;
    refused[2].grid_seed = 5;
    refused[3].arrival_compression = 2.0;
    for (const sm::SimOptions& options : refused) {
        EXPECT_THROW((void)run_over(options, table),
                     ga::util::PreconditionError);
    }
}

TEST(SweepRunner, RunnerIsReusableAcrossGrids) {
    sm::SweepRunner runner(shared_simulator(), 2);
    sm::SweepGrid a;
    a.policies = {sm::PolicySpec{"Greedy", {}}};
    sm::SweepGrid b;
    b.policies = {sm::PolicySpec{"EFT", {}}};
    const auto ra = runner.run(a);
    const auto rb = runner.run(b);
    ASSERT_EQ(ra.size(), 1u);
    ASSERT_EQ(rb.size(), 1u);
    EXPECT_GT(ra[0].result.jobs_completed, 0u);
    EXPECT_GT(rb[0].result.jobs_completed, 0u);
}

// -------------------------------------------- new scenario dimensions
TEST(Scenario, FullOutageAtStartSkipsEverythingOnFixedPolicy) {
    // Theta (cluster 3, 64 nodes) loses every node before the first submit;
    // the Theta-pinned policy then finds no feasible machine for any job.
    sm::SimOptions o;
    o.policy = {"Theta", {}};
    o.outage = sm::ClusterOutage{3, 0.0, 64};
    const auto r = shared_simulator().run(o);
    EXPECT_EQ(r.jobs_completed, 0u);
    EXPECT_EQ(r.jobs_skipped, shared_simulator().workload().jobs.size());
    EXPECT_EQ(r.total_cost, 0.0);
}

TEST(Scenario, PartialOutageConservesJobsAndDegradesService) {
    sm::SimOptions baseline;
    baseline.policy = {"FASTER", {}};
    sm::SimOptions outage = baseline;
    outage.outage = sm::ClusterOutage{0, 86400.0, 31};  // 32 -> 1 node
    const auto a = shared_simulator().run(baseline);
    const auto b = shared_simulator().run(outage);
    EXPECT_EQ(b.jobs_completed + b.jobs_skipped,
              shared_simulator().workload().jobs.size());
    // Shrinking the pinned cluster can only delay completions.
    EXPECT_GE(b.makespan_s, a.makespan_s);
    EXPECT_LE(b.jobs_completed, a.jobs_completed);
}

TEST(Scenario, ArrivalCompressionPreservesJobsAndPullsWorkEarlier) {
    sm::SimOptions baseline;
    baseline.finish_times = true;
    sm::SimOptions burst = baseline;
    burst.arrival_compression = 8.0;
    const auto a = shared_simulator().run(baseline);
    const auto b = shared_simulator().run(burst);
    EXPECT_EQ(b.jobs_completed, a.jobs_completed);
    ASSERT_FALSE(a.finish_times_s.empty());
    const auto mean = [](const std::vector<double>& v) {
        return std::accumulate(v.begin(), v.end(), 0.0) /
               static_cast<double>(v.size());
    };
    // Arrivals land 8x earlier, so on average jobs finish earlier even
    // though queues get more contended.
    EXPECT_LT(mean(b.finish_times_s), mean(a.finish_times_s));
}

TEST(Scenario, InvalidScenarioOptionsAreRejected) {
    sm::SimOptions bad_compression;
    bad_compression.arrival_compression = 0.0;
    EXPECT_THROW((void)shared_simulator().run(bad_compression),
                 ga::util::PreconditionError);
    sm::SimOptions bad_cluster;
    bad_cluster.outage = sm::ClusterOutage{99, 0.0, 1};
    EXPECT_THROW((void)shared_simulator().run(bad_cluster),
                 ga::util::PreconditionError);
}

}  // namespace
