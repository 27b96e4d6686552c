// Tests for the open routing-policy API (sim/policy.hpp): PolicySpec,
// PolicyRegistry, the builtin strategies (paper + context-aware), and
// end-to-end registry-driven simulator runs.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim_result_matchers.hpp"
#include "util/error.hpp"
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

// -------------------------------------------------------------- PolicySpec
TEST(PolicySpec, ParamLookupWithFallback) {
    const sm::PolicySpec spec{"Mixed", {{"threshold", 1.5}}};
    EXPECT_DOUBLE_EQ(spec.param("threshold", 2.0), 1.5);
    EXPECT_DOUBLE_EQ(spec.param("absent", 7.0), 7.0);
}

TEST(PolicySpec, LabelIsNameAloneOrNameWithSortedParams) {
    EXPECT_EQ((sm::PolicySpec{"Greedy", {}}.label()), "Greedy");
    EXPECT_EQ((sm::PolicySpec{"Mixed", {{"threshold", 1.5}}}.label()),
              "Mixed(threshold=1.5)");
    // std::map keeps params in key order -> deterministic labels.
    EXPECT_EQ(
        (sm::PolicySpec{"BudgetPacing", {{"slack", 2.0}, {"b", 1.0}}}.label()),
        "BudgetPacing(b=1,slack=2)");
}

// ---------------------------------------------------------- PolicyRegistry
TEST(PolicyRegistry, GlobalContainsPaperAndBeyondPaperBuiltins) {
    auto& registry = sm::PolicyRegistry::global();
    for (const auto& spec : sm::all_policies()) {
        EXPECT_TRUE(registry.contains(spec.name)) << spec.name;
        EXPECT_TRUE(spec.params.empty()) << spec.name;
    }
    for (const auto& spec : sm::beyond_paper_policies()) {
        EXPECT_TRUE(registry.contains(spec.name)) << spec.name;
    }
    const auto names = registry.names();
    EXPECT_GE(names.size(), 11u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(PolicyRegistry, UnknownNameThrowsRuntimeError) {
    EXPECT_THROW((void)sm::PolicyRegistry::global().make(
                     sm::PolicySpec{"NoSuchPolicy", {}}),
                 ga::util::RuntimeError);
}

/// Minimal strategy for registry-mechanics tests: always the first
/// feasible machine.
class FirstFeasiblePolicy final : public sm::RoutingPolicy {
public:
    std::optional<std::size_t> choose(
        const sm::SchedulingContext&,
        std::span<const sm::MachineChoice> choices) const override {
        for (std::size_t i = 0; i < choices.size(); ++i) {
            if (choices[i].feasible) return i;
        }
        return std::nullopt;
    }
    std::string_view name() const noexcept override { return "FirstFeasible"; }
};

TEST(PolicyRegistry, DuplicateRegistrationThrows) {
    // A private registry starts empty; global() is untouched by this test.
    sm::PolicyRegistry registry;
    EXPECT_FALSE(registry.contains("Greedy"));
    const auto factory = [](const sm::PolicySpec&) {
        return std::make_unique<FirstFeasiblePolicy>();
    };
    registry.register_policy("Custom", factory);
    EXPECT_TRUE(registry.contains("Custom"));
    EXPECT_THROW(registry.register_policy("Custom", factory),
                 ga::util::PreconditionError);
}

TEST(PolicyRegistry, MadePolicyReportsItsRegistryName) {
    for (const char* name : {"Greedy", "EFT", "Theta", "CarbonAware",
                             "LeastLoaded", "BudgetPacing"}) {
        const auto p =
            sm::PolicyRegistry::global().make(sm::PolicySpec{name, {}});
        EXPECT_EQ(p->name(), name);
    }
}

// -------------------------------------------------- context-aware builtins
sm::SchedulingContext make_context(std::vector<sm::ClusterStatus>& views) {
    sm::SchedulingContext ctx;
    ctx.clusters = views;
    return ctx;
}

std::vector<sm::MachineChoice> uniform_choices(std::size_t n) {
    std::vector<sm::MachineChoice> c(n);
    for (std::size_t i = 0; i < n; ++i) {
        c[i].machine_index = i;
        c[i].runtime_s = 10.0;
        c[i].energy_j = 100.0;
        c[i].cost = 50.0;
        c[i].queue_wait_s = 0.0;
    }
    return c;
}

TEST(CarbonAware, RoutesToLowestIntensityFeasibleGrid) {
    std::vector<sm::ClusterStatus> views(3);
    views[0].grid_intensity_g_per_kwh = 300.0;
    views[1].grid_intensity_g_per_kwh = 40.0;
    views[2].grid_intensity_g_per_kwh = 120.0;
    const auto ctx = make_context(views);
    auto choices = uniform_choices(3);

    const auto policy =
        sm::PolicyRegistry::global().make(sm::PolicySpec{"CarbonAware", {}});
    EXPECT_EQ(*policy->choose(ctx, choices), 1u);
    // The lowest-intensity grid is skipped when its machine is infeasible.
    choices[1].feasible = false;
    EXPECT_EQ(*policy->choose(ctx, choices), 2u);
}

TEST(CarbonAware, ForecastParamRoutesOnForecastIntensity) {
    std::vector<sm::ClusterStatus> views(2);
    views[0].grid_intensity_g_per_kwh = 100.0;  // cheap now, dirty later
    views[0].grid_forecast_g_per_kwh = 400.0;
    views[1].grid_intensity_g_per_kwh = 200.0;  // dirty now, clean later
    views[1].grid_forecast_g_per_kwh = 50.0;
    const auto ctx = make_context(views);
    const auto choices = uniform_choices(2);

    const auto now_policy =
        sm::PolicyRegistry::global().make(sm::PolicySpec{"CarbonAware", {}});
    const auto forecast_policy = sm::PolicyRegistry::global().make(
        sm::PolicySpec{"CarbonAware", {{"forecast", 1.0}}});
    EXPECT_EQ(*now_policy->choose(ctx, choices), 0u);
    EXPECT_EQ(*forecast_policy->choose(ctx, choices), 1u);
}

TEST(CarbonAware, RequiresClusterStateInContext) {
    const auto policy =
        sm::PolicyRegistry::global().make(sm::PolicySpec{"CarbonAware", {}});
    const auto choices = uniform_choices(2);
    EXPECT_THROW((void)policy->choose(sm::SchedulingContext{}, choices),
                 ga::util::PreconditionError);
}

TEST(LeastLoaded, PicksShallowestQueueWithBacklogTieBreak) {
    std::vector<sm::ClusterStatus> views(3);
    views[0].queue_depth = 4;
    views[1].queue_depth = 1;
    views[2].queue_depth = 1;
    views[1].queue_wait_s = 50.0;
    views[2].queue_wait_s = 10.0;  // same depth, smaller backlog -> wins
    const auto ctx = make_context(views);
    auto choices = uniform_choices(3);

    const auto policy =
        sm::PolicyRegistry::global().make(sm::PolicySpec{"LeastLoaded", {}});
    EXPECT_EQ(*policy->choose(ctx, choices), 2u);
    choices[2].feasible = false;
    EXPECT_EQ(*policy->choose(ctx, choices), 1u);
    choices[0].feasible = false;
    choices[1].feasible = false;
    EXPECT_FALSE(policy->choose(ctx, choices).has_value());
}

TEST(BudgetPacing, UnbudgetedDegradesToCheapest) {
    auto choices = uniform_choices(2);
    choices[0].cost = 10.0;
    choices[1].cost = 5.0;
    const auto policy =
        sm::PolicyRegistry::global().make(sm::PolicySpec{"BudgetPacing", {}});
    EXPECT_EQ(*policy->choose(sm::SchedulingContext{}, choices), 1u);
}

TEST(BudgetPacing, ConservesAheadOfScheduleAndSpendsBehindIt) {
    // Machine 0: cheap but slow. Machine 1: fast but expensive.
    auto choices = uniform_choices(2);
    choices[0].cost = 5.0;
    choices[0].runtime_s = 100.0;
    choices[1].cost = 50.0;
    choices[1].runtime_s = 10.0;

    sm::SchedulingContext ctx;
    ctx.budget_total = 1000.0;
    ctx.trace_span_s = 100.0;
    ctx.now_s = 50.0;  // schedule allows 500 spent by now

    const auto policy =
        sm::PolicyRegistry::global().make(sm::PolicySpec{"BudgetPacing", {}});
    ctx.budget_remaining = 400.0;  // spent 600 > 500: ahead -> conserve
    EXPECT_EQ(*policy->choose(ctx, choices), 0u);
    ctx.budget_remaining = 900.0;  // spent 100 < 500: behind -> spend
    EXPECT_EQ(*policy->choose(ctx, choices), 1u);
}

TEST(BudgetPacing, SlackParamScalesTheSchedule) {
    auto choices = uniform_choices(2);
    choices[0].cost = 5.0;
    choices[0].runtime_s = 100.0;
    choices[1].cost = 50.0;
    choices[1].runtime_s = 10.0;

    sm::SchedulingContext ctx;
    ctx.budget_total = 1000.0;
    ctx.trace_span_s = 100.0;
    ctx.now_s = 50.0;
    ctx.budget_remaining = 400.0;  // spent 600

    // slack 1: schedule 500 < 600 -> conserve; slack 2: 1000 > 600 -> spend.
    const auto tight =
        sm::PolicyRegistry::global().make(sm::PolicySpec{"BudgetPacing", {}});
    const auto loose = sm::PolicyRegistry::global().make(
        sm::PolicySpec{"BudgetPacing", {{"slack", 2.0}}});
    EXPECT_EQ(*tight->choose(ctx, choices), 0u);
    EXPECT_EQ(*loose->choose(ctx, choices), 1u);
}

// ----------------------------------- registry policies end-to-end in runs
TEST(ContextPolicies, RunnableByNameAndConserveJobs) {
    for (const auto& spec : sm::beyond_paper_policies()) {
        sm::SimOptions o;
        o.policy = spec;
        o.regional_grids = true;
        const auto r = shared_simulator().run(o);
        EXPECT_EQ(r.jobs_completed + r.jobs_skipped,
                  shared_simulator().workload().jobs.size())
            << spec.name;
        EXPECT_GT(r.jobs_completed, 0u) << spec.name;
    }
}

TEST(ContextPolicies, LeastLoadedSpreadsLoadAcrossAllClusters) {
    sm::SimOptions o;
    o.policy = sm::PolicySpec{"LeastLoaded", {}};
    const auto r = shared_simulator().run(o);
    // Queue balancing touches every deployed cluster (Greedy, by contrast,
    // leaves Theta idle on this workload).
    for (const auto& [machine, jobs] : r.jobs_per_machine) {
        EXPECT_GT(jobs, 0u) << machine;
    }
}

TEST(ContextPolicies, CarbonAwareFollowsTheCleanestRegionalGrid) {
    // On the regional grids the hydro region (Desktop on NO-NO2) has by far
    // the lowest intensity, so the non-forecast CarbonAware policy must
    // route every Desktop-feasible job there.
    sm::SimOptions o;
    o.policy = sm::PolicySpec{"CarbonAware", {}};
    o.regional_grids = true;
    o.pricing = {"CBA", {}};
    const auto r = shared_simulator().run(o);
    const auto& per_machine = r.jobs_per_machine;
    std::size_t elsewhere = 0;
    for (const auto& [machine, jobs] : per_machine) {
        if (machine != "Desktop") elsewhere += jobs;
    }
    EXPECT_GT(per_machine.at("Desktop"), elsewhere);
}

TEST(ContextPolicies, BudgetPacingStaysWithinBudget) {
    const double budget =
        shared_simulator().run(sm::SimOptions{}).total_cost * 0.5;
    sm::SimOptions o;
    o.policy = sm::PolicySpec{"BudgetPacing", {}};
    o.budget = budget;
    const auto r = shared_simulator().run(o);
    EXPECT_LE(r.total_cost, budget + 1e-6);
    EXPECT_GT(r.jobs_completed, 0u);
}

// ------------------------------------------------------- custom strategies
/// A user-defined policy: cheapest machine whose grid is below an intensity
/// cap, falling back to the overall cheapest when none qualifies.
class IntensityCapPolicy final : public sm::RoutingPolicy {
public:
    explicit IntensityCapPolicy(double cap) : cap_(cap) {}

    std::optional<std::size_t> choose(
        const sm::SchedulingContext& ctx,
        std::span<const sm::MachineChoice> choices) const override {
        std::optional<std::size_t> best, best_capped;
        double best_cost = 1e300, best_capped_cost = 1e300;
        for (std::size_t i = 0; i < choices.size(); ++i) {
            if (!choices[i].feasible) continue;
            if (choices[i].cost < best_cost) {
                best_cost = choices[i].cost;
                best = i;
            }
            if (choices[i].machine_index >= ctx.clusters.size()) continue;
            const auto& cluster = ctx.clusters[choices[i].machine_index];
            if (cluster.grid_intensity_g_per_kwh <= cap_ &&
                choices[i].cost < best_capped_cost) {
                best_capped_cost = choices[i].cost;
                best_capped = i;
            }
        }
        return best_capped ? best_capped : best;
    }
    std::string_view name() const noexcept override { return "IntensityCap"; }

private:
    double cap_;
};

TEST(CustomPolicy, RegisteredStrategyRunsThroughSimulatorAndSweep) {
    auto& registry = sm::PolicyRegistry::global();
    if (!registry.contains("IntensityCap")) {
        registry.register_policy("IntensityCap", [](const sm::PolicySpec& s) {
            return std::make_unique<IntensityCapPolicy>(
                s.param("cap", 200.0));
        });
    }

    sm::SimOptions o;
    o.policy = sm::PolicySpec{"IntensityCap", {{"cap", 100.0}}};
    o.regional_grids = true;
    o.finish_times = true;
    const auto direct = shared_simulator().run(o);
    EXPECT_EQ(direct.jobs_completed + direct.jobs_skipped,
              shared_simulator().workload().jobs.size());

    // And by name through the sweep engine, bit-identical to the direct run.
    sm::SweepGrid grid;
    grid.policies = {sm::PolicySpec{"IntensityCap", {{"cap", 100.0}}}};
    grid.regional_grids = {true};
    grid.base.finish_times = true;
    sm::SweepRunner runner(shared_simulator(), 2);
    const auto outcomes = runner.run(grid);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].spec.label, "IntensityCap(cap=100)/EBA/regional");
    expect_identical(outcomes[0].result, direct);
}

}  // namespace
