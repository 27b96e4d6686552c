// Tests for the batch simulator: engine invariants, policy semantics, budget
// truncation, scheduling/accounting regressions on hand-crafted traces, and
// the paper's §5 orderings on a reduced workload.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "carbon/grids.hpp"
#include "machine/catalog.hpp"
#include "sim/policy.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace {

namespace sm = ga::sim;
namespace wl = ga::workload;
namespace mc = ga::machine;

const sm::BatchSimulator& shared_simulator() {
    static const sm::BatchSimulator simulator = [] {
        wl::TraceOptions o;
        o.base_jobs = 4000;
        o.users = 80;
        o.span_days = 6.0;
        o.seed = 21;
        return sm::BatchSimulator(wl::build_workload(o));
    }();
    return simulator;
}

sm::SimResult run_policy(sm::Policy p, ga::acct::Method pricing,
                         double budget = 0.0) {
    sm::SimOptions o;
    o.policy = p;
    o.pricing = pricing;
    o.budget = budget;
    return shared_simulator().run(o);
}

// ---------------------------------------------------------------- policies
TEST(Policy, NamesAndSets) {
    EXPECT_EQ(sm::all_policies().size(), 8u);
    EXPECT_EQ(sm::multi_machine_policies().size(), 5u);
    EXPECT_EQ(sm::to_string(sm::Policy::Eft), "EFT");
    EXPECT_TRUE(sm::is_fixed(sm::Policy::FixedTheta));
    EXPECT_FALSE(sm::is_fixed(sm::Policy::Greedy));
    EXPECT_EQ(sm::fixed_machine_name(sm::Policy::FixedFaster), "FASTER");
}

std::vector<sm::MachineChoice> three_choices() {
    std::vector<sm::MachineChoice> c(3);
    for (std::size_t i = 0; i < 3; ++i) c[i].machine_index = i;
    c[0].runtime_s = 10.0;
    c[0].energy_j = 100.0;
    c[0].cost = 50.0;
    c[0].queue_wait_s = 0.0;
    c[1].runtime_s = 5.0;
    c[1].energy_j = 200.0;
    c[1].cost = 30.0;
    c[1].queue_wait_s = 100.0;
    c[2].runtime_s = 20.0;
    c[2].energy_j = 50.0;
    c[2].cost = 40.0;
    c[2].queue_wait_s = 0.0;
    return c;
}

TEST(Policy, ChoicesMatchDefinitions) {
    const auto c = three_choices();
    EXPECT_EQ(*sm::choose_machine(sm::Policy::Greedy, c), 1u);   // min cost
    EXPECT_EQ(*sm::choose_machine(sm::Policy::Energy, c), 2u);   // min energy
    EXPECT_EQ(*sm::choose_machine(sm::Policy::Runtime, c), 1u);  // min runtime
    EXPECT_EQ(*sm::choose_machine(sm::Policy::Eft, c), 0u);      // min wait+run
}

TEST(Policy, MixedSwitchesWhenTwiceAsFast) {
    auto c = three_choices();
    // Cheapest is index 1 (completion 105 s); index 0 completes in 10 s,
    // more than 2x faster -> Mixed picks 0.
    EXPECT_EQ(*sm::choose_machine(sm::Policy::Mixed, c, 2.0), 0u);
    // With a huge threshold the rule never triggers -> cheapest.
    EXPECT_EQ(*sm::choose_machine(sm::Policy::Mixed, c, 100.0), 1u);
}

TEST(Policy, InfeasibleMachinesSkipped) {
    auto c = three_choices();
    c[1].feasible = false;
    EXPECT_EQ(*sm::choose_machine(sm::Policy::Greedy, c), 2u);
    c[0].feasible = false;
    c[2].feasible = false;
    EXPECT_FALSE(sm::choose_machine(sm::Policy::Greedy, c).has_value());
}

TEST(Policy, FixedUsesProvidedIndex) {
    const auto c = three_choices();
    EXPECT_EQ(*sm::choose_machine(sm::Policy::FixedTheta, c, 2.0, 2u), 2u);
    EXPECT_THROW((void)sm::choose_machine(sm::Policy::FixedTheta, c),
                 ga::util::PreconditionError);
}

TEST(Policy, AllMachinesInfeasibleReturnsNulloptForEveryPolicy) {
    auto c = three_choices();
    for (auto& choice : c) choice.feasible = false;
    for (const auto p : sm::all_policies()) {
        EXPECT_FALSE(sm::choose_machine(p, c, 2.0, 0u).has_value())
            << sm::to_string(p);
    }
}

TEST(Policy, ExactTiesPickTheLowestMachineIndex) {
    // Identical machines everywhere: every argmin-style policy must settle
    // ties deterministically on the lowest index.
    std::vector<sm::MachineChoice> c(3);
    for (std::size_t i = 0; i < 3; ++i) {
        c[i].machine_index = i;
        c[i].runtime_s = 10.0;
        c[i].energy_j = 100.0;
        c[i].cost = 50.0;
        c[i].queue_wait_s = 5.0;
    }
    for (const auto p :
         {sm::Policy::Greedy, sm::Policy::Energy, sm::Policy::Runtime,
          sm::Policy::Eft, sm::Policy::Mixed}) {
        EXPECT_EQ(*sm::choose_machine(p, c), 0u) << sm::to_string(p);
    }
    // The tie-break holds among the still-tied machines once one drops out.
    c[0].feasible = false;
    EXPECT_EQ(*sm::choose_machine(sm::Policy::Greedy, c), 1u);
}

TEST(Policy, MixedAtExactThresholdBoundaryKeepsCheapest) {
    // Cheapest completes in exactly threshold x the fastest's completion
    // time. The Mixed rule is a strict inequality, so the boundary case
    // must NOT switch: the cheapest machine wins.
    std::vector<sm::MachineChoice> c(2);
    c[0].machine_index = 0;  // cheapest: completion 100 s
    c[0].runtime_s = 100.0;
    c[0].cost = 10.0;
    c[1].machine_index = 1;  // fastest: completion exactly 50 s
    c[1].runtime_s = 50.0;
    c[1].cost = 20.0;
    EXPECT_EQ(*sm::choose_machine(sm::Policy::Mixed, c, 2.0), 0u);
    // An epsilon under the boundary switches to the fast machine...
    EXPECT_EQ(*sm::choose_machine(sm::Policy::Mixed, c, 1.999), 1u);
    // ...and queue wait counts toward completion time: with 1 s of backlog
    // on the fast machine (51 s total), 2x no longer reaches 100 s.
    c[1].queue_wait_s = 1.0;
    EXPECT_EQ(*sm::choose_machine(sm::Policy::Mixed, c, 1.999), 0u);
}

// ---------------------------------------------------------------- engine
TEST(Simulator, ConservationOfJobs) {
    for (const auto p : sm::all_policies()) {
        const auto r = run_policy(p, ga::acct::Method::Eba);
        EXPECT_EQ(r.jobs_completed + r.jobs_skipped,
                  shared_simulator().workload().jobs.size())
            << sm::to_string(p);
    }
}

TEST(Simulator, UnbudgetedMultiMachinePoliciesCompleteEverything) {
    for (const auto p : sm::multi_machine_policies()) {
        const auto r = run_policy(p, ga::acct::Method::Eba);
        EXPECT_EQ(r.jobs_skipped, 0u) << sm::to_string(p);
    }
}

TEST(Simulator, FixedPolicyRoutesEverythingToOneMachine) {
    const auto r = run_policy(sm::Policy::FixedTheta, ga::acct::Method::Eba);
    EXPECT_EQ(r.jobs_per_machine.at("Theta"), r.jobs_completed);
    EXPECT_EQ(r.jobs_per_machine.at("IC"), 0u);
}

TEST(Simulator, FinishTimesSortedAndBounded) {
    const auto r = run_policy(sm::Policy::Eft, ga::acct::Method::Eba);
    ASSERT_FALSE(r.finish_times_s.empty());
    for (std::size_t i = 1; i < r.finish_times_s.size(); ++i) {
        EXPECT_LE(r.finish_times_s[i - 1], r.finish_times_s[i]);
    }
    EXPECT_DOUBLE_EQ(r.finish_times_s.back(), r.makespan_s);
}

TEST(Simulator, GreedyMinimizesTotalCost) {
    // Greedy picks the cheapest machine per job, so its total cost is the
    // lowest across all policies under the same pricing.
    const double greedy =
        run_policy(sm::Policy::Greedy, ga::acct::Method::Eba).total_cost;
    for (const auto p : sm::all_policies()) {
        const auto r = run_policy(p, ga::acct::Method::Eba);
        EXPECT_GE(r.total_cost, greedy * 0.999) << sm::to_string(p);
    }
}

TEST(Simulator, EnergyPolicyMinimizesEnergy) {
    const double energy =
        run_policy(sm::Policy::Energy, ga::acct::Method::Eba).energy_mwh;
    for (const auto p : sm::multi_machine_policies()) {
        EXPECT_GE(run_policy(p, ga::acct::Method::Eba).energy_mwh,
                  energy * 0.999)
            << sm::to_string(p);
    }
}

TEST(Simulator, BudgetTruncatesWork) {
    const auto full = run_policy(sm::Policy::Greedy, ga::acct::Method::Eba);
    const auto half = run_policy(sm::Policy::Greedy, ga::acct::Method::Eba,
                                 full.total_cost * 0.5);
    EXPECT_LT(half.jobs_completed, full.jobs_completed);
    EXPECT_LT(half.work_core_hours, full.work_core_hours);
    EXPECT_GT(half.jobs_skipped, 0u);
    EXPECT_LE(half.total_cost, full.total_cost * 0.5 + 1e-6);
}

TEST(Simulator, GreedyCompletesMostWorkUnderFixedBudget) {
    // The paper's headline (Fig 5a): with a fixed EBA allocation the Greedy
    // policy completes more work than the performance-focused policies.
    const auto greedy_full = run_policy(sm::Policy::Greedy, ga::acct::Method::Eba);
    const double budget = greedy_full.total_cost * 0.6;
    const double greedy =
        run_policy(sm::Policy::Greedy, ga::acct::Method::Eba, budget)
            .work_core_hours;
    for (const auto p : {sm::Policy::Eft, sm::Policy::Runtime,
                         sm::Policy::FixedTheta, sm::Policy::FixedIc}) {
        EXPECT_GT(greedy,
                  run_policy(p, ga::acct::Method::Eba, budget).work_core_hours)
            << sm::to_string(p);
    }
}

TEST(Simulator, EnergyPolicyNearGreedyUnderEba) {
    // Paper: Energy completes ~99% of Greedy's work under EBA.
    const auto greedy_full = run_policy(sm::Policy::Greedy, ga::acct::Method::Eba);
    const double budget = greedy_full.total_cost * 0.6;
    const double g = run_policy(sm::Policy::Greedy, ga::acct::Method::Eba, budget)
                         .work_core_hours;
    const double e = run_policy(sm::Policy::Energy, ga::acct::Method::Eba, budget)
                         .work_core_hours;
    EXPECT_GT(e / g, 0.85);
    EXPECT_LE(e / g, 1.001);
}

TEST(Simulator, GreedyAndEnergyAvoidTheta) {
    // Paper Fig 5c: Greedy and Energy allocate no tasks to Theta.
    for (const auto p : {sm::Policy::Greedy, sm::Policy::Energy}) {
        const auto r = run_policy(p, ga::acct::Method::Eba);
        const double theta_share =
            static_cast<double>(r.jobs_per_machine.at("Theta")) /
            static_cast<double>(r.jobs_completed);
        EXPECT_LT(theta_share, 0.02) << sm::to_string(p);
    }
}

TEST(Simulator, PerformancePoliciesUseMoreEnergy) {
    // Paper Table 6: EFT/Runtime burn ~50% more energy than Energy. The
    // reduced test workload compresses the gap, so require a clear (>8%)
    // penalty here; the full-scale bench reproduces the ~50% figure.
    const double e =
        run_policy(sm::Policy::Energy, ga::acct::Method::Eba).energy_mwh;
    EXPECT_GT(run_policy(sm::Policy::Eft, ga::acct::Method::Eba).energy_mwh,
              1.08 * e);
    EXPECT_GT(run_policy(sm::Policy::Runtime, ga::acct::Method::Eba).energy_mwh,
              1.08 * e);
}

TEST(Simulator, CbaGreedyShiftsAwayFromFaster) {
    // Paper §5.5: under CBA, FASTER's high embodied rate pushes Greedy toward
    // IC (50% of the workload) and away from FASTER (11%).
    const auto eba = run_policy(sm::Policy::Greedy, ga::acct::Method::Eba);
    const auto cba = run_policy(sm::Policy::Greedy, ga::acct::Method::Cba);
    const auto share = [](const sm::SimResult& r, const std::string& m) {
        return static_cast<double>(r.jobs_per_machine.at(m)) /
               static_cast<double>(r.jobs_completed);
    };
    EXPECT_LT(share(cba, "FASTER"), share(eba, "FASTER"));
    EXPECT_GT(share(cba, "IC"), share(eba, "IC"));
}

TEST(Simulator, AttributedCarbonExceedsOperational) {
    for (const auto p : sm::multi_machine_policies()) {
        const auto r = run_policy(p, ga::acct::Method::Eba);
        EXPECT_GT(r.attributed_carbon_kg, r.operational_carbon_kg)
            << sm::to_string(p);
    }
}

TEST(Simulator, RegionalGridsChangeCbaRouting) {
    sm::SimOptions flat;
    flat.policy = sm::Policy::Greedy;
    flat.pricing = ga::acct::Method::Cba;
    sm::SimOptions regional = flat;
    regional.regional_grids = true;
    const auto a = shared_simulator().run(flat);
    const auto b = shared_simulator().run(regional);
    // The low-carbon scenario must change the job distribution.
    bool any_difference = false;
    for (const auto& [m, n] : a.jobs_per_machine) {
        if (b.jobs_per_machine.at(m) != n) any_difference = true;
    }
    EXPECT_TRUE(any_difference);
}

TEST(Simulator, DesktopNeverRunsLargeJobs) {
    const auto r = run_policy(sm::Policy::Energy, ga::acct::Method::Eba);
    // Implied by feasibility filtering: the Desktop count is bounded by the
    // number of <=16-core jobs.
    std::size_t small_jobs = 0;
    for (const auto& j : shared_simulator().workload().jobs) {
        if (j.cores <= 16) ++small_jobs;
    }
    EXPECT_LE(r.jobs_per_machine.at("Desktop"), small_jobs);
}

TEST(Simulator, WorkMetricIsMachineAveraged) {
    const auto& simulator = shared_simulator();
    const double w0 = simulator.job_work_core_hours(0);
    EXPECT_GT(w0, 0.0);
    // Same work is credited no matter which policy ran the job: totals over
    // identical completed sets must match.
    const auto a = run_policy(sm::Policy::Eft, ga::acct::Method::Eba);
    const auto b = run_policy(sm::Policy::Runtime, ga::acct::Method::Eba);
    EXPECT_NEAR(a.work_core_hours, b.work_core_hours, a.work_core_hours * 1e-9);
}


// ------------------------------------------------ scheduling regressions
// Hand-crafted traces over a single one-node IC cluster (48 cores) pin down
// the submit-path and accounting semantics exactly.

wl::Workload craft_workload(std::vector<wl::TraceJob> jobs) {
    wl::Workload w;
    w.jobs = std::move(jobs);
    w.predictor = std::make_shared<wl::CrossPlatformPredictor>(
        mc::simulation_machines());
    return w;
}

wl::TraceJob make_job(std::uint32_t id, std::uint32_t user, std::uint32_t app,
                      int cores, double submit_s, double runtime_ic_s) {
    wl::TraceJob j;
    j.id = id;
    j.user = user;
    j.app = app;
    j.cores = cores;
    j.submit_s = submit_s;
    j.runtime_ic_s = runtime_ic_s;
    j.power_ic_w = 100.0 * cores;
    j.counters = {1.5 + 0.1 * app, 2.0 + 0.2 * user};
    return j;
}

/// Predicted runtime of job j on IC (what the simulator will use).
double ic_runtime(const sm::BatchSimulator& sim, std::size_t j) {
    const auto& w = sim.workload();
    const std::size_t ic = w.predictor->machine_index("IC");
    return w.extrapolate(w.jobs[j])[ic].runtime_s;
}

bool contains_time(const std::vector<double>& times, double t) {
    for (const double v : times) {
        if (std::abs(v - t) < 1e-6) return true;
    }
    return false;
}

TEST(Simulator, SubmitStartsEligibleJobBehindBlockedQueueHead) {
    // J0 (user 0) takes half the cluster. J1 (user 0) queues behind the
    // one-job-per-user rule and blocks the queue head. J2 (user 1) fits the
    // free half and must start at its submit time — the regression was that
    // a non-empty queue left those cores idle until J0's finish.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 24, 0.0, 1000.0));
    jobs.push_back(make_job(1, 0, 1, 24, 10.0, 500.0));
    jobs.push_back(make_job(2, 1, 0, 24, 20.0, 200.0));
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)),
                                 {sm::ClusterConfig{mc::find("IC"), 1}});
    const auto r = sim.run(sm::SimOptions{});
    ASSERT_EQ(r.jobs_completed, 3u);

    const double r0 = ic_runtime(sim, 0);
    const double r1 = ic_runtime(sim, 1);
    const double r2 = ic_runtime(sim, 2);
    // J2 starts immediately at 20 s despite the blocked head...
    EXPECT_TRUE(contains_time(r.finish_times_s, 20.0 + r2));
    // ...while J1 (same user as J0) correctly waits for J0's finish.
    EXPECT_TRUE(contains_time(r.finish_times_s, r0 + r1));
    EXPECT_TRUE(contains_time(r.finish_times_s, r0));
}

TEST(Simulator, RejectsNonPositionalJobIds) {
    // The event loop indexes per-job state by id; hand-crafted workloads
    // with sparse ids must be rejected at construction.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(5, 0, 0, 8, 0.0, 100.0));
    EXPECT_THROW(sm::BatchSimulator(craft_workload(std::move(jobs)),
                                    {sm::ClusterConfig{mc::find("IC"), 1}}),
                 ga::util::PreconditionError);
}

TEST(Simulator, RejectsOutOfOrderSubmits) {
    // Submits replay in trace order, so a trace whose submit times go
    // backwards must be rejected at construction rather than reordered.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 8, 50.0, 100.0));
    jobs.push_back(make_job(1, 1, 0, 8, 10.0, 100.0));
    EXPECT_THROW(sm::BatchSimulator(craft_workload(std::move(jobs)),
                                    {sm::ClusterConfig{mc::find("IC"), 1}}),
                 ga::util::PreconditionError);
}

TEST(Simulator, CbaMetersOperationalCarbonAtJobStart) {
    // J0 fills the cluster for hours; J1 (other user) queues the whole time.
    // Eq. 2's operational term must read the grid intensity when J1 starts
    // (J0's finish), not when it was submitted.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 48, 0.0, 4.0 * 3600.0));
    jobs.push_back(make_job(1, 1, 0, 48, 60.0, 4.0 * 3600.0));
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)),
                                 {sm::ClusterConfig{mc::find("IC"), 1}});
    sm::SimOptions o;
    o.pricing = ga::acct::Method::Cba;
    o.regional_grids = true;
    o.grid_seed = 77;
    const auto r = sim.run(o);
    ASSERT_EQ(r.jobs_completed, 2u);

    // Reconstruct the run's accounting: IC sits on AU-SA with a 30-day
    // synthetic trace under the same seed.
    const auto& ic = mc::find("IC");
    std::map<std::string, ga::carbon::IntensityTrace> traces;
    traces.emplace("IC", ga::carbon::synthesize(
                             ga::carbon::region(ic.grid_region), 30, 77));
    const ga::acct::CarbonBasedAccounting cba(std::move(traces));

    const auto usage_at = [&](std::size_t j, double start) {
        const auto& w = sim.workload();
        const std::size_t m = w.predictor->machine_index("IC");
        const auto per = w.extrapolate(w.jobs[j])[m];
        ga::acct::JobUsage u;
        u.duration_s = per.runtime_s;
        u.energy_j = per.runtime_s * per.power_w;
        u.cores = w.jobs[j].cores;
        u.priced_at_s = start;
        return u;
    };
    const double start1 = ic_runtime(sim, 0);  // J1 starts at J0's finish
    const double expected_kg = (cba.operational_g(usage_at(0, 0.0), ic) +
                                cba.operational_g(usage_at(1, start1), ic)) /
                               1000.0;
    EXPECT_NEAR(r.operational_carbon_kg, expected_kg,
                std::abs(expected_kg) * 1e-9);

    // The fix is observable: pricing J1 at its submit time instead gives a
    // different total on this time-varying grid.
    const double submit_kg = (cba.operational_g(usage_at(0, 0.0), ic) +
                              cba.operational_g(usage_at(1, 60.0), ic)) /
                             1000.0;
    EXPECT_GT(std::abs(expected_kg - submit_kg), 1e-9);
}

// Parameterized ablation: the Mixed policy interpolates between EFT-like
// (low threshold: switch eagerly for speed) and Greedy-like (high threshold:
// almost never switch) behavior.
class MixedThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(MixedThresholdSweep, CostBetweenGreedyAndEft) {
    sm::SimOptions o;
    o.policy = sm::Policy::Mixed;
    o.pricing = ga::acct::Method::Eba;
    o.mixed_threshold = GetParam();
    const auto mixed = shared_simulator().run(o);
    const double greedy =
        run_policy(sm::Policy::Greedy, ga::acct::Method::Eba).total_cost;
    const double eft = run_policy(sm::Policy::Eft, ga::acct::Method::Eba).total_cost;
    EXPECT_GE(mixed.total_cost, greedy * 0.999);
    EXPECT_LE(mixed.total_cost, std::max(greedy, eft) * 1.35);
}

TEST_P(MixedThresholdSweep, HigherThresholdNeverRaisesCost) {
    sm::SimOptions lo;
    lo.policy = sm::Policy::Mixed;
    lo.pricing = ga::acct::Method::Eba;
    lo.mixed_threshold = GetParam();
    sm::SimOptions hi = lo;
    hi.mixed_threshold = GetParam() * 4.0;
    // A stricter switching rule can only move choices toward the cheapest
    // machine, so total cost must not increase.
    EXPECT_LE(shared_simulator().run(hi).total_cost,
              shared_simulator().run(lo).total_cost * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, MixedThresholdSweep,
                         ::testing::Values(1.25, 1.5, 2.0, 3.0));

}  // namespace
