// Tests for the batch simulator: engine invariants, policy semantics, budget
// truncation, scheduling/accounting regressions on hand-crafted traces, and
// the paper's §5 orderings on a reduced workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "carbon/grids.hpp"
#include "machine/catalog.hpp"
#include "obs/metrics.hpp"
#include "pair_prediction.hpp"
#include "sim/policy.hpp"
#include "sim/simulator.hpp"
#include "sim_result_matchers.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

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

sm::SimResult run_policy(sm::PolicySpec policy, const char* pricing,
                         double budget = 0.0) {
    sm::SimOptions o;
    o.policy = std::move(policy);
    o.pricing = {pricing, {}};
    o.budget = budget;
    return shared_simulator().run(o);
}

/// The registry policy `spec` choosing among `c`; no cluster state unless
/// `ctx` carries some.
std::optional<std::size_t> choose(const sm::PolicySpec& spec,
                                  std::span<const sm::MachineChoice> c,
                                  const sm::SchedulingContext& ctx = {}) {
    return sm::PolicyRegistry::global().make(spec)->choose(ctx, c);
}

// ---------------------------------------------------------------- policies
TEST(Policy, NamesAndSets) {
    const auto& all = sm::all_policies();
    const auto& multi = sm::multi_machine_policies();
    ASSERT_EQ(all.size(), 8u);
    ASSERT_EQ(multi.size(), 5u);
    EXPECT_TRUE(std::equal(multi.begin(), multi.end(), all.begin()));
    EXPECT_EQ(all[3].name, "EFT");
    // The fixed policies come last, each named after its machine.
    EXPECT_EQ(all[5].name, "Theta");
    EXPECT_EQ(all[6].name, "IC");
    EXPECT_EQ(all[7].name, "FASTER");
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
    EXPECT_EQ(*choose({"Greedy", {}}, c), 1u);   // min cost
    EXPECT_EQ(*choose({"Energy", {}}, c), 2u);   // min energy
    EXPECT_EQ(*choose({"Runtime", {}}, c), 1u);  // min runtime
    EXPECT_EQ(*choose({"EFT", {}}, c), 0u);      // min wait+run
}

TEST(Policy, MixedSwitchesWhenTwiceAsFast) {
    auto c = three_choices();
    // Cheapest is index 1 (completion 105 s); index 0 completes in 10 s,
    // more than 2x faster -> Mixed picks 0.
    EXPECT_EQ(*choose({"Mixed", {{"threshold", 2.0}}}, c), 0u);
    // With a huge threshold the rule never triggers -> cheapest.
    EXPECT_EQ(*choose({"Mixed", {{"threshold", 100.0}}}, c), 1u);
}

TEST(Policy, InfeasibleMachinesSkipped) {
    auto c = three_choices();
    c[1].feasible = false;
    EXPECT_EQ(*choose({"Greedy", {}}, c), 2u);
    c[0].feasible = false;
    c[2].feasible = false;
    EXPECT_FALSE(choose({"Greedy", {}}, c).has_value());
}

TEST(Policy, FixedUsesProvidedIndex) {
    const auto c = three_choices();
    EXPECT_EQ(*choose({"Theta", {{"index", 2.0}}}, c), 2u);
    EXPECT_THROW((void)choose({"Theta", {}}, c), ga::util::PreconditionError);
    // Without an index, the name resolves against the context's clusters.
    std::vector<sm::ClusterStatus> clusters(3);
    clusters[0].name = "FASTER";
    clusters[1].name = "Theta";
    clusters[2].name = "IC";
    sm::SchedulingContext ctx;
    ctx.clusters = clusters;
    EXPECT_EQ(*choose({"Theta", {}}, c, ctx), 1u);
}

TEST(Policy, AllMachinesInfeasibleReturnsNulloptForEveryPolicy) {
    auto c = three_choices();
    for (auto& choice : c) choice.feasible = false;
    for (auto p : sm::all_policies()) {
        p.params.emplace("index", 0.0);  // read by the fixed policies only
        EXPECT_FALSE(choose(p, c).has_value()) << p.name;
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
    for (const char* p : {"Greedy", "Energy", "Runtime", "EFT", "Mixed"}) {
        EXPECT_EQ(*choose({p, {}}, c), 0u) << p;
    }
    // The tie-break holds among the still-tied machines once one drops out.
    c[0].feasible = false;
    EXPECT_EQ(*choose({"Greedy", {}}, c), 1u);
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
    EXPECT_EQ(*choose({"Mixed", {{"threshold", 2.0}}}, c), 0u);
    // A bare Mixed runs at the paper's default threshold of 2: it keeps the
    // boundary case too, and switches once the fast machine is a bit faster.
    EXPECT_EQ(*choose({"Mixed", {}}, c), 0u);
    c[1].runtime_s = 49.0;
    EXPECT_EQ(*choose({"Mixed", {}}, c), 1u);
    c[1].runtime_s = 50.0;
    // An epsilon under the boundary switches to the fast machine...
    EXPECT_EQ(*choose({"Mixed", {{"threshold", 1.999}}}, c), 1u);
    // ...and queue wait counts toward completion time: with 1 s of backlog
    // on the fast machine (51 s total), 2x no longer reaches 100 s.
    c[1].queue_wait_s = 1.0;
    EXPECT_EQ(*choose({"Mixed", {{"threshold", 1.999}}}, c), 0u);
}

// ---------------------------------------------------------------- engine
TEST(Simulator, ConservationOfJobs) {
    for (const auto& p : sm::all_policies()) {
        const auto r = run_policy(p, "EBA");
        EXPECT_EQ(r.jobs_completed + r.jobs_skipped,
                  shared_simulator().workload().jobs.size())
            << p.name;
    }
}

TEST(Simulator, UnbudgetedMultiMachinePoliciesCompleteEverything) {
    for (const auto& p : sm::multi_machine_policies()) {
        const auto r = run_policy(p, "EBA");
        EXPECT_EQ(r.jobs_skipped, 0u) << p.name;
    }
}

TEST(Simulator, FixedPolicyRoutesEverythingToOneMachine) {
    const auto r = run_policy({"Theta", {}}, "EBA");
    EXPECT_EQ(r.jobs_per_machine.at("Theta"), r.jobs_completed);
    EXPECT_EQ(r.jobs_per_machine.at("IC"), 0u);
}

TEST(Simulator, FinishTimesSortedAndBounded) {
    sm::SimOptions o;
    o.policy = {"EFT", {}};
    o.finish_times = true;
    const auto r = shared_simulator().run(o);
    ASSERT_EQ(r.finish_times_s.size(), r.jobs_completed);
    for (std::size_t i = 1; i < r.finish_times_s.size(); ++i) {
        EXPECT_LE(r.finish_times_s[i - 1], r.finish_times_s[i]);
    }
    EXPECT_DOUBLE_EQ(r.finish_times_s.back(), r.makespan_s);
}

TEST(Simulator, DefaultRunRecordsNoFinishTimes) {
    // Finish times are recorded only on request; nothing else moves.
    sm::SimOptions o;
    o.policy = {"EFT", {}};
    const auto plain = shared_simulator().run(o);
    EXPECT_GT(plain.jobs_completed, 0u);
    EXPECT_TRUE(plain.finish_times_s.empty());
    o.finish_times = true;
    const auto recorded = shared_simulator().run(o);
    EXPECT_EQ(recorded.finish_times_s.size(), recorded.jobs_completed);
    EXPECT_EQ(recorded.work_core_hours, plain.work_core_hours);
    EXPECT_EQ(recorded.jobs_completed, plain.jobs_completed);
    EXPECT_EQ(recorded.total_cost, plain.total_cost);
    EXPECT_EQ(recorded.energy_mwh, plain.energy_mwh);
    EXPECT_EQ(recorded.attributed_carbon_kg, plain.attributed_carbon_kg);
    EXPECT_EQ(recorded.makespan_s, plain.makespan_s);
    EXPECT_EQ(recorded.jobs_per_machine, plain.jobs_per_machine);
}

TEST(Simulator, GreedyMinimizesTotalCost) {
    // Greedy picks the cheapest machine per job, so its total cost is the
    // lowest across all policies under the same pricing.
    const double greedy =
        run_policy({"Greedy", {}}, "EBA").total_cost;
    for (const auto& p : sm::all_policies()) {
        const auto r = run_policy(p, "EBA");
        EXPECT_GE(r.total_cost, greedy * 0.999) << p.name;
    }
}

TEST(Simulator, EnergyPolicyMinimizesEnergy) {
    const double energy =
        run_policy({"Energy", {}}, "EBA").energy_mwh;
    for (const auto& p : sm::multi_machine_policies()) {
        EXPECT_GE(run_policy(p, "EBA").energy_mwh,
                  energy * 0.999)
            << p.name;
    }
}

TEST(Simulator, BudgetTruncatesWork) {
    const auto full = run_policy({"Greedy", {}}, "EBA");
    const auto half = run_policy({"Greedy", {}}, "EBA",
                                 full.total_cost * 0.5);
    EXPECT_LT(half.jobs_completed, full.jobs_completed);
    EXPECT_LT(half.work_core_hours, full.work_core_hours);
    EXPECT_GT(half.jobs_skipped, 0u);
    EXPECT_LE(half.total_cost, full.total_cost * 0.5 + 1e-6);
}

TEST(Simulator, GreedyCompletesMostWorkUnderFixedBudget) {
    // The paper's headline (Fig 5a): with a fixed EBA allocation the Greedy
    // policy completes more work than the performance-focused policies.
    const auto greedy_full = run_policy({"Greedy", {}}, "EBA");
    const double budget = greedy_full.total_cost * 0.6;
    const double greedy =
        run_policy({"Greedy", {}}, "EBA", budget)
            .work_core_hours;
    for (const char* p : {"EFT", "Runtime", "Theta", "IC"}) {
        EXPECT_GT(greedy, run_policy({p, {}}, "EBA", budget).work_core_hours)
            << p;
    }
}

TEST(Simulator, EnergyPolicyNearGreedyUnderEba) {
    // Paper: Energy completes ~99% of Greedy's work under EBA.
    const auto greedy_full = run_policy({"Greedy", {}}, "EBA");
    const double budget = greedy_full.total_cost * 0.6;
    const double g = run_policy({"Greedy", {}}, "EBA", budget)
                         .work_core_hours;
    const double e = run_policy({"Energy", {}}, "EBA", budget)
                         .work_core_hours;
    EXPECT_GT(e / g, 0.85);
    EXPECT_LE(e / g, 1.001);
}

TEST(Simulator, GreedyAndEnergyAvoidTheta) {
    // Paper Fig 5c: Greedy and Energy allocate no tasks to Theta.
    for (const char* p : {"Greedy", "Energy"}) {
        const auto r = run_policy({p, {}}, "EBA");
        const double theta_share =
            static_cast<double>(r.jobs_per_machine.at("Theta")) /
            static_cast<double>(r.jobs_completed);
        EXPECT_LT(theta_share, 0.02) << p;
    }
}

TEST(Simulator, PerformancePoliciesUseMoreEnergy) {
    // Paper Table 6: EFT/Runtime burn ~50% more energy than Energy. The
    // reduced test workload compresses the gap, so require a clear (>8%)
    // penalty here; the full-scale bench reproduces the ~50% figure.
    const double e =
        run_policy({"Energy", {}}, "EBA").energy_mwh;
    EXPECT_GT(run_policy({"EFT", {}}, "EBA").energy_mwh,
              1.08 * e);
    EXPECT_GT(run_policy({"Runtime", {}}, "EBA").energy_mwh,
              1.08 * e);
}

TEST(Simulator, CbaGreedyShiftsAwayFromFaster) {
    // Paper §5.5: under CBA, FASTER's high embodied rate pushes Greedy toward
    // IC (50% of the workload) and away from FASTER (11%).
    const auto eba = run_policy({"Greedy", {}}, "EBA");
    const auto cba = run_policy({"Greedy", {}}, "CBA");
    const auto share = [](const sm::SimResult& r, const std::string& m) {
        return static_cast<double>(r.jobs_per_machine.at(m)) /
               static_cast<double>(r.jobs_completed);
    };
    EXPECT_LT(share(cba, "FASTER"), share(eba, "FASTER"));
    EXPECT_GT(share(cba, "IC"), share(eba, "IC"));
}

TEST(Simulator, AttributedCarbonExceedsOperational) {
    for (const auto& p : sm::multi_machine_policies()) {
        const auto r = run_policy(p, "EBA");
        EXPECT_GT(r.attributed_carbon_kg, r.operational_carbon_kg)
            << p.name;
    }
}

TEST(Simulator, RegionalGridsChangeCbaRouting) {
    sm::SimOptions flat;
    flat.pricing = {"CBA", {}};
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
    const auto r = run_policy({"Energy", {}}, "EBA");
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
    const auto a = run_policy({"EFT", {}}, "EBA");
    const auto b = run_policy({"Runtime", {}}, "EBA");
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
    return ga::testutil::pair_prediction(w, j)[ic].runtime_s;
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
    sm::SimOptions o;
    o.finish_times = true;
    const auto r = sim.run(o);
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

TEST(Simulator, RepeatedPairTakesItsFirstJobsPredictions) {
    // The constructor predicts a (user, app) pair once, from its first
    // job's counters. A later job of the pair carrying other counters gets
    // the same predictions, as a job carrying the first job's counters
    // would; a job of another pair gets its own.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 3, 1, 8, 0.0, 1000.0));
    jobs.push_back(make_job(1, 3, 1, 8, 10.0, 1000.0));
    jobs[1].counters = {9.0, 0.5};  // compute-bound, unlike job 0
    auto alike = jobs;
    alike[1].counters = alike[0].counters;
    auto unshared = jobs;
    unshared[1].app = 2;

    const bool prior = ga::obs::metrics_enabled();
    ga::obs::set_metrics_enabled(true);
    const auto& predictions =
        ga::obs::Registry::global().counter_handle("sim.predictions");
    const auto built = [&](std::vector<wl::TraceJob> trace,
                           std::uint64_t expected_predictions) {
        const std::uint64_t before = predictions.value();
        sm::BatchSimulator sim(craft_workload(std::move(trace)));
        EXPECT_EQ(predictions.value() - before, expected_predictions);
        return sim;
    };
    const sm::BatchSimulator sim = built(jobs, 1);
    const sm::BatchSimulator reference = built(alike, 1);
    const sm::BatchSimulator other = built(unshared, 2);
    ga::obs::set_metrics_enabled(prior);

    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    EXPECT_EQ(bits(sim.job_work_core_hours(1)),
              bits(reference.job_work_core_hours(1)));
    EXPECT_EQ(bits(sim.job_work_core_hours(1)), bits(sim.job_work_core_hours(0)));
    // Job 1's own counters would have predicted differently.
    EXPECT_NE(other.job_work_core_hours(1), sim.job_work_core_hours(1));
    sm::SimOptions o;
    o.policy = {"EFT", {}};
    o.finish_times = true;
    const auto r = sim.run(o);
    ASSERT_EQ(r.jobs_completed, 2u);
    ga::testutil::expect_identical(r, reference.run(o));
}

TEST(Simulator, EveryJobRunsOnItsPairsFirstPrediction) {
    // Sparse app ids, no users 1, 2 or 4, and a pair (user 3, app 7) whose
    // second job carries other counters. Each job finishes before the next
    // is submitted, so a fixed-machine run finishes it at its submit time
    // plus its runtime there and adds its energy in job order. Every figure
    // is what the predictor gives for the counters of the job's pair's
    // first job, bit for bit, from one prediction per pair.
    const double gap = 1.0e6;  // longer than any job here runs
    std::vector<wl::TraceJob> jobs{
        make_job(0, 3, 7, 8, 0.0, 1000.0),
        make_job(1, 0, 4, 16, gap, 2000.0),
        make_job(2, 3, 7, 8, 2.0 * gap, 1500.0),
        make_job(3, 5, 0, 4, 3.0 * gap, 500.0),
        make_job(4, 0, 4, 16, 4.0 * gap, 2500.0),
    };
    jobs[2].counters = {9.0, 0.5};  // compute-bound, unlike job 0
    const std::vector<std::size_t> first_of_pair{0, 1, 0, 3, 1};

    const bool prior = ga::obs::metrics_enabled();
    ga::obs::set_metrics_enabled(true);
    const auto& predictions =
        ga::obs::Registry::global().counter_handle("sim.predictions");
    const std::uint64_t before = predictions.value();
    const sm::BatchSimulator sim(craft_workload(jobs));
    EXPECT_EQ(predictions.value() - before, 3u);
    ga::obs::set_metrics_enabled(prior);

    const auto& predictor = *sim.workload().predictor;
    const auto scaling = [&](const wl::JobCounters& counters,
                             const sm::ClusterConfig& cluster) {
        return predictor.predict(
            counters)[predictor.machine_index(cluster.entry.node.name)];
    };
    const auto work_from = [&](std::size_t j, const wl::JobCounters& counters) {
        double work = 0.0;
        std::size_t feasible = 0;
        for (const sm::ClusterConfig& cluster : sim.clusters()) {
            if (jobs[j].cores > cluster.total_cores()) continue;
            work += ga::util::core_hours(
                jobs[j].cores,
                jobs[j].runtime_ic_s * scaling(counters, cluster).runtime_factor);
            ++feasible;
        }
        return work / static_cast<double>(feasible);
    };
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        EXPECT_EQ(bits(sim.job_work_core_hours(j)),
                  bits(work_from(j, jobs[first_of_pair[j]].counters)))
            << "job " << j;
    }
    // Job 2's own counters predict otherwise, so reading them would show.
    EXPECT_NE(work_from(2, jobs[2].counters), work_from(2, jobs[0].counters));

    for (const sm::ClusterConfig& cluster : sim.clusters()) {
        const std::string& machine = cluster.entry.node.name;
        if (machine == "Desktop") continue;  // no fixed-machine policy
        sm::SimOptions o;
        o.policy = {machine, {}};
        o.finish_times = true;
        const auto r = sim.run(o);
        ASSERT_EQ(r.jobs_completed, jobs.size()) << machine;
        double energy_mwh = 0.0;
        double work = 0.0;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const auto s = scaling(jobs[first_of_pair[j]].counters, cluster);
            const double runtime = jobs[j].runtime_ic_s * s.runtime_factor;
            const double power = jobs[j].power_ic_w * s.power_factor;
            EXPECT_EQ(bits(r.finish_times_s[j]), bits(jobs[j].submit_s + runtime))
                << machine << " job " << j;
            energy_mwh += runtime * power / ga::util::kJoulesPerKwh / 1000.0;
            work += sim.job_work_core_hours(j);
        }
        EXPECT_EQ(bits(r.energy_mwh), bits(energy_mwh)) << machine;
        EXPECT_EQ(bits(r.work_core_hours), bits(work)) << machine;
    }
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
    o.pricing = {"CBA", {}};
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
        const auto per = ga::testutil::pair_prediction(w, j)[m];
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

// ------------------------------------------------------------ budget ladders
// A ladder runs options that differ only in budget (and, under a policy that
// reads no cost, in pricing) as one event loop; each member must equal a
// direct run of its options.

/// Each member's quote table, built for its own options.
std::vector<sm::QuoteTable> member_tables(const sm::BatchSimulator& sim,
                                          const std::vector<sm::SimOptions>& ladder) {
    std::vector<sm::QuoteTable> tables;
    for (const sm::SimOptions& member : ladder) {
        tables.push_back(sim.quote_table(sm::QuoteKey::of(member)));
    }
    return tables;
}

/// The address of each of `tables`, as `run_ladder` takes them.
std::vector<const sm::QuoteTable*> pointers(const std::vector<sm::QuoteTable>& tables) {
    std::vector<const sm::QuoteTable*> out;
    for (const sm::QuoteTable& table : tables) out.push_back(&table);
    return out;
}

/// Every member's result through `run_ladder`, by member index, the order
/// `done` reported them in, and the policy decisions the ladder made.
struct LadderRun {
    std::vector<sm::SimResult> results;
    std::vector<std::size_t> order;
    std::uint64_t decisions = 0;
};

LadderRun run_ladder(const sm::BatchSimulator& sim,
                     const std::vector<sm::SimOptions>& ladder) {
    const std::vector<sm::QuoteTable> tables = member_tables(sim, ladder);
    LadderRun run;
    run.results.resize(ladder.size());
    const bool prior = ga::obs::metrics_enabled();
    ga::obs::set_metrics_enabled(true);
    const auto& decisions =
        ga::obs::Registry::global().counter_handle("sim.route.decisions");
    const std::uint64_t decisions_before = decisions.value();
    sim.run_ladder(ladder, pointers(tables),
                   [&](std::size_t m, const sm::SimResult& r) {
                       run.results[m] = r;
                       run.order.push_back(m);
                   });
    run.decisions = decisions.value() - decisions_before;
    ga::obs::set_metrics_enabled(prior);
    std::vector<std::size_t> sorted = run.order;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::size_t> members(ladder.size());
    std::iota(members.begin(), members.end(), std::size_t{0});
    EXPECT_EQ(sorted, members) << "each member is reported once";
    return run;
}

/// `base` at each of `budgets`, recording finish times.
std::vector<sm::SimOptions> budget_ladder(sm::SimOptions base,
                                          const std::vector<double>& budgets) {
    base.finish_times = true;
    std::vector<sm::SimOptions> ladder;
    for (const double budget : budgets) {
        base.budget = budget;
        ladder.push_back(base);
    }
    return ladder;
}

/// Runs `ladder` and compares every member with a direct run.
LadderRun expect_ladder_matches_direct_runs(
    const sm::BatchSimulator& sim, const std::vector<sm::SimOptions>& ladder) {
    LadderRun run = run_ladder(sim, ladder);
    for (std::size_t m = 0; m < ladder.size(); ++m) {
        SCOPED_TRACE("member " + std::to_string(m) + ", " +
                     ladder[m].pricing.name + ", budget " +
                     std::to_string(ladder[m].budget));
        ga::testutil::expect_identical(run.results[m], sim.run(ladder[m]));
    }
    return run;
}

/// A registered policy that keeps the default `uses_budget` and
/// `uses_cost`: the first feasible machine.
class FirstFeasiblePolicy final : public sm::RoutingPolicy {
public:
    [[nodiscard]] std::optional<std::size_t> choose(
        const sm::SchedulingContext& /*ctx*/,
        std::span<const sm::MachineChoice> choices) const override {
        for (std::size_t i = 0; i < choices.size(); ++i) {
            if (choices[i].feasible) return i;
        }
        return std::nullopt;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "FirstFeasible";
    }
};

/// Core-hours less a flat rebate: small jobs earn credit (a negative
/// price), large ones pay.
class RebateAccounting final : public ga::acct::Accountant {
public:
    [[nodiscard]] double charge(const ga::acct::JobUsage& usage,
                                const mc::CatalogEntry& /*m*/) const override {
        return usage.duration_s * usage.cores / 3600.0 - 4.0;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "Rebate";
    }
    [[nodiscard]] std::string_view unit() const noexcept override {
        return "core-hours";
    }
};

/// Registers `FirstFeasible` and `Rebate` once per process.
void register_test_policy_and_pricing() {
    auto& policies = sm::PolicyRegistry::global();
    if (!policies.contains("FirstFeasible")) {
        policies.register_policy("FirstFeasible", [](const sm::PolicySpec&) {
            return std::make_unique<FirstFeasiblePolicy>();
        });
    }
    auto& accountants = ga::acct::AccountantRegistry::global();
    if (!accountants.contains("Rebate")) {
        accountants.register_accountant("Rebate", [](const ga::acct::AccountantSpec&) {
            return std::make_unique<RebateAccounting>();
        });
    }
}

TEST(BudgetLadder, BudgetsBindingAtDifferentJobsMatchDirectRuns) {
    // Five members in no budget order, one budget twice, one unlimited:
    // the smallest leads, the duplicate never forks, the others fork where
    // their budgets first admit a job the leader refuses.
    for (const char* policy : {"Greedy", "EFT", "Mixed", "Theta"}) {
        SCOPED_TRACE(policy);
        sm::SimOptions base;
        base.policy = {policy, {}};
        const double cost = shared_simulator().run(base).total_cost;
        const auto ladder = budget_ladder(
            base, {0.6 * cost, 0.0, 0.3 * cost, 0.9 * cost, 0.6 * cost});
        const LadderRun run = expect_ladder_matches_direct_runs(
            shared_simulator(), ladder);
        EXPECT_EQ(run.order.front(), 2u) << "the smallest budget leads";
        const auto& r = run.results;
        EXPECT_LT(r[2].jobs_completed, r[0].jobs_completed);
        EXPECT_LT(r[0].jobs_completed, r[3].jobs_completed);
        EXPECT_LT(r[3].jobs_completed, r[1].jobs_completed);
    }
}

TEST(BudgetLadder, OutageRefundsReachRidingLanesBeforeTheyFork) {
    // One IC cluster of two nodes. J0 fills it; J1 and J2 queue with
    // their charges debited from every budget; the outage at 100 s takes a
    // node, so both no longer fit and are refunded. Every budget pays for
    // all three, so no member diverges before the outage, and the refunds
    // must reach the riding lanes: each lane's budget then first binds on
    // the 48-core jobs after it. EFT reads no cost, so the EBA and CBA
    // members share the loop, and each lane is credited from its own
    // pricing's table.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 96, 0.0, 10000.0));
    jobs.push_back(make_job(1, 1, 0, 96, 10.0, 1000.0));
    jobs.push_back(make_job(2, 2, 0, 96, 20.0, 1000.0));
    for (std::uint32_t j = 3; j < 15; ++j) {
        jobs.push_back(make_job(j, j, 1, 48, 100.0 * j, 1000.0));
    }
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)),
                                 {sm::ClusterConfig{mc::find("IC"), 2}});
    sm::SimOptions base;
    base.policy = {"EFT", {}};
    base.regional_grids = true;
    base.outage = sm::ClusterOutage{0, 100.0, 1};
    std::vector<sm::SimOptions> ladder;
    for (const char* pricing : {"EBA", "CBA"}) {
        base.pricing = {pricing, {}};
        const sm::QuoteTable quotes = sim.quote_table(sm::QuoteKey::of(base));
        const auto cost = [&](std::size_t j) { return quotes.quotes[j]; };
        const double small = cost(0) + cost(1) + cost(2) + cost(3) + cost(4);
        const double large = small + cost(9) + cost(10) + cost(11);
        for (const sm::SimOptions& member :
             budget_ladder(base, {large, 0.0, small, small})) {
            ladder.push_back(member);
        }
    }

    const LadderRun run = expect_ladder_matches_direct_runs(sim, ladder);
    for (const std::size_t at : {0, 4}) {
        SCOPED_TRACE(ladder[at].pricing.name);
        const sm::SimResult* r = &run.results[at];
        // The strands happened: the unlimited member skips exactly J1 and
        // J2.
        EXPECT_EQ(r[1].jobs_skipped, 2u);
        EXPECT_EQ(r[1].jobs_completed, 13u);
        // Both budgets bind after the refunds, at different jobs.
        EXPECT_GT(r[2].jobs_skipped, 2u);
        EXPECT_LT(r[2].jobs_completed, r[0].jobs_completed);
        EXPECT_LT(r[0].jobs_completed, r[1].jobs_completed);
        // Without the refunds the small budget would have refused J5.
        EXPECT_GT(r[2].jobs_completed, 3u);
    }
}

TEST(BudgetLadder, PriceBlindPoliciesLadderAcrossPricings) {
    // A policy that reads neither cost nor budget routes every job alike
    // under every pricing, so members of three pricings, each at budgets
    // that bind at different jobs, share one loop until their admissions
    // differ. A cluster the policy uses goes down on the first day,
    // stranding charged jobs before any budget binds, so each lane is
    // credited from its own pricing's table.
    register_test_policy_and_pricing();
    const std::vector<std::pair<const char*, std::size_t>> cases{
        {"Energy", 1}, {"EFT", 2},         {"Runtime", 2},
        {"Theta", 3},  {"CarbonAware", 1}, {"LeastLoaded", 2}};
    for (const auto& [policy, cluster] : cases) {
        SCOPED_TRACE(policy);
        sm::SimOptions base;
        base.policy = {policy, {}};
        base.regional_grids = true;
        base.outage = sm::ClusterOutage{
            cluster, 86400.0, shared_simulator().clusters()[cluster].nodes};
        std::vector<sm::SimOptions> ladder;
        for (const char* pricing : {"EBA", "CBA", "Rebate"}) {
            base.pricing = {pricing, {}};
            const double cost = shared_simulator().run(base).total_cost;
            ASSERT_GT(cost, 0.0) << pricing;
            for (const sm::SimOptions& member :
                 budget_ladder(base, {0.5 * cost, 0.0, 0.8 * cost})) {
                ladder.push_back(member);
            }
        }
        const LadderRun run =
            expect_ladder_matches_direct_runs(shared_simulator(), ladder);
        for (const std::size_t at : {0, 3, 6}) {
            const sm::SimResult* r = &run.results[at];
            EXPECT_GT(r[1].jobs_skipped, 0u) << "the outage strands jobs";
            EXPECT_LT(r[0].jobs_completed, r[2].jobs_completed);
            EXPECT_LT(r[2].jobs_completed, r[1].jobs_completed);
        }
    }
}

TEST(BudgetLadder, LanesThatLeaveAtOneJobForkOnce) {
    // Three unlimited lanes, one per pricing, all admit the job at which
    // the leader's budget first refuses one. They leave there as one fork
    // and replay the rest of the trace once, so the ladder makes exactly
    // the decisions of the leader and one unlimited member; a fork per
    // leaver would replay it three times.
    register_test_policy_and_pricing();
    sm::SimOptions base;
    base.policy = {"EFT", {}};
    base.regional_grids = true;
    const double cost = shared_simulator().run(base).total_cost;
    const auto pair = budget_ladder(base, {0.5 * cost, 0.0});
    std::vector<sm::SimOptions> ladder = pair;
    for (const char* pricing : {"CBA", "Rebate"}) {
        sm::SimOptions unlimited = pair[1];
        unlimited.pricing = {pricing, {}};
        ladder.push_back(unlimited);
    }
    const LadderRun paired =
        expect_ladder_matches_direct_runs(shared_simulator(), pair);
    const LadderRun run =
        expect_ladder_matches_direct_runs(shared_simulator(), ladder);
    ASSERT_GT(paired.decisions, shared_simulator().workload().jobs.size())
        << "the leader's budget refuses a job";
    EXPECT_EQ(run.decisions, paired.decisions);
    EXPECT_EQ(run.order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(BudgetLadder, CurrencyBudgetsMatchDirectRuns) {
    // Every member carries the same dual-currency allocation; only the
    // routing-cost budget differs.
    sm::SimOptions base;
    base.pricing = {"CBA", {}};
    base.regional_grids = true;
    const auto unlimited = shared_simulator().run(base);
    base.currency_budgets = {
        sm::CurrencyBudget{"core-hours", {"Runtime", {}}, 0.0},
        sm::CurrencyBudget{"gCO2e", {"CBA", {}}, 0.8 * unlimited.total_cost}};
    for (const char* policy : {"Greedy", "EFT", "CarbonAware"}) {
        SCOPED_TRACE(policy);
        base.policy = {policy, {}};
        const double cost = shared_simulator().run(base).total_cost;
        const auto ladder =
            budget_ladder(base, {0.0, 0.5 * cost, 0.75 * cost, 0.5 * cost});
        const LadderRun run =
            expect_ladder_matches_direct_runs(shared_simulator(), ladder);
        EXPECT_FALSE(run.results[0].currency_spent.empty());
        EXPECT_LT(run.results[1].jobs_completed, run.results[2].jobs_completed);
    }
}

TEST(BudgetLadder, CurrencyRefundsCrossForks) {
    // EFT reads neither cost nor budget, so EBA and CBA members share one
    // loop, and every member carries a CBA currency leg. IC goes down on
    // day 2, stranding queued jobs that were charged in both currencies.
    // In each pricing the small budget binds before the outage, so the
    // lanes that fork there strand in their fork's replay; the middle one
    // admits every job before it and binds after it, so the unlimited
    // lanes fork with the refunds already in their copy.
    const sm::BatchSimulator& sim = shared_simulator();
    const auto& jobs = sim.workload().jobs;
    const std::size_t n_clusters = sim.clusters().size();
    const double outage_s = 2.0 * 86400.0;
    sm::SimOptions base;
    base.policy = {"EFT", {}};
    base.regional_grids = true;
    base.outage = sm::ClusterOutage{2, outage_s, sim.clusters()[2].nodes};
    base.currency_budgets = {sm::CurrencyBudget{"gCO2e", {"CBA", {}}, 0.0}};
    std::vector<sm::SimOptions> ladder;
    for (const char* pricing : {"EBA", "CBA"}) {
        SCOPED_TRACE(pricing);
        base.pricing = {pricing, {}};
        const sm::QuoteTable quotes = sim.quote_table(sm::QuoteKey::of(base));
        // The jobs submitted before the outage, each at its cheapest and at
        // its dearest cluster.
        double cheapest = 0.0;
        double dearest = 0.0;
        for (std::size_t j = 0; j < jobs.size() && jobs[j].submit_s < outage_s; ++j) {
            std::vector<double> feasible;
            for (std::size_t c = 0; c < n_clusters; ++c) {
                if (jobs[j].cores > sim.clusters()[c].total_cores()) continue;
                feasible.push_back(quotes.quotes[j * n_clusters + c]);
            }
            if (feasible.empty()) continue;
            cheapest += *std::min_element(feasible.begin(), feasible.end());
            dearest += *std::max_element(feasible.begin(), feasible.end());
        }
        const double cost = sim.run(base).total_cost;
        ASSERT_LT(dearest, cost) << "a budget admits every job before the outage "
                                    "and binds after it";
        for (const sm::SimOptions& member :
             budget_ladder(base, {0.5 * (dearest + cost), 0.0, 0.5 * cheapest})) {
            ladder.push_back(member);
        }
    }

    const LadderRun run = expect_ladder_matches_direct_runs(sim, ladder);
    for (const std::size_t at : {0, 3}) {
        const sm::SimResult* r = &run.results[at];
        EXPECT_GT(r[1].jobs_skipped, 0u) << "the outage strands jobs";
        EXPECT_LT(r[2].jobs_completed, r[0].jobs_completed);
        EXPECT_LT(r[0].jobs_completed, r[1].jobs_completed);
    }
    // A CBA member's leg prices each job as its quote table does, so it
    // ends at the member's total cost bit for bit: a strand refunds the leg
    // at the job's submit time, as its admission charged it.
    for (const std::size_t m : {3, 4, 5}) {
        EXPECT_EQ(run.results[m].total_cost, run.results[m].currency_spent.at("gCO2e"))
            << "member " << m;
    }
}

TEST(BudgetLadder, NegativePricesMatchDirectRuns) {
    // Credits raise every member's remaining budget, so budgets bind and
    // recover; whatever their order, each member equals its direct run.
    // A larger budget leaves the leader no later than a smaller one: here
    // all three lanes leave at the leader's first refusal, as one fork
    // that the smallest of them leads, and so on down the ladder.
    register_test_policy_and_pricing();
    sm::SimOptions base;
    base.pricing = {"Rebate", {}};
    const auto unlimited = shared_simulator().run(base);
    const sm::QuoteTable quotes =
        shared_simulator().quote_table(sm::QuoteKey::of(base));
    EXPECT_LT(*std::min_element(quotes.quotes.begin(), quotes.quotes.end()), 0.0);
    const double cost = unlimited.total_cost;
    ASSERT_GT(cost, 0.0);
    const auto ladder =
        budget_ladder(base, {0.02 * cost, 0.0, 0.2 * cost, 0.05 * cost});
    const LadderRun run =
        expect_ladder_matches_direct_runs(shared_simulator(), ladder);
    const auto& r = run.results;
    EXPECT_LT(r[0].jobs_completed, r[3].jobs_completed);
    EXPECT_LT(r[3].jobs_completed, r[2].jobs_completed);
    EXPECT_EQ(run.order, (std::vector<std::size_t>{0, 3, 2, 1}));
}

/// `run_ladder` refuses `ladder` over `tables`.
void expect_refused(const std::vector<sm::SimOptions>& ladder,
                    const std::vector<const sm::QuoteTable*>& tables) {
    EXPECT_THROW(shared_simulator().run_ladder(
                     ladder, tables, [](std::size_t, const sm::SimResult&) {}),
                 ga::util::PreconditionError);
}

TEST(BudgetLadder, RefusesMembersThatDifferBeyondTheBudget) {
    register_test_policy_and_pricing();
    sm::SimOptions base;
    base.finish_times = true;
    std::vector<std::pair<sm::SimOptions, sm::SimOptions>> pairs(4, {base, base});
    pairs[0].second.policy = {"EFT", {}};
    pairs[1].second.outage = sm::ClusterOutage{0, 3600.0, 4};
    pairs[2].second.finish_times = false;
    pairs[3].second.currency_budgets = {
        sm::CurrencyBudget{"core-hours", {"Runtime", {}}, 1e6}};
    // A policy that may read the cost never ladders across pricings.
    for (const char* policy : {"Greedy", "Mixed", "BudgetPacing", "FirstFeasible"}) {
        sm::SimOptions eba = base;
        eba.policy = {policy, {}};
        sm::SimOptions cba = eba;
        cba.pricing = {"CBA", {}};
        pairs.emplace_back(eba, cba);
    }
    for (const auto& [first, second] : pairs) {
        SCOPED_TRACE(second.policy.name);
        std::vector<sm::SimOptions> ladder{first, second};
        ladder[1].budget = 1e9;
        const std::vector<sm::QuoteTable> tables =
            member_tables(shared_simulator(), ladder);
        expect_refused(ladder, pointers(tables));
    }
    // A price-blind ladder still needs each member's own table, one per
    // member.
    std::vector<sm::SimOptions> ladder{base, base};
    ladder[0].policy = ladder[1].policy = {"EFT", {}};
    ladder[1].pricing = {"CBA", {}};
    const std::vector<sm::QuoteTable> tables =
        member_tables(shared_simulator(), ladder);
    expect_refused(ladder, {&tables[0], &tables[0]});
    expect_refused(ladder, {&tables[1], &tables[1]});
    expect_refused(ladder, {&tables[0]});
    expect_refused(ladder, {&tables[0], nullptr});
    expect_refused({}, {});
}

TEST(BudgetLadder, PoliciesThatReadTheBudgetAreNeverLaddered) {
    // BudgetPacing routes by the remaining budget, and a registered policy
    // reads it unless it says otherwise: a ladder of two of either is
    // refused, while a ladder of one is a plain run.
    EXPECT_TRUE(sm::PolicyRegistry::global().make({"BudgetPacing", {}})->uses_budget());
    for (const auto& spec : sm::all_policies()) {
        EXPECT_FALSE(sm::PolicyRegistry::global().make(spec)->uses_budget())
            << spec.name;
    }
    for (const char* name : {"CarbonAware", "LeastLoaded"}) {
        EXPECT_FALSE(sm::PolicyRegistry::global().make({name, {}})->uses_budget())
            << name;
    }
    register_test_policy_and_pricing();
    for (const char* name : {"BudgetPacing", "FirstFeasible"}) {
        SCOPED_TRACE(name);
        sm::SimOptions base;
        base.policy = {name, {}};
        const auto ladder = budget_ladder(base, {0.0, 1e9});
        const std::vector<sm::QuoteTable> tables =
            member_tables(shared_simulator(), ladder);
        expect_refused(ladder, pointers(tables));
        expect_ladder_matches_direct_runs(shared_simulator(), {ladder[1]});
    }
}

TEST(BudgetLadder, PoliciesThatReadTheCostNeverLadderAcrossPricings) {
    // Greedy, Mixed and BudgetPacing route by the machines' costs; every
    // other builtin ignores them, and a registered policy reads them unless
    // it says otherwise.
    register_test_policy_and_pricing();
    const std::vector<std::string> cost_readers{"Greedy", "Mixed", "BudgetPacing",
                                                "FirstFeasible"};
    std::vector<sm::PolicySpec> builtins = sm::all_policies();
    builtins.insert(builtins.end(), sm::beyond_paper_policies().begin(),
                    sm::beyond_paper_policies().end());
    builtins.push_back({"FirstFeasible", {}});
    for (const sm::PolicySpec& spec : builtins) {
        const bool reads_cost = std::find(cost_readers.begin(), cost_readers.end(),
                                          spec.name) != cost_readers.end();
        EXPECT_EQ(sm::PolicyRegistry::global().make(spec)->uses_cost(), reads_cost)
            << spec.name;
    }
    EXPECT_FALSE(
        sm::PolicyRegistry::global().make({"CarbonAware", {{"forecast", 1}}})->uses_cost());
}

// Parameterized ablation: the Mixed policy interpolates between EFT-like
// (low threshold: switch eagerly for speed) and Greedy-like (high threshold:
// almost never switch) behavior.
class MixedThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(MixedThresholdSweep, CostBetweenGreedyAndEft) {
    const auto mixed =
        run_policy({"Mixed", {{"threshold", GetParam()}}}, "EBA");
    const double greedy =
        run_policy({"Greedy", {}}, "EBA").total_cost;
    const double eft = run_policy({"EFT", {}}, "EBA").total_cost;
    EXPECT_GE(mixed.total_cost, greedy * 0.999);
    EXPECT_LE(mixed.total_cost, std::max(greedy, eft) * 1.35);
}

TEST_P(MixedThresholdSweep, HigherThresholdNeverRaisesCost) {
    const auto lo = run_policy({"Mixed", {{"threshold", GetParam()}}}, "EBA");
    const auto hi =
        run_policy({"Mixed", {{"threshold", GetParam() * 4.0}}}, "EBA");
    // A stricter switching rule can only move choices toward the cheapest
    // machine, so total cost must not increase.
    EXPECT_LE(hi.total_cost, lo.total_cost * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, MixedThresholdSweep,
                         ::testing::Values(1.25, 1.5, 2.0, 3.0));

}  // namespace
