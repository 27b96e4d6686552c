// Property/invariant suite for the batch simulator over randomized traces.
//
// Two layers of guarantees, both exercised across seeds and scenario
// combinations (arrival processes, outages, budgets, dual currencies):
//
//   * executor equivalence — `run` (indexed queues) must be bit-identical
//     to `run_reference` (linear queues) on every input, the structural
//     proof that the queue index never changes a scheduling decision;
//   * conservation invariants — every job is completed or skipped exactly
//     once, finish times are consistent with the makespan, spending never
//     exceeds granted budgets, and repeated runs are deterministic.
//
// The suite ends with a 100k-job datacenter-scale tier (bursty diurnal
// arrivals) so the invariants hold under real queue pressure, not just toy
// traces.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "sim/simulator.hpp"
#include "sim_result_matchers.hpp"
#include "workload/workload.hpp"

namespace {

namespace sm = ga::sim;
namespace wl = ga::workload;

sm::BatchSimulator make_simulator(std::uint64_t seed, std::size_t base_jobs,
                                  std::size_t users,
                                  wl::ArrivalProcess arrival) {
    wl::TraceOptions o;
    o.base_jobs = base_jobs;
    o.users = users;
    o.span_days = 4.0;
    o.seed = seed;
    o.arrival = arrival;
    return sm::BatchSimulator(wl::build_workload(o));
}

/// Checks every cross-field invariant one SimResult must satisfy.
void expect_invariants(const sm::SimResult& r, const sm::SimOptions& options,
                       std::size_t total_jobs) {
    EXPECT_EQ(r.jobs_completed + r.jobs_skipped, total_jobs);
    EXPECT_EQ(r.finish_times_s.size(), r.jobs_completed);
    EXPECT_TRUE(
        std::is_sorted(r.finish_times_s.begin(), r.finish_times_s.end()));
    if (!r.finish_times_s.empty()) {
        EXPECT_EQ(r.makespan_s, r.finish_times_s.back());
    }
    std::size_t per_machine = 0;
    for (const auto& [name, count] : r.jobs_per_machine) per_machine += count;
    EXPECT_EQ(per_machine, r.jobs_completed);
    EXPECT_GE(r.work_core_hours, 0.0);
    EXPECT_GE(r.energy_mwh, 0.0);
    EXPECT_GE(r.operational_carbon_kg, 0.0);
    // Attributed = operational + embodied share.
    EXPECT_GE(r.attributed_carbon_kg, r.operational_carbon_kg);
    EXPECT_GE(r.total_cost, 0.0);
    // Budget caps hold up to accumulation rounding: admission checks the
    // running remainder, so the summed spend can differ from it by ulps.
    if (options.budget > 0.0) {
        EXPECT_LE(r.total_cost, options.budget * (1.0 + 1e-12));
    }
    EXPECT_EQ(r.currency_spent.size(), options.currency_budgets.size());
    for (const auto& cb : options.currency_budgets) {
        const auto it = r.currency_spent.find(cb.currency);
        ASSERT_NE(it, r.currency_spent.end());
        EXPECT_GE(it->second, 0.0);
        if (cb.budget > 0.0) {
            EXPECT_LE(it->second, cb.budget * (1.0 + 1e-12));
        }
    }
    if (r.jobs_completed > 0) {
        EXPECT_GT(r.work_core_hours, 0.0);
        EXPECT_GT(r.energy_mwh, 0.0);
    }
}

/// The scenario matrix one trace is pushed through: every structurally
/// distinct event-loop path (plain, budgeted, outage, compressed arrivals,
/// dual currencies, regional grids) in combination.
std::vector<sm::SimOptions> scenario_matrix() {
    std::vector<sm::SimOptions> all;

    sm::SimOptions plain;
    all.push_back(plain);

    sm::SimOptions budgeted;
    budgeted.policy = {"Mixed", {}};
    budgeted.budget = 2'000.0;
    all.push_back(budgeted);

    sm::SimOptions outage;
    outage.policy = {"Runtime", {}};
    outage.outage = sm::ClusterOutage{2, 12.0 * 3600.0, 30};
    all.push_back(outage);

    sm::SimOptions bursty;
    bursty.policy = {"EFT", {}};
    bursty.arrival_compression = 8.0;
    bursty.outage = sm::ClusterOutage{3, 6.0 * 3600.0, 48};
    all.push_back(bursty);

    sm::SimOptions dual;
    dual.pricing = {"CBA", {}};
    dual.currency_budgets = {
        {"core-hours", {"Runtime", {}}, 3'000.0},
        {"gCO2e", {"CBA", {}}, 1'500.0},
    };
    dual.budget = 5'000.0;
    all.push_back(dual);

    sm::SimOptions grids;
    grids.policy = {"Energy", {}};
    grids.regional_grids = true;
    grids.arrival_compression = 3.0;
    all.push_back(grids);

    for (sm::SimOptions& options : all) options.finish_times = true;
    return all;
}

TEST(SimProperties, IndexedMatchesReferenceAcrossSeedsAndScenarios) {
    for (const std::uint64_t seed : {3u, 71u, 911u}) {
        const auto arrival = seed % 2 == 0 ? wl::ArrivalProcess::Uniform
                                           : wl::ArrivalProcess::Diurnal;
        const auto sim = make_simulator(seed, 1'500, 60, arrival);
        const std::size_t total = sim.workload().jobs.size();
        for (const auto& options : scenario_matrix()) {
            const auto indexed = sim.run(options);
            const auto reference = sim.run_reference(options);
            ga::testutil::expect_identical(indexed, reference);
            expect_invariants(indexed, options, total);
        }
    }
}

TEST(SimProperties, RepeatedRunsAreDeterministic) {
    const auto sim =
        make_simulator(17, 1'200, 50, wl::ArrivalProcess::Diurnal);
    for (const auto& options : scenario_matrix()) {
        ga::testutil::expect_identical(sim.run(options), sim.run(options));
    }
}

TEST(SimProperties, OutageRefundsConserveBudgetAcrossSeeds) {
    // Budgeted runs with and without an outage keep net spending within the
    // budget (refunds of stranded jobs recycle allocation, so the outage
    // run may legitimately complete *different* — even more — work).
    // Unbudgeted, the outage's completed set is a subset of the healthy
    // run's, so its work total can only shrink.
    for (const std::uint64_t seed : {5u, 23u}) {
        const auto sim =
            make_simulator(seed, 1'000, 40, wl::ArrivalProcess::Diurnal);
        sm::SimOptions healthy;
        healthy.finish_times = true;
        sm::SimOptions outage = healthy;
        outage.outage = sm::ClusterOutage{0, 3'600.0, 32};

        const auto healthy_result = sim.run(healthy);
        const auto outage_result = sim.run(outage);
        expect_invariants(healthy_result, healthy,
                          sim.workload().jobs.size());
        expect_invariants(outage_result, outage, sim.workload().jobs.size());
        // Slack of a few ulps: the outage reorders finishes, so the same
        // completed set can sum in a different order.
        EXPECT_LE(outage_result.work_core_hours,
                  healthy_result.work_core_hours * (1.0 + 1e-12));

        sm::SimOptions budgeted = healthy;
        budgeted.budget = 1'000.0;
        sm::SimOptions budgeted_outage = outage;
        budgeted_outage.budget = 1'000.0;
        expect_invariants(sim.run(budgeted), budgeted,
                          sim.workload().jobs.size());
        expect_invariants(sim.run(budgeted_outage), budgeted_outage,
                          sim.workload().jobs.size());
    }
}

TEST(SimProperties, DatacenterScaleTierStaysIdenticalAndConserves) {
    // 100k jobs, bursty diurnal arrivals over a short span: deep queues on
    // every cluster, the regime the queue index exists for.
    wl::TraceOptions o;
    o.base_jobs = 50'000;
    o.users = 2'000;
    o.span_days = 5.0;
    o.seed = 99;
    o.arrival = wl::ArrivalProcess::Diurnal;
    o.burst_fraction = 0.30;
    const sm::BatchSimulator sim(wl::build_workload(o));
    const std::size_t total = sim.workload().jobs.size();
    ASSERT_EQ(total, 100'000u);

    sm::SimOptions plain;
    plain.finish_times = true;
    sm::SimOptions stressed = plain;
    stressed.arrival_compression = 6.0;
    stressed.outage = sm::ClusterOutage{3, 24.0 * 3600.0, 40};
    for (const auto& options : {plain, stressed}) {
        const auto indexed = sim.run(options);
        ga::testutil::expect_identical(indexed, sim.run_reference(options));
        expect_invariants(indexed, options, total);
        EXPECT_GT(indexed.jobs_completed, 0u);
    }
}

}  // namespace
