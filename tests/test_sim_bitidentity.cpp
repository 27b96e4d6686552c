// Bit-identity regression suite for the indexed simulator hot path.
//
// The indexed queue (`run`) must make exactly the decisions the linear
// executor (`run_reference`) makes, on adversarial queue shapes chosen to
// break tie-handling shortcuts: simultaneous events, exact-capacity fits,
// eligible jobs straddling the kBackfillDepth window, and an outage landing
// between a finish and a submit at the same timestamp. Where a scalar pins
// the semantics, it is pinned as a hexfloat literal — any change to event
// ordering, queue traversal, or float-op sequencing trips an exact mismatch,
// not a tolerance.
#include <gtest/gtest.h>

#include <cmath>

#include "machine/catalog.hpp"
#include "pair_prediction.hpp"
#include "sim/simulator.hpp"
#include "sim_result_matchers.hpp"
#include "workload/workload.hpp"

namespace {

namespace sm = ga::sim;
namespace wl = ga::workload;
namespace mc = ga::machine;

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

/// Single one-node IC cluster (48 cores): every queue decision is visible.
std::vector<sm::ClusterConfig> one_ic() {
    return {sm::ClusterConfig{mc::find("IC"), 1}};
}

/// Runs both executors with finish times recorded, demands bit-identity,
/// returns the indexed result.
sm::SimResult run_both(const sm::BatchSimulator& sim, sm::SimOptions options) {
    options.finish_times = true;
    const auto indexed = sim.run(options);
    ga::testutil::expect_identical(indexed, sim.run_reference(options));
    return indexed;
}

bool contains_time(const std::vector<double>& times, double t) {
    for (const double v : times) {
        if (std::abs(v - t) < 1e-6) return true;
    }
    return false;
}

TEST(BitIdentity, SimultaneousSubmitsAndFinishesResolveByJobId) {
    // Six jobs, three users, all submitted at t=0 with equal runtimes: the
    // event queue is all ties. Submit order (and thus queue order) must be
    // job-id order; the per-user rule then admits exactly one job per user.
    std::vector<wl::TraceJob> jobs;
    for (std::uint32_t i = 0; i < 6; ++i) {
        jobs.push_back(make_job(i, i % 3, 0, 16, 0.0, 500.0));
    }
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());
    const auto r = run_both(sim, sm::SimOptions{});
    EXPECT_EQ(r.jobs_completed, 6u);
    // Users 0,1,2 run jobs 0,1,2 together (48 cores exactly); jobs 3,4,5
    // wait for their users' first finish, then run together.
    ASSERT_EQ(r.finish_times_s.size(), 6u);
    EXPECT_EQ(r.finish_times_s[0], r.finish_times_s[2]);
    EXPECT_EQ(r.finish_times_s[3], r.finish_times_s[5]);
    EXPECT_EQ(r.finish_times_s[3], 2.0 * r.finish_times_s[0]);
}

TEST(BitIdentity, ExactCapacityFitStartsAndOneCoreMoreWaits) {
    // J0 takes 24 cores. J1 (24 cores) fits the free half exactly and must
    // start at submit; J2 (25 cores > 24+... free 0 now) queues until a
    // finish frees capacity. Exact-fit comparisons are the <= boundary the
    // index's min-tree search must not shift.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 24, 0.0, 1000.0));
    jobs.push_back(make_job(1, 1, 0, 24, 10.0, 400.0));
    jobs.push_back(make_job(2, 2, 0, 25, 20.0, 100.0));
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());
    const auto r = run_both(sim, sm::SimOptions{});
    EXPECT_EQ(r.jobs_completed, 3u);
    const auto& w = sim.workload();
    const std::size_t ic = w.predictor->machine_index("IC");
    const double r1 = ga::testutil::pair_prediction(w, 1)[ic].runtime_s;
    // J1 started at its submit time (exact fit), not at J0's finish.
    EXPECT_TRUE(contains_time(r.finish_times_s, 10.0 + r1));
}

TEST(BitIdentity, BackfillWindowBoundsTheSkipAhead) {
    // User 1 occupies one core with a long job, then queues 300 more
    // one-core jobs behind the per-user rule. A job from user 2 lands at
    // queue position 300 — beyond the 256-entry backfill window — so it
    // must NOT start at submit even though 47 cores sit free; it starts
    // only once enough of user 1's jobs have drained to pull it inside the
    // window. A control trace with the eligible job at position 200 starts
    // it immediately. Both shapes must be executor-identical.
    const double kLong = 100'000.0;
    const double kShort = 100.0;

    for (const std::size_t blocked : {300u, 200u}) {
        std::vector<wl::TraceJob> jobs;
        std::uint32_t id = 0;
        jobs.push_back(make_job(id++, 1, 0, 1, 0.0, kLong));
        for (std::size_t i = 0; i < blocked; ++i) {
            jobs.push_back(make_job(id++, 1, 1, 1, 1.0, kShort));
        }
        jobs.push_back(make_job(id++, 2, 0, 1, 2.0, kShort));
        const sm::BatchSimulator sim(craft_workload(std::move(jobs)),
                                     one_ic());
        const auto r = run_both(sim, sm::SimOptions{});
        EXPECT_EQ(r.jobs_completed, blocked + 2);

        const auto& w = sim.workload();
        const std::size_t ic = w.predictor->machine_index("IC");
        const std::uint32_t user2_job = static_cast<std::uint32_t>(id - 1);
        const double run_user2 =
            ga::testutil::pair_prediction(w, user2_job)[ic].runtime_s;
        const bool started_at_submit =
            contains_time(r.finish_times_s, 2.0 + run_user2);
        if (blocked < 256) {
            EXPECT_TRUE(started_at_submit)
                << "eligible job inside the window must start at submit";
        } else {
            EXPECT_FALSE(started_at_submit)
                << "eligible job beyond kBackfillDepth must wait";
        }
    }
}

TEST(BitIdentity, OutageBetweenSimultaneousFinishAndSubmit) {
    // At t = finish of J0, three events carry the same timestamp: J0's
    // finish, a full outage, and J2's submit. The pinned order is
    // Finish < Outage < Submit: the finish-drain starts queued J1 first,
    // the outage then strands nothing runnable but wipes remaining
    // capacity, and J2's submit finds an infeasible cluster and is skipped.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 48, 0.0, 1000.0));
    jobs.push_back(make_job(1, 1, 0, 48, 10.0, 500.0));
    const sm::BatchSimulator probe(craft_workload(jobs), one_ic());
    const auto& pw = probe.workload();
    const std::size_t ic = pw.predictor->machine_index("IC");
    const double finish0 = ga::testutil::pair_prediction(pw, 0)[ic].runtime_s;

    jobs.push_back(make_job(2, 2, 0, 1, finish0, 100.0));
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());

    sm::SimOptions options;
    options.outage = sm::ClusterOutage{0, finish0, 1};
    const auto r = run_both(sim, options);
    // J0 completes; J1 starts at the drain belonging to J0's finish (before
    // the outage shrinks the pool) and runs to completion on the retained
    // cores; J2 is skipped by the post-outage submit.
    EXPECT_EQ(r.jobs_completed, 2u);
    EXPECT_EQ(r.jobs_skipped, 1u);
}

TEST(BitIdentity, OutageMidQueueRefundsStrandedJobsExactly) {
    // Budgeted run: J1/J2 are charged at admission and queue behind J0.
    // The outage halves nothing — it wipes 1 of 1 nodes — so both queued
    // jobs are stranded and refunded; the budget ends where it started
    // minus J0's charge only. Pinned via executor identity plus exact
    // skip/completion counts.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 48, 0.0, 2000.0));
    jobs.push_back(make_job(1, 1, 0, 24, 10.0, 300.0));
    jobs.push_back(make_job(2, 2, 0, 24, 20.0, 300.0));
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());

    sm::SimOptions options;
    options.budget = 1e9;  // generous: all three admit (and are charged)
    options.outage = sm::ClusterOutage{0, 100.0, 1};
    const auto r = run_both(sim, options);
    EXPECT_EQ(r.jobs_completed, 1u);  // J0 runs to completion
    EXPECT_EQ(r.jobs_skipped, 2u);    // J1, J2 stranded and refunded
    // The refunds must leave exactly J0's cost on the ledger: re-running
    // without the queued jobs charges the same total.
    std::vector<wl::TraceJob> only_j0;
    only_j0.push_back(make_job(0, 0, 0, 48, 0.0, 2000.0));
    const sm::BatchSimulator solo(craft_workload(std::move(only_j0)),
                                  one_ic());
    const auto solo_r = run_both(solo, [] {
        sm::SimOptions o;
        o.budget = 1e9;
        return o;
    }());
    // Not EXPECT_EQ: the refund path computes c0+c1+c2-c1-c2, which differs
    // from c0 by accumulation rounding.
    EXPECT_NEAR(r.total_cost, solo_r.total_cost,
                1e-12 * std::abs(solo_r.total_cost));
}

/// The predicted runtime of `sim`'s job `j` on the IC cluster.
double ic_runtime(const sm::BatchSimulator& sim, std::uint32_t j) {
    const auto& w = sim.workload();
    return ga::testutil::pair_prediction(w, j)[w.predictor->machine_index("IC")]
        .runtime_s;
}

TEST(BitIdentity, FreeUserSkipsItsWideEntryForANarrowOne) {
    // J0 and J1 fill the node. Behind them, user 1 queues a 16-core job,
    // then a 4-core one; user 2 queues a 2-core job, and user 1 another
    // 2-core one. J1's finish frees 8 cores: the drain passes user 1's wide
    // entry on demand alone, starts user 1's narrow one and then user 2's,
    // and leaves user 1's last entry waiting on the per-user rule although
    // its cores fit.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 40, 0.0, 10'000.0));
    jobs.push_back(make_job(1, 3, 0, 8, 0.0, 500.0));
    // Distinct runtimes, so each finish time names its job's start.
    jobs.push_back(make_job(2, 1, 0, 16, 1.0, 100.0));
    jobs.push_back(make_job(3, 1, 1, 4, 2.0, 110.0));
    jobs.push_back(make_job(4, 2, 2, 2, 3.0, 120.0));
    jobs.push_back(make_job(5, 1, 3, 2, 4.0, 130.0));
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());
    const auto r = run_both(sim, sm::SimOptions{});
    EXPECT_EQ(r.jobs_completed, 6u);
    const double freed = ic_runtime(sim, 1);
    EXPECT_FALSE(contains_time(r.finish_times_s, freed + ic_runtime(sim, 2)));
    EXPECT_TRUE(contains_time(r.finish_times_s, freed + ic_runtime(sim, 3)));
    EXPECT_TRUE(contains_time(r.finish_times_s, freed + ic_runtime(sim, 4)));
    EXPECT_FALSE(contains_time(r.finish_times_s, freed + ic_runtime(sim, 5)));
}

TEST(BitIdentity, LaterNarrowEntryStartsFirstThenEarlierWideOnes) {
    // J0 holds 20 of the 48 cores for the whole run and J1 24 for a while,
    // leaving 4. User 1 queues W (24 cores), X (30), Y (28) and Z (24), then
    // N (4), which starts at once. Until then only W and N have fewer cores
    // than each earlier entry of user 1. When N ends, with J1 gone, W
    // starts, and X, Y and Z take its place as such entries. So W's finish
    // starts Y (X needs 30), Y's finish starts Z, and X waits for J0.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 20, 0.0, 100'000.0));
    jobs.push_back(make_job(1, 3, 0, 24, 0.0, 300.0));
    jobs.push_back(make_job(2, 1, 0, 24, 1.0, 100.0));  // W
    jobs.push_back(make_job(3, 1, 1, 30, 2.0, 110.0));  // X
    jobs.push_back(make_job(4, 1, 2, 28, 3.0, 120.0));  // Y
    jobs.push_back(make_job(5, 1, 3, 24, 4.0, 130.0));  // Z
    jobs.push_back(make_job(6, 1, 0, 4, 5.0, 600.0));   // N
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());
    const auto r = run_both(sim, sm::SimOptions{});
    EXPECT_EQ(r.jobs_completed, 7u);
    const double n_end = 5.0 + ic_runtime(sim, 6);
    ASSERT_LT(ic_runtime(sim, 1), n_end);  // J1 is gone when N ends
    const double w_end = n_end + ic_runtime(sim, 2);
    const double y_end = w_end + ic_runtime(sim, 4);
    EXPECT_TRUE(contains_time(r.finish_times_s, n_end));
    EXPECT_TRUE(contains_time(r.finish_times_s, w_end));
    EXPECT_TRUE(contains_time(r.finish_times_s, y_end));
    EXPECT_TRUE(contains_time(r.finish_times_s, y_end + ic_runtime(sim, 5)));
    EXPECT_TRUE(contains_time(r.finish_times_s,
                              ic_runtime(sim, 0) + ic_runtime(sim, 3)));
}

TEST(BitIdentity, EntriesSlidingIntoTheWindowWaitForTheNextDrain) {
    // J0 fills the node while 259 one-core jobs queue: users 1, 2 and 3
    // first, then 253 more of user 1's, then users 4, 5 and 6 at queue
    // positions 256-258, just past the backfill window. J0's finish drains
    // the queue with 48 free cores: it starts the three jobs in front, and
    // the three that slide into the window behind them wait for the next
    // drain, a submit one second later, although they fit at once.
    std::vector<wl::TraceJob> jobs;
    std::uint32_t id = 0;
    jobs.push_back(make_job(id++, 0, 0, 48, 0.0, 10'000.0));
    for (std::uint32_t user = 1; user <= 3; ++user) {
        jobs.push_back(make_job(id++, user, 0, 1, 1.0, 1'000.0));
    }
    for (int i = 0; i < 253; ++i) {
        jobs.push_back(make_job(id++, 1, 1, 1, 1.0, 1'000.0));
    }
    const std::uint32_t first_outside = id;
    for (std::uint32_t user = 4; user <= 6; ++user) {
        jobs.push_back(make_job(id++, user, 2, 1, 1.0, 100.0));
    }
    const double finish0 = [&] {
        const sm::BatchSimulator probe(craft_workload(jobs), one_ic());
        return ic_runtime(probe, 0);
    }();
    // The next drain: a job too wide to start, submitted a second later.
    jobs.push_back(make_job(id++, 7, 0, 48, finish0 + 1.0, 100.0));
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());
    const auto r = run_both(sim, sm::SimOptions{});
    EXPECT_EQ(r.jobs_completed, static_cast<std::uint64_t>(id));
    for (std::uint32_t j = 1; j <= 3; ++j) {
        EXPECT_TRUE(contains_time(r.finish_times_s, finish0 + ic_runtime(sim, j)));
    }
    for (std::uint32_t j = first_outside; j < first_outside + 3; ++j) {
        const double run = ic_runtime(sim, j);
        EXPECT_FALSE(contains_time(r.finish_times_s, finish0 + run))
            << "job " << j << " slid into the window during the drain";
        EXPECT_TRUE(contains_time(r.finish_times_s, finish0 + 1.0 + run))
            << "job " << j << " must start at the next drain";
    }
}

TEST(BitIdentity, BlockedFrontOutlastsManyWindowsOfStarts) {
    // User 0 runs one long job, so its queued jobs stay blocked: one at the
    // front of the queue and one in every fifty that follow. Behind the
    // front, 600 one-core jobs from other users arrive and start at once,
    // far more than twice the backfill window, so the window's storage
    // cycles past its blocked entries many times. When the long job ends,
    // the front starts at once.
    std::vector<wl::TraceJob> jobs;
    std::uint32_t id = 0;
    jobs.push_back(make_job(id++, 0, 0, 1, 0.0, 100'000.0));
    jobs.push_back(make_job(id++, 0, 1, 1, 1.0, 50.0));
    for (std::uint32_t i = 0; i < 600; ++i) {
        const std::uint32_t user = i % 50 == 49 ? 0 : 1 + i;
        jobs.push_back(make_job(id++, user, i % 3, 1, 2.0 + 10.0 * i, 30.0));
    }
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());
    const auto r = run_both(sim, sm::SimOptions{});
    EXPECT_EQ(r.jobs_completed, static_cast<std::uint64_t>(id));
    EXPECT_TRUE(contains_time(r.finish_times_s,
                              ic_runtime(sim, 0) + ic_runtime(sim, 1)));
}

TEST(BitIdentity, OutageStrandsAroundHiddenEntriesAndHoles) {
    // A two-node IC cluster (96 cores). User 0's long 80-core job leaves
    // 16 free. Its queued jobs A (4 cores) and D (50) are hidden by the
    // per-user rule; B (60) and F (30) do not fit; C and E start at submit,
    // leaving holes between them. The outage takes a node, stranding B and
    // D (wider than the 48 cores left) and refunding their charges, and
    // keeps A and F, which start when the long job ends.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 80, 0.0, 5'000.0));
    jobs.push_back(make_job(1, 0, 1, 4, 1.0, 100.0));    // A
    jobs.push_back(make_job(2, 1, 0, 60, 2.0, 100.0));   // B
    jobs.push_back(make_job(3, 2, 0, 4, 3.0, 50.0));     // C
    jobs.push_back(make_job(4, 0, 2, 50, 4.0, 100.0));   // D
    jobs.push_back(make_job(5, 3, 0, 4, 5.0, 50.0));     // E
    jobs.push_back(make_job(6, 4, 0, 30, 6.0, 100.0));   // F
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)),
                                 {sm::ClusterConfig{mc::find("IC"), 2}});
    sm::SimOptions options;
    options.budget = 1e9;
    options.outage = sm::ClusterOutage{0, 200.0, 1};
    const auto r = run_both(sim, options);
    EXPECT_EQ(r.jobs_completed, 5u);
    EXPECT_EQ(r.jobs_skipped, 2u);
    const double finish0 = ic_runtime(sim, 0);
    EXPECT_TRUE(contains_time(r.finish_times_s, finish0 + ic_runtime(sim, 1)));
    EXPECT_TRUE(contains_time(r.finish_times_s, finish0 + ic_runtime(sim, 6)));
}

TEST(BitIdentity, CoreBoundQueueSkipsFreeUsersOnDemand) {
    // Wide jobs (17 to 48 cores) on one 48-core node arrive faster than it
    // runs them: one or two jobs run at a time, so almost every queued
    // entry's user is free and core demand alone decides which entries a
    // drain skips. The queue grows past the backfill window.
    std::vector<wl::TraceJob> jobs;
    std::uint64_t lcg = 12345;
    const auto next = [&lcg](std::uint64_t n) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return (lcg >> 33) % n;
    };
    const int widths[] = {17, 24, 33, 40, 48};
    for (std::uint32_t i = 0; i < 600; ++i) {
        jobs.push_back(make_job(i, static_cast<std::uint32_t>(next(40)),
                                static_cast<std::uint32_t>(next(4)),
                                widths[next(5)], 5.0 * i,
                                200.0 + static_cast<double>(next(800))));
    }
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());
    const auto r = run_both(sim, sm::SimOptions{});
    EXPECT_EQ(r.jobs_completed, 600u);
}

TEST(BitIdentity, GeneratedTraceScalarsPinnedHexfloat) {
    // A generated 2k-job trace over the default four clusters, one run per
    // arrival process, with makespan and total cost pinned bit-exactly.
    // These literals were produced by this executor pair (which agree to
    // the bit); any future change to event ordering, queue traversal, or
    // the order of floating-point operations in the hot path will move at
    // least one of them.
    for (const auto arrival :
         {wl::ArrivalProcess::Uniform, wl::ArrivalProcess::Diurnal}) {
        wl::TraceOptions o;
        o.base_jobs = 1'000;
        o.users = 40;
        o.span_days = 2.0;
        o.seed = 4242;
        o.arrival = arrival;
        const sm::BatchSimulator sim(wl::build_workload(o));
        const auto r = run_both(sim, sm::SimOptions{});
        EXPECT_EQ(r.jobs_completed, 2'000u);
        if (arrival == wl::ArrivalProcess::Uniform) {
            EXPECT_EQ(r.makespan_s, 0x1.f46661795f4cep+18);
            EXPECT_EQ(r.total_cost, 0x1.4f59256ca2259p+28);
        } else {
            EXPECT_EQ(r.makespan_s, 0x1.0a5a4df0ce40fp+19);
            EXPECT_EQ(r.total_cost, 0x1.66a6191fcc3d7p+28);
        }
    }
}

}  // namespace
