// Scheduler-level oracle: `Scheduler<IndexedQueues>` against
// `Scheduler<LinearQueues>`, below `BatchSimulator` and `ServeSession`, under
// the rules of each.
//
// A seeded random stream of submits, completions and outages drives both
// cores. After every step they must agree on the started (id, cluster, time)
// sequence, the stranded jobs, every queue's depth and order, the cluster
// tallies and the running jobs. Midway each core is checkpointed and
// restored into a fresh core, which must carry on exactly as the one it came
// from; under the per-user rule that means users running at the checkpoint
// stay blocked. Earlier, once a queue is several chunks deep, both cores are
// copied as a ladder fork copies its leader's state, and the copies go their
// own way: the indexed copy shares its original's queued entries, so each
// side must still match its linear twin. Two streams run: a mixed one over
// twelve users, and a heavy-user one whose long runs of equal core counts
// leave each user few prefix minima in the window, so starts and outages
// keep promoting entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "machine/catalog.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace {

namespace sm = ga::sim;
namespace mc = ga::machine;

using Started = std::tuple<std::uint64_t, std::size_t, double>;

/// One scheduling core plus what its hooks reported.
template <typename Queues>
struct Core {
    sm::Scheduler<Queues> core;
    std::vector<Started> started;
    std::vector<std::uint64_t> stranded;
    std::vector<bool> submitted_running;

    auto on_start() {
        return [this](const sm::QueuedJob& job, std::size_t c, double now) {
            started.emplace_back(job.id, c, now);
        };
    }
    /// As `BatchSimulator` and `ServeSession` do: completions due by `now`
    /// first, then the submit.
    void submit(std::size_t c, const sm::QueuedJob& job, double now) {
        core.complete_until(now, sm::NoHook{}, on_start());
        submitted_running.push_back(core.submit(c, job, now, on_start()));
    }
    void complete_until(double t) {
        core.complete_until(t, sm::NoHook{}, on_start());
    }
    void shrink(std::size_t c, int lost) {
        core.shrink(c, lost, [this](const sm::QueuedJob& job) {
            stranded.push_back(job.id);
        });
    }

    /// A fresh core restored from this one's checkpoint, with the hook
    /// records carried over so the two stay comparable.
    void restore_from(const Core& from, std::span<const sm::ClusterConfig> clusters,
                      const sm::RunSetup& setup, sm::SchedulerRules rules) {
        core.reset(clusters, setup, rules);
        const std::vector<sm::RunningJob> running = from.core.running_jobs();
        for (std::size_t c = 0; c < clusters.size(); ++c) {
            std::vector<sm::RunningJob> here;
            for (const sm::RunningJob& job : running) {
                if (job.cluster == c) here.push_back(job);
            }
            std::vector<sm::QueuedJob> queued;
            from.core.for_each_queued(
                c, [&](const sm::QueuedJob& job) { queued.push_back(job); });
            core.restore(c, from.core.cluster(c), here, queued);
        }
        started = from.started;
        stranded = from.stranded;
        submitted_running = from.submitted_running;
    }
};

using QueuedKey = std::tuple<std::uint64_t, int, std::uint32_t, double>;
using RunningKey =
    std::tuple<double, std::uint64_t, std::uint32_t, int, std::uint32_t>;
using ClusterKey = std::tuple<int, int, double, std::uint64_t, std::uint64_t>;

/// Everything a caller can observe of a core, in comparable form.
struct Observed {
    std::vector<Started> started;
    std::vector<std::uint64_t> stranded;
    std::vector<bool> submitted_running;
    std::vector<std::size_t> depth;
    std::vector<std::vector<QueuedKey>> queued;
    std::vector<ClusterKey> clusters;
    std::vector<RunningKey> running;

    bool operator==(const Observed&) const = default;
};

template <typename Queues>
Observed observe(const Core<Queues>& c, std::size_t n_clusters) {
    Observed o{c.started, c.stranded, c.submitted_running, {}, {}, {}, {}};
    for (std::size_t k = 0; k < n_clusters; ++k) {
        o.depth.push_back(c.core.depth(k));
        std::vector<QueuedKey>& q = o.queued.emplace_back();
        c.core.for_each_queued(k, [&](const sm::QueuedJob& job) {
            q.emplace_back(job.id, job.cores, job.user, job.runtime_s);
        });
        const sm::ClusterState& cs = c.core.cluster(k);
        o.clusters.emplace_back(cs.capacity, cs.free_cores,
                                cs.queued_core_seconds, cs.started,
                                cs.completed);
    }
    for (const sm::RunningJob& job : c.core.running_jobs()) {
        o.running.emplace_back(job.finish_s, job.id, job.cluster, job.cores,
                               job.user);
    }
    return o;
}

/// The batch simulator's rules, the session's, and skip-ahead without the
/// per-user rule (the index with every user free).
struct RulesCase {
    std::string name;
    sm::SchedulerRules rules;
};

void PrintTo(const RulesCase& rules, std::ostream* os) { *os << rules.name; }

const RulesCase kRules[] = {
    {"Batch", {sm::QueueOrder::SkipAhead, true, false, true}},
    {"Session", {sm::QueueOrder::StrictFifo, false, true, false}},
    {"SkipAheadNoUserRule", {sm::QueueOrder::SkipAhead, true, false, false}},
};

class SchedulerOracle : public ::testing::TestWithParam<RulesCase> {};

/// The first stream: twelve users, mostly narrow jobs and some up to the
/// cluster's capacity, and two outages at random steps.
struct MixedStream {
    int outages_left = 2;

    /// Whether step `step`, which drew `roll`, takes cores from a cluster.
    bool outage_now(int /*step*/, double roll) {
        if (roll < 0.99 || outages_left == 0) return false;
        --outages_left;
        return true;
    }
    static constexpr int kLostCores = 8;

    sm::QueuedJob next(ga::util::Rng& rng, std::uint64_t id, int capacity,
                       double& now) {
        const int cores = rng.bernoulli(0.15)
                              ? static_cast<int>(rng.uniform_int(1, capacity))
                              : static_cast<int>(rng.uniform_int(1, 12));
        if (!rng.bernoulli(0.3)) now += rng.uniform(0.0, 4.0);
        return sm::QueuedJob{id, cores,
                             static_cast<std::uint32_t>(rng.uniform_int(0, 11)),
                             static_cast<double>(rng.uniform_int(20, 400))};
    }
};

/// sim_paper's shape: three heavy users, each submitting long runs of one
/// core count broken by strictly narrower jobs, so most of a user's window
/// entries are not prefix minima, and two outages while the queues are deep.
struct HeavyUserStream {
    static constexpr int kWidths[] = {8, 16, 24, 40, 48};
    int run_cores[3] = {0, 0, 0};  ///< each user's current run, 0 before one

    static bool outage_now(int step, double /*roll*/) {
        return step == 2400 || step == 4500;
    }
    static constexpr int kLostCores = 20;

    sm::QueuedJob next(ga::util::Rng& rng, std::uint64_t id, int capacity,
                       double& now) {
        const auto user = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
        int& run = run_cores[user];
        if (run == 0 || rng.bernoulli(0.02)) {
            run = kWidths[rng.uniform_int(0, std::size(kWidths) - 1)];
        }
        const int cores = rng.bernoulli(0.1)
                              ? static_cast<int>(rng.uniform_int(1, run - 1))
                              : run;
        if (!rng.bernoulli(0.3)) now += rng.uniform(0.0, 4.0);
        return sm::QueuedJob{id, std::min(cores, capacity), user,
                             static_cast<double>(rng.uniform_int(20, 400))};
    }
};

/// One seeded stream of steps: a submit, a completion pass or an outage,
/// each applied alike to every core it is given.
template <typename Stream>
struct OpStream {
    Stream stream;
    ga::util::Rng rng;
    double now = 0.0;
    std::uint64_t next_id = 0;

    /// Takes step `step`, in which a completion pass moves the clock by up
    /// to `advance` seconds.
    template <typename First, typename... Rest>
    void step(int step, double advance, First& first, Rest&... rest) {
        const double roll = rng.uniform();
        if (stream.outage_now(step, roll)) {
            const auto c = static_cast<std::size_t>(rng.uniform_int(0, 1));
            first.shrink(c, Stream::kLostCores);
            (rest.shrink(c, Stream::kLostCores), ...);
        } else if (roll < 0.6) {
            const auto c = static_cast<std::size_t>(rng.uniform_int(0, 1));
            const sm::QueuedJob job = stream.next(
                rng, next_id++, first.core.cluster(c).capacity, now);
            first.submit(c, job, now);
            (rest.submit(c, job, now), ...);
        } else {
            now += rng.uniform(0.0, advance);
            first.complete_until(now);
            (rest.complete_until(now), ...);
        }
    }
};

/// Drives an indexed and a linear core through seeded `Stream`s of submits,
/// completions and outages, and from midway a restored twin of each,
/// comparing them after every step. From a quarter of the way, once a
/// queue is more than two chunks of the indexed tail deep, both cores are
/// copied as a ladder fork copies them, and the copies take a stream of
/// their own, outages included: each copy must match its linear twin, and
/// each original its own, so a write into a chunk the other side shares
/// shows as a divergence. Adds the number of queued jobs the outages
/// stranded to `stranded`.
template <typename Stream>
void expect_indexed_matches_linear(const sm::SchedulerRules& rules,
                                   std::size_t& stranded) {
    // A 48-core and a 64-core cluster: small enough for deep queues, two so
    // the per-user flags are per cluster.
    const std::vector<sm::ClusterConfig> clusters{
        sm::ClusterConfig{mc::find("IC"), 1},
        sm::ClusterConfig{mc::find("Theta"), 1}};
    const sm::RunSetup setup(sm::SimOptions{}, clusters);
    constexpr std::size_t kForkDepth = 2 * sm::IndexedQueues::kChunkEntries;

    for (const std::uint64_t seed : {11u, 12u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Core<sm::IndexedQueues> indexed;
        Core<sm::LinearQueues> linear;
        indexed.core.reset(clusters, setup, rules);
        linear.core.reset(clusters, setup, rules);
        Core<sm::IndexedQueues> indexed_restored;
        Core<sm::LinearQueues> linear_restored;
        Core<sm::IndexedQueues> indexed_fork;
        Core<sm::LinearQueues> linear_fork;

        OpStream<Stream> ops{Stream{}, ga::util::Rng(seed)};
        std::optional<OpStream<Stream>> fork;
        std::size_t fork_depth = 0;
        constexpr int kSteps = 10000;
        std::size_t deepest = 0;
        for (int step = 0; step < kSteps; ++step) {
            SCOPED_TRACE("step " + std::to_string(step));
            if (step == kSteps / 2) {
                indexed_restored.restore_from(indexed, clusters, setup, rules);
                linear_restored.restore_from(linear, clusters, setup, rules);
            }
            const bool restored = step >= kSteps / 2;
            // The first half builds queues deeper than the backfill window;
            // the second lets them drain.
            const double advance = step < kSteps / 2 ? 2.0 : 120.0;
            if (restored) {
                ops.step(step, advance, indexed, linear, indexed_restored,
                         linear_restored);
            } else {
                ops.step(step, advance, indexed, linear);
            }
            if (fork) fork->step(step, advance, indexed_fork, linear_fork);
            const Observed expected = observe(linear, clusters.size());
            ASSERT_TRUE(observe(indexed, clusters.size()) == expected);
            if (restored) {
                ASSERT_TRUE(observe(indexed_restored, clusters.size()) ==
                            expected);
                ASSERT_TRUE(observe(linear_restored, clusters.size()) ==
                            expected);
            }
            if (fork) {
                ASSERT_TRUE(observe(indexed_fork, clusters.size()) ==
                            observe(linear_fork, clusters.size()));
            }
            deepest = std::max(deepest, expected.depth[0]);
            deepest = std::max(deepest, expected.depth[1]);
            if (!fork && step >= kSteps / 4 &&
                std::max(expected.depth[0], expected.depth[1]) > kForkDepth) {
                indexed_fork = indexed;
                linear_fork = linear;
                fork_depth = std::max(expected.depth[0], expected.depth[1]);
                fork.emplace(OpStream<Stream>{Stream{}, ga::util::Rng(seed + 100),
                                              ops.now, ops.next_id});
            }
        }
        // The stream must have reached past the window and started jobs,
        // and the copies must have shared a queue of several chunks.
        EXPECT_GT(deepest, 2 * sm::kBackfillDepth);
        EXPECT_GT(linear.started.size(), 1000u);
        ASSERT_GT(fork_depth, kForkDepth);
        EXPECT_FALSE(observe(indexed_fork, clusters.size()) ==
                     observe(indexed, clusters.size()));
        stranded += linear.stranded.size();
    }
}

TEST_P(SchedulerOracle, IndexedMatchesLinearThroughARestore) {
    std::size_t stranded = 0;
    expect_indexed_matches_linear<MixedStream>(GetParam().rules, stranded);
}

TEST_P(SchedulerOracle, HeavyUsersMatchLinearThroughARestore) {
    std::size_t stranded = 0;
    expect_indexed_matches_linear<HeavyUserStream>(GetParam().rules, stranded);
    // The outage lands on deep queues and strands entries in and behind the
    // window, prefix minima among them.
    EXPECT_GT(stranded, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Rules, SchedulerOracle, ::testing::ValuesIn(kRules),
    [](const ::testing::TestParamInfo<RulesCase>& info) {
        return info.param.name;
    });

template <typename Queues>
void expect_restored_user_stays_blocked() {
    const std::vector<sm::ClusterConfig> clusters{
        sm::ClusterConfig{mc::find("IC"), 1}};
    const sm::RunSetup setup(sm::SimOptions{}, clusters);
    const sm::SchedulerRules rules{};  // the batch rules
    Core<Queues> before;
    before.core.reset(clusters, setup, rules);
    before.submit(0, sm::QueuedJob{0, 8, 7, 1000.0}, 0.0);  // user 7 runs
    before.submit(0, sm::QueuedJob{1, 8, 7, 100.0}, 1.0);   // and waits

    Core<Queues> after;
    after.restore_from(before, clusters, setup, rules);
    // Another user's job starts at once; user 7's queued job, which fits
    // the free cores, still waits for the running one.
    after.submit(0, sm::QueuedJob{2, 8, 8, 100.0}, 2.0);
    EXPECT_EQ(after.core.depth(0), 1u);
    ASSERT_EQ(after.started.size(), 2u);
    EXPECT_EQ(after.started.back(), Started(2, 0, 2.0));
    after.complete_until(1000.0);
    EXPECT_EQ(after.core.depth(0), 0u);
    EXPECT_EQ(after.started.back(), Started(1, 0, 1000.0));
}

TEST(SchedulerRestore, RunningUsersStayBlockedIndexed) {
    expect_restored_user_stays_blocked<sm::IndexedQueues>();
}

TEST(SchedulerRestore, RunningUsersStayBlockedLinear) {
    expect_restored_user_stays_blocked<sm::LinearQueues>();
}

}  // namespace
