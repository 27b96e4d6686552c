// Live heap bytes a `BatchSimulator` keeps for its workload, and what a copy
// of deep ready queues (a ladder fork's) adds. Its own binary, because it
// replaces the global allocation functions to count the live bytes of every
// ordinary `new` in the process (the over-aligned forms stay the library's;
// nothing the simulator holds is over-aligned). A job's per-cluster runtime
// and power derive from its (user, app) pair's scaling, so the simulator
// keeps per job only its machine-averaged work; a per-job, per-cluster array
// would show here. A queue copy shares the queued entries, so one that
// copied them would show here too.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace {

/// Usable bytes of every block the replaced allocation functions hold.
/// build_workload allocates from two threads, so the count is atomic.
std::atomic<std::int64_t> live_bytes{0};

void* counted_new(std::size_t size) {
    void* block = std::malloc(size == 0 ? 1 : size);
    if (block == nullptr) throw std::bad_alloc();
    live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(block)),
                         std::memory_order_relaxed);
    return block;
}

void counted_delete(void* block) noexcept {
    // malloc_usable_size(nullptr) is 0.
    live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(block)),
                         std::memory_order_relaxed);
    std::free(block);
}

}  // namespace

// The standard library's nothrow forms call these.
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void operator delete(void* block) noexcept { counted_delete(block); }
void operator delete[](void* block) noexcept { counted_delete(block); }
void operator delete(void* block, std::size_t) noexcept {
    counted_delete(block);
}
void operator delete[](void* block, std::size_t) noexcept {
    counted_delete(block);
}

namespace {

namespace sm = ga::sim;
namespace wl = ga::workload;

TEST(SimulatorMemory, KeepsAtMostSixteenBytesPerJob) {
    // 20,000 jobs from 100 users, as dense in jobs per user as the paper's
    // trace, over the four default clusters.
    wl::TraceOptions o;
    o.base_jobs = 10'000;
    o.users = 100;
    o.span_days = 3.0;
    o.seed = 5;
    wl::Workload workload = wl::build_workload(o);
    const std::size_t n_jobs = workload.jobs.size();
    ASSERT_EQ(n_jobs, 20'000u);

    const std::int64_t before = live_bytes.load();
    const auto simulator =
        std::make_unique<sm::BatchSimulator>(std::move(workload));
    const std::int64_t kept = live_bytes.load() - before;
    ASSERT_EQ(simulator->clusters().size(), 4u);
    ASSERT_EQ(simulator->workload().jobs.size(), n_jobs);

    const double per_job =
        static_cast<double>(kept) / static_cast<double>(n_jobs);
    RecordProperty("bytes_per_job", std::to_string(per_job));
    EXPECT_LE(per_job, 16.0) << kept << " live bytes for " << n_jobs << " jobs";
}

/// Pops up to `n` entries from the front of cluster 0's queue, returning
/// their ids.
std::vector<std::uint64_t> pop_front(sm::IndexedQueues& queues, std::size_t n) {
    std::vector<std::uint64_t> ids;
    queues.drain(
        0, sm::ClusterState{}, sm::QueueOrder::StrictFifo,
        [&](int /*cores*/, std::uint32_t /*user*/) { return ids.size() < n; },
        [&](const sm::QueuedJob& job) { ids.push_back(job.id); });
    return ids;
}

std::vector<std::uint64_t> queued_ids(const sm::IndexedQueues& queues) {
    std::vector<std::uint64_t> ids;
    queues.for_each(0, [&](const sm::QueuedJob& job) { ids.push_back(job.id); });
    return ids;
}

sm::QueuedJob job_with_id(std::uint64_t id) {
    return sm::QueuedJob{id, static_cast<int>(1 + id % 7),
                         static_cast<std::uint32_t>(id % 13),
                         static_cast<double>(60 + id % 600)};
}

TEST(SimulatorMemory, QueueCopySharesTheQueuedEntries) {
    // 100,000 entries in one cluster's queue: 2.4 MB as 24-byte entries.
    constexpr std::uint64_t kQueued = 100'000;
    sm::IndexedQueues queues;
    queues.reset(1);
    for (std::uint64_t id = 0; id < kQueued; ++id) queues.push(0, job_with_id(id));

    const std::int64_t before = live_bytes.load();
    sm::IndexedQueues copy = queues;
    const std::int64_t copied = live_bytes.load() - before;
    RecordProperty("copy_bytes", std::to_string(copied));
    EXPECT_LE(copied, 64 * 1024) << copied << " live bytes for the copy";

    // Each side pushes its own entry into the shared last chunk and pops
    // its own count, past the first chunk on one side; neither sees the
    // other's.
    queues.push(0, job_with_id(kQueued));
    copy.push(0, job_with_id(kQueued + 1));
    const std::vector<std::uint64_t> popped = pop_front(queues, 3);
    const std::vector<std::uint64_t> copy_popped = pop_front(copy, 1000);
    ASSERT_EQ(popped.size(), 3u);
    ASSERT_EQ(copy_popped.size(), 1000u);
    for (std::size_t i = 0; i < copy_popped.size(); ++i) {
        EXPECT_EQ(copy_popped[i], i);
        if (i < popped.size()) EXPECT_EQ(popped[i], i);
    }
    const auto expect_queue = [](const sm::IndexedQueues& q, std::uint64_t first,
                                 std::uint64_t last_id) {
        const std::vector<std::uint64_t> ids = queued_ids(q);
        ASSERT_EQ(ids.size(), kQueued - first + 1);
        for (std::uint64_t i = 0; i + 1 < ids.size(); ++i) {
            ASSERT_EQ(ids[i], first + i);
        }
        EXPECT_EQ(ids.back(), last_id);
        EXPECT_EQ(q.depth(0), ids.size());
    };
    expect_queue(queues, 3, kQueued);
    expect_queue(copy, 1000, kQueued + 1);
}

}  // namespace
