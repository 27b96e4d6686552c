// Live heap bytes a `BatchSimulator` keeps for its workload. Its own binary,
// because it replaces the global allocation functions to count the live
// bytes of every ordinary `new` in the process (the over-aligned forms stay
// the library's; nothing the simulator holds is over-aligned). A job's
// per-cluster runtime and power derive from its (user, app) pair's scaling,
// so the simulator keeps per job only its machine-averaged work; a per-job,
// per-cluster array would show here.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

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

}  // namespace
