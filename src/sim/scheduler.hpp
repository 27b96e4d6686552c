// The scheduling core shared by the batch simulator (`BatchSimulator`,
// sim/simulator.hpp) and the live ga-serve session (service/session.hpp).
//
// `Scheduler` decides when a routed job runs: per-cluster core pools with
// O(1) backlog terms, one ready queue per cluster, one min-heap of running
// jobs ordered by (finish time, id), and the routing views a policy reads.
// `RunSetup` resolves a run's grid traces, pricing accountant and routing
// policy from `SimOptions`. The drivers differ only through the
// `SchedulerRules` value each passes and the callables it hands in: an
// extra start predicate (`may_start`, the batch driver's
// one-running-job-per-user rule) and start/finish observers. The table of
// differences is in docs/ARCHITECTURE.md, `sim` section.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "carbon/intensity.hpp"
#include "core/accounting.hpp"
#include "sim/policy.hpp"
#include "sim/simulator.hpp"

namespace ga::sim {

/// Skip-ahead window: a real scheduler's backfill depth, bounding the
/// per-drain scan on deep queues.
inline constexpr std::size_t kBackfillDepth = 256;

/// How far ahead the routing views' grid forecast looks.
inline constexpr double kGridForecastHorizonS = 3600.0;

/// How a drain pass walks a cluster's queue.
enum class QueueOrder {
    SkipAhead,   ///< past blocked jobs, scanning at most kBackfillDepth entries
    StrictFifo,  ///< from the front until the first job that cannot start
};

/// Entries one drain pass may scan under `order`.
[[nodiscard]] constexpr std::size_t scan_window(QueueOrder order) noexcept {
    return order == QueueOrder::SkipAhead
               ? kBackfillDepth
               : std::numeric_limits<std::size_t>::max();
}

/// The deliberate differences between the drivers, as data.
struct SchedulerRules {
    QueueOrder order = QueueOrder::SkipAhead;
    /// Whether the wait estimate counts the remaining work of running jobs
    /// (true) or only the queued work (false).
    bool wait_counts_running = true;
    /// Whether machines the job cannot fit get runtime, energy, cost and
    /// wait figures too (true) or stay zeroed (false).
    bool price_infeasible = false;
};

/// Runtime state of one cluster.
struct ClusterState {
    int capacity = 0;    ///< effective total cores (an outage shrinks it)
    int free_cores = 0;  ///< negative while an outage's lost cores still run
    // O(1) backlog terms: sum(cores * finish) and sum(cores) over running
    // jobs, and sum(cores * runtime) over queued jobs.
    double sum_cores_end = 0.0;
    double running_cores = 0.0;
    double queued_core_seconds = 0.0;
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
};

/// A job waiting in a cluster queue. Per-job scheduling state lives only in
/// the queues and the running heap, and is freed at completion.
struct QueuedJob {
    std::uint64_t id = 0;    ///< trace index (batch) or submission seq (service)
    int cores = 0;
    std::uint32_t user = 0;  ///< key of the batch driver's per-user rule
    double runtime_s = 0.0;  ///< predicted runtime on the queue's cluster
};

/// A started job, held until the clock passes `finish_s`.
struct RunningJob {
    double finish_s = 0.0;
    std::uint64_t id = 0;
    std::uint32_t cluster = 0;
    int cores = 0;
    std::uint32_t user = 0;
};

/// The per-run configuration both drivers resolve the same way from
/// `SimOptions` and a deployment. Immutable once built.
struct RunSetup {
    RunSetup(const SimOptions& options, std::span<const ClusterConfig> clusters);

    /// Builds `spec` from the accountant registry, rebound to the grid
    /// traces (`with_grid`) when the method is carbon-aware.
    [[nodiscard]] std::unique_ptr<const ga::acct::Accountant> bind(
        const ga::acct::AccountantSpec& spec) const;

    /// Facility grid traces by machine name; empty without regional grids.
    std::map<std::string, ga::carbon::IntensityTrace> traces;
    /// CBA over `traces`: intensity lookups and the carbon totals.
    ga::acct::CarbonBasedAccounting cba;
    /// `SimOptions::accountant_spec`, else the enum through `to_spec`.
    ga::acct::AccountantSpec pricing_spec;
    std::unique_ptr<const ga::acct::Accountant> pricer;
    /// `SimOptions::policy_spec`, else the enum through `to_spec`; a policy
    /// named after a cluster gets that cluster's `index` param.
    std::unique_ptr<const RoutingPolicy> routing;
    /// Whether routing reads the views' grid intensity / forecast; grid-blind
    /// policies spare every decision those lookups.
    bool fill_grid_intensity = false;
    bool fill_grid_forecast = false;
};

/// The original FIFO-with-skip-ahead queue: a plain deque per cluster, every
/// drain paying the full walk on a blocked queue, and the outage walk
/// erasing one entry at a time. Kept as the linear reference:
/// `BatchSimulator::run_reference` uses it as the bit-identity oracle for
/// the indexed queue and as the bench's baseline.
class LinearQueues {
public:
    /// No immediate-start bypass: submits always enqueue and drain.
    static constexpr bool kImmediateStart = false;

    void reset(std::size_t n_clusters, int /*max_cores*/) {
        queues_.assign(n_clusters, {});
    }

    void push(std::size_t c, const QueuedJob& job) { queues_[c].push_back(job); }

    [[nodiscard]] std::size_t depth(std::size_t c) const noexcept {
        return queues_[c].size();
    }

    /// Offers entries' (cores, user) to `can_start` in FIFO order; an entry
    /// it accepts goes to `start` and leaves the queue.
    template <typename CanStart, typename Start>
    void drain(std::size_t c, const ClusterState& /*cs*/, QueueOrder order,
               CanStart&& can_start, Start&& start) {
        auto& q = queues_[c];
        std::size_t scanned = 0;
        for (auto it = q.begin(); it != q.end() && scanned < scan_window(order);
             ++scanned) {
            if (can_start(it->cores, it->user)) {
                start(*it);
                it = q.erase(it);
            } else if (order == QueueOrder::StrictFifo) {
                return;
            } else {
                ++it;
            }
        }
    }

    /// Full walk in FIFO order; `remove` returning true drops the entry.
    template <typename Remove>
    void remove_if(std::size_t c, Remove&& remove) {
        auto& q = queues_[c];
        for (auto it = q.begin(); it != q.end();) {
            it = remove(*it) ? q.erase(it) : std::next(it);
        }
    }

private:
    std::vector<std::deque<QueuedJob>> queues_;
};

/// The indexed queue behind `BatchSimulator::run` and the session. Three
/// structural changes over the linear deque, each preserving FIFO scan
/// order (so scheduling decisions stay bit-identical):
///
///   * each entry's core demand and user sit in their own contiguous
///     8-byte records, apart from its id and runtime, so the hot
///     kBackfillDepth scan streams only what the start test reads;
///   * a per-cluster bucket count of queued core demands with a cached
///     minimum lets a drain pass exit in O(1) whenever the smallest queued
///     demand exceeds the free cores (the common state of a saturated
///     cluster) — skipped jobs could not have started, so the early exit is
///     unobservable;
///   * the outage walk compacts in one O(queue) pass instead of the
///     linear queue's per-erase shifting.
///
/// It also opts into the submit fast path (`kImmediateStart`): a job
/// arriving at an empty queue that can start now skips the queue entirely.
class IndexedQueues {
public:
    static constexpr bool kImmediateStart = true;

    /// Demands above this share the top bucket: the cached minimum stays a
    /// lower bound, so only the early exit weakens for them.
    static constexpr int kMaxIndexedCores = 1 << 16;

    void reset(std::size_t n_clusters, int max_cores) {
        max_cores_ = std::clamp(max_cores, 1, kMaxIndexedCores);
        if (clusters_.size() != n_clusters) clusters_.resize(n_clusters);
        for (auto& pc : clusters_) {
            pc.demands.clear();
            pc.payloads.clear();
            pc.by_cores.assign(static_cast<std::size_t>(max_cores_) + 1, 0);
            pc.min_cores = max_cores_ + 1;
        }
    }

    void push(std::size_t c, const QueuedJob& job) {
        PerCluster& pc = clusters_[c];
        pc.demands.push_back(Demand{job.cores, job.user});
        pc.payloads.push_back(Payload{job.id, job.runtime_s});
        const int b = bucket(job.cores);
        ++pc.by_cores[b];
        pc.min_cores = std::min(pc.min_cores, b);
    }

    [[nodiscard]] std::size_t depth(std::size_t c) const noexcept {
        return clusters_[c].demands.size();
    }

    template <typename CanStart, typename Start>
    void drain(std::size_t c, const ClusterState& cs, QueueOrder order,
               CanStart&& can_start, Start&& start) {
        PerCluster& pc = clusters_[c];
        // Early exit: the smallest queued demand is a lower bound for every
        // entry, so nothing can start when it exceeds the free cores. Only
        // a successful start changes either side, so the bound is
        // re-checked after starts, not per scanned entry.
        if (pc.demands.empty() || cs.free_cores < min_queued_cores(pc)) {
            return;
        }
        auto demand = pc.demands.begin();
        const std::size_t window = scan_window(order);
        std::size_t scanned = 0;
        for (; demand != pc.demands.end() && scanned < window; ++scanned) {
            if (can_start(demand->cores, demand->user)) {
                const auto payload =
                    pc.payloads.begin() + (demand - pc.demands.begin());
                start(QueuedJob{payload->id, demand->cores, demand->user,
                                payload->runtime_s});
                --pc.by_cores[bucket(demand->cores)];
                demand = pc.demands.erase(demand);
                pc.payloads.erase(payload);
                if (pc.demands.empty() || cs.free_cores < min_queued_cores(pc)) {
                    return;
                }
            } else if (order == QueueOrder::StrictFifo) {
                return;
            } else {
                ++demand;
            }
        }
    }

    template <typename Remove>
    void remove_if(std::size_t c, Remove&& remove) {
        PerCluster& pc = clusters_[c];
        // Single-pass compaction, visiting each entry once, first to last,
        // preserving the FIFO side-effect order of the linear walk.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < pc.demands.size(); ++i) {
            if (remove(entry(pc, i))) {
                --pc.by_cores[bucket(pc.demands[i].cores)];
                continue;
            }
            pc.demands[kept] = pc.demands[i];
            pc.payloads[kept] = pc.payloads[i];
            ++kept;
        }
        pc.demands.resize(kept);
        pc.payloads.resize(kept);
    }

    template <typename Fn>
    void for_each(std::size_t c, Fn&& fn) const {
        const PerCluster& pc = clusters_[c];
        for (std::size_t i = 0; i < pc.demands.size(); ++i) fn(entry(pc, i));
    }

private:
    struct Demand {
        int cores;
        std::uint32_t user;
    };
    struct Payload {
        std::uint64_t id;
        double runtime_s;
    };
    struct PerCluster {
        std::deque<Demand> demands;    ///< FIFO, scanned by every drain
        std::deque<Payload> payloads;  ///< index-aligned, read on a start
        std::vector<std::uint32_t> by_cores;  ///< queued count per core demand
        int min_cores = 0;  ///< lazily-advanced lower bound of the smallest
    };

    [[nodiscard]] static QueuedJob entry(const PerCluster& pc, std::size_t i) {
        return QueuedJob{pc.payloads[i].id, pc.demands[i].cores,
                         pc.demands[i].user, pc.payloads[i].runtime_s};
    }

    [[nodiscard]] int bucket(int cores) const noexcept {
        return std::clamp(cores, 0, max_cores_);
    }

    [[nodiscard]] int min_queued_cores(PerCluster& pc) const noexcept {
        while (pc.min_cores <= max_cores_ &&
               pc.by_cores[pc.min_cores] == 0) {
            ++pc.min_cores;
        }
        return pc.min_cores;
    }

    int max_cores_ = 1;
    std::vector<PerCluster> clusters_;
};

/// The default callables: no extra start predicate, nothing to observe.
struct AnyJob {
    bool operator()(std::uint32_t /*user*/, std::size_t /*c*/) const noexcept {
        return true;
    }
};
struct NoHook {
    template <typename... Args>
    void operator()(const Args&... /*args*/) const noexcept {}
};

/// The scheduling core over a ready-queue structure (`IndexedQueues`, or
/// `LinearQueues` for the bit-identity oracle). Single-threaded; a driver
/// owns one per run (batch) or per session (service).
template <typename Queues>
class Scheduler {
public:
    /// Starts over with every cluster idle at full capacity, no queued or
    /// running jobs and zeroed tallies, keeping storage capacity. `clusters`
    /// and `setup` must outlive every later call until the next reset.
    /// `max_job_cores` sizes the queue index.
    void reset(std::span<const ClusterConfig> clusters, const RunSetup& setup,
               SchedulerRules rules, int max_job_cores) {
        configs_ = clusters;
        setup_ = &setup;
        rules_ = rules;
        state_.assign(clusters.size(), ClusterState{});
        for (std::size_t c = 0; c < clusters.size(); ++c) {
            state_[c].capacity = clusters[c].total_cores();
            state_[c].free_cores = state_[c].capacity;
        }
        queues_.reset(clusters.size(), max_job_cores);
        running_.clear();
        views_.assign(clusters.size(), ClusterStatus{});
        choices_.assign(clusters.size(), MachineChoice{});
        drains_ = 0;
        scans_ = 0;
    }

    [[nodiscard]] const ClusterState& cluster(std::size_t c) const noexcept {
        return state_[c];
    }
    [[nodiscard]] std::size_t depth(std::size_t c) const noexcept {
        return queues_.depth(c);
    }
    /// Drain passes, and queue entries offered a start, since the reset.
    [[nodiscard]] std::uint64_t drains() const noexcept { return drains_; }
    [[nodiscard]] std::uint64_t scans() const noexcept { return scans_; }

    /// The backlog wait estimate of cluster `c` at `now`, in seconds.
    [[nodiscard]] double wait_estimate(std::size_t c, double now) const noexcept {
        const ClusterState& cs = state_[c];
        // A fully-outaged cluster (capacity 0) has an unbounded wait; the
        // guard keeps 0/0 NaN out of the views policies read.
        if (cs.capacity <= 0) return std::numeric_limits<double>::infinity();
        if (!rules_.wait_counts_running) {
            return cs.queued_core_seconds / static_cast<double>(cs.capacity);
        }
        const double running_remaining =
            std::max(0.0, cs.sum_cores_end - now * cs.running_cores);
        return (running_remaining + cs.queued_core_seconds) /
               static_cast<double>(cs.capacity);
    }

    /// Refreshes the routing views at `now` and the per-machine choices of
    /// a job needing `cores`. `price(c, choice)` fills `runtime_s`,
    /// `energy_j` and `cost` of each machine the rules price. The returned
    /// span and `views()` stay valid until the next reset.
    template <typename Price>
    std::span<const MachineChoice> route_view(double now, int cores,
                                              Price&& price) {
        for (std::size_t c = 0; c < state_.size(); ++c) {
            const ClusterState& cs = state_[c];
            const ga::machine::CatalogEntry& entry = configs_[c].entry;
            const double wait = wait_estimate(c, now);

            ClusterStatus& view = views_[c];
            view.name = entry.node.name;
            view.capacity_cores = cs.capacity;
            view.free_cores = cs.free_cores;
            view.queue_depth = queues_.depth(c);
            view.queue_wait_s = wait;
            if (setup_->fill_grid_intensity) {
                view.grid_intensity_g_per_kwh = setup_->cba.intensity_at(entry, now);
                if (setup_->fill_grid_forecast) {
                    view.grid_forecast_g_per_kwh = setup_->cba.intensity_at(
                        entry, now + kGridForecastHorizonS);
                }
            }

            MachineChoice& choice = choices_[c];
            choice = MachineChoice{};
            choice.machine_index = c;
            choice.feasible = cores <= cs.capacity;
            if (!choice.feasible && !rules_.price_infeasible) continue;
            price(c, choice);
            choice.queue_wait_s = wait;
        }
        return choices_;
    }

    [[nodiscard]] std::span<const ClusterStatus> views() const noexcept {
        return views_;
    }

    /// Queues `job` on cluster `c` at `now` and drains that queue, so the
    /// job — or any job the drain reaches — starts as soon as cores and
    /// `may_start` allow. Returns whether `job` is running on return.
    template <typename MayStart = AnyJob, typename OnStart = NoHook>
    bool submit(std::size_t c, const QueuedJob& job, double now,
                MayStart&& may_start = {}, OnStart&& on_start = {}) {
        ClusterState& cs = state_[c];
        const double queued_cs = static_cast<double>(job.cores) * job.runtime_s;
        if (Queues::kImmediateStart && queues_.depth(c) == 0 &&
            job.cores <= cs.free_cores && may_start(job.user, c)) {
            // Fast path: the job would be the sole queue entry and the
            // drain would start it at once, so skip the queue bookkeeping.
            // The add/subtract pair replays the enqueue+drain arithmetic on
            // queued_core_seconds, keeping its value (and thus every later
            // wait estimate) bit-identical to the slow path.
            cs.queued_core_seconds += queued_cs;
            cs.queued_core_seconds -= queued_cs;
            start(c, job, now, on_start);
            return true;
        }
        queues_.push(c, job);
        cs.queued_core_seconds += queued_cs;
        bool started = false;
        drain(c, now, may_start,
              [&](const QueuedJob& begun, std::size_t where, double when) {
                  started = started || begun.id == job.id;
                  on_start(begun, where, when);
              });
        return started;
    }

    /// Completes every running job finishing at or before `t`, in
    /// (finish time, id) order: each returns its cores, then `on_finish`
    /// sees it, then its cluster's queue drains at its finish time.
    /// Returns the number of completions.
    template <typename OnFinish = NoHook, typename MayStart = AnyJob,
              typename OnStart = NoHook>
    std::uint64_t complete_until(double t, OnFinish&& on_finish = {},
                                 MayStart&& may_start = {},
                                 OnStart&& on_start = {}) {
        std::uint64_t completed = 0;
        while (!running_.empty() && running_.front().finish_s <= t) {
            std::pop_heap(running_.begin(), running_.end(), later);
            const RunningJob done = running_.back();
            running_.pop_back();
            ClusterState& cs = state_[done.cluster];
            cs.free_cores += done.cores;
            // `finish_s` equals start + runtime, so subtracting
            // cores * finish removes exactly the cores * end contribution.
            cs.sum_cores_end -= static_cast<double>(done.cores) * done.finish_s;
            cs.running_cores -= static_cast<double>(done.cores);
            ++cs.completed;
            ++completed;
            on_finish(done);
            drain(done.cluster, done.finish_s, may_start, on_start);
        }
        return completed;
    }

    /// Takes `lost_cores` from cluster `c` for good (an outage). Running
    /// jobs keep their cores until they finish; the pool just never gets
    /// them back. Queued jobs that no longer fit go to `on_strand`, then
    /// leave the queue.
    template <typename OnStrand>
    void shrink(std::size_t c, int lost_cores, OnStrand&& on_strand) {
        ClusterState& cs = state_[c];
        cs.capacity -= lost_cores;
        cs.free_cores -= lost_cores;
        queues_.remove_if(c, [&](const QueuedJob& job) {
            if (job.cores <= cs.capacity) return false;
            cs.queued_core_seconds -=
                static_cast<double>(job.cores) * job.runtime_s;
            on_strand(job);
            return true;
        });
    }

    // ---- checkpoints ----------------------------------------------------

    /// Every running job, in completion order.
    [[nodiscard]] std::vector<RunningJob> running_jobs() const {
        std::vector<RunningJob> jobs = running_;
        std::sort(jobs.begin(), jobs.end(),
                  [](const RunningJob& a, const RunningJob& b) {
                      return later(b, a);
                  });
        return jobs;
    }

    /// Cluster `c`'s queued jobs, front first.
    template <typename Fn>
    void for_each_queued(std::size_t c, Fn&& fn) const {
        queues_.for_each(c, fn);
    }

    /// Restores cluster `c` from a checkpoint: `saved` supplies the free
    /// cores, counters and queued-work sum as they were, the running terms
    /// are rebuilt from `running` (whose `cluster` must be `c`), and the
    /// jobs go back in place.
    void restore(std::size_t c, const ClusterState& saved,
                 std::span<const RunningJob> running,
                 std::span<const QueuedJob> queued) {
        ClusterState& cs = state_[c];
        cs = saved;
        cs.sum_cores_end = 0.0;
        cs.running_cores = 0.0;
        for (const RunningJob& job : running) {
            cs.sum_cores_end += static_cast<double>(job.cores) * job.finish_s;
            cs.running_cores += static_cast<double>(job.cores);
            running_.push_back(job);
            std::push_heap(running_.begin(), running_.end(), later);
        }
        for (const QueuedJob& job : queued) queues_.push(c, job);
    }

private:
    /// Heap order: a min-heap on (finish time, id), a total order because
    /// ids are unique, so the pop sequence never depends on the heap layout.
    static bool later(const RunningJob& a, const RunningJob& b) noexcept {
        if (a.finish_s != b.finish_s) return a.finish_s > b.finish_s;
        return a.id > b.id;
    }

    template <typename OnStart>
    void start(std::size_t c, const QueuedJob& job, double now,
               OnStart& on_start) {
        ClusterState& cs = state_[c];
        const double finish = now + job.runtime_s;
        cs.free_cores -= job.cores;
        cs.sum_cores_end += static_cast<double>(job.cores) * finish;
        cs.running_cores += static_cast<double>(job.cores);
        ++cs.started;
        running_.push_back(RunningJob{finish, job.id,
                                      static_cast<std::uint32_t>(c), job.cores,
                                      job.user});
        std::push_heap(running_.begin(), running_.end(), later);
        on_start(job, c, now);
    }

    /// Starts queued jobs on cluster `c` at `now`, in the rules' order.
    template <typename MayStart, typename OnStart>
    void drain(std::size_t c, double now, MayStart& may_start,
               OnStart&& on_start) {
        ++drains_;
        ClusterState& cs = state_[c];
        // Counted in a local so the scan loop keeps it in a register.
        std::uint64_t scans = 0;
        queues_.drain(
            c, cs, rules_.order,
            [&](int cores, std::uint32_t user) {
                ++scans;
                return cores <= cs.free_cores && may_start(user, c);
            },
            [&](const QueuedJob& job) {
                cs.queued_core_seconds -=
                    static_cast<double>(job.cores) * job.runtime_s;
                start(c, job, now, on_start);
            });
        scans_ += scans;
    }

    std::span<const ClusterConfig> configs_;
    const RunSetup* setup_ = nullptr;
    SchedulerRules rules_;
    std::vector<ClusterState> state_;
    Queues queues_;
    std::vector<RunningJob> running_;  ///< binary min-heap (see `later`)
    std::vector<ClusterStatus> views_;
    std::vector<MachineChoice> choices_;
    std::uint64_t drains_ = 0;
    std::uint64_t scans_ = 0;
};

}  // namespace ga::sim
