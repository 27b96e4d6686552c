// The scheduling core shared by the batch simulator (`BatchSimulator`,
// sim/simulator.hpp) and the live ga-serve session (service/session.hpp).
//
// `Scheduler` decides when a routed job runs: per-cluster core pools with
// O(1) backlog terms, one ready queue per cluster, one min-heap of running
// jobs ordered by (finish time, id), and the routing views a policy reads.
// `RunSetup` resolves a run's grid traces, pricing accountant and routing
// policy from `SimOptions`. The drivers differ only through the
// `SchedulerRules` value each passes (queue order, wait estimate, pricing
// of infeasible machines, and the paper's one-running-job-per-user rule,
// whose per-user flags the scheduler keeps) and the start/finish observers
// each hands in. The table of differences is in docs/ARCHITECTURE.md,
// `sim` section.
//
// The ready queues come in two interchangeable structures: `IndexedQueues`,
// whose backfill window sits under a min-tree so a drain touches only the
// entries it starts, and `LinearQueues`, the plain walk kept as the
// bit-identity oracle.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
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
#include "workload/predictor.hpp"

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
    /// The paper's one-running-job-per-(user, cluster) rule: whether a
    /// queued job waits while its user runs a job on the same cluster.
    bool one_job_per_user = true;
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
    std::uint32_t user = 0;  ///< key of the per-user rule (`SchedulerRules`)
    double runtime_s = 0.0;  ///< predicted runtime on the queue's cluster
};

/// A started job, held until the clock passes `finish_s`.
struct RunningJob {
    double finish_s = 0.0;
    std::uint64_t id = 0;
    std::uint32_t cluster = 0;
    int cores = 0;
    std::uint32_t user = 0;
    /// When `Scheduler::start` started it; a checkpoint does not carry it,
    /// so a restored job holds what its restorer passes.
    double start_s = 0.0;
};

/// A job's usage on a cluster where its (user, app) pair scales by `s`,
/// on `cores` cores, priced at `priced_at_s`: its IC runtime and power
/// times the pair's factors there. Both drivers price and meter jobs
/// through it, so their figures are the same doubles.
[[nodiscard]] inline ga::acct::JobUsage scaled_usage(
    double runtime_ic_s, double power_ic_w,
    const ga::workload::MachineScaling& s, int cores, double priced_at_s) {
    ga::acct::JobUsage usage;
    usage.duration_s = runtime_ic_s * s.runtime_factor;
    usage.energy_j = usage.duration_s * (power_ic_w * s.power_factor);
    usage.cores = cores;
    usage.priced_at_s = priced_at_s;
    return usage;
}

/// The per-run configuration both drivers resolve the same way from
/// `SimOptions` and a deployment. Immutable once built. The per-cluster
/// `sites` and `quotes` refer into this setup's own `cba` and `pricer` and
/// into the deployment's catalog entries, so the deployment must outlive
/// the setup, which is neither copied nor moved.
struct RunSetup {
    RunSetup(const SimOptions& options, std::span<const ClusterConfig> clusters);
    RunSetup(const RunSetup&) = delete;
    RunSetup& operator=(const RunSetup&) = delete;

    /// Builds `spec` from the accountant registry, rebound to the grid
    /// traces (`with_grid`) when the method is carbon-aware.
    [[nodiscard]] std::unique_ptr<const ga::acct::Accountant> bind(
        const ga::acct::AccountantSpec& spec) const;

    /// Facility grid traces by machine name; empty without regional grids.
    std::map<std::string, ga::carbon::IntensityTrace> traces;
    /// CBA over `traces`: intensity lookups and the carbon totals.
    ga::acct::CarbonBasedAccounting cba;
    /// Per cluster: `cba.site` of its machine.
    std::vector<ga::acct::CarbonSite> sites;
    /// `SimOptions::pricing`, bound to the grid traces.
    std::unique_ptr<const ga::acct::Accountant> pricer;
    /// Per cluster: `pricer` bound to its machine (`Accountant::on`).
    std::vector<ga::acct::BoundCharge> quotes;
    /// `SimOptions::policy`; a policy named after a cluster gets that
    /// cluster's `index` param.
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

    void reset(std::size_t n_clusters) { queues_.assign(n_clusters, {}); }

    void push(std::size_t c, const QueuedJob& job) { queues_[c].push_back(job); }

    [[nodiscard]] std::size_t depth(std::size_t c) const noexcept {
        return queues_[c].size();
    }

    /// The walk applies the per-user rule entry by entry through
    /// `can_start`, so there is no index to update.
    void set_user_blocked(std::size_t /*c*/, std::uint32_t /*user*/,
                          bool /*blocked*/) noexcept {}

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

    template <typename Fn>
    void for_each(std::size_t c, Fn&& fn) const {
        for (const QueuedJob& job : queues_[c]) fn(job);
    }

    /// There is no index, so no leaf is ever written.
    [[nodiscard]] std::uint64_t leaf_writes() const noexcept { return 0; }

private:
    std::vector<std::deque<QueuedJob>> queues_;
};

/// The indexed queue behind `BatchSimulator::run` and the session: a
/// skip-ahead drain touches only the entries it starts.
///
/// Per cluster, the first `kBackfillDepth` entries (the backfill window)
/// sit in a position array in FIFO order, and the deep tail behind them is
/// a FIFO of reference-counted chunks of `kChunkEntries` entries, which a
/// copy (a ladder fork) shares until either side diverges. A min-tree over
/// the window positions holds at an entry's leaf its core demand when two
/// things hold: its user may start on the cluster, and it is a prefix
/// minimum of that user's window entries (it has strictly fewer cores than
/// each earlier one). Every other leaf, holes that started and stranded
/// entries leave included, holds `kBlocked`. Indexing only prefix minima
/// loses no start:
///   - take any free-core count F and a user's leftmost entry e with at most
///     F cores;
///   - each earlier entry of that user has more than F cores, so more than
///     e, and e is a prefix minimum;
///   - so the leftmost fit over prefix minima is the leftmost fit over all
///     eligible entries, with or without the per-user rule.
///
/// Each user's window positions form a list in FIFO order, and its prefix
/// minima a chain through that list from its first entry, with falling core
/// counts. The structure is kept at four points:
///   - `fill_window` makes an appended entry a prefix minimum iff it has
///     fewer cores than the user's last one;
///   - removing a prefix minimum promotes the entries after it that become
///     prefix minima, walking the list up to the user's next prefix minimum
///     or the first entry with the removed one's cores;
///   - `set_user_blocked` rewrites only the chain's leaves when the
///     scheduler starts or finishes one of the user's jobs;
///   - a compaction recomputes the chains in position order.
///
/// A skip-ahead drain tops the window up from the tail, then repeatedly
/// starts the leftmost entry whose leaf fits the free cores. A drain only
/// removes eligibility (cores leave the pool, users start running), so no
/// entry it passes over could start later in the same drain: it starts
/// exactly the entries the linear walk starts, in the same order. The
/// window tops up only when a drain begins, so entries that slide into it
/// wait for the next drain, as in the linear walk. A strict-FIFO drain reads
/// only the front of the tail and never fills the window; a queue drains
/// under one order between resets.
///
/// It also opts into the submit fast path (`kImmediateStart`): a job
/// arriving at an empty queue that can start now skips the queue entirely.
class IndexedQueues {
public:
    static constexpr bool kImmediateStart = true;
    /// Entries per chunk of a deep tail: about 12 KB.
    static constexpr std::size_t kChunkEntries = 512;

    void reset(std::size_t n_clusters) {
        if (clusters_.size() != n_clusters) clusters_.resize(n_clusters);
        for (PerCluster& pc : clusters_) pc.clear();
    }

    void push(std::size_t c, const QueuedJob& job) {
        clusters_[c].tail.push_back(job);
    }

    [[nodiscard]] std::size_t depth(std::size_t c) const noexcept {
        return clusters_[c].live + clusters_[c].tail.size();
    }

    /// Records whether `user` may start on cluster `c`, rewriting the leaves
    /// of that user's prefix minima to match; every other leaf of the user
    /// holds `kBlocked` either way.
    void set_user_blocked(std::size_t c, std::uint32_t user, bool blocked) {
        PerCluster& pc = clusters_[c];
        User& u = pc.user(user);
        u.blocked = blocked;
        for (std::int32_t p = u.head; p != kNone; p = pc.links[pos(p)].next_min) {
            pc.set_leaf(pos(p), blocked ? kBlocked : pc.slots[pos(p)].cores);
        }
    }

    template <typename CanStart, typename Start>
    void drain(std::size_t c, const ClusterState& cs, QueueOrder order,
               CanStart&& can_start, Start&& start) {
        PerCluster& pc = clusters_[c];
        if (order == QueueOrder::StrictFifo) {
            while (!pc.tail.empty() &&
                   can_start(pc.tail.front().cores, pc.tail.front().user)) {
                const QueuedJob job = pc.tail.front();
                pc.tail.pop_front();
                start(job);
            }
            return;
        }
        pc.fill_window();
        // `start` takes the job's cores and, under the per-user rule, blocks
        // its user's leaves, so each search sees the state the linear walk
        // would test the next entry against. The entry leaves after it, so
        // the promotions of a blocked user write no leaf.
        for (std::size_t p = pc.first_fit(cs.free_cores); p != kNoFit;
             p = pc.first_fit(cs.free_cores)) {
            const QueuedJob job = pc.slots[p];
            // The leaf has passed the start test already; offering the entry
            // keeps `can_start` the one place a start is decided and counted.
            if (!can_start(job.cores, job.user)) return;
            start(job);
            pc.erase(p);
        }
    }

    template <typename Remove>
    void remove_if(std::size_t c, Remove&& remove) {
        PerCluster& pc = clusters_[c];
        // Visits each entry once, window before tail, first to last,
        // preserving the FIFO side-effect order of the linear walk.
        for (std::size_t p = 0; p < pc.slots.size(); ++p) {
            if (!pc.is_hole(p) && remove(pc.slots[p])) pc.erase(p);
        }
        pc.tail.remove_if(remove);
    }

    template <typename Fn>
    void for_each(std::size_t c, Fn&& fn) const {
        const PerCluster& pc = clusters_[c];
        for (std::size_t p = 0; p < pc.slots.size(); ++p) {
            if (!pc.is_hole(p)) fn(pc.slots[p]);
        }
        pc.tail.for_each(fn);
    }

    /// Min-tree leaves written since the reset, over every cluster: each
    /// `set_leaf`, plus each entry's leaf a rebuild fills.
    [[nodiscard]] std::uint64_t leaf_writes() const noexcept {
        std::uint64_t writes = 0;
        for (const PerCluster& pc : clusters_) writes += pc.leaf_writes;
        return writes;
    }

private:
    /// The leaf of a hole, of an entry that is not a prefix minimum, or of
    /// one whose user may not start: above every free-core count.
    static constexpr int kBlocked = std::numeric_limits<int>::max();
    static constexpr std::int32_t kNone = -1;    ///< end of a list or chain
    static constexpr std::int32_t kHole = -2;    ///< `Link::prev` of a hole
    static constexpr std::int32_t kNotMin = -3;  ///< `Link::next_min` off the chain
    static constexpr std::size_t kNoFit = std::numeric_limits<std::size_t>::max();
    /// Window positions before a compaction. Holes pile up wherever entries
    /// start, so twice the window makes a compaction rare.
    static constexpr std::size_t kPositions = 2 * kBackfillDepth;

    [[nodiscard]] static std::size_t pos(std::int32_t p) noexcept {
        return static_cast<std::size_t>(p);
    }

    /// A window position's neighbours in its user's list and, for a prefix
    /// minimum, the user's next prefix minimum.
    struct Link {
        std::int32_t prev = kNone;
        std::int32_t next = kNone;
        std::int32_t next_min = kNotMin;
    };
    struct User {
        std::int32_t head = kNone;      ///< first window position: a prefix minimum
        std::int32_t tail = kNone;      ///< last window position
        std::int32_t last_min = kNone;  ///< last prefix minimum: the fewest cores
        bool blocked = false;           ///< the user may not start on the cluster
    };

    /// A FIFO of `QueuedJob`s in chunks that copies share. No holder writes
    /// a chunk another holds: a pop only advances an offset, a push into a
    /// shared, partly filled last chunk copies that chunk first, and
    /// `remove_if` rebuilds the survivors into fresh chunks. So a copy
    /// costs its chunk pointers, and later what diverges.
    class Tail {
    public:
        [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
        [[nodiscard]] std::size_t size() const noexcept { return size_; }
        [[nodiscard]] const QueuedJob& front() const noexcept {
            return (*chunks_.front())[head_];
        }

        void push_back(const QueuedJob& job) {
            const std::size_t end = head_ + size_;
            if (end == chunks_.size() * kChunkEntries) {
                chunks_.push_back(std::make_shared<Chunk>());
            } else if (chunks_.back().use_count() > 1) {
                // Copies only the entries before `end`: they are all any
                // holder reads, and a holder left alone with the chunk
                // writes only after them.
                auto own = std::make_shared<Chunk>();
                std::copy_n(chunks_.back()->begin(), end % kChunkEntries,
                            own->begin());
                chunks_.back() = std::move(own);
            }
            (*chunks_.back())[end % kChunkEntries] = job;
            ++size_;
        }

        void pop_front() noexcept {
            --size_;
            if (++head_ == kChunkEntries) {
                chunks_.pop_front();
                head_ = 0;
            }
        }

        template <typename Fn>
        void for_each(Fn&& fn) const {
            for (std::size_t i = head_; i < head_ + size_; ++i) {
                fn((*chunks_[i / kChunkEntries])[i % kChunkEntries]);
            }
        }

        /// Visits every entry in FIFO order; those `remove` keeps go into
        /// fresh chunks, and each chunk is released once visited.
        template <typename Remove>
        void remove_if(Remove&& remove) {
            Tail kept;
            for (; !empty(); pop_front()) {
                if (!remove(front())) kept.push_back(front());
            }
            *this = std::move(kept);
        }

    private:
        using Chunk = std::array<QueuedJob, kChunkEntries>;
        std::deque<std::shared_ptr<Chunk>> chunks_;
        std::size_t head_ = 0;  ///< the front entry's offset in the first chunk
        std::size_t size_ = 0;
    };

    struct PerCluster {
        Tail tail;                     ///< FIFO behind the window
        std::vector<QueuedJob> slots;  ///< window positions, FIFO order
        std::vector<Link> links;       ///< index-aligned with `slots`
        /// Min-tree over `span` leaves: node i has children 2i and 2i + 1,
        /// and position p's leaf is node `span + p`.
        std::vector<int> tree;
        std::size_t span = 0;  ///< a power of two covering `slots`
        std::size_t live = 0;  ///< window entries: positions minus holes
        std::vector<User> users;  ///< by user id, grown on demand
        std::uint64_t leaf_writes = 0;

        void clear() {
            tail = {};
            slots.clear();
            links.clear();
            tree.clear();
            span = 0;
            live = 0;
            users.clear();
            leaf_writes = 0;
        }

        User& user(std::uint32_t id) {
            if (id >= users.size()) users.resize(static_cast<std::size_t>(id) + 1);
            return users[id];
        }

        [[nodiscard]] bool is_hole(std::size_t p) const noexcept {
            return links[p].prev == kHole;
        }

        [[nodiscard]] int leaf(std::size_t p) const noexcept {
            return links[p].next_min == kNotMin || users[slots[p].user].blocked
                       ? kBlocked
                       : slots[p].cores;
        }

        /// The leftmost position whose leaf is at most `free_cores`.
        [[nodiscard]] std::size_t first_fit(int free_cores) const noexcept {
            if (span == 0 || tree[1] > free_cores) return kNoFit;
            std::size_t i = 1;
            while (i < span) {
                i *= 2;
                if (tree[i] > free_cores) ++i;
            }
            return i - span;
        }

        void set_leaf(std::size_t p, int value) noexcept {
            ++leaf_writes;
            std::size_t i = span + p;
            tree[i] = value;
            for (i /= 2; i > 0; i /= 2) {
                const int low = std::min(tree[2 * i], tree[2 * i + 1]);
                if (tree[i] == low) break;
                tree[i] = low;
            }
        }

        /// Appends position `p`, the last, to its user's list, and to the
        /// user's chain iff it has fewer cores than the chain's last entry.
        void append(std::size_t p) {
            User& u = user(slots[p].user);
            const auto at = static_cast<std::int32_t>(p);
            links[p] = Link{u.tail, kNone, kNotMin};
            if (u.tail != kNone) {
                links[pos(u.tail)].next = at;
            } else {
                u.head = at;
            }
            u.tail = at;
            if (u.last_min != kNone) {
                if (slots[pos(u.last_min)].cores <= slots[p].cores) return;
                links[pos(u.last_min)].next_min = at;
            }
            links[p].next_min = kNone;
            u.last_min = at;
        }

        /// Moves tail entries into the window until it holds kBackfillDepth.
        /// A new position's leaf holds `kBlocked` until it is written.
        void fill_window() {
            while (live < kBackfillDepth && !tail.empty()) {
                if (slots.size() == kPositions) compact();
                const std::size_t p = slots.size();
                slots.push_back(tail.front());
                tail.pop_front();
                links.emplace_back();
                append(p);
                ++live;
                if (slots.size() > span) {
                    rebuild_tree();
                } else if (leaf(p) != kBlocked) {
                    set_leaf(p, leaf(p));
                }
            }
        }

        /// Before prefix minimum `p` leaves its user's chain, puts in its
        /// place the entries after it that then have fewer cores than each
        /// earlier one. Each entry between `p` and the next prefix minimum
        /// has at least p's cores, so the walk ends at the first with
        /// exactly that many.
        void promote_after(std::size_t p) {
            User& u = users[slots[p].user];
            const int cores = slots[p].cores;
            const std::int32_t next_min = links[p].next_min;
            std::int32_t last = kNone;  // the chain entry before the walk
            for (std::int32_t m = u.head; pos(m) != p; m = links[pos(m)].next_min) {
                last = m;
            }
            int fewest = last == kNone ? kBlocked : slots[pos(last)].cores;
            for (std::int32_t e = links[p].next; e != next_min && fewest > cores;
                 e = links[pos(e)].next) {
                const std::size_t q = pos(e);
                if (slots[q].cores >= fewest) continue;
                fewest = slots[q].cores;
                if (last != kNone) links[pos(last)].next_min = e;
                links[q].next_min = kNone;
                last = e;
                if (!u.blocked) set_leaf(q, fewest);
            }
            if (last != kNone) links[pos(last)].next_min = next_min;
            if (next_min == kNone) u.last_min = last;
        }

        /// Turns window position `p` into a hole.
        void erase(std::size_t p) {
            User& u = users[slots[p].user];
            if (links[p].next_min != kNotMin) {
                promote_after(p);
                if (!u.blocked) set_leaf(p, kBlocked);
            }
            const Link l = links[p];
            if (l.prev != kNone) {
                links[pos(l.prev)].next = l.next;
            } else {
                u.head = l.next;
            }
            if (l.next != kNone) {
                links[pos(l.next)].prev = l.prev;
            } else {
                u.tail = l.prev;
            }
            links[p] = Link{kHole, kNone, kNotMin};
            // An empty window starts its positions over; every leaf is
            // kBlocked already.
            if (--live == 0) {
                slots.clear();
                links.clear();
            }
        }

        /// Drops the holes, keeping the entries' order, and rebuilds the
        /// user lists, their chains and the tree over the new positions.
        void compact() {
            std::size_t kept = 0;
            for (std::size_t p = 0; p < slots.size(); ++p) {
                if (is_hole(p)) continue;
                User& u = users[slots[p].user];
                u.head = u.tail = u.last_min = kNone;
                slots[kept++] = slots[p];
            }
            slots.resize(kept);
            links.resize(kept);
            for (std::size_t p = 0; p < kept; ++p) append(p);
            rebuild_tree();
        }

        void rebuild_tree() {
            span = std::bit_ceil(slots.size());
            tree.assign(2 * span, kBlocked);
            for (std::size_t p = 0; p < slots.size(); ++p) tree[span + p] = leaf(p);
            leaf_writes += slots.size();
            for (std::size_t i = span - 1; i > 0; --i) {
                tree[i] = std::min(tree[2 * i], tree[2 * i + 1]);
            }
        }
    };

    std::vector<PerCluster> clusters_;
};

/// The default callable: nothing to observe.
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
    void reset(std::span<const ClusterConfig> clusters, const RunSetup& setup,
               SchedulerRules rules) {
        configs_ = clusters;
        setup_ = &setup;
        rules_ = rules;
        state_.assign(clusters.size(), ClusterState{});
        for (std::size_t c = 0; c < clusters.size(); ++c) {
            state_[c].capacity = clusters[c].total_cores();
            state_[c].free_cores = state_[c].capacity;
        }
        queues_.reset(clusters.size());
        user_running_.resize(clusters.size());
        for (std::vector<std::uint8_t>& flags : user_running_) {
            flags.assign(flags.size(), 0);
        }
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
    /// Index leaves the queues wrote since the reset (0 for `LinearQueues`).
    [[nodiscard]] std::uint64_t leaf_writes() const noexcept {
        return queues_.leaf_writes();
    }

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
                const ga::acct::CarbonSite& site = setup_->sites[c];
                view.grid_intensity_g_per_kwh = site.intensity_at(now);
                if (setup_->fill_grid_forecast) {
                    view.grid_forecast_g_per_kwh =
                        site.intensity_at(now + kGridForecastHorizonS);
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
    /// job — or any job the drain reaches — starts as soon as cores and the
    /// rules allow. Returns whether `job` is running on return.
    template <typename OnStart = NoHook>
    bool submit(std::size_t c, const QueuedJob& job, double now,
                OnStart&& on_start = {}) {
        ClusterState& cs = state_[c];
        const double queued_cs = static_cast<double>(job.cores) * job.runtime_s;
        if (Queues::kImmediateStart && queues_.depth(c) == 0 &&
            job.cores <= cs.free_cores && user_may_start(c, job.user)) {
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
        drain(c, now,
              [&](const QueuedJob& begun, std::size_t where, double when) {
                  started = started || begun.id == job.id;
                  on_start(begun, where, when);
              });
        return started;
    }

    /// Completes every running job finishing at or before `t`, in
    /// (finish time, id) order: each returns its cores and frees its user,
    /// then `on_finish` sees it, then its cluster's queue drains at its
    /// finish time. Returns the number of completions.
    template <typename OnFinish = NoHook, typename OnStart = NoHook>
    std::uint64_t complete_until(double t, OnFinish&& on_finish = {},
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
            set_user_running(done.cluster, done.user, false);
            on_finish(done);
            drain(done.cluster, done.finish_s, on_start);
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
    /// and, under the per-user rule, the running users are rebuilt from
    /// `running` (whose `cluster` must be `c`), and the jobs go back in
    /// place.
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
            set_user_running(c, job.user, true);
        }
        for (const QueuedJob& job : queued) queues_.push(c, job);
    }

private:
    /// Heap order: a min-heap on (finish time, id), a total order because
    /// ids are unique, so the pop sequence never depends on the heap layout.
    /// A function object, so the heap algorithms inline the comparison.
    static constexpr auto later = [](const RunningJob& a,
                                     const RunningJob& b) noexcept {
        if (a.finish_s != b.finish_s) return a.finish_s > b.finish_s;
        return a.id > b.id;
    };

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
                                      job.user, now});
        std::push_heap(running_.begin(), running_.end(), later);
        set_user_running(c, job.user, true);
        on_start(job, c, now);
    }

    /// Whether the per-user rule lets `user` start a job on cluster `c`.
    [[nodiscard]] bool user_may_start(std::size_t c,
                                      std::uint32_t user) const noexcept {
        if (!rules_.one_job_per_user) return true;
        const std::vector<std::uint8_t>& flags = user_running_[c];
        return user >= flags.size() || flags[user] == 0;
    }

    /// Under the per-user rule, flags whether `user` runs a job on cluster
    /// `c` and has the queues block or release that user's entries.
    void set_user_running(std::size_t c, std::uint32_t user, bool running) {
        if (!rules_.one_job_per_user) return;
        std::vector<std::uint8_t>& flags = user_running_[c];
        if (user >= flags.size()) {
            flags.resize(static_cast<std::size_t>(user) + 1, 0);
        }
        flags[user] = running ? 1 : 0;
        queues_.set_user_blocked(c, user, running);
    }

    /// Starts queued jobs on cluster `c` at `now`, in the rules' order.
    template <typename OnStart>
    void drain(std::size_t c, double now, OnStart&& on_start) {
        ++drains_;
        ClusterState& cs = state_[c];
        queues_.drain(
            c, cs, rules_.order,
            [&](int cores, std::uint32_t user) {
                ++scans_;
                return cores <= cs.free_cores && user_may_start(c, user);
            },
            [&](const QueuedJob& job) {
                cs.queued_core_seconds -=
                    static_cast<double>(job.cores) * job.runtime_s;
                start(c, job, now, on_start);
            });
    }

    std::span<const ClusterConfig> configs_;
    const RunSetup* setup_ = nullptr;
    SchedulerRules rules_;
    std::vector<ClusterState> state_;
    Queues queues_;
    /// Per cluster, by user id: whether the user runs a job there (the
    /// per-user rule's state; grown on demand, untouched without the rule).
    std::vector<std::vector<std::uint8_t>> user_running_;
    std::vector<RunningJob> running_;  ///< binary min-heap (see `later`)
    std::vector<ClusterStatus> views_;
    std::vector<MachineChoice> choices_;
    std::uint64_t drains_ = 0;
    std::uint64_t scans_ = 0;
};

}  // namespace ga::sim
