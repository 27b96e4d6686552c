#include "sim/sweep.hpp"

#include <atomic>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/walltime.hpp"
#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace ga::sim {

namespace {

/// Sweep-engine instruments: pool occupancy, per-point wall timing, and a
/// completion counter. Handles are resolved once per process, outside any
/// lock, so the worker lambdas never touch the registry mutex.
struct SweepMetrics {
    ga::obs::Gauge& active_points;      ///< pool occupancy right now
    ga::obs::Counter& points_completed;
    ga::obs::Histogram& point_seconds;  ///< wall time per grid point
};

SweepMetrics& sweep_metrics() {
    auto& registry = ga::obs::Registry::global();
    static SweepMetrics metrics{
        registry.gauge_handle("sweep.active_points"),
        registry.counter_handle("sweep.points_completed"),
        registry.histogram_handle(
            "sweep.point_seconds",
            {0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0}),
    };
    return metrics;
}

std::string format_number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/// Label for one grid point: policy and pricing always, other axes only
/// when `grid` actually sweeps them (explicitly-set axis).
std::string make_label(const SimOptions& o, const SweepGrid& grid) {
    std::string label = o.policy.label() + "/" + o.pricing.label();
    if (!grid.budgets.empty()) {
        label += o.budget > 0.0 ? "/budget=" + format_number(o.budget)
                                : "/unbudgeted";
    }
    if (!grid.regional_grids.empty()) {
        label += o.regional_grids ? "/regional" : "/flat";
    }
    if (!grid.grid_seeds.empty()) {
        label += "/seed=" + std::to_string(o.grid_seed);
    }
    if (!grid.arrival_compressions.empty()) {
        label += "/burst=" + format_number(o.arrival_compression);
    }
    if (!grid.outages.empty()) {
        if (o.outage.has_value()) {
            label += "/outage[c" + std::to_string(o.outage->cluster) + "-" +
                     std::to_string(o.outage->nodes_lost) + "n@" +
                     format_number(o.outage->at_s) + "s]";
        } else {
            label += "/no-outage";
        }
    }
    return label;
}

/// An axis, or the single fallback value when the axis is empty.
template <typename T>
std::vector<T> axis_or(const std::vector<T>& axis, T fallback) {
    return axis.empty() ? std::vector<T>{std::move(fallback)} : axis;
}

/// The quote tables a spec list reads, one per distinct `QuoteKey`. A
/// key's table is built when the first of its points is taken and freed
/// when the last of them finishes, so a sweep holds only the tables of the
/// keys it has points in flight for.
class QuoteTables {
public:
    QuoteTables(const BatchSimulator& simulator,
                const std::vector<ScenarioSpec>& specs)
        : simulator_(simulator) {
        slot_of_.reserve(specs.size());
        for (const ScenarioSpec& spec : specs) {
            const QuoteKey key = QuoteKey::of(spec.options);
            std::size_t t = 0;
            while (t < slots_.size() && slots_[t].key != key) ++t;
            if (t == slots_.size()) slots_.emplace_back(key);
            ++slots_[t].points_left;
            slot_of_.push_back(t);
        }
    }

    QuoteTables(const QuoteTables&) = delete;
    QuoteTables& operator=(const QuoteTables&) = delete;

    /// Spec i's table. The first caller for a key builds it; concurrent
    /// callers for the same key wait for that build, so no caller may hold
    /// a lock the build takes (RunSetup takes the registry locks).
    const QuoteTable& acquire(std::size_t i) {
        Slot& slot = slots_[slot_of_[i]];
        std::call_once(slot.built, [this, &slot] {
            slot.table = simulator_.quote_table(slot.key);
        });
        return slot.table;
    }

    /// Spec i's point has finished with its table; the last of a key's
    /// points frees it.
    void release(std::size_t i) {
        Slot& slot = slots_[slot_of_[i]];
        if (slot.points_left.fetch_sub(1) == 1) slot.table = QuoteTable{};
    }

private:
    struct Slot {
        explicit Slot(QuoteKey k) : key(std::move(k)) {}
        QuoteKey key;
        std::once_flag built;
        QuoteTable table;
        std::atomic<std::size_t> points_left{0};
    };

    const BatchSimulator& simulator_;
    std::deque<Slot> slots_;  ///< in order of first use; never moved
    std::vector<std::size_t> slot_of_;  ///< index-aligned with the specs
};

/// `indices` grouped by `key` of their specs' options: each group in index
/// order, the groups in order of first appearance.
template <typename Key>
std::vector<std::vector<std::size_t>> group_by(
    const std::vector<ScenarioSpec>& specs,
    const std::vector<std::size_t>& indices, Key key) {
    std::vector<decltype(key(specs.front().options))> keys;
    std::vector<std::vector<std::size_t>> groups;
    for (const std::size_t i : indices) {
        auto k = key(specs[i].options);
        std::size_t g = 0;
        while (g < keys.size() && keys[g] != k) ++g;
        if (g == keys.size()) {
            keys.push_back(std::move(k));
            groups.emplace_back();
        }
        groups[g].push_back(i);
    }
    return groups;
}

/// The spec list's ladders: the indices of specs whose options differ only
/// in `budget`, and in `pricing` under a policy that reads no cost, in
/// order of first appearance. Specs under a policy that reads the budget
/// are ladders of one each.
std::vector<std::vector<std::size_t>> budget_ladders(
    const std::vector<ScenarioSpec>& specs) {
    std::vector<std::size_t> all(specs.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    std::vector<std::vector<std::size_t>> ladders;
    for (std::vector<std::size_t>& group :
         group_by(specs, all, [](SimOptions o) {
             o.budget = 0.0;
             o.pricing = {};
             return o;
         })) {
        if (group.size() == 1) {
            ladders.push_back(std::move(group));
            continue;
        }
        const auto policy =
            PolicyRegistry::global().make(specs[group.front()].options.policy);
        if (policy->uses_budget()) {
            for (const std::size_t i : group) ladders.push_back({i});
        } else if (policy->uses_cost()) {
            for (std::vector<std::size_t>& ladder :
                 group_by(specs, group,
                          [](const SimOptions& o) { return o.pricing; })) {
                ladders.push_back(std::move(ladder));
            }
        } else {
            ladders.push_back(std::move(group));
        }
    }
    return ladders;
}

/// One ladder, as `run` and `run_serial` both execute it: one event loop
/// over every member's quote table, whose members finish one after another.
/// Each member releases its table when it finishes. Its `sweep.point` span
/// carries its spec index as the logical timestamp (sweeps have no shared
/// sim-clock) and is recorded when it finishes; when metrics are on, the
/// histogram gets each member's own share of the ladder's wall time, from
/// the ladder's start or the previous member's finish.
void run_ladder(const BatchSimulator& simulator,
                const std::vector<ScenarioSpec>& specs,
                const std::vector<std::size_t>& ladder, QuoteTables& tables,
                std::vector<SweepOutcome>& outcomes) {
    SweepMetrics& metrics = sweep_metrics();
    auto& tracer = ga::obs::Tracer::global();
    std::vector<SimOptions> options;
    std::vector<const QuoteTable*> quotes;
    options.reserve(ladder.size());
    quotes.reserve(ladder.size());
    for (const std::size_t i : ladder) {
        options.push_back(specs[i].options);
        quotes.push_back(&tables.acquire(i));
    }
    metrics.active_points.add_value(1.0);
    ga::obs::WallTimer timer;
    simulator.run_ladder(options, quotes,
                         [&](std::size_t member, const SimResult& result) {
                             const std::size_t i = ladder[member];
                             outcomes[i] = SweepOutcome{specs[i], result};
                             tables.release(i);
                             if (ga::obs::metrics_enabled()) {
                                 metrics.point_seconds.observe(timer.seconds());
                                 timer.restart();
                             }
                             metrics.points_completed.inc();
                             if (ga::obs::tracing_enabled()) {
                                 const auto at = static_cast<double>(i);
                                 tracer.span_begin("sweep.point", at);
                                 tracer.span_end("sweep.point", at);
                             }
                         });
    metrics.active_points.add_value(-1.0);
}

/// Runs `task(i)` for every i in [0, n) on `pool` and waits for all of
/// them; then rethrows the first exception a task threw.
void run_on(ga::util::ThreadPool& pool, std::size_t n,
            const std::function<void(std::size_t)>& task) {
    // Leaf of the declared lock hierarchy, like parallel_for's error
    // collection. A task never touches the Ledger (budgets live in the
    // run's own state); it takes only the registry locks, while RunSetup
    // builds the policy and the accountant, and the obs leaves, and has
    // released all of them before the catch block takes this one.
    ga::util::Mutex error_mutex GA_ACQUIRED_AFTER(ga::util::ThreadPool::mutex_);
    std::exception_ptr error;
    for (std::size_t i = 0; i < n; ++i) {
        pool.submit([&task, &error_mutex, &error, i] {
            try {
                task(i);
            } catch (...) {
                const ga::util::LockGuard lock(error_mutex);
                if (!error) error = std::current_exception();
            }
        });
    }
    pool.wait_idle();
    if (error) std::rethrow_exception(error);
}

}  // namespace

std::size_t SweepGrid::size() const noexcept {
    const auto dim = [](std::size_t n) { return n == 0 ? std::size_t{1} : n; };
    return dim(policies.size()) * dim(pricings.size()) * dim(budgets.size()) *
           dim(regional_grids.size()) * dim(grid_seeds.size()) *
           dim(arrival_compressions.size()) * dim(outages.size());
}

std::vector<ScenarioSpec> SweepGrid::expand() const {
    const auto ps = axis_or(policies, base.policy);
    const auto ms = axis_or(pricings, base.pricing);
    const auto bs = axis_or(budgets, base.budget);
    const auto rs = axis_or(regional_grids, base.regional_grids);
    const auto ss = axis_or(grid_seeds, base.grid_seed);
    const auto cs = axis_or(arrival_compressions, base.arrival_compression);
    const auto os = axis_or(outages, base.outage);

    std::vector<ScenarioSpec> specs;
    specs.reserve(size());
    for (const auto& policy : ps)
        for (const auto& pricing : ms)
            for (const auto budget : bs)
                for (const bool regional : rs)
                    for (const auto seed : ss)
                        for (const auto compression : cs)
                            for (const auto& outage : os) {
                                ScenarioSpec spec;
                                // Start from the base so axis-less fields
                                // (currency_budgets, ...) reach every
                                // scenario; axes override below.
                                spec.options = base;
                                spec.options.policy = policy;
                                spec.options.pricing = pricing;
                                spec.options.budget = budget;
                                spec.options.regional_grids = regional;
                                spec.options.grid_seed = seed;
                                spec.options.arrival_compression = compression;
                                spec.options.outage = outage;
                                spec.label = make_label(spec.options, *this);
                                specs.push_back(std::move(spec));
                            }
    return specs;
}

SweepRunner::SweepRunner(const BatchSimulator& simulator, std::size_t threads)
    : simulator_(&simulator), pool_(threads) {}

std::vector<SweepOutcome> SweepRunner::run(
    const std::vector<ScenarioSpec>& specs) {
    QuoteTables tables(*simulator_, specs);
    const std::vector<std::vector<std::size_t>> ladders = budget_ladders(specs);
    std::vector<SweepOutcome> outcomes(specs.size());
    run_on(pool_, ladders.size(), [&](std::size_t l) {
        run_ladder(*simulator_, specs, ladders[l], tables, outcomes);
    });
    return outcomes;
}

std::vector<SweepOutcome> SweepRunner::run(const SweepGrid& grid) {
    return run(grid.expand());
}

std::vector<SweepOutcome> SweepRunner::run_serial(
    const std::vector<ScenarioSpec>& specs) const {
    QuoteTables tables(*simulator_, specs);
    std::vector<SweepOutcome> outcomes(specs.size());
    for (const std::vector<std::size_t>& ladder : budget_ladders(specs)) {
        run_ladder(*simulator_, specs, ladder, tables, outcomes);
    }
    return outcomes;
}

}  // namespace ga::sim
