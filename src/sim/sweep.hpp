// Scenario-sweep engine over the §5 batch simulator.
//
// The paper's experiments (Figs 5–7, Table 6) are grids of simulation runs:
// policy × pricing × budget, plus scenario switches (regional grids, grid
// seeds) and — beyond the paper — cluster outages and arrival-burst scaling.
// The policy and pricing axes hold registry specs, so context-aware and
// user-registered policies and methods sweep exactly like the paper's.
// `SweepGrid` describes such a grid declaratively, `expand()` turns it into
// a deterministic list of `ScenarioSpec`s, and `SweepRunner` executes the
// specs concurrently over one shared immutable `BatchSimulator`.
//
// Concurrency is sound by construction: `BatchSimulator::run` is const and
// keeps all mutable state in a per-run `RunState`, so parallel execution is
// bit-identical to running the same specs serially.
//
// Points that price alike share one route-quote table (`QuoteTable`,
// sim/simulator.hpp): a sweep builds a `QuoteKey`'s table when the first of
// its points starts, hands it to each of that key's points, and frees it
// when the last of them finishes, so a sweep holds only the tables of the
// keys in flight. A paper grid of policies x budgets over two pricings
// prices each submit twice instead of once per point.
//
// Points whose options differ only in `budget`, under a policy whose
// `RoutingPolicy::uses_budget()` is false (every builtin but BudgetPacing;
// a registered policy only if it says so), form a ladder, and a sweep runs
// each ladder as one task (`BatchSimulator::run_ladder`). When the policy's
// `uses_cost()` is false too (every builtin but Greedy, Mixed and
// BudgetPacing), points that also differ in `pricing` join the same
// ladder: the loop reads the pricing only through the quote tables, so
// such points route every job alike until their admissions first differ.
// Every member is a lane of one event loop: its own quote table, remaining
// budget and total cost. The smallest budget leads, and its quotes are the
// routing costs. Members that leave at one job, where their budgets admit
// a job the leader refuses or refuse one it admits, leave as one fork: a
// copy of the leader's state that decides that job their way at once and,
// after the leader, resumes at the next job in the thread's pooled run
// state, led by its smallest budget. The state scales with the live jobs,
// not the trace (each `RunningJob` carries its `start_s`, which completion
// metering reads, and an outage refund prices a stranded job's currencies
// again instead of reading a stored charge). A fork shares its leader's
// deep queue tails (`IndexedQueues`), so it costs what diverges after it,
// not the queue depth. A ladder's task acquires every member's quote table
// and releases each when that member finishes. Every point's result, and
// every work counter but `sim.route.decisions` (the decisions the shared
// loops made), are what separate runs give.
//
// A ladder's members finish one after another in its task. A point's
// `sweep.point` span, at its spec index, is recorded when it finishes, and
// `sweep.point_seconds` times its own share of the task: the leader from
// the task's start (the shared prefix included), every other member from
// the previous member's finish, so a member that never forked reads about
// zero. `sweep.active_points` counts ladders in flight;
// `sweep.points_completed` still counts points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/parallel.hpp"

namespace ga::sim {

/// One fully-specified simulation scenario: the options for a single
/// `BatchSimulator::run` plus a human-readable label for tables and logs.
struct ScenarioSpec {
    std::string label;
    SimOptions options;

    friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Axes of a scenario grid. An empty axis collapses to the corresponding
/// `base` value (a default-constructed `SimOptions` unless overridden), so
/// `SweepGrid{.policies = all_policies()}` expands to eight unbudgeted EBA
/// scenarios.
struct SweepGrid {
    /// Options every expanded scenario starts from. Swept axes override the
    /// matching field per grid point; everything else — including the
    /// axis-less `currency_budgets` and any unswept field — reaches every
    /// scenario unchanged. The scenario-file loader (`io/scenario.hpp`)
    /// maps its "options" section here.
    SimOptions base;
    /// Policies, e.g. `all_policies()` followed by a context-aware or
    /// user-registered spec. A point's label starts with the spec's label.
    /// A parameter sweep is one spec per value, e.g. Mixed(threshold=1.5)
    /// and Mixed(threshold=2).
    std::vector<PolicySpec> policies;
    /// Pricing methods, e.g. {"EBA", {}} and {"CarbonTax", {{"rate",
    /// 0.02}}}. A point's label names the spec's label second.
    std::vector<ga::acct::AccountantSpec> pricings;
    std::vector<double> budgets;  ///< 0 = unlimited
    std::vector<bool> regional_grids;
    std::vector<std::uint64_t> grid_seeds;
    /// New scenario dimensions beyond the paper (see SimOptions).
    std::vector<double> arrival_compressions;
    std::vector<std::optional<ClusterOutage>> outages;

    /// Number of scenarios the grid expands to (product of axis sizes,
    /// empty axes counting as 1).
    [[nodiscard]] std::size_t size() const noexcept;

    /// Cartesian product in declared-axis order: policies vary slowest,
    /// outages fastest. Deterministic — spec i is always the same point, so
    /// sweep outcomes can be indexed positionally.
    [[nodiscard]] std::vector<ScenarioSpec> expand() const;
};

/// One executed scenario: the spec and its simulation result, index-aligned
/// with the input spec list.
struct SweepOutcome {
    ScenarioSpec spec;
    SimResult result;
};

/// Executes scenario lists concurrently over one shared simulator.
/// A runner owns a persistent thread pool, so repeated `run` calls (e.g. a
/// bench driver issuing several grids) reuse the same workers. A runner is
/// driven from one controlling thread at a time.
class SweepRunner {
public:
    /// `threads == 0` uses the hardware concurrency.
    explicit SweepRunner(const BatchSimulator& simulator,
                         std::size_t threads = 0);

    /// Runs every spec; outcome i corresponds to specs[i]. Each ladder is
    /// one task on the pool. Points sharing a `QuoteKey` share one quote
    /// table, built on the pool by the first of them to start and freed
    /// when the last of them finishes. Results are bit-identical
    /// to `run_serial` on the same specs, and to
    /// `BatchSimulator::run(spec.options)`.
    [[nodiscard]] std::vector<SweepOutcome> run(
        const std::vector<ScenarioSpec>& specs);

    /// Expands the grid and runs it.
    [[nodiscard]] std::vector<SweepOutcome> run(const SweepGrid& grid);

    /// Serial reference executor (same ladders, same quote tables, same
    /// per-point metrics and spans), for determinism checks and baselines.
    [[nodiscard]] std::vector<SweepOutcome> run_serial(
        const std::vector<ScenarioSpec>& specs) const;

    [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }
    [[nodiscard]] const BatchSimulator& simulator() const noexcept {
        return *simulator_;
    }

private:
    const BatchSimulator* simulator_;
    ga::util::ThreadPool pool_;
};

}  // namespace ga::sim
