// Machine-selection policies (paper §5.3) as an open strategy API.
//
// Each simulated user submits every job to exactly one machine. A
// `RoutingPolicy` makes that choice from the job's per-machine predictions
// (`MachineChoice`) and a `SchedulingContext` exposing system state the
// paper's policies never see: the simulation clock, remaining budget,
// per-cluster queue depths, and current/forecast grid carbon intensity.
//
// Policies are constructed by name through the string-keyed
// `PolicyRegistry` from a parameterized `PolicySpec`, so new routing
// strategies plug in without touching the simulator core. The paper's
// eight policies are builtin registry entries:
//
//   Greedy  — cheapest machine under the active accounting method
//   Energy  — least predicted energy
//   Mixed   — cheapest, unless some machine finishes in half the time
//             (param "threshold", default 2)
//   EFT     — earliest finish time (queue estimate + runtime)
//   Runtime — shortest runtime
//   Theta / IC / FASTER — always that machine
//
// Three context-aware builtins go beyond the paper:
//
//   CarbonAware — lowest grid carbon intensity among feasible clusters
//                 (param "forecast" = 1 routes on the one-hour-ahead
//                 intensity instead of the current sample)
//   LeastLoaded — fewest queued jobs, ties broken by backlog estimate
//   BudgetPacing — paces spending against the remaining budget: ahead of
//                 the linear spend schedule it routes to the cheapest
//                 machine, behind it to the earliest finish
//                 (param "slack" scales the schedule, default 1)
//
// A spec is the only way to name a policy: `all_policies()` lists the
// paper's eight as bare specs, and a label such as "Mixed" or
// "Mixed(threshold=1.5)" parses back to its spec (util/spec.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/accounting.hpp"
#include "util/thread_annotations.hpp"

namespace ga::sim {

// ---------------------------------------------------------------- choices

/// Per-machine inputs a policy chooses from.
struct MachineChoice {
    std::size_t machine_index = 0;
    bool feasible = true;      ///< job fits this machine
    double runtime_s = 0.0;    ///< predicted
    double energy_j = 0.0;     ///< predicted
    double cost = 0.0;         ///< under the active accounting method
    double queue_wait_s = 0.0; ///< current backlog estimate
};

// ---------------------------------------------------------------- context

/// Live view of one cluster at routing time, index-aligned with the
/// `MachineChoice` list (entry i describes `machine_index` i).
struct ClusterStatus {
    std::string_view name;      ///< catalog machine name ("FASTER", ...)
    int capacity_cores = 0;     ///< effective total cores (outages shrink it)
    int free_cores = 0;
    std::size_t queue_depth = 0;     ///< jobs waiting in the FIFO
    double queue_wait_s = 0.0;       ///< backlog estimate (as MachineChoice)
    /// Facility grid carbon intensity now / one hour ahead. The simulator
    /// fills these only for policies whose `uses_grid_intensity()` is true
    /// (the default); grid-blind builtins skip the lookups.
    double grid_intensity_g_per_kwh = 0.0;
    double grid_forecast_g_per_kwh = 0.0;
};

/// System state a policy may consult beyond the per-machine predictions.
/// The simulator fills this before every routing decision; standalone
/// callers (tests) may leave it default — the paper's policies ignore it
/// entirely, and context-aware policies check for the state they need.
struct SchedulingContext {
    double now_s = 0.0;              ///< simulation clock
    double budget_total = 0.0;       ///< 0 = unlimited
    /// Remaining allocation (infinity when unlimited).
    double budget_remaining = std::numeric_limits<double>::infinity();
    double trace_span_s = 0.0;       ///< last submit time of the trace
    std::size_t jobs_total = 0;      ///< jobs in the whole trace
    std::size_t jobs_submitted = 0;  ///< submit events seen so far (incl. this)
    /// Per-cluster live state; empty when the caller has none (the paper's
    /// policies never read it).
    std::span<const ClusterStatus> clusters;
};

// --------------------------------------------------------------- strategy

/// A routing strategy. Implementations must be immutable after
/// construction: `choose` is const and may be called concurrently from
/// many sweep threads over the same instance. All parameters arrive
/// through the `PolicySpec` at construction time.
class RoutingPolicy {
public:
    virtual ~RoutingPolicy() = default;

    /// Picks a machine index, or std::nullopt when no machine is feasible.
    /// `choices` is never empty; `choices[i].machine_index` indexes
    /// `ctx.clusters` when cluster state is present.
    [[nodiscard]] virtual std::optional<std::size_t> choose(
        const SchedulingContext& ctx,
        std::span<const MachineChoice> choices) const = 0;

    /// The registry name this instance was built under.
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    /// Whether `choose` reads the per-cluster grid-intensity fields of the
    /// context. Defaults to true so custom policies always see a fully
    /// populated context; builtins that never look at the grid override to
    /// false, letting the simulator skip the per-decision intensity lookups
    /// on those hot paths. Overriding to false is purely an optimization —
    /// never required for correctness.
    [[nodiscard]] virtual bool uses_grid_intensity() const noexcept {
        return true;
    }

    /// Finer-grained companion to `uses_grid_intensity`: whether `choose`
    /// reads the one-hour-ahead forecast field specifically. Only consulted
    /// when `uses_grid_intensity()` is true; overriding to false halves the
    /// per-decision trace lookups for current-intensity-only policies.
    /// Same contract: an optimization, never required for correctness.
    [[nodiscard]] virtual bool uses_grid_forecast() const noexcept {
        return true;
    }

    /// Whether `choose` reads the context's `budget_total` or
    /// `budget_remaining`. Defaults to true, so custom policies are never
    /// laddered. A policy that returns false routes runs that differ only
    /// in budget alike until their budgets first admit a job differently,
    /// so sweeps run such runs as one event loop
    /// (`BatchSimulator::run_ladder`). Unlike the grid flags, a false that
    /// is wrong changes results: override only a policy that never reads
    /// the budget.
    [[nodiscard]] virtual bool uses_budget() const noexcept { return true; }

    /// Whether `choose` reads `MachineChoice::cost`. Defaults to true, so a
    /// registered policy never shares an event loop across pricings unless
    /// it says so. The loop reads a run's pricing only through the machine
    /// costs, the admission check, the total cost and outage refunds, so a
    /// policy that returns false (and reads no budget) routes runs that
    /// differ only in pricing and budget alike until their admissions first
    /// differ; sweeps run such runs as one event loop too. Same contract as
    /// `uses_budget`: a false that is wrong changes results.
    [[nodiscard]] virtual bool uses_cost() const noexcept { return true; }
};

/// A named, parameterized policy selection — the unit the sweep engine
/// and `SimOptions` carry. Parameters are string-keyed doubles with
/// per-policy defaults (e.g. {"threshold", 2.0} for Mixed).
struct PolicySpec {
    std::string name;
    std::map<std::string, double> params;

    /// Parameter lookup with fallback.
    [[nodiscard]] double param(std::string_view key, double fallback) const;

    /// "Mixed(threshold=1.5)" — the name alone when there are no params.
    /// Deterministic (params print in key order), used in sweep labels.
    [[nodiscard]] std::string label() const;

    friend bool operator==(const PolicySpec&, const PolicySpec&) = default;
};

/// String-keyed policy factory registry. `global()` arrives preloaded with
/// the eight paper policies and the three context-aware builtins; user code
/// registers custom strategies at startup and runs them by name through
/// `SimOptions`/`SweepGrid`. All members are thread-safe — sweeps resolve
/// specs concurrently.
class PolicyRegistry {
public:
    using Factory =
        std::function<std::unique_ptr<RoutingPolicy>(const PolicySpec&)>;

    /// Registers a factory; throws PreconditionError on a duplicate name.
    void register_policy(std::string name, Factory factory);

    [[nodiscard]] bool contains(std::string_view name) const;

    /// All registered names, sorted.
    [[nodiscard]] std::vector<std::string> names() const;

    /// Builds the named policy; throws RuntimeError for an unknown name.
    [[nodiscard]] std::unique_ptr<const RoutingPolicy> make(
        const PolicySpec& spec) const;

    /// The process-wide registry, preloaded with the builtins.
    [[nodiscard]] static PolicyRegistry& global();

private:
    // Registry level of the declared lock hierarchy, alongside
    // AccountantRegistry: policies are built on the way into simulation
    // runs that charge the ledger, never from under the ledger lock.
    mutable ga::util::Mutex mutex_
        GA_ACQUIRED_BEFORE(ga::acct::Ledger::mutex_);
    std::map<std::string, Factory, std::less<>> factories_ GA_GUARDED_BY(mutex_);
};

/// The paper's eight policies as bare specs, in its plotting order:
/// Greedy, Energy, Mixed, EFT, Runtime, Theta, IC, FASTER.
[[nodiscard]] const std::vector<PolicySpec>& all_policies();

/// The five multi-machine policies (Figs 6, 7a and Table 6).
[[nodiscard]] const std::vector<PolicySpec>& multi_machine_policies();

/// The three beyond-paper builtins (CarbonAware, LeastLoaded,
/// BudgetPacing) with default parameters, in that order.
[[nodiscard]] const std::vector<PolicySpec>& beyond_paper_policies();

}  // namespace ga::sim
