// Event-driven multi-machine batch simulator (paper §5).
//
// Models four clusters (Table 5), each a pool of cores with a FIFO queue and
// the paper's per-user constraint: a user may have at most one running job
// per cluster. Jobs arrive from the synthetic trace; a policy routes each
// job to a machine using its per-machine predictions and current queue
// estimates; execution is deterministic (runtime/power from the
// cross-platform predictor); accounting charges the configured method.
// `SimOptions` names the policy and the pricing method as registry specs
// (`PolicySpec`, `AccountantSpec`), resolved once per run. The queues,
// running jobs and routing views are the scheduling core shared with the
// ga-serve session (sim/scheduler.hpp); this driver replays the trace
// through it.
//
// A fixed allocation budget can be imposed: jobs whose estimated cost
// exceeds the remaining budget are skipped, reproducing the paper's
// "work completed with a fixed allocation" experiments (Figs 5a, 6, 7a).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>

#include "core/accounting.hpp"
#include "sim/policy.hpp"
#include "workload/workload.hpp"

namespace ga::sim {

/// One simulated cluster: a catalog machine replicated over `nodes` nodes.
struct ClusterConfig {
    ga::machine::CatalogEntry entry;
    int nodes = 1;

    [[nodiscard]] int total_cores() const noexcept {
        return entry.node.total_cores() * nodes;
    }
};

/// The default Table-5 deployment (FASTER, Desktop, IC, Theta), scaled to
/// keep the 142k-job simulation responsive while preserving the paper's
/// contention patterns (Desktop is a single node; Theta is the largest).
[[nodiscard]] std::vector<ClusterConfig> default_clusters();

/// Mid-run capacity loss (scenario dimension beyond the paper): at `at_s`
/// the cluster irrevocably loses `nodes_lost` nodes (clamped to the deployed
/// count). Running jobs finish, but the lost cores are never returned to the
/// pool; queued jobs that no longer fit the shrunken cluster are refunded
/// and counted as skipped.
struct ClusterOutage {
    std::size_t cluster = 0;  ///< index into the deployment
    double at_s = 0.0;        ///< outage time, seconds from simulation start
    int nodes_lost = 0;

    friend bool operator==(const ClusterOutage&, const ClusterOutage&) = default;
};

/// One currency of a multi-currency allocation: a display name, the
/// registry accountant that prices jobs in it, and the granted budget.
/// The titular dual-budget scenario is two of these — e.g.
/// {"core-hours", {"Runtime", {}}, 5e4} and {"gCO2e", {"CBA", {}}, 1e4}.
struct CurrencyBudget {
    std::string currency;
    ga::acct::AccountantSpec accountant;
    double budget = 0.0;  ///< 0 = unlimited in this currency

    friend bool operator==(const CurrencyBudget&, const CurrencyBudget&) = default;
};

/// Scenario and accounting configuration for one run.
struct SimOptions {
    /// Routing policy: any builtin or user-registered `RoutingPolicy`,
    /// selected by name with parameters (e.g. {"Mixed", {{"threshold",
    /// 1.5}}} or {"CarbonAware", {{"forecast", 1}}}).
    PolicySpec policy{"Greedy", {}};
    /// Pricing method for routing costs and the primary `budget`: any
    /// builtin or user-registered accountant (e.g. {"CarbonTax", {{"rate",
    /// 0.02}}}). The paper's experiments use EBA or CBA.
    ga::acct::AccountantSpec pricing{"EBA", {}};
    /// Multi-currency admission: when non-empty, every submitted job is
    /// additionally priced under each listed currency's accountant and
    /// admitted only if *all* of them can pay (each is then debited) — the
    /// paper's dual-budget incentive. Independent of the primary `budget`,
    /// which still gates the routing-cost currency.
    std::vector<CurrencyBudget> currency_budgets;
    double budget = 0.0;            ///< 0 = unlimited (full-workload runs)
    bool regional_grids = false;    ///< Fig-7 low-carbon scenario
    std::uint64_t grid_seed = 77;   ///< synthetic grid seed
    /// Arrival-burst scaling (scenario dimension beyond the paper): submit
    /// times are divided by this factor, so > 1 compresses the trace into a
    /// burstier window while keeping job order and characteristics.
    double arrival_compression = 1.0;
    std::optional<ClusterOutage> outage;  ///< optional mid-run capacity loss
    /// Whether the run records `SimResult::finish_times_s`. What a caller
    /// reads, not what it simulates: no scenario file, label or session
    /// fingerprint carries it, and every other result field is the same
    /// either way.
    bool finish_times = false;

    friend bool operator==(const SimOptions&, const SimOptions&) = default;
};

/// The four options a job's submit-time route quote reads besides the job
/// and the cluster. A quote never reads the policy, the budgets, the outage
/// or run state (accountants are immutable), so runs that agree on these
/// price every submit alike.
struct QuoteKey {
    ga::acct::AccountantSpec pricing{"EBA", {}};
    bool regional_grids = false;
    std::uint64_t grid_seed = 77;
    double arrival_compression = 1.0;

    [[nodiscard]] static QuoteKey of(const SimOptions& options);

    friend bool operator==(const QuoteKey&, const QuoteKey&) = default;
};

/// Every job's route quote under one `QuoteKey`: the job priced at its
/// submit time on each cluster its cores fit at full capacity. An outage
/// only shrinks a cluster, so no run prices a job anywhere else; those
/// entries hold 0.
struct QuoteTable {
    QuoteKey key;
    std::vector<double> quotes;  ///< [job * n_clusters + cluster]
};

/// Aggregated outcome of one simulation run.
struct SimResult {
    double work_core_hours = 0.0;  ///< machine-averaged core-hours completed
    std::size_t jobs_completed = 0;
    std::size_t jobs_skipped = 0;  ///< infeasible or unaffordable
    double total_cost = 0.0;       ///< in the pricing method's unit
    double energy_mwh = 0.0;
    double operational_carbon_kg = 0.0;
    double attributed_carbon_kg = 0.0;  ///< operational + embodied share
    double makespan_s = 0.0;
    /// Sorted, one per completed job; empty unless
    /// `SimOptions::finish_times` was set.
    std::vector<double> finish_times_s;
    std::map<std::string, std::size_t> jobs_per_machine;
    /// Per-currency totals charged at admission (net of outage refunds);
    /// empty unless `SimOptions::currency_budgets` was set.
    std::map<std::string, double> currency_spent;
};

/// The simulator. Construct once per workload; `run` is const, keeps every
/// piece of per-run mutable state in a stack-local `RunState`, and can be
/// called concurrently from many threads over the same instance — the
/// scenario-sweep engine (`sim/sweep.hpp`) relies on this.
///
/// Every run is a ladder (`run_ladder`); `run` and `run_reference` are
/// ladders of one, so there is one event loop.
class BatchSimulator {
public:
    /// Receives one ladder member's result: its index in the ladder and
    /// what `run` of its options returns.
    using MemberDone =
        std::function<void(std::size_t member, const SimResult& result)>;

    /// Requires positional job ids (`jobs[i].id == i`) and non-decreasing
    /// submit times, as `generate_trace` produces them. Predicts each (user,
    /// app) pair's scaling on every cluster once, from the pair's first
    /// job's counters (`sim.predictions` counts the calls), and precomputes
    /// each job's machine-averaged work. A run computes a job's runtime and
    /// power on a cluster where it reads them, as the job's IC runtime and
    /// power times its pair's factors there, so the simulator keeps no
    /// per-job, per-cluster array.
    BatchSimulator(ga::workload::Workload workload,
                   std::vector<ClusterConfig> clusters);

    /// Convenience: workload over the default clusters.
    explicit BatchSimulator(ga::workload::Workload workload)
        : BatchSimulator(std::move(workload), default_clusters()) {}

    /// Runs `options` over a quote table of its own: a ladder of one.
    [[nodiscard]] SimResult run(const SimOptions& options) const;

    /// Runs a ladder as one event loop, and calls `done` once per member
    /// with the result `run(ladder[m])` gives. `quotes` holds one table
    /// per member, built by this simulator for that member's `QuoteKey`; a
    /// ladder refuses any other table, and a member's table must stay
    /// valid until its `done`. Sweeps build one table per key and share it
    /// among the members that price alike. With two or more members the
    /// policy must not read the budget (`RoutingPolicy::uses_budget`), and
    /// the members' options must be equal but for `budget` and, when the
    /// policy reads no cost (`RoutingPolicy::uses_cost`), `pricing`. So
    /// every member routes each job alike until its admissions first
    /// differ; a ladder that breaks either rule is refused.
    ///
    /// Every member is a lane: its own table, remaining budget and total
    /// cost. The first of the smallest budgets (0 is unlimited) leads the
    /// replay of the trace: its quotes are the routing costs. Every lane is
    /// debited with its own quote for each job the replay admits and
    /// credited with its own quote for each job an outage strands, in the
    /// same order as its direct run. At the first job whose admission a
    /// lane's budget decides otherwise than the leader's, the lane leaves;
    /// all lanes that leave at one job decide it the same way, so they
    /// leave as one fork: a copy of the replay's state that decides that
    /// job their way at once and, after the replay, resumes at the next
    /// job, led by the first of its smallest budgets; its lanes may fork
    /// again. `done` sees the leader first, then its lanes that never left
    /// (whose results are the leader's, with their own total costs), then
    /// each fork in the order it left, its leader first.
    void run_ladder(std::span<const SimOptions> ladder,
                    std::span<const QuoteTable* const> quotes,
                    const MemberDone& done) const;

    /// The linear-scan executor (`LinearQueues`, sim/scheduler.hpp), kept
    /// as the bit-identity oracle for `run` and as the baseline the bench
    /// harness measures the indexed queue against. Same contract and
    /// thread-safety as `run`; byte-identical results on every input.
    [[nodiscard]] SimResult run_reference(const SimOptions& options) const;

    /// Prices every job at its submit time on every cluster it fits, under
    /// `key`. Const and thread-safe, like `run`.
    [[nodiscard]] QuoteTable quote_table(const QuoteKey& key) const;

    [[nodiscard]] const std::vector<ClusterConfig>& clusters() const noexcept {
        return clusters_;
    }
    [[nodiscard]] const ga::workload::Workload& workload() const noexcept {
        return workload_;
    }

    /// The machine-averaged core-hours of one job (the paper's work unit).
    [[nodiscard]] double job_work_core_hours(std::size_t job_index) const;

private:
    /// The event loop, parameterized on the ready-queue structure (the
    /// indexed fast path or the linear reference).
    template <typename Queues>
    void run_ladder_impl(std::span<const SimOptions> ladder,
                         std::span<const QuoteTable* const> quotes,
                         const MemberDone& done) const;

    /// `options` as a ladder of one, over a quote table of its own.
    template <typename Queues>
    [[nodiscard]] SimResult run_alone(const SimOptions& options) const;

    /// The scaling of `job`'s (user, app) pair on each cluster, indexed by
    /// cluster.
    [[nodiscard]] const ga::workload::MachineScaling* scaling_row(
        const ga::workload::TraceJob& job) const noexcept;

    ga::workload::Workload workload_;
    std::vector<ClusterConfig> clusters_;
    // Each (user, app) pair's predicted scaling on each cluster, shared by
    // every run: user u's app a holds the row at slot user_slots_[u] + a,
    // indexed [slot * n_clusters + cluster]. A user's slots run to its
    // largest app id, so user_slots_ holds max user + 2 offsets.
    std::vector<std::size_t> user_slots_;
    std::vector<ga::workload::MachineScaling> scaling_;
    std::vector<double> work_;  ///< per-job machine-averaged core-hours
};

}  // namespace ga::sim
