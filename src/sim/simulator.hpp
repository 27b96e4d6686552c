// Event-driven multi-machine batch simulator (paper §5).
//
// Models four clusters (Table 5), each a pool of cores with a FIFO queue and
// the paper's per-user constraint: a user may have at most one running job
// per cluster. Jobs arrive from the synthetic trace; a policy routes each
// job to a machine using its per-machine predictions and current queue
// estimates; execution is deterministic (runtime/power from the
// cross-platform predictor); accounting charges the configured method. The
// queues, running jobs and routing views are the scheduling core shared
// with the ga-serve session (sim/scheduler.hpp); this driver replays the
// trace through it.
//
// A fixed allocation budget can be imposed: jobs whose estimated cost
// exceeds the remaining budget are skipped, reproducing the paper's
// "work completed with a fixed allocation" experiments (Figs 5a, 6, 7a).
#pragma once

#include <map>
#include <memory>
#include <optional>

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
/// {"core-hours", to_spec(Method::Runtime), 5e4} and
/// {"gCO2e", to_spec(Method::Cba), 1e4}.
struct CurrencyBudget {
    std::string currency;
    ga::acct::AccountantSpec accountant;
    double budget = 0.0;  ///< 0 = unlimited in this currency

    friend bool operator==(const CurrencyBudget&, const CurrencyBudget&) = default;
};

/// Scenario and accounting configuration for one run.
struct SimOptions {
    Policy policy = Policy::Greedy;
    /// Registry policy overriding the enum when set: any builtin or
    /// user-registered `RoutingPolicy`, selected by name with parameters
    /// (e.g. {"CarbonAware", {{"forecast", 1}}}). Enum-only options keep
    /// the paper-faithful shim path (`to_spec(policy, mixed_threshold)`).
    std::optional<PolicySpec> policy_spec;
    /// Pricing method for routing costs and the primary `budget`. The
    /// paper's experiments use Eba or Cba; enum-only options route through
    /// the shim (`to_spec(pricing)`), bit-identical to the pre-registry
    /// runs for those two values. (Runtime/Energy/Peak now genuinely price
    /// with their named method — the pre-registry code silently fell back
    /// to EBA for them.)
    ga::acct::Method pricing = ga::acct::Method::Eba;
    /// Registry accountant overriding the enum when set: any builtin or
    /// user-registered method, selected by name with parameters (e.g.
    /// {"CarbonTax", {{"rate", 0.02}}}).
    std::optional<ga::acct::AccountantSpec> accountant_spec;
    /// Multi-currency admission: when non-empty, every submitted job is
    /// additionally priced under each listed currency's accountant and
    /// admitted only if *all* of them can pay (each is then debited) — the
    /// paper's dual-budget incentive. Independent of the primary `budget`,
    /// which still gates the routing-cost currency.
    std::vector<CurrencyBudget> currency_budgets;
    double budget = 0.0;            ///< 0 = unlimited (full-workload runs)
    double mixed_threshold = 2.0;   ///< Mixed policy speedup rule
    bool regional_grids = false;    ///< Fig-7 low-carbon scenario
    std::uint64_t grid_seed = 77;   ///< synthetic grid seed
    /// Arrival-burst scaling (scenario dimension beyond the paper): submit
    /// times are divided by this factor, so > 1 compresses the trace into a
    /// burstier window while keeping job order and characteristics.
    double arrival_compression = 1.0;
    std::optional<ClusterOutage> outage;  ///< optional mid-run capacity loss

    friend bool operator==(const SimOptions&, const SimOptions&) = default;
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
    std::vector<double> finish_times_s;            ///< sorted, one per job
    std::map<std::string, std::size_t> jobs_per_machine;
    /// Per-currency totals charged at admission (net of outage refunds);
    /// empty unless `SimOptions::currency_budgets` was set.
    std::map<std::string, double> currency_spent;
};

/// The simulator. Construct once per workload; `run` is const, keeps every
/// piece of per-run mutable state in a stack-local `RunState`, and can be
/// called concurrently from many threads over the same instance — the
/// scenario-sweep engine (`sim/sweep.hpp`) relies on this.
class BatchSimulator {
public:
    /// Requires positional job ids (`jobs[i].id == i`) and non-decreasing
    /// submit times, as `generate_trace` produces them.
    BatchSimulator(ga::workload::Workload workload,
                   std::vector<ClusterConfig> clusters);

    /// Convenience: workload over the default clusters.
    explicit BatchSimulator(ga::workload::Workload workload)
        : BatchSimulator(std::move(workload), default_clusters()) {}

    [[nodiscard]] SimResult run(const SimOptions& options) const;

    /// The linear-scan executor (`LinearQueues`, sim/scheduler.hpp), kept
    /// as the bit-identity oracle for `run` and as the baseline the bench
    /// harness measures the indexed queue against. Same contract and
    /// thread-safety as `run`; byte-identical results on every input.
    [[nodiscard]] SimResult run_reference(const SimOptions& options) const;

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
    [[nodiscard]] SimResult run_impl(const SimOptions& options) const;

    ga::workload::Workload workload_;
    std::vector<ClusterConfig> clusters_;
    // Per-job, per-cluster predictions, precomputed once (KNN results are
    // shared across policies): runtime_s and power_w, indexed
    // [job * n_clusters + cluster].
    std::vector<double> pred_runtime_;
    std::vector<double> pred_power_;
    std::vector<double> work_;  ///< per-job machine-averaged core-hours
    std::size_t n_users_ = 0;   ///< max trace user id + 1 (flat-array sizing)
    int max_job_cores_ = 1;     ///< largest core demand (queue bucket sizing)
};

}  // namespace ga::sim
