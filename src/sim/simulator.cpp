#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ga::sim {

std::vector<ClusterConfig> default_clusters() {
    using ga::machine::CatalogId;
    return {
        ClusterConfig{ga::machine::find(CatalogId::Faster), 32},
        // Desktop is each user's *personal* computer (paper: "a personal
        // computer referred to here as Desktop"): nodes = 0 means "one node
        // per distinct trace user", resolved at simulator construction.
        ClusterConfig{ga::machine::find(CatalogId::Desktop), 0},
        ClusterConfig{ga::machine::find(CatalogId::InstitutionalCluster), 40},
        ClusterConfig{ga::machine::find(CatalogId::Theta), 64},
    };
}

BatchSimulator::BatchSimulator(ga::workload::Workload workload,
                               std::vector<ClusterConfig> clusters)
    : workload_(std::move(workload)), clusters_(std::move(clusters)) {
    GA_REQUIRE(!clusters_.empty(), "simulator: need at least one cluster");
    GA_REQUIRE(workload_.predictor != nullptr, "simulator: workload lacks predictor");
    // The event loop indexes per-job state by job id and replays submits in
    // trace order, so ids must be dense and positional and submit times
    // non-decreasing (generate_trace guarantees both; hand-crafted
    // workloads must too).
    for (std::size_t i = 0; i < workload_.jobs.size(); ++i) {
        GA_REQUIRE(workload_.jobs[i].id == i,
                   "simulator: job ids must equal their position");
        GA_REQUIRE(i == 0 ||
                       workload_.jobs[i - 1].submit_s <= workload_.jobs[i].submit_s,
                   "simulator: jobs must be in submit order");
    }

    // Resolve "one node per user" clusters (personal desktops). Note the
    // one-running-job-per-(user, cluster) rule makes per-user capacity
    // equivalent to everyone owning one such machine.
    std::uint32_t max_user = 0;
    max_job_cores_ = 1;
    for (const auto& j : workload_.jobs) {
        max_user = std::max(max_user, j.user);
        max_job_cores_ = std::max(max_job_cores_, j.cores);
    }
    n_users_ = static_cast<std::size_t>(max_user) + 1;
    for (auto& c : clusters_) {
        if (c.nodes == 0) c.nodes = static_cast<int>(max_user) + 1;
    }

    // Precompute per-job, per-cluster predictions. Predictions depend only on
    // the job's counters; repetitions share counters, so memoize per (user,
    // app).
    const std::size_t n_jobs = workload_.jobs.size();
    const std::size_t n_clusters = clusters_.size();
    pred_runtime_.resize(n_jobs * n_clusters);
    pred_power_.resize(n_jobs * n_clusters);
    work_.resize(n_jobs);

    // Map cluster -> predictor machine index (the predictor was trained on
    // the simulation machine set).
    std::vector<std::size_t> pred_index(n_clusters);
    for (std::size_t c = 0; c < n_clusters; ++c) {
        pred_index[c] =
            workload_.predictor->machine_index(clusters_[c].entry.node.name);
    }

    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::vector<ga::workload::MachineScaling>>
        scaling_cache;
    for (std::size_t j = 0; j < n_jobs; ++j) {
        const auto& job = workload_.jobs[j];
        const auto key = std::make_pair(job.user, job.app);
        auto it = scaling_cache.find(key);
        if (it == scaling_cache.end()) {
            it = scaling_cache
                     .emplace(key, workload_.predictor->predict(job.counters))
                     .first;
        }
        const auto& scaling = *it;
        double work_sum = 0.0;
        std::size_t feasible = 0;
        for (std::size_t c = 0; c < n_clusters; ++c) {
            const auto& s = scaling.second[pred_index[c]];
            const double runtime = job.runtime_ic_s * s.runtime_factor;
            const double power = job.power_ic_w * s.power_factor;
            pred_runtime_[j * n_clusters + c] = runtime;
            pred_power_[j * n_clusters + c] = power;
            if (job.cores <= clusters_[c].total_cores()) {
                work_sum += ga::util::core_hours(job.cores, runtime);
                ++feasible;
            }
        }
        work_[j] = feasible > 0 ? work_sum / static_cast<double>(feasible) : 0.0;
    }
}

double BatchSimulator::job_work_core_hours(std::size_t job_index) const {
    GA_REQUIRE(job_index < work_.size(), "simulator: job index out of range");
    return work_[job_index];
}

namespace {

/// The batch driver's scheduling rules (sim/scheduler.hpp): skip-ahead
/// queues, a wait estimate over running and queued work, and infeasible
/// machines left unpriced.
constexpr SchedulerRules kBatchRules{QueueOrder::SkipAhead,
                                     /*wait_counts_running=*/true,
                                     /*price_infeasible=*/false};

/// All mutable state of one simulation run, pooled per thread: `run` is
/// const and each invocation borrows its thread's RunState (resetting every
/// field but keeping vector capacity), so concurrent runs over the same
/// simulator never share mutable data — the sweep engine (`sim/sweep.hpp`)
/// stays sound — while repeated runs (sweeps, benches) stop churning the
/// allocator on million-job traces.
template <typename Queues>
struct RunState {
    Scheduler<Queues> core;
    std::vector<double> start_time;  // actual start, for CBA's Eq. 2 term
    std::vector<double> charged;     // submit-time charge, for outage refunds
    // Multi-currency state, empty unless currency_budgets was set:
    // remaining/spent per currency, and per-(job, currency) submit-time
    // quotes (indexed [job * n_currencies + k]) for outage refunds.
    std::vector<double> currency_remaining;
    std::vector<double> currency_spent;
    std::vector<double> currency_charged;
    // One flag per (cluster, user): the paper's one-running-job-per-user
    // rule, flat array instead of hash sets.
    std::vector<std::uint8_t> user_running;
    double budget_remaining = std::numeric_limits<double>::infinity();
    SimResult result;
};

template <typename Queues>
RunState<Queues>& pooled_run_state() {
    static thread_local RunState<Queues> state;
    return state;
}

struct SimMetrics {
    ga::obs::Counter& finish_events;
    ga::obs::Counter& submit_events;
    ga::obs::Counter& outage_events;
    ga::obs::Counter& jobs_started;
    ga::obs::Counter& queue_scans;
    ga::obs::Counter& queue_drains;
    ga::obs::Counter& runs;
};

/// Handles resolved once per process, outside any lock (the registry
/// mutex is a hierarchy leaf; see obs/metrics.hpp).
SimMetrics& sim_metrics() {
    auto& registry = ga::obs::Registry::global();
    static SimMetrics metrics{
        registry.counter_handle("sim.events.finish"),
        registry.counter_handle("sim.events.submit"),
        registry.counter_handle("sim.events.outage"),
        registry.counter_handle("sim.jobs.started"),
        registry.counter_handle("sim.queue.scans"),
        registry.counter_handle("sim.queue.drains"),
        registry.counter_handle("sim.runs"),
    };
    return metrics;
}

}  // namespace

template <typename Queues>
SimResult BatchSimulator::run_impl(const SimOptions& options) const {
    const std::size_t n_clusters = clusters_.size();
    const auto& jobs = workload_.jobs;

    // ---- accounting and routing setup ----
    const RunSetup setup(options, clusters_);
    // Multi-currency admission accountants, index-aligned with
    // options.currency_budgets.
    const std::size_t n_currencies = options.currency_budgets.size();
    std::vector<std::unique_ptr<const ga::acct::Accountant>> currency_pricers;
    currency_pricers.reserve(n_currencies);
    for (const auto& cb : options.currency_budgets) {
        GA_REQUIRE(!cb.currency.empty(),
                   "simulator: currency name must not be empty");
        GA_REQUIRE(cb.budget >= 0.0,
                   "simulator: currency budget must be non-negative");
        currency_pricers.push_back(setup.bind(cb.accountant));
    }
    for (std::size_t a = 0; a < n_currencies; ++a) {
        for (std::size_t b = a + 1; b < n_currencies; ++b) {
            GA_REQUIRE(options.currency_budgets[a].currency !=
                           options.currency_budgets[b].currency,
                       "simulator: duplicate currency name");
        }
    }
    GA_REQUIRE(options.arrival_compression > 0.0,
               "simulator: arrival compression must be positive");
    if (options.outage.has_value()) {
        GA_REQUIRE(options.outage->cluster < n_clusters,
                   "simulator: outage cluster index out of range");
        GA_REQUIRE(options.outage->nodes_lost >= 0,
                   "simulator: outage cannot add nodes");
    }

    // ---- state ----
    RunState<Queues>& rs = pooled_run_state<Queues>();
    rs.core.reset(clusters_, setup, kBatchRules, max_job_cores_);
    rs.start_time.assign(jobs.size(), 0.0);
    rs.charged.assign(jobs.size(), 0.0);
    rs.user_running.assign(n_clusters * n_users_, 0);
    rs.budget_remaining = options.budget > 0.0
                              ? options.budget
                              : std::numeric_limits<double>::infinity();
    if (n_currencies > 0) {
        rs.currency_remaining.resize(n_currencies);
        for (std::size_t k = 0; k < n_currencies; ++k) {
            rs.currency_remaining[k] =
                options.currency_budgets[k].budget > 0.0
                    ? options.currency_budgets[k].budget
                    : std::numeric_limits<double>::infinity();
        }
        rs.currency_spent.assign(n_currencies, 0.0);
        rs.currency_charged.assign(jobs.size() * n_currencies, 0.0);
    } else {
        rs.currency_remaining.clear();
        rs.currency_spent.clear();
        rs.currency_charged.clear();
    }
    rs.result = SimResult{};

    SimResult& result = rs.result;
    result.finish_times_s.reserve(jobs.size());

    // ---- observability (write-only; never feeds back into the run) ----
    // The tracing flag is sampled once so every event pays one branch; the
    // counter flush at the end of the run is the only registry touch.
    auto& tracer = ga::obs::Tracer::global();
    const bool tracing = ga::obs::tracing_enabled();

    // Scheduling context shared by every routing decision; the core
    // refreshes the per-cluster views before each one.
    SchedulingContext ctx;
    ctx.budget_total = options.budget;
    ctx.jobs_total = jobs.size();
    ctx.clusters = rs.core.views();
    for (const auto& job : jobs) {
        ctx.trace_span_s =
            std::max(ctx.trace_span_s, job.submit_s / options.arrival_compression);
    }

    auto job_usage = [&](std::uint32_t j, std::size_t c,
                         double start_time) {
        ga::acct::JobUsage usage;
        usage.duration_s = pred_runtime_[j * n_clusters + c];
        usage.energy_j = usage.duration_s * pred_power_[j * n_clusters + c];
        usage.cores = jobs[j].cores;
        usage.priced_at_s = start_time;
        return usage;
    };

    // The paper's one-running-job-per-(user, cluster) rule: the batch
    // driver's start predicate, its flags kept by the start/finish hooks.
    const auto may_start = [&](std::uint32_t user, std::size_t c) {
        return rs.user_running[c * n_users_ + user] == 0;
    };
    const auto on_start = [&](const QueuedJob& job, std::size_t c,
                              double now) {
        rs.user_running[c * n_users_ + job.user] = 1;
        rs.start_time[job.id] = now;
    };
    // Metrics at completion. Carbon is metered at the job's actual start
    // time: Eq. 2's operational term reads grid intensity when the job
    // runs, which differs from the submit time for queued jobs.
    const auto on_finish = [&](const RunningJob& done) {
        const std::size_t c = done.cluster;
        const auto j = static_cast<std::uint32_t>(done.id);
        rs.user_running[c * n_users_ + done.user] = 0;
        const auto usage = job_usage(j, c, rs.start_time[j]);
        ++result.jobs_completed;
        result.work_core_hours += work_[j];
        result.energy_mwh += usage.energy_j / ga::util::kJoulesPerKwh / 1000.0;
        result.operational_carbon_kg +=
            setup.cba.operational_g(usage, clusters_[c].entry) / 1000.0;
        result.attributed_carbon_kg +=
            setup.cba.charge(usage, clusters_[c].entry) / 1000.0;
        result.finish_times_s.push_back(done.finish_s);
        result.makespan_s = std::max(result.makespan_s, done.finish_s);
    };
    const auto complete_until = [&](double t) {
        rs.core.complete_until(t, on_finish, may_start, on_start);
    };

    // The outage: the cluster's lost cores never return, and queued jobs
    // that no longer fit the shrunken cluster are refunded and skipped.
    const auto apply_outage = [&](const ClusterOutage& outage) {
        if (tracing) tracer.span_begin("sim.outage.compact", outage.at_s);
        const std::size_t c = outage.cluster;
        const int lost = std::min(outage.nodes_lost, clusters_[c].nodes) *
                         clusters_[c].entry.node.total_cores();
        rs.core.shrink(c, lost, [&](const QueuedJob& job) {
            rs.budget_remaining += rs.charged[job.id];
            result.total_cost -= rs.charged[job.id];
            for (std::size_t k = 0; k < n_currencies; ++k) {
                rs.currency_remaining[k] +=
                    rs.currency_charged[job.id * n_currencies + k];
                rs.currency_spent[k] -=
                    rs.currency_charged[job.id * n_currencies + k];
            }
            ++result.jobs_skipped;
        });
        if (tracing) tracer.span_end("sim.outage.compact", outage.at_s);
    };

    // ---- event loop: submits in trace order, each preceded by the
    // completions (and the outage) due by its time. At equal times
    // finishes go first, then the outage, then the submit; equal-time
    // finishes and submits go in job-id order.
    std::optional<ClusterOutage> outage = options.outage;
    for (const auto& job : jobs) {
        const double now = job.submit_s / options.arrival_compression;
        if (outage.has_value() && outage->at_s <= now) {
            complete_until(outage->at_s);
            apply_outage(*outage);
            outage.reset();
        }
        complete_until(now);

        // ---- submit: route through the policy ----
        if (tracing) tracer.span_instant("sim.submit", now);
        const std::uint32_t j = job.id;
        const auto choices = rs.core.route_view(
            now, job.cores, [&](std::size_t c, MachineChoice& choice) {
                choice.runtime_s = pred_runtime_[j * n_clusters + c];
                choice.energy_j =
                    choice.runtime_s * pred_power_[j * n_clusters + c];
                choice.cost = setup.pricer->charge(job_usage(j, c, now),
                                                   clusters_[c].entry);
            });
        ctx.now_s = now;
        ctx.budget_remaining = rs.budget_remaining;
        ++ctx.jobs_submitted;
        const auto chosen = setup.routing->choose(ctx, choices);
        if (!chosen) {
            ++result.jobs_skipped;
            continue;
        }
        const std::size_t c = *chosen;
        if (choices[c].cost > rs.budget_remaining) {
            ++result.jobs_skipped;
            continue;
        }
        // Dual-budget admission: quote the job under every currency at the
        // submit time and admit only if all can pay (all-or-nothing, the
        // paper's dual-budget incentive); then debit every currency.
        if (n_currencies > 0) {
            const auto usage = job_usage(j, c, now);
            bool affordable = true;
            for (std::size_t k = 0; k < n_currencies; ++k) {
                rs.currency_charged[j * n_currencies + k] =
                    currency_pricers[k]->charge(usage, clusters_[c].entry);
                if (rs.currency_charged[j * n_currencies + k] >
                    rs.currency_remaining[k]) {
                    affordable = false;
                }
            }
            if (!affordable) {
                for (std::size_t k = 0; k < n_currencies; ++k) {
                    rs.currency_charged[j * n_currencies + k] = 0.0;
                }
                ++result.jobs_skipped;
                continue;
            }
            for (std::size_t k = 0; k < n_currencies; ++k) {
                rs.currency_remaining[k] -=
                    rs.currency_charged[j * n_currencies + k];
                rs.currency_spent[k] += rs.currency_charged[j * n_currencies + k];
            }
        }
        rs.budget_remaining -= choices[c].cost;
        result.total_cost += choices[c].cost;
        rs.charged[j] = choices[c].cost;

        rs.core.submit(c,
                       QueuedJob{j, job.cores, job.user,
                                 pred_runtime_[j * n_clusters + c]},
                       now, may_start, on_start);
    }
    if (outage.has_value()) {
        complete_until(outage->at_s);
        apply_outage(*outage);
    }
    complete_until(std::numeric_limits<double>::infinity());

    std::uint64_t jobs_started = 0;
    for (std::size_t c = 0; c < n_clusters; ++c) {
        result.jobs_per_machine[clusters_[c].entry.node.name] +=
            rs.core.cluster(c).completed;
        jobs_started += rs.core.cluster(c).started;
    }
    for (std::size_t k = 0; k < n_currencies; ++k) {
        result.currency_spent[options.currency_budgets[k].currency] =
            rs.currency_spent[k];
    }
    std::sort(result.finish_times_s.begin(), result.finish_times_s.end());

    if (ga::obs::metrics_enabled()) {
        SimMetrics& metrics = sim_metrics();
        metrics.runs.inc();
        metrics.finish_events.inc(result.jobs_completed);
        metrics.submit_events.inc(jobs.size());
        metrics.outage_events.inc(options.outage.has_value() ? 1 : 0);
        metrics.jobs_started.inc(jobs_started);
        metrics.queue_scans.inc(rs.core.scans());
        metrics.queue_drains.inc(rs.core.drains());
    }
    return std::move(rs.result);
}

SimResult BatchSimulator::run(const SimOptions& options) const {
    return run_impl<IndexedQueues>(options);
}

SimResult BatchSimulator::run_reference(const SimOptions& options) const {
    return run_impl<LinearQueues>(options);
}

}  // namespace ga::sim
