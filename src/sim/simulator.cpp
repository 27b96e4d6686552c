#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <numeric>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ga::sim {

namespace {

struct SimMetrics {
    ga::obs::Counter& finish_events;
    ga::obs::Counter& submit_events;
    ga::obs::Counter& outage_events;
    ga::obs::Counter& jobs_started;
    ga::obs::Counter& queue_scans;
    ga::obs::Counter& queue_drains;
    ga::obs::Counter& queue_leaf_writes;
    ga::obs::Counter& route_quotes;
    ga::obs::Counter& route_decisions;
    ga::obs::Counter& predictions;
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
        registry.counter_handle("sim.queue.leaf_writes"),
        registry.counter_handle("sim.route.quotes"),
        registry.counter_handle("sim.route.decisions"),
        registry.counter_handle("sim.predictions"),
        registry.counter_handle("sim.runs"),
    };
    return metrics;
}

/// `job`'s runtime on a cluster where its pair scales by `s`.
double scaled_runtime(const ga::workload::TraceJob& job,
                      const ga::workload::MachineScaling& s) {
    return job.runtime_ic_s * s.runtime_factor;
}

}  // namespace

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
    for (const auto& j : workload_.jobs) max_user = std::max(max_user, j.user);
    for (auto& c : clusters_) {
        if (c.nodes == 0) c.nodes = static_cast<int>(max_user) + 1;
    }

    // Predict each (user, app) pair once, on its first sight in job order:
    // predictions depend only on the job's counters, and repetitions share
    // them. user_slots_ first counts each user's slots, then offsets them.
    const std::size_t n_jobs = workload_.jobs.size();
    const std::size_t n_clusters = clusters_.size();
    user_slots_.assign(std::size_t{max_user} + 2, 0);
    for (const auto& job : workload_.jobs) {
        std::size_t& apps = user_slots_[std::size_t{job.user} + 1];
        apps = std::max(apps, std::size_t{job.app} + 1);
    }
    std::partial_sum(user_slots_.begin(), user_slots_.end(), user_slots_.begin());
    scaling_.resize(user_slots_.back() * n_clusters);
    work_.resize(n_jobs);

    // Map cluster -> predictor machine index (the predictor was trained on
    // the simulation machine set).
    std::vector<std::size_t> pred_index(n_clusters);
    for (std::size_t c = 0; c < n_clusters; ++c) {
        pred_index[c] =
            workload_.predictor->machine_index(clusters_[c].entry.node.name);
    }

    std::vector<bool> predicted(user_slots_.back(), false);
    std::uint64_t predictions = 0;
    for (std::size_t j = 0; j < n_jobs; ++j) {
        const auto& job = workload_.jobs[j];
        const std::size_t slot = user_slots_[job.user] + job.app;
        ga::workload::MachineScaling* row = &scaling_[slot * n_clusters];
        if (!predicted[slot]) {
            predicted[slot] = true;
            const auto scaling = workload_.predictor->predict(job.counters);
            for (std::size_t c = 0; c < n_clusters; ++c) {
                row[c] = scaling[pred_index[c]];
            }
            ++predictions;
        }
        double work_sum = 0.0;
        std::size_t feasible = 0;
        for (std::size_t c = 0; c < n_clusters; ++c) {
            if (job.cores <= clusters_[c].total_cores()) {
                work_sum +=
                    ga::util::core_hours(job.cores, scaled_runtime(job, row[c]));
                ++feasible;
            }
        }
        work_[j] = feasible > 0 ? work_sum / static_cast<double>(feasible) : 0.0;
    }
    if (ga::obs::metrics_enabled()) sim_metrics().predictions.inc(predictions);
}

double BatchSimulator::job_work_core_hours(std::size_t job_index) const {
    GA_REQUIRE(job_index < work_.size(), "simulator: job index out of range");
    return work_[job_index];
}

const ga::workload::MachineScaling* BatchSimulator::scaling_row(
    const ga::workload::TraceJob& job) const noexcept {
    return &scaling_[(user_slots_[job.user] + job.app) * clusters_.size()];
}

QuoteKey QuoteKey::of(const SimOptions& options) {
    return QuoteKey{options.pricing, options.regional_grids, options.grid_seed,
                    options.arrival_compression};
}

namespace {

/// The batch driver's scheduling rules (sim/scheduler.hpp): skip-ahead
/// queues, a wait estimate over running and queued work, infeasible
/// machines left unpriced, and the paper's one running job per (user,
/// cluster).
constexpr SchedulerRules kBatchRules{QueueOrder::SkipAhead,
                                     /*wait_counts_running=*/true,
                                     /*price_infeasible=*/false,
                                     /*one_job_per_user=*/true};

/// All mutable state of one simulation run, pooled per thread: `run` is
/// const and each invocation borrows its thread's RunState (resetting every
/// field but keeping vector capacity), so concurrent runs over the same
/// simulator never share mutable data — the sweep engine (`sim/sweep.hpp`)
/// stays sound — while repeated runs (sweeps, benches) stop churning the
/// allocator on million-job traces. A ladder's fork is a copy of it. The
/// copy shares the chunks of each deep queue tail (`IndexedQueues`), so it
/// costs the backfill windows, the running heap and the tallies, and later
/// only the chunks the two sides change.
template <typename Queues>
struct RunState {
    Scheduler<Queues> core;
    // Multi-currency state, empty unless currency_budgets was set: the
    // remaining budget and the total spent in each currency.
    std::vector<double> currency_remaining;
    std::vector<double> currency_spent;
    std::optional<ClusterOutage> outage;  ///< until it is applied
    SimResult result;  ///< all but the total cost, which each lane keeps
};

template <typename Queues>
RunState<Queues>& pooled_run_state() {
    static thread_local RunState<Queues> state;
    return state;
}

/// A budget as the admission check reads it: 0 (or less) is unlimited.
double budget_limit(double budget) {
    return budget > 0.0 ? budget : std::numeric_limits<double>::infinity();
}

/// A ladder member in a replay: its own quote table, remaining budget and
/// total cost, debited with its own quote for each job the replay admits
/// and credited with its own quote for each job an outage strands. A
/// replay's first lane leads it: its quotes are the routing costs.
struct Lane {
    std::size_t member = 0;
    const std::vector<double>* quotes = nullptr;  ///< the member's table
    double budget_remaining = 0.0;
    double total_cost = 0.0;

    /// Whether the budget admits the quote at `at` ([job * n_clusters +
    /// cluster]).
    [[nodiscard]] bool affords(std::size_t at) const {
        return !((*quotes)[at] > budget_remaining);
    }
};

/// The lanes whose budgets decided a job otherwise than their replay's
/// leader: a copy of the leader's state with that job decided their way,
/// which resumes at the next job. While it waits for the leader to finish,
/// it shares with the leader the queued entries neither has started or
/// stranded since.
template <typename Queues>
struct Fork {
    std::size_t job = 0;  ///< the job it resumes at
    std::vector<Lane> lanes;
    RunState<Queues> state;
};

}  // namespace

QuoteTable BatchSimulator::quote_table(const QuoteKey& key) const {
    GA_REQUIRE(key.arrival_compression > 0.0,
               "simulator: arrival compression must be positive");
    // The setup sees only the key's fields, so nothing else can reach a
    // quote.
    SimOptions options;
    options.pricing = key.pricing;
    options.regional_grids = key.regional_grids;
    options.grid_seed = key.grid_seed;
    options.arrival_compression = key.arrival_compression;
    const RunSetup setup(options, clusters_);

    const std::size_t n_clusters = clusters_.size();
    const auto& jobs = workload_.jobs;
    QuoteTable table{key, std::vector<double>(jobs.size() * n_clusters, 0.0)};
    std::uint64_t evaluated = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const auto& job = jobs[j];
        const double now = job.submit_s / key.arrival_compression;
        const ga::workload::MachineScaling* row = scaling_row(job);
        for (std::size_t c = 0; c < n_clusters; ++c) {
            if (job.cores > clusters_[c].total_cores()) continue;
            table.quotes[j * n_clusters + c] =
                setup.quotes[c](scaled_usage(job.runtime_ic_s, job.power_ic_w,
                                             row[c], job.cores, now));
            ++evaluated;
        }
    }
    if (ga::obs::metrics_enabled()) sim_metrics().route_quotes.inc(evaluated);
    return table;
}

template <typename Queues>
void BatchSimulator::run_ladder_impl(std::span<const SimOptions> ladder,
                                     std::span<const QuoteTable* const> quotes,
                                     const MemberDone& done) const {
    GA_REQUIRE(!ladder.empty(), "simulator: a ladder needs a member");
    GA_REQUIRE(quotes.size() == ladder.size(),
               "simulator: a ladder needs one quote table per member");
    // Every member's options but the budget and the pricing are the first
    // member's.
    const SimOptions& options = ladder.front();
    const std::size_t n_clusters = clusters_.size();
    const auto& jobs = workload_.jobs;
    for (std::size_t m = 0; m < ladder.size(); ++m) {
        GA_REQUIRE(quotes[m] != nullptr &&
                       quotes[m]->key == QuoteKey::of(ladder[m]) &&
                       quotes[m]->quotes.size() == jobs.size() * n_clusters,
                   "simulator: quote table prices differently from the options");
    }

    // ---- accounting and routing setup ----
    // The loop reads the pricing only through the quote tables; the rest of
    // the setup depends on the grids, which every member shares.
    const RunSetup setup(options, clusters_);
    // Multi-currency admission accountants, index-aligned with
    // options.currency_budgets, and each one bound to every cluster
    // (indexed [k * n_clusters + c]).
    const std::size_t n_currencies = options.currency_budgets.size();
    std::vector<std::unique_ptr<const ga::acct::Accountant>> currency_pricers;
    std::vector<ga::acct::BoundCharge> currency_quotes;
    currency_pricers.reserve(n_currencies);
    currency_quotes.reserve(n_currencies * n_clusters);
    for (const auto& cb : options.currency_budgets) {
        GA_REQUIRE(!cb.currency.empty(),
                   "simulator: currency name must not be empty");
        GA_REQUIRE(cb.budget >= 0.0,
                   "simulator: currency budget must be non-negative");
        currency_pricers.push_back(setup.bind(cb.accountant));
        for (const ClusterConfig& cluster : clusters_) {
            currency_quotes.push_back(currency_pricers.back()->on(cluster.entry));
        }
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

    // ---- the ladder: the smallest budget leads, the others ride along ----
    if (ladder.size() > 1) {
        GA_REQUIRE(!setup.routing->uses_budget(),
                   "simulator: a ladder's policy must not read the budget");
        const bool reads_cost = setup.routing->uses_cost();
        for (const SimOptions& member : ladder) {
            SimOptions same = member;
            same.budget = options.budget;
            if (!reads_cost) same.pricing = options.pricing;
            GA_REQUIRE(same == options,
                       "simulator: ladder members may differ only in budget, "
                       "and in pricing under a policy that reads no cost");
        }
    }
    // Rotates the first of the smallest budgets among `lanes` to the front,
    // where it leads their replay.
    const auto lead = [&](std::vector<Lane>& lanes) {
        const auto first = std::min_element(
            lanes.begin(), lanes.end(), [&](const Lane& a, const Lane& b) {
                return budget_limit(ladder[a.member].budget) <
                       budget_limit(ladder[b.member].budget);
            });
        std::rotate(lanes.begin(), first, first + 1);
    };
    std::vector<Lane> lanes;
    for (std::size_t m = 0; m < ladder.size(); ++m) {
        lanes.push_back(Lane{m, &quotes[m]->quotes, budget_limit(ladder[m].budget), 0.0});
    }
    lead(lanes);
    // Forks wait in the order they left; a fork's replay may add more.
    std::deque<Fork<Queues>> forks;

    // Submits are in order and the compression is positive, so the last
    // submit is the latest.
    const double trace_span_s =
        jobs.empty()
            ? 0.0
            : std::max(0.0, jobs.back().submit_s / options.arrival_compression);
    const bool record_finish_times = options.finish_times;

    // ---- observability (write-only; never feeds back into the run) ----
    // The tracing flag is sampled once so every event pays one branch; the
    // counter flush at the end of each member is the only registry touch.
    auto& tracer = ga::obs::Tracer::global();
    const bool tracing = ga::obs::tracing_enabled();

    // Job j priced on cluster c in every currency, at its submit time, into
    // `charges`: what its admission debits and an outage's strand refunds.
    std::vector<double> charges(n_currencies);
    const auto price_currencies = [&](std::size_t j, std::size_t c) {
        if (n_currencies == 0) return;
        const auto& job = jobs[j];
        const auto usage =
            scaled_usage(job.runtime_ic_s, job.power_ic_w, scaling_row(job)[c],
                         job.cores, job.submit_s / options.arrival_compression);
        for (std::size_t k = 0; k < n_currencies; ++k) {
            charges[k] = currency_quotes[k * n_clusters + c](usage);
        }
    };

    // Decides job j, routed to cluster c, on `rs` for `lanes`, whose budgets
    // all decide it as their leader's does. The job is admitted only if
    // that budget and every currency can pay (all-or-nothing, the paper's
    // dual-budget incentive); then every currency, and every lane with its
    // own quote, is debited, and the job is queued.
    const auto admit = [&](RunState<Queues>& rs, std::vector<Lane>& lanes,
                           std::size_t j, std::size_t c) {
        const std::size_t at = j * n_clusters + c;
        if (!lanes.front().affords(at)) {
            ++rs.result.jobs_skipped;
            return;
        }
        price_currencies(j, c);
        for (std::size_t k = 0; k < n_currencies; ++k) {
            if (charges[k] > rs.currency_remaining[k]) {
                ++rs.result.jobs_skipped;
                return;
            }
        }
        for (std::size_t k = 0; k < n_currencies; ++k) {
            rs.currency_remaining[k] -= charges[k];
            rs.currency_spent[k] += charges[k];
        }
        for (Lane& lane : lanes) {
            lane.budget_remaining -= (*lane.quotes)[at];
            lane.total_cost += (*lane.quotes)[at];
        }
        const auto& job = jobs[j];
        rs.core.submit(c,
                       QueuedJob{job.id, job.cores, job.user,
                                 scaled_runtime(job, scaling_row(job)[c])},
                       job.submit_s / options.arrival_compression);
    };

    // Replays the trace on `rs` for `lanes` from job `first` to its end.
    // The lanes whose budgets decide a job's admission otherwise than the
    // leader's leave there as one fork. Returns the policy decisions the
    // replay made.
    const auto replay = [&](RunState<Queues>& rs, std::vector<Lane>& lanes,
                            std::size_t first) -> std::uint64_t {
        const std::vector<double>& lead_quotes = *lanes.front().quotes;
        SimResult& result = rs.result;

        // Scheduling context shared by every routing decision; the core
        // refreshes the per-cluster views before each one.
        SchedulingContext ctx;
        ctx.budget_total = ladder[lanes.front().member].budget;
        ctx.jobs_total = jobs.size();
        ctx.trace_span_s = trace_span_s;
        ctx.clusters = rs.core.views();

        // Metrics at completion. Carbon is metered at the job's actual
        // start time: Eq. 2's operational term reads grid intensity when
        // the job runs, which differs from the submit time for queued jobs.
        const auto on_finish = [&](const RunningJob& done) {
            const std::size_t c = done.cluster;
            const std::size_t j = done.id;
            const auto& job = jobs[j];
            const auto usage =
                scaled_usage(job.runtime_ic_s, job.power_ic_w,
                             scaling_row(job)[c], done.cores, done.start_s);
            ++result.jobs_completed;
            result.work_core_hours += work_[j];
            result.energy_mwh += usage.energy_j / ga::util::kJoulesPerKwh / 1000.0;
            const auto carbon = setup.sites[c].meter(usage);
            result.operational_carbon_kg += carbon.operational_g / 1000.0;
            result.attributed_carbon_kg += carbon.total_g / 1000.0;
            if (record_finish_times) result.finish_times_s.push_back(done.finish_s);
            result.makespan_s = std::max(result.makespan_s, done.finish_s);
        };
        const auto complete_until = [&](double t) {
            rs.core.complete_until(t, on_finish);
        };

        // The outage: the cluster's lost cores never return, and queued
        // jobs that no longer fit the shrunken cluster are refunded and
        // skipped. A queued job was charged on its queue's cluster: each
        // lane its own quote, each currency its submit-time price.
        const auto apply_outage = [&] {
            const ClusterOutage outage = *rs.outage;
            rs.outage.reset();
            complete_until(outage.at_s);
            if (tracing) tracer.span_begin("sim.outage.compact", outage.at_s);
            const std::size_t c = outage.cluster;
            const int lost = std::min(outage.nodes_lost, clusters_[c].nodes) *
                             clusters_[c].entry.node.total_cores();
            rs.core.shrink(c, lost, [&](const QueuedJob& job) {
                const std::size_t at = job.id * n_clusters + c;
                for (Lane& lane : lanes) {
                    lane.budget_remaining += (*lane.quotes)[at];
                    lane.total_cost -= (*lane.quotes)[at];
                }
                price_currencies(job.id, c);
                for (std::size_t k = 0; k < n_currencies; ++k) {
                    rs.currency_remaining[k] += charges[k];
                    rs.currency_spent[k] -= charges[k];
                }
                ++result.jobs_skipped;
            });
            if (tracing) tracer.span_end("sim.outage.compact", outage.at_s);
        };

        // ---- event loop: submits in trace order, each preceded by the
        // completions (and the outage) due by its time. At equal times
        // finishes go first, then the outage, then the submit; equal-time
        // finishes and submits go in job-id order.
        std::uint64_t decisions = 0;  // the policy's `choose` calls
        for (std::size_t j = first; j < jobs.size(); ++j) {
            const auto& job = jobs[j];
            const double now = job.submit_s / options.arrival_compression;
            if (rs.outage.has_value() && rs.outage->at_s <= now) apply_outage();
            complete_until(now);

            // ---- submit: route through the policy ----
            if (tracing) tracer.span_instant("sim.submit", now);
            const ga::workload::MachineScaling* row = scaling_row(job);
            const auto choices = rs.core.route_view(
                now, job.cores, [&](std::size_t m, MachineChoice& choice) {
                    const auto usage = scaled_usage(
                        job.runtime_ic_s, job.power_ic_w, row[m], job.cores, now);
                    choice.runtime_s = usage.duration_s;
                    choice.energy_j = usage.energy_j;
                    choice.cost = lead_quotes[j * n_clusters + m];
                });
            ctx.now_s = now;
            ctx.budget_remaining = lanes.front().budget_remaining;
            ctx.jobs_submitted = j + 1;
            ++decisions;
            const auto chosen = setup.routing->choose(ctx, choices);
            if (!chosen) {
                ++result.jobs_skipped;
                continue;
            }
            const std::size_t c = *chosen;
            // The lanes whose budgets decide this job otherwise than the
            // leader's all decide it the other way, so they leave here as
            // one fork: a copy of the state as it stands before the
            // decision, which decides the job their way right away.
            const std::size_t at = j * n_clusters + c;
            const bool admitted = lanes.front().affords(at);
            const auto stays = [&](const Lane& lane) {
                return lane.affords(at) == admitted;
            };
            if (!std::all_of(lanes.begin(), lanes.end(), stays)) {
                const auto split =
                    std::stable_partition(lanes.begin(), lanes.end(), stays);
                Fork<Queues>& fork = forks.emplace_back(Fork<Queues>{
                    j + 1, std::vector<Lane>(split, lanes.end()), rs});
                lanes.erase(split, lanes.end());
                lead(fork.lanes);
                admit(fork.state, fork.lanes, j, c);
            }
            admit(rs, lanes, j, c);
        }
        if (rs.outage.has_value()) apply_outage();
        complete_until(std::numeric_limits<double>::infinity());

        for (std::size_t c = 0; c < n_clusters; ++c) {
            result.jobs_per_machine[clusters_[c].entry.node.name] +=
                rs.core.cluster(c).completed;
        }
        for (std::size_t k = 0; k < n_currencies; ++k) {
            result.currency_spent[options.currency_budgets[k].currency] =
                rs.currency_spent[k];
        }
        std::sort(result.finish_times_s.begin(), result.finish_times_s.end());
        return decisions;
    };

    // One member's work counters, as its direct run would flush them: a
    // fork carries the prefix's scheduler counts, and a lane that never
    // forked reports its leader's.
    const auto flush = [&](const RunState<Queues>& rs, std::uint64_t decisions) {
        if (!ga::obs::metrics_enabled()) return;
        std::uint64_t jobs_started = 0;
        for (std::size_t c = 0; c < n_clusters; ++c) {
            jobs_started += rs.core.cluster(c).started;
        }
        SimMetrics& metrics = sim_metrics();
        metrics.runs.inc();
        metrics.finish_events.inc(rs.result.jobs_completed);
        metrics.submit_events.inc(jobs.size());
        metrics.outage_events.inc(options.outage.has_value() ? 1 : 0);
        metrics.jobs_started.inc(jobs_started);
        metrics.queue_scans.inc(rs.core.scans());
        metrics.queue_drains.inc(rs.core.drains());
        metrics.queue_leaf_writes.inc(rs.core.leaf_writes());
        metrics.route_decisions.inc(decisions);
    };

    // Reports each lane of a finished replay, its leader first: the
    // replay's result with the lane's own total cost. The leader's report
    // carries the replay's decisions.
    const auto report = [&](RunState<Queues>& rs, const std::vector<Lane>& lanes,
                            std::uint64_t decisions) {
        for (const Lane& lane : lanes) {
            rs.result.total_cost = lane.total_cost;
            flush(rs, std::exchange(decisions, 0));
            done(lane.member, rs.result);
        }
    };

    // ---- the leader's state ----
    RunState<Queues>& rs = pooled_run_state<Queues>();
    rs.core.reset(clusters_, setup, kBatchRules);
    rs.currency_remaining.clear();
    for (const auto& cb : options.currency_budgets) {
        rs.currency_remaining.push_back(budget_limit(cb.budget));
    }
    rs.currency_spent.assign(n_currencies, 0.0);
    rs.outage = options.outage;
    rs.result = SimResult{};
    if (record_finish_times) rs.result.finish_times_s.reserve(jobs.size());

    report(rs, lanes, replay(rs, lanes, 0));
    // Each fork replaces the pooled state's buffers, and every member waits
    // in at most one fork, so a ladder holds at most its other members'
    // forks at once.
    while (!forks.empty()) {
        Fork<Queues> fork = std::move(forks.front());
        forks.pop_front();
        rs = std::move(fork.state);
        report(rs, fork.lanes, replay(rs, fork.lanes, fork.job));
    }
}

void BatchSimulator::run_ladder(std::span<const SimOptions> ladder,
                                std::span<const QuoteTable* const> quotes,
                                const MemberDone& done) const {
    run_ladder_impl<IndexedQueues>(ladder, quotes, done);
}

template <typename Queues>
SimResult BatchSimulator::run_alone(const SimOptions& options) const {
    SimResult result;
    const QuoteTable quotes = quote_table(QuoteKey::of(options));
    const QuoteTable* const table = &quotes;
    run_ladder_impl<Queues>(
        std::span(&options, 1), std::span(&table, 1),
        [&](std::size_t /*member*/, const SimResult& r) { result = r; });
    return result;
}

SimResult BatchSimulator::run(const SimOptions& options) const {
    return run_alone<IndexedQueues>(options);
}

SimResult BatchSimulator::run_reference(const SimOptions& options) const {
    return run_alone<LinearQueues>(options);
}

}  // namespace ga::sim
