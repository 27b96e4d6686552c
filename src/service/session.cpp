#include "service/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "machine/catalog.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "workload/trace.hpp"

namespace ga::service {

namespace {

using ga::io::JsonValue;

/// The session's scheduling rules (sim/scheduler.hpp): strict FIFO, a
/// queued-work-only wait estimate, figures for every machine so quotes can
/// show the ones a job cannot fit, and no per-user rule.
constexpr ga::sim::SchedulerRules kServiceRules{
    ga::sim::QueueOrder::StrictFifo, /*wait_counts_running=*/false,
    /*price_infeasible=*/true, /*one_job_per_user=*/false};

/// Service-layer instruments: process-wide request/error counters shared by
/// every session in the process (the per-session tallies that back the
/// `metrics` verb live on ServeSession itself).
struct ServeMetrics {
    ga::obs::Counter& requests;
    ga::obs::Counter& errors;
};

ServeMetrics& serve_metrics() {
    auto& registry = ga::obs::Registry::global();
    static ServeMetrics metrics{
        registry.counter_handle("serve.requests"),
        registry.counter_handle("serve.errors"),
    };
    return metrics;
}

/// Hex rendering of the 64-bit snapshot checksum for the checkpoint
/// response (fixed 16 digits, lower-case).
std::string checksum_hex(std::uint64_t value) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
        value >>= 4;
    }
    return out;
}

/// Refuses a request (bad_request) whose derived `figure` on `machine` is
/// not finite: the response could not render it, and it must not reach the
/// session's state. `job` names the job of a multi-job request.
void require_finite(double value, std::string_view verb,
                    std::string_view figure, std::string_view machine,
                    std::optional<std::size_t> job = std::nullopt) {
    if (std::isfinite(value)) return;
    std::string what(verb);
    if (job.has_value()) what += ": job " + std::to_string(*job);
    throw ProtocolError("bad_request", what + " has a non-finite " +
                                           std::string(figure) + " on " +
                                           std::string(machine));
}

}  // namespace

// ------------------------------------------------------------ construction

ServeSession::ServeSession(ga::io::ScenarioFile scenario)
    : rng_(ga::util::Rng(scenario.workload.seed).split(0xA110C8)) {
    init_config(std::move(scenario));
    core_.reset(cluster_cfgs_, *setup_, kServiceRules);
    std::vector<std::pair<std::string, ga::acct::AccountantSpec>> currencies;
    if (options_.currency_budgets.empty()) {
        currencies.emplace_back(std::string(ga::acct::Ledger::kDefaultCurrency),
                                options_.pricing);
    } else {
        for (const auto& cb : options_.currency_budgets) {
            currencies.emplace_back(cb.currency, cb.accountant);
        }
    }
    std::sort(currencies.begin(), currencies.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [currency, spec] : currencies) {
        ledger_.define_currency(currency, spec, currency_binder());
        currency_pricers_.emplace_back(currency, setup_->bind(spec));
    }
}

ga::acct::AccountantBinder ServeSession::currency_binder() const {
    const ga::sim::RunSetup& setup = *setup_;
    return [&setup](const ga::acct::AccountantSpec& spec) {
        return setup.bind(spec);
    };
}

ServeSession::ServeSession(ga::io::ScenarioFile scenario,
                           const SessionState& state)
    : ServeSession(std::move(scenario)) {
    if (state.config_fingerprint != fingerprint_) {
        throw ga::util::RuntimeError(
            "snapshot: configuration fingerprint mismatch — the snapshot was "
            "taken under a different scenario configuration than the one "
            "being served");
    }
    if (state.clusters.size() != cluster_cfgs_.size()) {
        throw ga::util::RuntimeError(
            "snapshot: cluster count mismatch against the configuration");
    }
    for (std::size_t c = 0; c < cluster_cfgs_.size(); ++c) {
        if (state.clusters[c].name != cluster_cfgs_[c].entry.node.name ||
            state.clusters[c].capacity_cores != core_.cluster(c).capacity) {
            throw ga::util::RuntimeError(
                "snapshot: cluster '" + state.clusters[c].name +
                "' does not match the configured deployment");
        }
    }
    // Quotes price with the scenario's currencies, so the ledger must
    // charge with the same ones.
    if (state.ledger.currencies != ledger_.export_state().currencies) {
        throw ga::util::RuntimeError(
            "snapshot: ledger currencies do not match the scenario's");
    }
    ledger_.import_state(state.ledger, currency_binder());
    clock_ = state.clock_s;
    next_seq_ = state.next_seq;
    rng_ = ga::util::Rng::from_state(state.rng);
    jobs_submitted_ = state.jobs_submitted;
    jobs_rejected_ = state.jobs_rejected;
    primary_spent_ = state.primary_spent;
    for (std::size_t c = 0; c < cluster_cfgs_.size(); ++c) {
        const ClusterSessionState& saved = state.clusters[c];
        ga::sim::ClusterState counters;
        counters.capacity = saved.capacity_cores;
        counters.free_cores = saved.free_cores;
        counters.queued_core_seconds = saved.queued_core_seconds;
        counters.started = saved.started;
        counters.completed = saved.completed;
        std::vector<ga::sim::RunningJob> running;
        running.reserve(saved.running.size());
        for (const auto& job : saved.running) {
            // The snapshot keeps no start times; the session reads none.
            running.push_back(ga::sim::RunningJob{
                job.finish_s, job.seq, static_cast<std::uint32_t>(c),
                job.cores, 0, 0.0});
        }
        std::vector<ga::sim::QueuedJob> queued;
        queued.reserve(saved.queue.size());
        for (const auto& job : saved.queue) {
            queued.push_back(
                ga::sim::QueuedJob{job.seq, job.cores, 0, job.runtime_s});
        }
        core_.restore(c, counters, running, queued);
    }
}

void ServeSession::init_config(ga::io::ScenarioFile scenario) {
    generate_users_ = std::max<std::size_t>(1, scenario.workload.users);

    const auto points = scenario.grid.expand();
    GA_REQUIRE(!points.empty(), "session: scenario grid expands to nothing");
    grid_points_ = points.size();
    options_ = points.front().options;

    // The fingerprint is the canonical scenario document reduced to what
    // the session actually serves: the workload knobs and the single
    // resolved grid point (base options, no axes).
    ga::io::ScenarioFile effective;
    effective.name = scenario.name;
    effective.workload = scenario.workload;
    effective.grid.base = options_;
    fingerprint_ = ga::io::write_json(ga::io::scenario_to_json(effective),
                                      /*indent=*/0);

    cluster_cfgs_ = ga::sim::default_clusters();
    for (auto& cfg : cluster_cfgs_) {
        // nodes == 0 means "one node per user" (personal desktops); the
        // batch simulator resolves it against the trace, we resolve it
        // against the scenario's configured user count.
        if (cfg.nodes == 0) {
            cfg.nodes = static_cast<int>(
                std::min<std::size_t>(generate_users_, 100'000));
        }
    }

    predictor_ = std::make_shared<ga::workload::CrossPlatformPredictor>(
        ga::machine::simulation_machines());
    predictor_index_.reserve(cluster_cfgs_.size());
    for (const auto& cfg : cluster_cfgs_) {
        predictor_index_.push_back(
            predictor_->machine_index(cfg.entry.node.name));
    }
    setup_ = std::make_unique<const ga::sim::RunSetup>(options_, cluster_cfgs_);
}

// ------------------------------------------------------------- scheduling

void ServeSession::price_job(const JobSpec& job, double priced_at,
                             std::span<MachineFigures> out) const {
    const auto scaling = predictor_->predict(job.counters);
    for (std::size_t c = 0; c < cluster_cfgs_.size(); ++c) {
        const auto usage =
            ga::sim::scaled_usage(job.runtime_ic_s, job.power_ic_w,
                                  scaling[predictor_index_[c]], job.cores,
                                  priced_at);
        out[c] = MachineFigures{usage.duration_s, usage.energy_j,
                                setup_->quotes[c](usage)};
    }
}

std::vector<ServeSession::MachineFigures> ServeSession::price_request(
    const std::vector<JobSpec>& jobs) const {
    const std::size_t n = cluster_cfgs_.size();
    std::vector<MachineFigures> figures(jobs.size() * n);
    // Upper bounds on what the request can add to primary_spent (every job
    // admitted on its dearest machine) and, per cluster, to the queued-work
    // sum and the running sum of cores * finish (every job queued or
    // started there).
    double spend_bound = primary_spent_;
    std::vector<double> queued_bound(n);
    std::vector<double> running_bound(n);
    for (std::size_t c = 0; c < n; ++c) {
        queued_bound[c] = core_.cluster(c).queued_core_seconds;
        running_bound[c] = core_.cluster(c).sum_cores_end;
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::span<MachineFigures> row(figures.data() + i * n, n);
        price_job(jobs[i], jobs[i].submit_s, row);
        check_figures(row, "submit_jobs", i);
        const auto cores = static_cast<double>(jobs[i].cores);
        double dearest = 0.0;
        for (std::size_t c = 0; c < n; ++c) {
            const std::string& machine = cluster_cfgs_[c].entry.node.name;
            const double finish = jobs[i].submit_s + row[c].runtime_s;
            require_finite(finish, "submit_jobs", "predicted finish time",
                           machine, i);
            require_finite(cores * row[c].runtime_s, "submit_jobs",
                           "cores * runtime", machine, i);
            require_finite(cores * finish, "submit_jobs", "cores * finish",
                           machine, i);
            queued_bound[c] += cores * row[c].runtime_s;
            running_bound[c] += cores * finish;
            dearest = std::max(dearest, row[c].cost);
        }
        spend_bound += dearest;
        // An account holder's outcome shows the ledger's costs, so they
        // pass a finite check before the first job is admitted.
        if (ledger_.has_account(jobs[i].user)) {
            const std::vector<std::string> currencies =
                ledger_.account_currencies(jobs[i].user);
            for (std::size_t c = 0; c < n; ++c) {
                const ga::acct::JobUsage usage =
                    usage_of(row[c], jobs[i].cores, jobs[i].submit_s);
                for (const std::string& currency : currencies) {
                    (void)currency_cost(currency, usage, cluster_cfgs_[c].entry,
                                        "submit_jobs", i);
                }
            }
        }
    }
    if (!std::isfinite(spend_bound)) {
        throw ProtocolError("bad_request",
                            "submit_jobs: the request's costs could make "
                            "primary_spent non-finite");
    }
    for (std::size_t c = 0; c < n; ++c) {
        if (!std::isfinite(queued_bound[c]) || !std::isfinite(running_bound[c])) {
            throw ProtocolError("bad_request",
                                "submit_jobs: the request's work could make " +
                                    cluster_cfgs_[c].entry.node.name +
                                    "'s core-second sums non-finite");
        }
    }
    return figures;
}

ga::acct::JobUsage ServeSession::usage_of(const MachineFigures& figures,
                                          int cores, double priced_at) {
    ga::acct::JobUsage usage;
    usage.duration_s = figures.runtime_s;
    usage.energy_j = figures.energy_j;
    usage.cores = cores;
    usage.priced_at_s = priced_at;
    return usage;
}

void ServeSession::check_figures(std::span<const MachineFigures> figures,
                                 std::string_view verb,
                                 std::optional<std::size_t> job) const {
    for (std::size_t c = 0; c < figures.size(); ++c) {
        const std::string& machine = cluster_cfgs_[c].entry.node.name;
        require_finite(figures[c].runtime_s, verb, "predicted runtime",
                       machine, job);
        require_finite(figures[c].energy_j, verb, "predicted energy", machine,
                       job);
        require_finite(figures[c].cost, verb, "predicted cost", machine, job);
    }
}

double ServeSession::currency_cost(const std::string& currency,
                                   const ga::acct::JobUsage& usage,
                                   const ga::machine::CatalogEntry& machine,
                                   std::string_view verb,
                                   std::optional<std::size_t> job) const {
    for (const auto& [name, accountant] : currency_pricers_) {
        if (name != currency) continue;
        const double cost = accountant->charge(usage, machine);
        require_finite(cost, verb, "cost in " + currency, machine.node.name,
                       job);
        return cost;
    }
    throw ga::util::RuntimeError("session: currency '" + currency +
                                 "' has no accountant");
}

ServeSession::Routed ServeSession::route(
    int cores, std::span<const MachineFigures> figures) {
    Routed routed;
    routed.choices = core_.route_view(
        clock_, cores, [&](std::size_t c, ga::sim::MachineChoice& choice) {
            choice.runtime_s = figures[c].runtime_s;
            choice.energy_j = figures[c].energy_j;
            choice.cost = figures[c].cost;
        });
    ga::sim::SchedulingContext ctx;
    ctx.now_s = clock_;
    ctx.budget_total = options_.budget;
    ctx.budget_remaining = options_.budget > 0.0
                               ? options_.budget - primary_spent_
                               : std::numeric_limits<double>::infinity();
    ctx.jobs_submitted = static_cast<std::size_t>(jobs_submitted_) + 1;
    ctx.clusters = core_.views();
    routed.chosen = setup_->routing->choose(ctx, routed.choices);
    if (routed.chosen.has_value() &&
        !routed.choices[*routed.chosen].feasible) {
        routed.chosen.reset();
    }
    return routed;
}

void ServeSession::submit_one(const JobSpec& job,
                              std::span<const MachineFigures> figures,
                              ga::io::JsonWriter& out) {
    out.begin_object();
    out.member("user", job.user);

    (void)core_.complete_until(job.submit_s);
    clock_ = std::max(clock_, job.submit_s);
    const Routed routed = route(job.cores, figures);

    const auto reject = [&](std::string_view reason) {
        ++jobs_rejected_;
        out.member("status", "rejected");
        out.member("reason", reason);
        out.end_object();
    };

    if (!routed.chosen.has_value()) {
        return reject("infeasible");
    }
    const std::size_t c = *routed.chosen;
    const MachineFigures& chosen = figures[c];

    if (options_.budget > 0.0 && chosen.cost > options_.budget - primary_spent_) {
        return reject("budget");
    }

    if (ledger_.has_account(job.user)) {
        const ga::acct::ChargeOutcome outcome =
            ledger_.charge(job.user, usage_of(chosen, job.cores, job.submit_s),
                           cluster_cfgs_[c].entry);
        out.key("costs");
        out.begin_object();
        for (const auto& [currency, amount] : outcome.costs) {
            out.member(currency, amount);
        }
        out.end_object();
        if (!outcome.admitted) {
            ++jobs_rejected_;
            out.member("status", "rejected");
            out.member("reason", "refused");
            out.member("refused_currency", outcome.refused_currency);
            out.end_object();
            return;
        }
        out.key("transactions");
        out.begin_array();
        for (const std::uint64_t id : outcome.transactions) {
            out.value(static_cast<double>(id));
        }
        out.end_array();
    } else {
        // Accounting is opt-in per user: jobs from accountless users run
        // uncharged (the routing cost is still reported and still counts
        // against the primary budget gate above).
        out.member("uncharged", true);
    }

    primary_spent_ += chosen.cost;
    ++jobs_submitted_;
    const std::uint64_t seq = next_seq_++;
    out.member("seq", static_cast<double>(seq));
    out.member("machine", cluster_cfgs_[c].entry.node.name);
    out.member("cost", chosen.cost);
    out.member("runtime_s", chosen.runtime_s);
    if (core_.submit(c, ga::sim::QueuedJob{seq, job.cores, 0, chosen.runtime_s},
                     job.submit_s)) {
        out.member("status", "running");
        out.member("finish_s", job.submit_s + chosen.runtime_s);
    } else {
        out.member("status", "queued");
    }
    out.end_object();
}

ServeSession::JobSpec ServeSession::generate_job(ga::util::Rng& rng,
                                                 double submit_s) const {
    // A lightweight arrival stream drawn from the trace generator's app
    // archetypes — not the batch GMM pipeline, but the same heavy-tailed
    // runtime and core-count mix, and fully snapshot-resumable because the
    // only state is the session RNG.
    JobSpec job;
    const auto profile = ga::workload::sample_app_profile(rng);
    char user_name[32];
    std::snprintf(user_name, sizeof user_name, "u%lld",
                  static_cast<long long>(rng.uniform_int(
                      0, static_cast<std::int64_t>(generate_users_) - 1)));
    job.user = user_name;
    job.cores = profile.cores;
    job.runtime_ic_s = rng.lognormal(std::log(profile.runtime_median_s),
                                     profile.runtime_sigma);
    job.power_ic_w =
        profile.cores * (10.0 + 20.0 * profile.compute_intensity);
    job.counters.gips = 0.5 + 3.5 * profile.compute_intensity;
    job.counters.llc_mps = 4.0 - 3.5 * profile.compute_intensity;
    job.submit_s = submit_s;
    return job;
}

// --------------------------------------------------------------- handlers

void ServeSession::handle_create_account(const Request& r,
                                         ga::io::JsonWriter& out) {
    check_keys(r.body, {"user", "budget", "budgets"}, "create_account");
    const std::string& user = string_field(r.body, "user", "create_account");
    std::map<std::string, double> budgets;
    if (const JsonValue* budget = r.body.find("budget")) {
        if (r.body.find("budgets") != nullptr) {
            throw ProtocolError("bad_request",
                                "create_account: give 'budget' or 'budgets', "
                                "not both");
        }
        if (!budget->is_number()) {
            throw ProtocolError("bad_request",
                                "create_account: 'budget' must be a number");
        }
        budgets.emplace(std::string(ga::acct::Ledger::kDefaultCurrency),
                        budget->as_number());
    } else if (const JsonValue* map = r.body.find("budgets")) {
        if (!map->is_object()) {
            throw ProtocolError("bad_request",
                                "create_account: 'budgets' must be an object");
        }
        for (const auto& [currency, amount] : map->as_object()) {
            if (!amount.is_number()) {
                throw ProtocolError("bad_request",
                                    "create_account: budget for '" + currency +
                                        "' must be a number");
            }
            budgets.emplace(currency, amount.as_number());
        }
    } else {
        throw ProtocolError("bad_request",
                            "create_account: missing 'budget' or 'budgets'");
    }
    for (const auto& [currency, amount] : budgets) {
        if (!ledger_.has_currency(currency)) {
            throw ProtocolError("unknown_currency",
                                "create_account: currency '" + currency +
                                    "' is not defined in this session");
        }
        if (!(amount > 0.0)) {
            throw ProtocolError("bad_request",
                                "create_account: budget for '" + currency +
                                    "' must be positive");
        }
    }
    ledger_.create_account(user, budgets);
    out.begin_object();
    out.member("user", user);
    out.key("currencies");
    out.begin_array();
    for (const auto& [currency, amount] : budgets) out.value(currency);
    out.end_array();
    out.end_object();
}

void ServeSession::handle_submit_jobs(const Request& r,
                                      ga::io::JsonWriter& out) {
    check_keys(r.body, {"jobs", "generate"}, "submit_jobs");
    std::vector<JobSpec> jobs;
    // The generate path draws from a copy of the session RNG, committed
    // only once the whole request is accepted.
    ga::util::Rng rng = rng_;
    if (const JsonValue* list = r.body.find("jobs")) {
        if (r.body.find("generate") != nullptr) {
            throw ProtocolError("bad_request",
                                "submit_jobs: give 'jobs' or 'generate', "
                                "not both");
        }
        if (!list->is_array()) {
            throw ProtocolError("bad_request",
                                "submit_jobs: 'jobs' must be an array");
        }
        jobs.reserve(list->as_array().size());
        for (const JsonValue& entry : list->as_array()) {
            if (!entry.is_object()) {
                throw ProtocolError("bad_request",
                                    "submit_jobs: each job must be an object");
            }
            check_keys(entry,
                       {"user", "cores", "runtime_ic_s", "power_ic_w", "gips",
                        "llc_mps", "submit_s"},
                       "submit_jobs.job");
            JobSpec job;
            job.user = string_field(entry, "user", "submit_jobs.job");
            job.cores = int_field(entry, "cores", "submit_jobs.job");
            job.runtime_ic_s =
                number_field(entry, "runtime_ic_s", "submit_jobs.job");
            job.power_ic_w =
                number_field(entry, "power_ic_w", "submit_jobs.job");
            job.counters.gips =
                number_field_or(entry, "gips", "submit_jobs.job", 1.0);
            job.counters.llc_mps =
                number_field_or(entry, "llc_mps", "submit_jobs.job", 1.0);
            job.submit_s =
                number_field_or(entry, "submit_s", "submit_jobs.job", clock_);
            jobs.push_back(std::move(job));
        }
    } else if (const JsonValue* generate = r.body.find("generate")) {
        if (!generate->is_object()) {
            throw ProtocolError("bad_request",
                                "submit_jobs: 'generate' must be an object");
        }
        check_keys(*generate, {"count", "start_s", "spacing_s"},
                   "submit_jobs.generate");
        const std::uint64_t count =
            uint_field(*generate, "count", "submit_jobs.generate");
        if (count == 0 || count > 1'000'000) {
            throw ProtocolError("bad_request",
                                "submit_jobs.generate: 'count' must be in "
                                "[1, 1000000]");
        }
        const double start = number_field_or(*generate, "start_s",
                                             "submit_jobs.generate", clock_);
        const double spacing = number_field_or(*generate, "spacing_s",
                                               "submit_jobs.generate", 1.0);
        if (!(spacing >= 0.0)) {
            throw ProtocolError("bad_request",
                                "submit_jobs.generate: 'spacing_s' must be "
                                "non-negative");
        }
        jobs.reserve(static_cast<std::size_t>(count));
        for (std::uint64_t i = 0; i < count; ++i) {
            jobs.push_back(
                generate_job(rng, start + static_cast<double>(i) * spacing));
        }
    } else {
        throw ProtocolError("bad_request",
                            "submit_jobs: missing 'jobs' or 'generate'");
    }

    double last_submit = clock_;
    for (const JobSpec& job : jobs) {
        if (job.cores < 1) {
            throw ProtocolError("bad_request",
                                "submit_jobs: 'cores' must be at least 1");
        }
        if (!(job.runtime_ic_s > 0.0) || !(job.power_ic_w > 0.0)) {
            throw ProtocolError("bad_request",
                                "submit_jobs: runtime_ic_s and power_ic_w "
                                "must be positive");
        }
        if (job.submit_s < last_submit) {
            throw ProtocolError("bad_request",
                                "submit_jobs: submit times must be "
                                "non-decreasing and not precede the clock");
        }
        last_submit = job.submit_s;
    }

    const std::vector<MachineFigures> figures = price_request(jobs);
    rng_ = rng;
    const std::size_t n = cluster_cfgs_.size();
    out.begin_object();
    out.key("jobs");
    out.begin_array();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        submit_one(jobs[i],
                   std::span<const MachineFigures>(figures).subspan(i * n, n),
                   out);
    }
    out.end_array();
    out.member("clock_s", clock_);
    out.end_object();
}

void ServeSession::handle_quote(const Request& r, ga::io::JsonWriter& out) {
    check_keys(r.body,
               {"user", "cores", "runtime_ic_s", "power_ic_w", "gips",
                "llc_mps", "priced_at_s"},
               "quote");
    JobSpec job;
    job.cores = int_field(r.body, "cores", "quote");
    job.runtime_ic_s = number_field(r.body, "runtime_ic_s", "quote");
    job.power_ic_w = number_field(r.body, "power_ic_w", "quote");
    job.counters.gips = number_field_or(r.body, "gips", "quote", 1.0);
    job.counters.llc_mps = number_field_or(r.body, "llc_mps", "quote", 1.0);
    if (job.cores < 1 || !(job.runtime_ic_s > 0.0) ||
        !(job.power_ic_w > 0.0)) {
        throw ProtocolError("bad_request",
                            "quote: cores, runtime_ic_s and power_ic_w must "
                            "be positive");
    }
    const double priced_at =
        number_field_or(r.body, "priced_at_s", "quote", clock_);

    std::vector<MachineFigures> figures(cluster_cfgs_.size());
    price_job(job, priced_at, figures);
    check_figures(figures, "quote");
    const Routed routed = route(job.cores, figures);

    // With a user holding an account, also quote the chosen machine under
    // every currency the account holds (what `charge` would cost).
    std::vector<std::string> currencies;
    std::vector<double> currency_costs;
    if (const JsonValue* user = r.body.find("user")) {
        if (!user->is_string()) {
            throw ProtocolError("bad_request",
                                "quote: 'user' must be a string");
        }
        if (routed.chosen.has_value() &&
            ledger_.has_account(user->as_string())) {
            const std::size_t c = *routed.chosen;
            const ga::acct::JobUsage usage =
                usage_of(figures[c], job.cores, priced_at);
            currencies = ledger_.account_currencies(user->as_string());
            for (const std::string& currency : currencies) {
                currency_costs.push_back(currency_cost(
                    currency, usage, cluster_cfgs_[c].entry, "quote"));
            }
        }
    }

    out.begin_object();
    out.key("machines");
    out.begin_array();
    for (std::size_t c = 0; c < routed.choices.size(); ++c) {
        const ga::sim::MachineChoice& choice = routed.choices[c];
        out.begin_object();
        out.member("machine", cluster_cfgs_[c].entry.node.name);
        out.member("feasible", choice.feasible);
        out.member("runtime_s", choice.runtime_s);
        out.member("energy_j", choice.energy_j);
        out.member("cost", choice.cost);
        out.member("queue_wait_s", choice.queue_wait_s);
        out.end_object();
    }
    out.end_array();
    out.key("chosen");
    if (routed.chosen.has_value()) {
        out.value(cluster_cfgs_[*routed.chosen].entry.node.name);
    } else {
        out.null_value();
    }
    if (!currencies.empty()) {
        out.key("currency_costs");
        out.begin_object();
        for (std::size_t k = 0; k < currencies.size(); ++k) {
            out.member(currencies[k], currency_costs[k]);
        }
        out.end_object();
    }
    out.end_object();
}

void ServeSession::handle_charge(const Request& r, ga::io::JsonWriter& out) {
    check_keys(r.body,
               {"user", "machine", "duration_s", "energy_j", "cores", "gpus",
                "priced_at_s"},
               "charge");
    const std::string& user = string_field(r.body, "user", "charge");
    const std::string& machine = string_field(r.body, "machine", "charge");
    if (!ledger_.has_account(user)) {
        throw ProtocolError("unknown_user",
                            "charge: no account for user '" + user + "'");
    }
    const ga::sim::ClusterConfig* cfg = nullptr;
    for (const auto& candidate : cluster_cfgs_) {
        if (candidate.entry.node.name == machine) {
            cfg = &candidate;
            break;
        }
    }
    if (cfg == nullptr) {
        throw ProtocolError("unknown_machine",
                            "charge: no machine '" + machine +
                                "' in this deployment");
    }
    ga::acct::JobUsage usage;
    usage.duration_s = number_field(r.body, "duration_s", "charge");
    usage.energy_j = number_field(r.body, "energy_j", "charge");
    usage.cores = int_field(r.body, "cores", "charge");
    usage.gpus = r.body.find("gpus") != nullptr
                     ? int_field(r.body, "gpus", "charge")
                     : 0;
    usage.priced_at_s =
        number_field_or(r.body, "priced_at_s", "charge", clock_);
    if (!(usage.duration_s >= 0.0) || !(usage.energy_j >= 0.0) ||
        usage.cores < 1) {
        throw ProtocolError("bad_request",
                            "charge: duration_s/energy_j must be "
                            "non-negative and cores at least 1");
    }

    for (const std::string& currency : ledger_.account_currencies(user)) {
        (void)currency_cost(currency, usage, cfg->entry, "charge");
    }
    const ga::acct::ChargeOutcome outcome =
        ledger_.charge(user, usage, cfg->entry);
    out.begin_object();
    out.member("admitted", outcome.admitted);
    out.key("costs");
    out.begin_object();
    for (const auto& [currency, amount] : outcome.costs) {
        out.member(currency, amount);
    }
    out.end_object();
    if (outcome.admitted) {
        out.key("transactions");
        out.begin_array();
        for (const std::uint64_t id : outcome.transactions) {
            out.value(static_cast<double>(id));
        }
        out.end_array();
    } else {
        out.member("refused_currency", outcome.refused_currency);
    }
    out.end_object();
}

void ServeSession::handle_refund(const Request& r, ga::io::JsonWriter& out) {
    check_keys(r.body, {"user", "transaction"}, "refund");
    const std::string& user = string_field(r.body, "user", "refund");
    const std::uint64_t transaction =
        uint_field(r.body, "transaction", "refund");
    if (!ledger_.has_account(user)) {
        throw ProtocolError("unknown_user",
                            "refund: no account for user '" + user + "'");
    }
    std::uint64_t refund_id = 0;
    try {
        refund_id = ledger_.refund(user, transaction);
    } catch (const ga::util::RuntimeError& e) {
        throw ProtocolError("refund_rejected", e.what());
    }
    out.begin_object();
    out.member("refund", static_cast<double>(refund_id));
    out.end_object();
}

void ServeSession::handle_balance(const Request& r, ga::io::JsonWriter& out) {
    check_keys(r.body, {"user"}, "balance");
    const std::string& user = string_field(r.body, "user", "balance");
    if (!ledger_.has_account(user)) {
        throw ProtocolError("unknown_user",
                            "balance: no account for user '" + user + "'");
    }
    out.begin_object();
    out.member("user", user);
    out.key("currencies");
    out.begin_object();
    for (const std::string& currency : ledger_.account_currencies(user)) {
        const double spent = ledger_.spent(user, currency);
        const double remaining = ledger_.remaining(user, currency);
        out.key(currency);
        out.begin_object();
        out.member("budget", spent + remaining);
        out.member("spent", spent);
        out.member("remaining", remaining);
        out.end_object();
    }
    out.end_object();
    out.end_object();
}

void ServeSession::handle_stats(const Request& r, ga::io::JsonWriter& out) {
    check_keys(r.body, {}, "stats");
    // The totals come before the per-cluster entries they sum.
    std::uint64_t running = 0;
    std::uint64_t queued = 0;
    std::uint64_t completed = 0;
    for (std::size_t c = 0; c < cluster_cfgs_.size(); ++c) {
        const ga::sim::ClusterState& cluster = core_.cluster(c);
        running += cluster.started - cluster.completed;
        queued += core_.depth(c);
        completed += cluster.completed;
    }
    out.begin_object();
    out.member("clock_s", clock_);
    out.member("jobs_submitted", static_cast<double>(jobs_submitted_));
    out.member("jobs_rejected", static_cast<double>(jobs_rejected_));
    out.member("jobs_running", static_cast<double>(running));
    out.member("jobs_queued", static_cast<double>(queued));
    out.member("jobs_completed", static_cast<double>(completed));
    out.member("primary_spent", primary_spent_);
    out.member("transactions", static_cast<double>(ledger_.history_size()));
    out.key("clusters");
    out.begin_array();
    for (std::size_t c = 0; c < cluster_cfgs_.size(); ++c) {
        const ga::sim::ClusterState& cluster = core_.cluster(c);
        out.begin_object();
        out.member("name", cluster_cfgs_[c].entry.node.name);
        out.member("capacity_cores", static_cast<double>(cluster.capacity));
        out.member("free_cores", static_cast<double>(cluster.free_cores));
        out.member("running",
                   static_cast<double>(cluster.started - cluster.completed));
        out.member("queued", static_cast<double>(core_.depth(c)));
        out.member("started", static_cast<double>(cluster.started));
        out.member("completed", static_cast<double>(cluster.completed));
        out.end_object();
    }
    out.end_array();
    out.end_object();
}

void ServeSession::handle_metrics(const Request& r, ga::io::JsonWriter& out) {
    check_keys(r.body, {}, "metrics");
    out.begin_object();
    // Per-session tallies of lines handled, including this request (it is
    // counted when its line enters handle_line).
    out.member("requests", static_cast<double>(requests_served_));
    out.member("errors", static_cast<double>(request_errors_));
    out.member("metrics_enabled", ga::obs::metrics_enabled());
    // Process-wide registry snapshot; all-zero (but present) when metrics
    // collection is disabled.
    out.member("prometheus", ga::obs::Registry::global().render_prometheus());
    out.end_object();
}

void ServeSession::handle_advance(const Request& r, ga::io::JsonWriter& out) {
    check_keys(r.body, {"to_s"}, "advance");
    const double to = number_field(r.body, "to_s", "advance");
    if (to < clock_) {
        throw ProtocolError("bad_request",
                            "advance: 'to_s' precedes the logical clock");
    }
    const std::uint64_t completed = core_.complete_until(to);
    clock_ = std::max(clock_, to);
    out.begin_object();
    out.member("clock_s", clock_);
    out.member("completed", static_cast<double>(completed));
    out.end_object();
}

void ServeSession::handle_checkpoint(const Request& r,
                                     ga::io::JsonWriter& out) {
    check_keys(r.body, {"path"}, "checkpoint");
    const std::string& path = string_field(r.body, "path", "checkpoint");
    const SessionState state = export_state();
    const std::string bytes = encode_snapshot(state);
    write_snapshot_file(path, state);
    out.begin_object();
    out.member("path", path);
    out.member("bytes", static_cast<double>(bytes.size()));
    out.member("checksum", checksum_hex(snapshot_checksum(
                               std::string_view(bytes).substr(32))));
    out.end_object();
}

void ServeSession::handle_shutdown(const Request& r, ga::io::JsonWriter& out) {
    check_keys(r.body, {}, "shutdown");
    shutdown_ = true;
    out.begin_object();
    out.member("stopping", true);
    out.end_object();
}

void ServeSession::dispatch(const Request& request, ga::io::JsonWriter& out) {
    const std::string& type = request.type;
    if (type == "create_account") return handle_create_account(request, out);
    if (type == "submit_jobs") return handle_submit_jobs(request, out);
    if (type == "quote") return handle_quote(request, out);
    if (type == "charge") return handle_charge(request, out);
    if (type == "refund") return handle_refund(request, out);
    if (type == "balance") return handle_balance(request, out);
    if (type == "stats") return handle_stats(request, out);
    if (type == "metrics") return handle_metrics(request, out);
    if (type == "advance") return handle_advance(request, out);
    if (type == "checkpoint") return handle_checkpoint(request, out);
    if (type == "shutdown") return handle_shutdown(request, out);
    throw ProtocolError("unknown_type",
                        "unknown request type '" + request.type + "'");
}

std::string ServeSession::handle_line(std::string_view line) {
    ServeMetrics& metrics = serve_metrics();
    ++requests_served_;
    metrics.requests.inc();
    // Most response lines take a few hundred bytes: one allocation up front
    // spares the string's doubling from its small buffer.
    std::string response;
    response.reserve(1024);
    std::optional<std::uint64_t> id;
    // A refused request may have written part of its result: the error
    // line replaces it.
    const auto fail = [&](std::string_view code, std::string_view message) {
        ++request_errors_;
        metrics.errors.inc();
        response.clear();
        write_error_response(response, id, code, message);
        return std::move(response);
    };
    try {
        const Request request = parse_request(line);
        id = request.id;
        ga::io::JsonWriter out(response);
        begin_ok_response(out, request.id);
        dispatch(request, out);
        out.end_object();
        return response;
    } catch (const ProtocolError& e) {
        if (!id.has_value()) id = recover_request_id(line);
        return fail(e.code(), e.what());
    } catch (const ga::util::PreconditionError& e) {
        return fail("precondition", e.what());
    } catch (const ga::util::RuntimeError& e) {
        return fail("state_error", e.what());
    } catch (const std::exception& e) {
        return fail("internal", e.what());
    }
}

SessionState ServeSession::export_state() const {
    SessionState state;
    state.config_fingerprint = fingerprint_;
    state.clock_s = clock_;
    state.next_seq = next_seq_;
    state.rng = rng_.state();
    state.jobs_submitted = jobs_submitted_;
    state.jobs_rejected = jobs_rejected_;
    state.primary_spent = primary_spent_;
    state.clusters.resize(cluster_cfgs_.size());
    for (std::size_t c = 0; c < cluster_cfgs_.size(); ++c) {
        const ga::sim::ClusterState& cluster = core_.cluster(c);
        ClusterSessionState& out = state.clusters[c];
        out.name = cluster_cfgs_[c].entry.node.name;
        out.capacity_cores = cluster.capacity;
        out.free_cores = cluster.free_cores;
        out.started = cluster.started;
        out.completed = cluster.completed;
        out.queued_core_seconds = cluster.queued_core_seconds;
        core_.for_each_queued(c, [&](const ga::sim::QueuedJob& job) {
            out.queue.push_back({job.id, job.cores, job.runtime_s});
        });
    }
    for (const ga::sim::RunningJob& job : core_.running_jobs()) {
        state.clusters[job.cluster].running.push_back(
            {job.id, job.cores, job.finish_s});
    }
    state.ledger = ledger_.export_state();
    return state;
}

}  // namespace ga::service
