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
/// queued-work-only wait estimate, and figures for every machine so quotes
/// can show the ones a job cannot fit.
constexpr ga::sim::SchedulerRules kServiceRules{
    ga::sim::QueueOrder::StrictFifo, /*wait_counts_running=*/false,
    /*price_infeasible=*/true};

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

JsonValue object() { return JsonValue{JsonValue::Object{}}; }

}  // namespace

// ------------------------------------------------------------ construction

ServeSession::ServeSession(ga::io::ScenarioFile scenario)
    : rng_(ga::util::Rng(scenario.workload.seed).split(0xA110C8)) {
    init_config(std::move(scenario));
    int largest = 1;
    for (const auto& cfg : cluster_cfgs_) {
        largest = std::max(largest, cfg.total_cores());
    }
    core_.reset(cluster_cfgs_, *setup_, kServiceRules, largest);
    std::vector<std::pair<std::string, ga::acct::AccountantSpec>> currencies;
    if (options_.currency_budgets.empty()) {
        currencies.emplace_back(std::string(ga::acct::Ledger::kDefaultCurrency),
                                setup_->pricing_spec);
    } else {
        for (const auto& cb : options_.currency_budgets) {
            currencies.emplace_back(cb.currency, cb.accountant);
        }
    }
    std::sort(currencies.begin(), currencies.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [currency, spec] : currencies) {
        ledger_.define_currency(currency, spec);
        currency_pricers_.emplace_back(
            currency, ga::acct::AccountantRegistry::global().make(spec));
    }
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
    ledger_.import_state(state.ledger);
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
            running.push_back(ga::sim::RunningJob{
                job.finish_s, job.seq, static_cast<std::uint32_t>(c),
                job.cores, 0});
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
        const auto& scale = scaling[predictor_index_[c]];
        ga::acct::JobUsage usage;
        usage.duration_s = job.runtime_ic_s * scale.runtime_factor;
        usage.energy_j =
            usage.duration_s * (job.power_ic_w * scale.power_factor);
        usage.cores = job.cores;
        usage.priced_at_s = priced_at;
        out[c] = MachineFigures{
            usage.duration_s, usage.energy_j,
            setup_->pricer->charge(usage, cluster_cfgs_[c].entry)};
    }
}

std::vector<ServeSession::MachineFigures> ServeSession::price_request(
    const std::vector<JobSpec>& jobs) const {
    const std::size_t n = cluster_cfgs_.size();
    std::vector<MachineFigures> figures(jobs.size() * n);
    // An upper bound on what the request can add to primary_spent: every
    // job admitted on its dearest machine.
    double spend_bound = primary_spent_;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::span<MachineFigures> row(figures.data() + i * n, n);
        price_job(jobs[i], jobs[i].submit_s, row);
        double dearest = 0.0;
        for (std::size_t c = 0; c < n; ++c) {
            const auto require_finite = [&](double value, const char* what) {
                if (std::isfinite(value)) return;
                throw ProtocolError(
                    "bad_request",
                    "submit_jobs: job " + std::to_string(i) + " has a " +
                        "non-finite predicted " + what + " on " +
                        cluster_cfgs_[c].entry.node.name);
            };
            require_finite(row[c].runtime_s, "runtime");
            require_finite(row[c].energy_j, "energy");
            require_finite(row[c].cost, "cost");
            require_finite(jobs[i].submit_s + row[c].runtime_s, "finish time");
            dearest = std::max(dearest, row[c].cost);
        }
        spend_bound += dearest;
    }
    if (!std::isfinite(spend_bound)) {
        throw ProtocolError("bad_request",
                            "submit_jobs: the request's costs could make "
                            "primary_spent non-finite");
    }
    return figures;
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

JsonValue ServeSession::submit_one(const JobSpec& job,
                                   std::span<const MachineFigures> figures) {
    JsonValue out = object();
    out.set("user", JsonValue(job.user));

    (void)core_.complete_until(job.submit_s);
    clock_ = std::max(clock_, job.submit_s);
    const Routed routed = route(job.cores, figures);

    const auto reject = [&](std::string_view reason) {
        ++jobs_rejected_;
        out.set("status", JsonValue("rejected"));
        out.set("reason", JsonValue(reason));
        return out;
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
        ga::acct::JobUsage usage;
        usage.duration_s = chosen.runtime_s;
        usage.energy_j = chosen.energy_j;
        usage.cores = job.cores;
        usage.priced_at_s = job.submit_s;
        const ga::acct::ChargeOutcome outcome =
            ledger_.charge(job.user, usage, cluster_cfgs_[c].entry);
        JsonValue costs = object();
        for (const auto& [currency, amount] : outcome.costs) {
            costs.set(currency, JsonValue(amount));
        }
        out.set("costs", std::move(costs));
        if (!outcome.admitted) {
            ++jobs_rejected_;
            out.set("status", JsonValue("rejected"));
            out.set("reason", JsonValue("refused"));
            out.set("refused_currency", JsonValue(outcome.refused_currency));
            return out;
        }
        JsonValue::Array transactions;
        transactions.reserve(outcome.transactions.size());
        for (const std::uint64_t id : outcome.transactions) {
            transactions.emplace_back(static_cast<double>(id));
        }
        out.set("transactions", JsonValue(std::move(transactions)));
    } else {
        // Accounting is opt-in per user: jobs from accountless users run
        // uncharged (the routing cost is still reported and still counts
        // against the primary budget gate above).
        out.set("uncharged", JsonValue(true));
    }

    primary_spent_ += chosen.cost;
    ++jobs_submitted_;
    const std::uint64_t seq = next_seq_++;
    out.set("seq", JsonValue(static_cast<double>(seq)));
    out.set("machine", JsonValue(cluster_cfgs_[c].entry.node.name));
    out.set("cost", JsonValue(chosen.cost));
    out.set("runtime_s", JsonValue(chosen.runtime_s));
    if (core_.submit(c, ga::sim::QueuedJob{seq, job.cores, 0, chosen.runtime_s},
                     job.submit_s)) {
        out.set("status", JsonValue("running"));
        out.set("finish_s", JsonValue(job.submit_s + chosen.runtime_s));
    } else {
        out.set("status", JsonValue("queued"));
    }
    return out;
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

JsonValue ServeSession::handle_create_account(const Request& r) {
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
    JsonValue currencies{JsonValue::Array{}};
    for (const auto& [currency, amount] : budgets) {
        currencies.as_array().emplace_back(currency);
    }
    JsonValue result = object();
    result.set("user", JsonValue(user));
    result.set("currencies", std::move(currencies));
    return result;
}

JsonValue ServeSession::handle_submit_jobs(const Request& r) {
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
            job.cores = static_cast<int>(
                uint_field(entry, "cores", "submit_jobs.job"));
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
    JsonValue::Array outcomes;
    outcomes.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        outcomes.push_back(submit_one(
            jobs[i], std::span<const MachineFigures>(figures).subspan(i * n, n)));
    }
    JsonValue result = object();
    result.set("jobs", JsonValue(std::move(outcomes)));
    result.set("clock_s", JsonValue(clock_));
    return result;
}

JsonValue ServeSession::handle_quote(const Request& r) {
    check_keys(r.body,
               {"user", "cores", "runtime_ic_s", "power_ic_w", "gips",
                "llc_mps", "priced_at_s"},
               "quote");
    JobSpec job;
    job.cores = static_cast<int>(uint_field(r.body, "cores", "quote"));
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
    const Routed routed = route(job.cores, figures);
    JsonValue::Array machines;
    machines.reserve(routed.choices.size());
    for (std::size_t c = 0; c < routed.choices.size(); ++c) {
        JsonValue entry = object();
        entry.set("machine", JsonValue(cluster_cfgs_[c].entry.node.name));
        entry.set("feasible", JsonValue(routed.choices[c].feasible));
        entry.set("runtime_s", JsonValue(routed.choices[c].runtime_s));
        entry.set("energy_j", JsonValue(routed.choices[c].energy_j));
        entry.set("cost", JsonValue(routed.choices[c].cost));
        entry.set("queue_wait_s", JsonValue(routed.choices[c].queue_wait_s));
        machines.push_back(std::move(entry));
    }
    JsonValue result = object();
    result.set("machines", JsonValue(std::move(machines)));
    result.set("chosen", routed.chosen.has_value()
                             ? JsonValue(cluster_cfgs_[*routed.chosen].entry.node.name)
                             : JsonValue(nullptr));

    // With a user holding an account, also quote the chosen machine under
    // every currency the account holds (what `charge` would cost).
    if (const JsonValue* user = r.body.find("user")) {
        if (!user->is_string()) {
            throw ProtocolError("bad_request",
                                "quote: 'user' must be a string");
        }
        if (routed.chosen.has_value() &&
            ledger_.has_account(user->as_string())) {
            const std::size_t c = *routed.chosen;
            ga::acct::JobUsage usage;
            usage.duration_s = figures[c].runtime_s;
            usage.energy_j = figures[c].energy_j;
            usage.cores = job.cores;
            usage.priced_at_s = priced_at;
            JsonValue costs = object();
            for (const std::string& currency :
                 ledger_.account_currencies(user->as_string())) {
                for (const auto& [name, accountant] : currency_pricers_) {
                    if (name == currency) {
                        costs.set(currency,
                                  JsonValue(accountant->charge(
                                      usage, cluster_cfgs_[c].entry)));
                        break;
                    }
                }
            }
            result.set("currency_costs", std::move(costs));
        }
    }
    return result;
}

JsonValue ServeSession::handle_charge(const Request& r) {
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
    usage.cores = static_cast<int>(uint_field(r.body, "cores", "charge"));
    usage.gpus = static_cast<int>(r.body.find("gpus") != nullptr
                                      ? uint_field(r.body, "gpus", "charge")
                                      : 0);
    usage.priced_at_s =
        number_field_or(r.body, "priced_at_s", "charge", clock_);
    if (!(usage.duration_s >= 0.0) || !(usage.energy_j >= 0.0) ||
        usage.cores < 1) {
        throw ProtocolError("bad_request",
                            "charge: duration_s/energy_j must be "
                            "non-negative and cores at least 1");
    }

    const ga::acct::ChargeOutcome outcome =
        ledger_.charge(user, usage, cfg->entry);
    JsonValue costs = object();
    for (const auto& [currency, amount] : outcome.costs) {
        costs.set(currency, JsonValue(amount));
    }
    JsonValue result = object();
    result.set("admitted", JsonValue(outcome.admitted));
    result.set("costs", std::move(costs));
    if (outcome.admitted) {
        JsonValue::Array transactions;
        transactions.reserve(outcome.transactions.size());
        for (const std::uint64_t id : outcome.transactions) {
            transactions.emplace_back(static_cast<double>(id));
        }
        result.set("transactions", JsonValue(std::move(transactions)));
    } else {
        result.set("refused_currency", JsonValue(outcome.refused_currency));
    }
    return result;
}

JsonValue ServeSession::handle_refund(const Request& r) {
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
    JsonValue result = object();
    result.set("refund", JsonValue(static_cast<double>(refund_id)));
    return result;
}

JsonValue ServeSession::handle_balance(const Request& r) {
    check_keys(r.body, {"user"}, "balance");
    const std::string& user = string_field(r.body, "user", "balance");
    if (!ledger_.has_account(user)) {
        throw ProtocolError("unknown_user",
                            "balance: no account for user '" + user + "'");
    }
    JsonValue currencies = object();
    for (const std::string& currency : ledger_.account_currencies(user)) {
        const double spent = ledger_.spent(user, currency);
        const double remaining = ledger_.remaining(user, currency);
        JsonValue entry = object();
        entry.set("budget", JsonValue(spent + remaining));
        entry.set("spent", JsonValue(spent));
        entry.set("remaining", JsonValue(remaining));
        currencies.set(currency, std::move(entry));
    }
    JsonValue result = object();
    result.set("user", JsonValue(user));
    result.set("currencies", std::move(currencies));
    return result;
}

JsonValue ServeSession::handle_stats(const Request& r) {
    check_keys(r.body, {}, "stats");
    std::uint64_t running = 0;
    std::uint64_t queued = 0;
    std::uint64_t completed = 0;
    JsonValue::Array clusters;
    clusters.reserve(cluster_cfgs_.size());
    for (std::size_t c = 0; c < cluster_cfgs_.size(); ++c) {
        const ga::sim::ClusterState& cluster = core_.cluster(c);
        const std::uint64_t cluster_running = cluster.started - cluster.completed;
        running += cluster_running;
        queued += core_.depth(c);
        completed += cluster.completed;
        JsonValue entry = object();
        entry.set("name", JsonValue(cluster_cfgs_[c].entry.node.name));
        entry.set("capacity_cores", JsonValue(cluster.capacity));
        entry.set("free_cores", JsonValue(cluster.free_cores));
        entry.set("running", JsonValue(static_cast<double>(cluster_running)));
        entry.set("queued", JsonValue(static_cast<double>(core_.depth(c))));
        entry.set("started", JsonValue(static_cast<double>(cluster.started)));
        entry.set("completed",
                  JsonValue(static_cast<double>(cluster.completed)));
        clusters.push_back(std::move(entry));
    }
    JsonValue result = object();
    result.set("clock_s", JsonValue(clock_));
    result.set("jobs_submitted",
               JsonValue(static_cast<double>(jobs_submitted_)));
    result.set("jobs_rejected", JsonValue(static_cast<double>(jobs_rejected_)));
    result.set("jobs_running", JsonValue(static_cast<double>(running)));
    result.set("jobs_queued", JsonValue(static_cast<double>(queued)));
    result.set("jobs_completed", JsonValue(static_cast<double>(completed)));
    result.set("primary_spent", JsonValue(primary_spent_));
    result.set("transactions",
               JsonValue(static_cast<double>(ledger_.history_size())));
    result.set("clusters", JsonValue(std::move(clusters)));
    return result;
}

JsonValue ServeSession::handle_metrics(const Request& r) {
    check_keys(r.body, {}, "metrics");
    JsonValue result = object();
    // Per-session tallies of lines handled, including this request (it is
    // counted when its line enters handle_line).
    result.set("requests", JsonValue(static_cast<double>(requests_served_)));
    result.set("errors", JsonValue(static_cast<double>(request_errors_)));
    result.set("metrics_enabled", JsonValue(ga::obs::metrics_enabled()));
    // Process-wide registry snapshot; all-zero (but present) when metrics
    // collection is disabled.
    result.set("prometheus",
               JsonValue(ga::obs::Registry::global().render_prometheus()));
    return result;
}

JsonValue ServeSession::handle_advance(const Request& r) {
    check_keys(r.body, {"to_s"}, "advance");
    const double to = number_field(r.body, "to_s", "advance");
    if (to < clock_) {
        throw ProtocolError("bad_request",
                            "advance: 'to_s' precedes the logical clock");
    }
    const std::uint64_t completed = core_.complete_until(to);
    clock_ = std::max(clock_, to);
    JsonValue result = object();
    result.set("clock_s", JsonValue(clock_));
    result.set("completed", JsonValue(static_cast<double>(completed)));
    return result;
}

JsonValue ServeSession::handle_checkpoint(const Request& r) {
    check_keys(r.body, {"path"}, "checkpoint");
    const std::string& path = string_field(r.body, "path", "checkpoint");
    const SessionState state = export_state();
    const std::string bytes = encode_snapshot(state);
    write_snapshot_file(path, state);
    JsonValue result = object();
    result.set("path", JsonValue(path));
    result.set("bytes", JsonValue(static_cast<double>(bytes.size())));
    result.set("checksum",
               JsonValue(checksum_hex(snapshot_checksum(
                   std::string_view(bytes).substr(32)))));
    return result;
}

JsonValue ServeSession::handle_shutdown(const Request& r) {
    check_keys(r.body, {}, "shutdown");
    shutdown_ = true;
    JsonValue result = object();
    result.set("stopping", JsonValue(true));
    return result;
}

JsonValue ServeSession::dispatch(const Request& request) {
    if (request.type == "create_account") return handle_create_account(request);
    if (request.type == "submit_jobs") return handle_submit_jobs(request);
    if (request.type == "quote") return handle_quote(request);
    if (request.type == "charge") return handle_charge(request);
    if (request.type == "refund") return handle_refund(request);
    if (request.type == "balance") return handle_balance(request);
    if (request.type == "stats") return handle_stats(request);
    if (request.type == "metrics") return handle_metrics(request);
    if (request.type == "advance") return handle_advance(request);
    if (request.type == "checkpoint") return handle_checkpoint(request);
    if (request.type == "shutdown") return handle_shutdown(request);
    throw ProtocolError("unknown_type",
                        "unknown request type '" + request.type + "'");
}

std::string ServeSession::handle_line(std::string_view line) {
    ServeMetrics& metrics = serve_metrics();
    ++requests_served_;
    metrics.requests.inc();
    std::optional<std::uint64_t> id;
    try {
        Request request = parse_request(line);
        id = request.id;
        JsonValue result = dispatch(request);
        return render(ok_response(request.id, std::move(result)));
    } catch (const ProtocolError& e) {
        ++request_errors_;
        metrics.errors.inc();
        if (!id.has_value()) id = recover_request_id(line);
        return render(error_response(id, e.code(), e.what()));
    } catch (const ga::util::PreconditionError& e) {
        ++request_errors_;
        metrics.errors.inc();
        return render(error_response(id, "precondition", e.what()));
    } catch (const ga::util::RuntimeError& e) {
        ++request_errors_;
        metrics.errors.inc();
        return render(error_response(id, "state_error", e.what()));
    } catch (const std::exception& e) {
        ++request_errors_;
        metrics.errors.inc();
        return render(error_response(id, "internal", e.what()));
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
