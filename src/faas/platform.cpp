#include "faas/platform.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace ga::faas {

namespace {

/// Platform instruments: invocation admission outcomes.
struct PlatformMetrics {
    ga::obs::Counter& invocations_accepted;
    ga::obs::Counter& invocations_rejected;
};

PlatformMetrics& platform_metrics() {
    auto& registry = ga::obs::Registry::global();
    static PlatformMetrics metrics{
        registry.counter_handle("faas.invocations_accepted"),
        registry.counter_handle("faas.invocations_rejected"),
    };
    return metrics;
}

}  // namespace

GreenAccess::GreenAccess(const ga::acct::AccountantSpec& spec)
    : accountant_(ga::acct::AccountantRegistry::global().make(spec)),
      monitor_(&broker_) {
    ledger_.define_currency(std::string(ga::acct::Ledger::kDefaultCurrency),
                            spec);
}

void GreenAccess::register_endpoint(const ga::machine::CatalogEntry& entry) {
    GA_REQUIRE(endpoints_.find(entry.node.name) == endpoints_.end(),
               "platform: endpoint already registered");
    endpoints_[entry.node.name] = std::make_unique<Endpoint>(
        entry, &broker_, /*sample_interval_s=*/1.0, /*noise_w=*/0.5,
        /*seed=*/0xE9D0 + endpoints_.size());
}

void GreenAccess::create_user(const std::string& user, double budget) {
    ledger_.create_account(
        user, {{std::string(ga::acct::Ledger::kDefaultCurrency), budget}});
}

std::vector<ga::acct::CostEstimate> GreenAccess::predict(
    const ga::machine::WorkProfile& profile, int cores) const {
    std::vector<ga::machine::CatalogEntry> machines;
    machines.reserve(endpoints_.size());
    for (const auto& [name, ep] : endpoints_) machines.push_back(ep->machine());
    return estimator_.rank(profile, machines, cores, *accountant_, clock_);
}

InvocationResult GreenAccess::submit(const std::string& user,
                                     const ga::machine::WorkProfile& profile,
                                     int cores, const std::string& machine) {
    InvocationResult result;
    PlatformMetrics& metrics = platform_metrics();

    // ---- access control ----
    if (!ledger_.has_account(user)) {
        result.reject_reason = "unknown user";
        metrics.invocations_rejected.inc();
        return result;
    }

    // ---- routing ----
    const Endpoint* target = nullptr;
    if (machine.empty()) {
        const auto ranked = predict(profile, cores);
        GA_REQUIRE(!ranked.empty(), "platform: no endpoints registered");
        target = endpoints_.at(ranked.front().machine).get();
    } else {
        const auto it = endpoints_.find(machine);
        if (it == endpoints_.end()) {
            result.reject_reason = "unknown machine";
            metrics.invocations_rejected.inc();
            return result;
        }
        target = it->second.get();
    }

    // ---- admission: the predicted cost must fit the remaining budget ----
    const auto estimate = estimator_.estimate(
        profile, target->machine(), cores, *accountant_, clock_);
    if (ledger_.remaining(user, ga::acct::Ledger::kDefaultCurrency) <
        estimate.cost) {
        result.reject_reason = "insufficient allocation";
        metrics.invocations_rejected.inc();
        return result;
    }

    // ---- execute (virtual time) and stream telemetry ----
    Endpoint* ep = endpoints_.at(target->machine().node.name).get();
    const Execution exec = ep->execute(profile, cores, clock_);
    // Flush well past the end: the trailing idle samples anchor the power
    // model's intercept and guarantee the monitor reaches its refit cadence
    // even for sub-second invocations.
    advance_to(exec.end_s + 20.0);

    // ---- charge with the measured energy ----
    const double measured = monitor_.task_energy_j(exec.task_id);
    ga::acct::JobUsage usage;
    usage.duration_s = exec.seconds();
    usage.energy_j = measured;
    usage.cores = exec.cores;
    usage.priced_at_s = exec.start_s;
    const auto outcome = ledger_.charge(user, usage, ep->machine());
    if (!outcome.admitted) {
        // Measured energy exceeded the estimate and the remaining budget;
        // the provider absorbs the overrun but the job is reported rejected
        // for accounting purposes.
        result.reject_reason = "allocation exhausted at settlement";
        metrics.invocations_rejected.inc();
        return result;
    }

    result.accepted = true;
    metrics.invocations_accepted.inc();
    result.machine = ep->machine().node.name;
    result.task_id = exec.task_id;
    result.duration_s = exec.seconds();
    result.measured_energy_j = measured;
    result.cost =
        outcome.costs.at(std::string(ga::acct::Ledger::kDefaultCurrency));
    return result;
}

void GreenAccess::advance_to(double t_s) {
    GA_REQUIRE(t_s >= clock_, "platform: clock cannot run backwards");
    clock_ = t_s;
    for (auto& [name, ep] : endpoints_) ep->flush_until(t_s);
    monitor_.poll();
}

}  // namespace ga::faas
