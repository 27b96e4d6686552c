// The green-ACCESS platform facade (paper Fig. 3, component 1).
//
// Request router + access control + prediction endpoint + accounting. Users
// hold fungible allocations in the unit of the platform's accounting method;
// the prediction service estimates per-machine cost before submission; the
// router admits, executes on the chosen endpoint, drives the telemetry
// pipeline, and charges the ledger with the monitor-measured energy.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/allocation.hpp"
#include "core/estimate.hpp"
#include "faas/endpoint.hpp"
#include "faas/monitor.hpp"

namespace ga::faas {

/// Outcome of one submission.
struct InvocationResult {
    bool accepted = false;
    std::string reject_reason;
    std::string machine;
    std::uint64_t task_id = 0;
    double duration_s = 0.0;
    double measured_energy_j = 0.0;  ///< monitor-attributed
    double cost = 0.0;               ///< charged to the user's allocation
};

class GreenAccess {
public:
    /// Creates the platform with one registry accounting method for all
    /// estimates and charges: the ledger's `Ledger::kDefaultCurrency`
    /// currency is defined from `spec`.
    explicit GreenAccess(const ga::acct::AccountantSpec& spec);

    /// Registers a machine (deploys an endpoint for it).
    void register_endpoint(const ga::machine::CatalogEntry& entry);

    /// Creates a user with a fungible allocation in the method's unit, held
    /// in the ledger's `Ledger::kDefaultCurrency` currency.
    void create_user(const std::string& user, double budget);

    /// Prediction service: per-machine cost estimates for a work profile,
    /// cheapest first (paper: "a prediction service that provides estimates
    /// of the energy consumption of their jobs").
    [[nodiscard]] std::vector<ga::acct::CostEstimate> predict(
        const ga::machine::WorkProfile& profile, int cores) const;

    /// Submits a function invocation. When `machine` is empty the router
    /// picks the cheapest endpoint. Executes synchronously in virtual time;
    /// telemetry flows broker -> monitor; the measured energy is charged.
    InvocationResult submit(const std::string& user,
                            const ga::machine::WorkProfile& profile, int cores,
                            const std::string& machine = "");

    /// Advances the platform clock (endpoints emit telemetry up to `t`).
    void advance_to(double t_s);

    [[nodiscard]] double now_s() const noexcept { return clock_; }
    [[nodiscard]] const ga::acct::Ledger& ledger() const noexcept { return ledger_; }
    [[nodiscard]] const EndpointMonitor& monitor() const noexcept {
        return monitor_;
    }

private:
    std::unique_ptr<const ga::acct::Accountant> accountant_;
    Broker broker_;
    EndpointMonitor monitor_;
    std::map<std::string, std::unique_ptr<Endpoint>> endpoints_;
    ga::acct::Ledger ledger_;
    ga::acct::CostEstimator estimator_;
    double clock_ = 0.0;
};

}  // namespace ga::faas
