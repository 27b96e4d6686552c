// The live ga-serve session: a scenario's configuration held in memory with
// a running Ledger, driving the scheduling core it shares with the batch
// simulator (sim/scheduler.hpp) from the line protocol
// (service/protocol.hpp).
//
// One `ServeSession` serves exactly one expanded grid point of a scenario
// file (the first, when the grid has several) over the default Table-5
// deployment. `ga::sim::RunSetup` resolves its grid traces, pricing
// accountant and routing policy exactly as it does for a batch run, and one
// `ga::sim::Scheduler` holds its queues and running jobs. Where the batch
// simulator replays a complete trace through that core, the session feeds
// it one request at a time. The two drivers differ only where each sets a
// value of its own:
//
//   * queue order — the session passes strict FIFO (a later small job never
//     jumps a blocked head); the batch simulator passes skip-ahead;
//   * wait estimate — the session quotes queued work only; the batch
//     simulator also counts the remaining work of running jobs;
//   * infeasible machines — the session prices them too, so quotes show
//     every machine's figures; the batch simulator leaves them zeroed;
//   * start predicate — the batch simulator adds the paper's
//     one-running-job-per-user rule; the session (a front-end, not a
//     fairness study) adds none;
//   * context counters — the session counts admitted jobs and budgets
//     against `primary_spent`; it has no trace span or job total.
//
// Charging happens at submit time: admitted jobs are priced and debited
// when routed (priced_at = submit), completion only frees cores. A
// submit_jobs request is all or nothing: every job's per-machine runtime,
// energy, cost and finish time are computed, and checked finite, before
// any job is admitted.
//
// Determinism contract: a session is a pure function of (scenario file,
// request sequence). The logical clock only moves through requests
// (submit_s / advance), never the wall clock; the only randomness is the
// snapshot-carried generate-path RNG. Replaying the same request lines
// against the same scenario therefore produces byte-identical response
// lines and snapshots — including across a checkpoint/restart split at any
// request boundary. The session is deliberately single-threaded (one
// request at a time; the daemon serializes transports onto it), so it adds
// no locks to the declared hierarchy; the Ledger still locks internally.
//
// Request types: create_account, submit_jobs, quote, charge, refund,
// balance, stats, metrics, advance, checkpoint, shutdown — schemas in the
// handler comments (session.cpp) and docs/ARCHITECTURE.md "Service layer".
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/accounting.hpp"
#include "core/allocation.hpp"
#include "io/scenario.hpp"
#include "service/protocol.hpp"
#include "service/snapshot.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace ga::service {

class ServeSession {
public:
    /// Fresh session over the scenario's first expanded grid point.
    explicit ServeSession(ga::io::ScenarioFile scenario);

    /// Restored session: same scenario, state from a snapshot. Throws
    /// RuntimeError when the snapshot's configuration fingerprint or
    /// cluster layout does not match the scenario — replaying requests
    /// against a different configuration would silently diverge.
    ServeSession(ga::io::ScenarioFile scenario, const SessionState& state);

    ServeSession(const ServeSession&) = delete;
    ServeSession& operator=(const ServeSession&) = delete;

    /// Handles one request line and returns the response line (without the
    /// trailing newline). Never throws: every failure becomes a structured
    /// error response. Deterministic in (construction state, lines so far).
    [[nodiscard]] std::string handle_line(std::string_view line);

    /// True once a shutdown request was acknowledged; the transport loop
    /// should stop reading.
    [[nodiscard]] bool shutdown_requested() const noexcept {
        return shutdown_;
    }

    /// The complete durable state (ledger exported under its own lock).
    [[nodiscard]] SessionState export_state() const;

    /// Canonical rendering of the effective configuration; embedded in
    /// snapshots and checked on restore.
    [[nodiscard]] const std::string& config_fingerprint() const noexcept {
        return fingerprint_;
    }

    /// How many grid points the scenario expands to (the CLI warns when a
    /// session silently serves only the first of several).
    [[nodiscard]] std::size_t grid_points() const noexcept {
        return grid_points_;
    }

private:
    struct JobSpec {
        std::string user;
        int cores = 1;
        double runtime_ic_s = 0.0;
        double power_ic_w = 0.0;
        ga::workload::JobCounters counters;
        double submit_s = 0.0;
    };

    /// One job's predicted figures on one machine.
    struct MachineFigures {
        double runtime_s = 0.0;
        double energy_j = 0.0;
        double cost = 0.0;  ///< under the pricing accountant
    };

    /// One routing decision: every machine's choice and the policy's pick.
    struct Routed {
        std::span<const ga::sim::MachineChoice> choices;
        std::optional<std::size_t> chosen;
    };

    void init_config(ga::io::ScenarioFile scenario);

    [[nodiscard]] ga::io::JsonValue dispatch(const Request& request);

    // one handler per request type
    [[nodiscard]] ga::io::JsonValue handle_create_account(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_submit_jobs(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_quote(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_charge(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_refund(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_balance(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_stats(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_metrics(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_advance(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_checkpoint(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_shutdown(const Request& r);

    /// `job`'s figures on every cluster, priced at `priced_at`.
    void price_job(const JobSpec& job, double priced_at,
                   std::span<MachineFigures> out) const;
    /// Every job's figures at its submit time, before anything is admitted;
    /// throws bad_request when one is not finite or the request could make
    /// `primary_spent` non-finite.
    [[nodiscard]] std::vector<MachineFigures> price_request(
        const std::vector<JobSpec>& jobs) const;
    [[nodiscard]] Routed route(int cores, std::span<const MachineFigures> figures);
    [[nodiscard]] ga::io::JsonValue submit_one(
        const JobSpec& job, std::span<const MachineFigures> figures);
    [[nodiscard]] JobSpec generate_job(ga::util::Rng& rng, double submit_s) const;

    // ---- configuration (immutable after construction) -------------------
    std::string fingerprint_;
    ga::sim::SimOptions options_;
    std::vector<ga::sim::ClusterConfig> cluster_cfgs_;
    std::shared_ptr<ga::workload::CrossPlatformPredictor> predictor_;
    std::vector<std::size_t> predictor_index_;  ///< cluster -> predictor slot
    std::unique_ptr<const ga::sim::RunSetup> setup_;
    /// Session copies of the defined currencies' accountants (sorted by
    /// currency) for quote-time pricing; the Ledger holds its own instances
    /// for the authoritative charge path.
    std::vector<std::pair<std::string, std::unique_ptr<const ga::acct::Accountant>>>
        currency_pricers_;
    std::size_t generate_users_ = 1;  ///< user-pool size for the generate path
    std::size_t grid_points_ = 1;

    // ---- live state (snapshot surface) -----------------------------------
    double clock_ = 0.0;
    std::uint64_t next_seq_ = 1;
    ga::util::Rng rng_;
    std::uint64_t jobs_submitted_ = 0;
    std::uint64_t jobs_rejected_ = 0;
    double primary_spent_ = 0.0;
    /// Cluster pools, queues and running jobs (over `cluster_cfgs_` and
    /// `*setup_`, which outlive it).
    ga::sim::Scheduler<ga::sim::IndexedQueues> core_;
    ga::acct::Ledger ledger_;
    bool shutdown_ = false;

    // ---- observability (not part of the snapshot surface) ----------------
    // Logical request tallies for the `metrics` verb. Deliberately outside
    // export_state(): a restored session starts counting afresh, and the
    // golden-transcript contract (same scenario + lines -> same bytes)
    // still holds because the tallies are a pure function of the lines
    // handled since construction.
    std::uint64_t requests_served_ = 0;
    std::uint64_t request_errors_ = 0;
};

}  // namespace ga::service
