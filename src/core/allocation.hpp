// Fungible allocations and the multi-currency accounting ledger (§3.1).
//
// An Allocation is a budget in one currency — the unit of one accounting
// method (e.g. gCO2e under CBA, core-hours under Runtime) — redeemable on
// any machine the currency's accountant can price. An account holds a set
// of *named* allocations, so one user can hold core-hours AND carbon
// credits simultaneously (the paper's titular dual-budget incentive): a
// multi-currency charge prices the job under every currency the account
// holds and admits it only when all of them can pay.
//
// The Ledger tracks per-user accounts and the transaction history the
// green-ACCESS frontend shows; every mutation and accessor takes an
// internal lock, so one shared Ledger is sound under concurrent charges
// (e.g. from the scenario-sweep thread pool).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/accounting.hpp"
#include "util/thread_annotations.hpp"

namespace ga::acct {

/// One spend (or refund) record. Self-describing for audit: the currency
/// debited, the accountant's unit, and the provisioned resources all ride
/// along with the price.
struct Transaction {
    std::uint64_t id = 0;
    std::string user;
    std::string machine;
    std::string currency;  ///< account holding debited (credited for refunds)
    std::string unit;      ///< pricing accountant's unit string
    double cost = 0.0;     ///< negative for refunds
    double duration_s = 0.0;
    double energy_j = 0.0;
    double priced_at_s = 0.0;
    int cores = 0;
    int gpus = 0;
    /// For refund records: the id of the transaction being reversed
    /// (0 for ordinary charges).
    std::uint64_t refund_of = 0;

    bool operator==(const Transaction&) const = default;
};

/// A single budget with overdraft protection.
class Allocation {
public:
    /// Grants `budget` units; must be positive.
    explicit Allocation(double budget);

    [[nodiscard]] double budget() const noexcept { return budget_; }
    [[nodiscard]] double spent() const noexcept { return spent_; }
    [[nodiscard]] double remaining() const noexcept { return budget_ - spent_; }
    [[nodiscard]] bool can_afford(double cost) const noexcept {
        return cost <= remaining();
    }

    /// Deducts `cost`; returns false (and charges nothing) when the budget
    /// cannot cover it. Negative costs are rejected.
    [[nodiscard]] bool charge(double cost);

    /// Adds budget (e.g. a supplement award).
    void grant(double extra);

    /// Returns `amount` of previously charged spend (an outage refund, a
    /// disputed bill). The amount must not exceed what was spent.
    void refund(double amount);

    /// Rebuilds a mid-life allocation from snapshot state. Unlike the
    /// constructor this accepts spent > 0; it enforces the live-ledger
    /// invariants (budget positive and finite, 0 <= spent <= budget) so a
    /// tampered snapshot cannot smuggle in an overdrafted account.
    [[nodiscard]] static Allocation restore(double budget, double spent);

private:
    double budget_;
    double spent_ = 0.0;
};

/// Result of a multi-currency charge: the per-currency prices, and — when
/// one currency could not pay — which one blocked admission.
struct ChargeOutcome {
    bool admitted = false;
    std::string refused_currency;        ///< first currency that could not pay
    std::map<std::string, double> costs; ///< per-currency price (always filled)
    /// Transaction ids recorded on admission, one per currency in sorted
    /// currency order (empty on refusal) — the handle a caller needs to
    /// refund this charge later.
    std::vector<std::uint64_t> transactions;
};

/// Value-type image of a Ledger for durable snapshots (service/snapshot).
/// Produced by `Ledger::export_state` under the ledger lock and consumed by
/// `Ledger::import_state`; holds no live accountants — currencies are
/// re-bound from their recorded registry specs on import, so only
/// spec-defined currencies are exportable.
struct LedgerState {
    struct AllocationState {
        double budget = 0.0;
        double spent = 0.0;

        bool operator==(const AllocationState&) const = default;
    };

    struct AccountState {
        std::string user;
        /// currency -> allocation, sorted by currency.
        std::vector<std::pair<std::string, AllocationState>> holdings;
        std::uint64_t first_valid_tx = 1;

        bool operator==(const AccountState&) const = default;
    };

    /// currency -> registry spec, sorted by currency.
    std::vector<std::pair<std::string, AccountantSpec>> currencies;
    /// Accounts in ledger (creation) order.
    std::vector<AccountState> accounts;
    /// Full audit trail, ids strictly increasing.
    std::vector<Transaction> transactions;
    /// Ids of refunded transactions, sorted.
    std::vector<std::uint64_t> refunded;
    std::uint64_t next_id = 1;

    bool operator==(const LedgerState&) const = default;
};

/// Per-user multi-currency accounts plus an audit trail. Thread-safe: all
/// members lock internally, and concurrent charges against one account sum
/// exactly (each admission check and debit is atomic).
class Ledger {
public:
    /// Currency name used by the single-budget `create_account` overload.
    static constexpr std::string_view kDefaultCurrency = "credits";

    // ---- currency definitions -------------------------------------------
    /// Binds a currency name to the accountant that prices it; required
    /// before multi-currency charges in that currency. Redefining replaces
    /// the accountant.
    void define_currency(std::string currency,
                         std::shared_ptr<const Accountant> accountant);

    /// Convenience: builds the accountant from the registry.
    void define_currency(std::string currency, const AccountantSpec& spec);

    [[nodiscard]] bool has_currency(std::string_view currency) const;

    /// All defined currency names, sorted.
    [[nodiscard]] std::vector<std::string> currencies() const;

    // ---- accounts -------------------------------------------------------
    /// Creates a single-currency account under `kDefaultCurrency`;
    /// replaces any existing account for the user.
    void create_account(const std::string& user, double budget);

    /// Creates an account holding one allocation per entry (e.g.
    /// {{"core-hours", 5e4}, {"gCO2e", 1e4}}); replaces any existing
    /// account. Budgets must be positive and the map non-empty.
    void create_account(const std::string& user,
                        const std::map<std::string, double>& budgets);

    [[nodiscard]] bool has_account(const std::string& user) const;

    /// Currencies the user's account holds, sorted. Throws RuntimeError for
    /// unknown users.
    [[nodiscard]] std::vector<std::string> account_currencies(
        const std::string& user) const;

    /// Remaining budget in one currency; throws RuntimeError for unknown
    /// users or a currency the account does not hold.
    [[nodiscard]] double remaining(const std::string& user,
                                   std::string_view currency) const;
    [[nodiscard]] double spent(const std::string& user,
                               std::string_view currency) const;

    /// Single-holding convenience: the account's sole allocation. Throws
    /// RuntimeError for unknown users and for multi-currency accounts
    /// (name the currency explicitly there).
    [[nodiscard]] double remaining(const std::string& user) const;
    [[nodiscard]] double spent(const std::string& user) const;

    /// Supplements one holding; throws for unknown user/currency.
    void grant(const std::string& user, std::string_view currency,
               double extra);

    // ---- charging -------------------------------------------------------
    /// Single-accountant charge against the account's sole holding (the
    /// pre-multi-currency API). Prices the job with `accountant` on `m` and
    /// debits the allocation. Returns the cost on success; returns -1.0
    /// when the user cannot afford it (nothing is charged). Throws for
    /// unknown users and for multi-currency accounts.
    double charge(const std::string& user, const Accountant& accountant,
                  const JobUsage& usage, const ga::machine::CatalogEntry& m);

    /// Multi-currency charge: prices `usage` under *every* currency the
    /// account holds (each must be defined via `define_currency`) and
    /// admits only if all can pay — the dual-budget incentive. On admission
    /// every holding is debited and one transaction per currency is
    /// recorded; on refusal nothing is charged and `refused_currency` names
    /// the first holding (in sorted currency order) that could not pay.
    /// Throws for unknown users and undefined held currencies.
    ChargeOutcome charge(const std::string& user, const JobUsage& usage,
                         const ga::machine::CatalogEntry& m);

    /// Reverses transaction `transaction_id`: returns its cost to the
    /// currency it was debited from and records a negative-cost transaction
    /// (with `refund_of` set) in the history. Returns the refund
    /// transaction's id. Throws RuntimeError for unknown users, unknown or
    /// foreign transaction ids, refunds of refunds, and double refunds.
    std::uint64_t refund(const std::string& user, std::uint64_t transaction_id);

    /// Snapshot of the audit trail (copy — safe under concurrent charges).
    [[nodiscard]] std::vector<Transaction> history() const;

    /// Length of the audit trail, without copying it.
    [[nodiscard]] std::size_t history_size() const;

    /// Net recorded cost for one user in one currency (refunds subtract).
    [[nodiscard]] double total_cost(const std::string& user,
                                    std::string_view currency) const;

    /// Net recorded cost for one user across all currencies. Meaningful for
    /// single-currency accounts; multi-currency sums are unit-mixed.
    [[nodiscard]] double total_cost(const std::string& user) const;

    // ---- durable state --------------------------------------------------
    /// Value snapshot of the whole ledger, taken atomically under the
    /// ledger lock — snapshot writers consume this copy and never iterate
    /// the guarded maps directly. Throws RuntimeError when a currency was
    /// defined from a raw accountant rather than a registry spec: such a
    /// currency cannot be re-bound on import, so the ledger is declared
    /// non-snapshottable rather than silently dropping it.
    [[nodiscard]] LedgerState export_state() const;

    /// Replaces the entire ledger contents with `state`. Accountants are
    /// rebuilt from the registry *before* the ledger lock is taken
    /// (registry locks are GA_ACQUIRED_BEFORE the ledger lock in the
    /// declared hierarchy). Throws RuntimeError on malformed state —
    /// unknown accountant names, non-increasing transaction ids, duplicate
    /// users, invalid allocations — leaving the ledger unchanged.
    void import_state(const LedgerState& state);

private:
    struct Account {
        std::string user;
        std::map<std::string, Allocation> holdings;  // currency -> budget
        /// First transaction id issued after this account (re)creation.
        /// Transactions below the watermark belong to a replaced account
        /// and are not refundable against the fresh allocations.
        std::uint64_t first_valid_tx = 1;
    };

    [[nodiscard]] Account* find_account(const std::string& user)
        GA_REQUIRES(mutex_);
    [[nodiscard]] const Account* find_account(const std::string& user) const
        GA_REQUIRES(mutex_);

    /// The sole holding of a single-currency account (locked callers only);
    /// throws RuntimeError for multi-currency accounts.
    [[nodiscard]] static const Allocation& sole_holding(const Account& account);
    [[nodiscard]] static Allocation& sole_holding(Account& account);

    /// The account's holding in one currency (locked callers only); throws
    /// RuntimeError when the account does not hold it.
    [[nodiscard]] static const Allocation& holding_of(const Account& account,
                                                      std::string_view currency);
    [[nodiscard]] static Allocation& holding_of(Account& account,
                                                std::string_view currency);

    Transaction record(const std::string& user, std::string machine,
                       std::string currency, std::string_view unit,
                       double cost, const JobUsage& usage) GA_REQUIRES(mutex_);

    // Accounting sits above infrastructure in the declared lock hierarchy
    // (docs/ARCHITECTURE.md, "Lock hierarchy"): if ledger and pool locks
    // are ever both held, the ledger lock is taken first.
    mutable ga::util::Mutex mutex_
        GA_ACQUIRED_BEFORE(ga::util::ThreadPool::mutex_);
    std::map<std::string, std::shared_ptr<const Accountant>, std::less<>>
        pricers_ GA_GUARDED_BY(mutex_);
    /// Registry spec each currency was defined from, kept in lockstep with
    /// `pricers_` so export_state can re-bind currencies on import. Absent
    /// for currencies defined from a raw accountant (export then throws).
    std::map<std::string, AccountantSpec, std::less<>> pricer_specs_
        GA_GUARDED_BY(mutex_);
    std::vector<Account> accounts_ GA_GUARDED_BY(mutex_);
    /// Append-only, ids strictly increasing.
    std::vector<Transaction> history_ GA_GUARDED_BY(mutex_);
    /// O(1) double-refund check.
    std::unordered_set<std::uint64_t> refunded_ GA_GUARDED_BY(mutex_);
    std::uint64_t next_id_ GA_GUARDED_BY(mutex_) = 1;
};

}  // namespace ga::acct
