#include "core/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace ga::acct {

namespace {

/// Accounting instruments. Handles are resolved once per process via the
/// function-local static, always before the ledger lock is taken; the
/// `inc()` calls themselves never lock, so incrementing inside a locked
/// region cannot create a new lock-order edge.
struct LedgerMetrics {
    ga::obs::Counter& charges_admitted;
    ga::obs::Counter& charges_refused;
    ga::obs::Counter& refunds;
    ga::obs::Counter& lock_contention;
};

LedgerMetrics& ledger_metrics() {
    auto& registry = ga::obs::Registry::global();
    static LedgerMetrics metrics{
        registry.counter_handle("ledger.charges_admitted"),
        registry.counter_handle("ledger.charges_refused"),
        registry.counter_handle("ledger.refunds"),
        registry.counter_handle("ledger.lock_contention"),
    };
    return metrics;
}

/// Samples whether the ledger lock is currently held by someone else, just
/// before this thread blocks on it. A time-of-check signal, not an exact
/// wait count — but it never perturbs admission, and when metrics are off
/// it costs a single relaxed load.
void probe_ledger_contention(ga::util::Mutex& mutex,
                             ga::obs::Counter& contention) {
    if (!ga::obs::metrics_enabled()) return;
    if (mutex.try_lock()) {
        mutex.unlock();
    } else {
        contention.inc();
    }
}

}  // namespace

Allocation::Allocation(double budget) : budget_(budget) {
    GA_REQUIRE(budget > 0.0, "allocation: budget must be positive");
}

bool Allocation::charge(double cost) {
    GA_REQUIRE(cost >= 0.0, "allocation: cost must be non-negative");
    if (!can_afford(cost)) return false;
    spent_ += cost;
    return true;
}

void Allocation::grant(double extra) {
    GA_REQUIRE(extra >= 0.0, "allocation: grant must be non-negative");
    budget_ += extra;
}

void Allocation::refund(double amount) {
    GA_REQUIRE(amount >= 0.0, "allocation: refund must be non-negative");
    GA_REQUIRE(amount <= spent_, "allocation: refund exceeds spent amount");
    spent_ -= amount;
}

Allocation Allocation::restore(double budget, double spent) {
    GA_REQUIRE(std::isfinite(budget) && std::isfinite(spent),
               "allocation: restored budget/spent must be finite");
    GA_REQUIRE(spent >= 0.0, "allocation: restored spent must be non-negative");
    GA_REQUIRE(spent <= budget, "allocation: restored spent exceeds budget");
    Allocation a(budget);  // enforces budget > 0
    a.spent_ = spent;
    return a;
}

// ------------------------------------------------------------------ Ledger

void Ledger::define_currency(std::string currency,
                             std::shared_ptr<const Accountant> accountant) {
    GA_REQUIRE(!currency.empty(), "ledger: currency name must not be empty");
    GA_REQUIRE(accountant != nullptr, "ledger: currency accountant required");
    const ga::util::LockGuard lock(mutex_);
    // A raw accountant has no registry spec to re-bind from on import;
    // drop any stale spec so export_state refuses rather than lies.
    pricer_specs_.erase(currency);
    pricers_.insert_or_assign(std::move(currency), std::move(accountant));
}

void Ledger::define_currency(std::string currency, const AccountantSpec& spec) {
    GA_REQUIRE(!currency.empty(), "ledger: currency name must not be empty");
    // Build from the registry before locking: registry locks sit above the
    // ledger lock in the declared hierarchy.
    std::shared_ptr<const Accountant> accountant(
        AccountantRegistry::global().make(spec));
    const ga::util::LockGuard lock(mutex_);
    pricer_specs_.insert_or_assign(currency, spec);
    pricers_.insert_or_assign(std::move(currency), std::move(accountant));
}

bool Ledger::has_currency(std::string_view currency) const {
    const ga::util::LockGuard lock(mutex_);
    return pricers_.find(currency) != pricers_.end();
}

std::vector<std::string> Ledger::currencies() const {
    const ga::util::LockGuard lock(mutex_);
    std::vector<std::string> out;
    out.reserve(pricers_.size());
    for (const auto& [name, pricer] : pricers_) out.push_back(name);
    return out;
}

void Ledger::create_account(const std::string& user, double budget) {
    create_account(user, {{std::string(kDefaultCurrency), budget}});
}

void Ledger::create_account(const std::string& user,
                            const std::map<std::string, double>& budgets) {
    GA_REQUIRE(!budgets.empty(), "ledger: account needs at least one currency");
    std::map<std::string, Allocation> holdings;
    for (const auto& [currency, budget] : budgets) {
        GA_REQUIRE(!currency.empty(), "ledger: currency name must not be empty");
        holdings.emplace(currency, Allocation(budget));
    }
    const ga::util::LockGuard lock(mutex_);
    if (Account* existing = find_account(user)) {
        existing->holdings = std::move(holdings);
        existing->first_valid_tx = next_id_;
        return;
    }
    accounts_.push_back(Account{user, std::move(holdings), next_id_});
}

bool Ledger::has_account(const std::string& user) const {
    const ga::util::LockGuard lock(mutex_);
    return find_account(user) != nullptr;
}

Ledger::Account* Ledger::find_account(const std::string& user) {
    const auto it = std::find_if(accounts_.begin(), accounts_.end(),
                                 [&user](const Account& a) { return a.user == user; });
    return it == accounts_.end() ? nullptr : &*it;
}

const Ledger::Account* Ledger::find_account(const std::string& user) const {
    const auto it = std::find_if(accounts_.begin(), accounts_.end(),
                                 [&user](const Account& a) { return a.user == user; });
    return it == accounts_.end() ? nullptr : &*it;
}

namespace {

[[noreturn]] void throw_unknown_user(const std::string& user) {
    throw ga::util::RuntimeError("ledger: unknown user " + user);
}

}  // namespace

const Allocation& Ledger::sole_holding(const Account& account) {
    if (account.holdings.size() != 1) {
        throw ga::util::RuntimeError(
            "ledger: account '" + account.user +
            "' holds multiple currencies; name one explicitly");
    }
    return account.holdings.begin()->second;
}

Allocation& Ledger::sole_holding(Account& account) {
    return const_cast<Allocation&>(
        sole_holding(static_cast<const Account&>(account)));
}

const Allocation& Ledger::holding_of(const Account& account,
                                     std::string_view currency) {
    const auto it = account.holdings.find(std::string(currency));
    if (it == account.holdings.end()) {
        throw ga::util::RuntimeError("ledger: user " + account.user +
                                     " holds no " + std::string(currency));
    }
    return it->second;
}

Allocation& Ledger::holding_of(Account& account, std::string_view currency) {
    return const_cast<Allocation&>(
        holding_of(static_cast<const Account&>(account), currency));
}

std::vector<std::string> Ledger::account_currencies(
    const std::string& user) const {
    const ga::util::LockGuard lock(mutex_);
    const Account* a = find_account(user);
    if (a == nullptr) throw_unknown_user(user);
    std::vector<std::string> out;
    out.reserve(a->holdings.size());
    for (const auto& [currency, holding] : a->holdings) out.push_back(currency);
    return out;
}

double Ledger::remaining(const std::string& user,
                         std::string_view currency) const {
    const ga::util::LockGuard lock(mutex_);
    const Account* a = find_account(user);
    if (a == nullptr) throw_unknown_user(user);
    return holding_of(*a, currency).remaining();
}

double Ledger::spent(const std::string& user, std::string_view currency) const {
    const ga::util::LockGuard lock(mutex_);
    const Account* a = find_account(user);
    if (a == nullptr) throw_unknown_user(user);
    return holding_of(*a, currency).spent();
}

double Ledger::remaining(const std::string& user) const {
    const ga::util::LockGuard lock(mutex_);
    const Account* a = find_account(user);
    if (a == nullptr) throw_unknown_user(user);
    return sole_holding(*a).remaining();
}

double Ledger::spent(const std::string& user) const {
    const ga::util::LockGuard lock(mutex_);
    const Account* a = find_account(user);
    if (a == nullptr) throw_unknown_user(user);
    return sole_holding(*a).spent();
}

void Ledger::grant(const std::string& user, std::string_view currency,
                   double extra) {
    const ga::util::LockGuard lock(mutex_);
    Account* a = find_account(user);
    if (a == nullptr) throw_unknown_user(user);
    holding_of(*a, currency).grant(extra);
}

Transaction Ledger::record(const std::string& user, std::string machine,
                           std::string currency, std::string_view unit,
                           double cost, const JobUsage& usage) {
    Transaction t;
    t.id = next_id_++;
    t.user = user;
    t.machine = std::move(machine);
    t.currency = std::move(currency);
    t.unit = std::string(unit);
    t.cost = cost;
    t.duration_s = usage.duration_s;
    t.energy_j = usage.energy_j;
    t.priced_at_s = usage.priced_at_s;
    t.cores = usage.cores;
    t.gpus = usage.gpus;
    return t;
}

double Ledger::charge(const std::string& user, const Accountant& accountant,
                      const JobUsage& usage, const ga::machine::CatalogEntry& m) {
    // Price outside the lock: accountants are immutable and may be slow.
    const double cost = accountant.charge(usage, m);
    LedgerMetrics& metrics = ledger_metrics();
    probe_ledger_contention(mutex_, metrics.lock_contention);
    const ga::util::LockGuard lock(mutex_);
    Account* a = find_account(user);
    if (a == nullptr) throw_unknown_user(user);
    auto& holding = sole_holding(*a);
    if (!holding.charge(cost)) {
        metrics.charges_refused.inc();
        return -1.0;
    }
    history_.push_back(record(user, m.node.name,
                              a->holdings.begin()->first, accountant.unit(),
                              cost, usage));
    metrics.charges_admitted.inc();
    return cost;
}

ChargeOutcome Ledger::charge(const std::string& user, const JobUsage& usage,
                             const ga::machine::CatalogEntry& m) {
    // Snapshot the pricers for the user's holdings, price outside the lock
    // (user accountants may be slow), then re-lock for the atomic
    // all-or-nothing admission and debit. If a concurrent create_account or
    // define_currency changed the holding set or a pricer between the two
    // locks, the quote is stale — re-snapshot and re-price rather than
    // admit a job priced against a replaced configuration. The retry cap
    // turns a pathological reconfiguration storm into an error instead of
    // a livelock.
    LedgerMetrics& metrics = ledger_metrics();
    for (int attempt = 0; attempt < 64; ++attempt) {
        ChargeOutcome outcome;
        std::vector<std::pair<std::string, std::shared_ptr<const Accountant>>>
            pricers;
        {
            const ga::util::LockGuard lock(mutex_);
            const Account* a = find_account(user);
            if (a == nullptr) throw_unknown_user(user);
            pricers.reserve(a->holdings.size());
            for (const auto& [currency, holding] : a->holdings) {
                const auto it = pricers_.find(currency);
                if (it == pricers_.end()) {
                    throw ga::util::RuntimeError(
                        "ledger: currency '" + currency +
                        "' has no accountant; call define_currency first");
                }
                pricers.emplace_back(currency, it->second);
            }
        }
        for (const auto& [currency, pricer] : pricers) {
            outcome.costs.emplace(currency, pricer->charge(usage, m));
        }
        // Reject negative quotes before touching any holding: a custom
        // accountant pricing one leg negative would otherwise debit the
        // earlier currencies and then throw mid-debit, breaking the
        // all-or-nothing contract.
        for (const auto& [currency, cost] : outcome.costs) {
            GA_REQUIRE(cost >= 0.0, "ledger: accountant for '" + currency +
                                        "' quoted a negative cost");
        }

        probe_ledger_contention(mutex_, metrics.lock_contention);
        const ga::util::LockGuard lock(mutex_);
        Account* a = find_account(user);
        if (a == nullptr) throw_unknown_user(user);
        if (a->holdings.size() != pricers.size()) continue;  // set changed
        bool stale = false;
        for (const auto& [currency, pricer] : pricers) {
            if (a->holdings.find(currency) == a->holdings.end()) {
                stale = true;  // holding added/removed since the quote
                break;
            }
            const auto pit = pricers_.find(currency);
            if (pit == pricers_.end() || pit->second != pricer) {
                stale = true;  // currency re-defined: the quote is stale
                break;
            }
        }
        if (stale) continue;
        for (const auto& [currency, pricer] : pricers) {
            if (!a->holdings.at(currency).can_afford(
                    outcome.costs.at(currency))) {
                outcome.refused_currency = currency;
                metrics.charges_refused.inc();
                return outcome;  // all-or-nothing: nothing was debited
            }
        }
        for (const auto& [currency, pricer] : pricers) {
            const double cost = outcome.costs.at(currency);
            const bool ok = a->holdings.at(currency).charge(cost);
            GA_REQUIRE(ok,
                       "ledger: affordability check raced a concurrent debit");
            history_.push_back(record(user, m.node.name, currency,
                                      pricer->unit(), cost, usage));
            outcome.transactions.push_back(history_.back().id);
        }
        outcome.admitted = true;
        metrics.charges_admitted.inc();
        return outcome;
    }
    throw ga::util::RuntimeError(
        "ledger: charge for " + user +
        " kept racing account/currency reconfiguration");
}

std::uint64_t Ledger::refund(const std::string& user,
                             std::uint64_t transaction_id) {
    LedgerMetrics& metrics = ledger_metrics();
    probe_ledger_contention(mutex_, metrics.lock_contention);
    const ga::util::LockGuard lock(mutex_);
    Account* a = find_account(user);
    if (a == nullptr) throw_unknown_user(user);
    // history_ is append-only with strictly increasing ids, so the original
    // is found in O(log n); the refunded_ set makes the double-refund check
    // O(1) — a refund never scans the (unboundedly growing) audit trail.
    const auto it = std::lower_bound(
        history_.begin(), history_.end(), transaction_id,
        [](const Transaction& t, std::uint64_t id) { return t.id < id; });
    if (it == history_.end() || it->id != transaction_id ||
        it->user != user) {
        throw ga::util::RuntimeError("ledger: no transaction " +
                                     std::to_string(transaction_id) +
                                     " for user " + user);
    }
    if (transaction_id < a->first_valid_tx) {
        // The account was replaced since this charge: crediting the fresh
        // allocation for spend it never made would mint budget.
        throw ga::util::RuntimeError("ledger: transaction " +
                                     std::to_string(transaction_id) +
                                     " predates the current account of " +
                                     user);
    }
    // Identify refunds by their back-pointer, not by cost sign: a refunded
    // zero-cost charge produces a -0.0 refund record that a sign test would
    // happily refund again, chaining forever.
    if (it->refund_of != 0) {
        throw ga::util::RuntimeError("ledger: cannot refund a refund");
    }
    if (refunded_.find(transaction_id) != refunded_.end()) {
        throw ga::util::RuntimeError("ledger: transaction " +
                                     std::to_string(transaction_id) +
                                     " already refunded");
    }
    holding_of(*a, it->currency).refund(it->cost);
    refunded_.insert(transaction_id);

    Transaction t = *it;  // mirror the original's audit fields
    t.id = next_id_++;
    t.cost = -t.cost;
    t.refund_of = transaction_id;
    history_.push_back(std::move(t));
    metrics.refunds.inc();
    return history_.back().id;
}

std::vector<Transaction> Ledger::history() const {
    const ga::util::LockGuard lock(mutex_);
    return history_;
}

std::size_t Ledger::history_size() const {
    const ga::util::LockGuard lock(mutex_);
    return history_.size();
}

double Ledger::total_cost(const std::string& user,
                          std::string_view currency) const {
    const ga::util::LockGuard lock(mutex_);
    double total = 0.0;
    for (const auto& t : history_) {
        if (t.user == user && t.currency == currency) total += t.cost;
    }
    return total;
}

double Ledger::total_cost(const std::string& user) const {
    const ga::util::LockGuard lock(mutex_);
    double total = 0.0;
    for (const auto& t : history_) {
        if (t.user == user) total += t.cost;
    }
    return total;
}

LedgerState Ledger::export_state() const {
    const ga::util::LockGuard lock(mutex_);
    LedgerState state;
    state.currencies.reserve(pricers_.size());
    for (const auto& [currency, pricer] : pricers_) {
        const auto it = pricer_specs_.find(currency);
        if (it == pricer_specs_.end()) {
            throw ga::util::RuntimeError(
                "ledger: currency '" + currency +
                "' was defined from a raw accountant, not a registry spec; "
                "it cannot be re-bound on import, so this ledger is not "
                "snapshottable");
        }
        state.currencies.emplace_back(currency, it->second);
    }
    state.accounts.reserve(accounts_.size());
    for (const auto& account : accounts_) {
        LedgerState::AccountState as;
        as.user = account.user;
        as.first_valid_tx = account.first_valid_tx;
        as.holdings.reserve(account.holdings.size());
        for (const auto& [currency, holding] : account.holdings) {
            as.holdings.emplace_back(
                currency,
                LedgerState::AllocationState{holding.budget(), holding.spent()});
        }
        state.accounts.push_back(std::move(as));
    }
    state.transactions = history_;
    state.refunded.assign(refunded_.begin(), refunded_.end());
    std::sort(state.refunded.begin(), state.refunded.end());
    state.next_id = next_id_;
    return state;
}

void Ledger::import_state(const LedgerState& state) {
    // Validate and rebuild everything into locals first: the registry is
    // consulted before the ledger lock is taken (registry locks order
    // before the ledger lock), and a throw leaves this ledger untouched.
    std::map<std::string, std::shared_ptr<const Accountant>, std::less<>>
        pricers;
    std::map<std::string, AccountantSpec, std::less<>> specs;
    for (const auto& [currency, spec] : state.currencies) {
        GA_REQUIRE(!currency.empty(), "ledger: currency name must not be empty");
        pricers.insert_or_assign(currency,
                                 std::shared_ptr<const Accountant>(
                                     AccountantRegistry::global().make(spec)));
        specs.insert_or_assign(currency, spec);
    }

    std::uint64_t prev_id = 0;
    for (const auto& t : state.transactions) {
        if (t.id <= prev_id) {
            throw ga::util::RuntimeError(
                "ledger: snapshot transaction ids not strictly increasing "
                "at id " + std::to_string(t.id));
        }
        prev_id = t.id;
    }
    if (state.next_id <= prev_id) {
        throw ga::util::RuntimeError(
            "ledger: snapshot next_id " + std::to_string(state.next_id) +
            " does not exceed the last transaction id " +
            std::to_string(prev_id));
    }

    std::vector<Account> accounts;
    accounts.reserve(state.accounts.size());
    std::unordered_set<std::string> seen_users;
    for (const auto& as : state.accounts) {
        GA_REQUIRE(!as.user.empty(), "ledger: snapshot account without a user");
        if (!seen_users.insert(as.user).second) {
            throw ga::util::RuntimeError("ledger: snapshot has duplicate "
                                         "accounts for user " + as.user);
        }
        Account account;
        account.user = as.user;
        account.first_valid_tx = as.first_valid_tx;
        for (const auto& [currency, alloc] : as.holdings) {
            GA_REQUIRE(!currency.empty(),
                       "ledger: currency name must not be empty");
            account.holdings.emplace(
                currency, Allocation::restore(alloc.budget, alloc.spent));
        }
        GA_REQUIRE(!account.holdings.empty(),
                   "ledger: account needs at least one currency");
        accounts.push_back(std::move(account));
    }

    const ga::util::LockGuard lock(mutex_);
    pricers_ = std::move(pricers);
    pricer_specs_ = std::move(specs);
    accounts_ = std::move(accounts);
    history_ = state.transactions;
    refunded_.clear();
    refunded_.insert(state.refunded.begin(), state.refunded.end());
    next_id_ = state.next_id;
}

}  // namespace ga::acct
