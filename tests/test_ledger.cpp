// Tests for the multi-currency ledger (core/allocation.hpp): named
// allocations per account, dual-budget all-or-nothing charges, per-currency
// remaining/spent/grant, refunds as negative-cost transactions, the
// self-describing audit trail, edge cases (exact-budget charge, charge
// after failed charge, unknown-user refund), and thread-safety (concurrent
// charges from N threads summing exactly).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/accounting.hpp"
#include "core/allocation.hpp"
#include "machine/catalog.hpp"
#include "util/error.hpp"

namespace {

namespace ac = ga::acct;
namespace mc = ga::machine;

ac::JobUsage cpu_job(double seconds, double joules, int cores) {
    ac::JobUsage u;
    u.duration_s = seconds;
    u.energy_j = joules;
    u.cores = cores;
    u.priced_at_s = 120.0;
    return u;
}

/// Defines "core-hours" (Runtime) and "gCO2e" (CBA) — the paper's titular
/// currency pair. (Ledger owns a mutex, so it is configured in place.)
void define_dual_currencies(ac::Ledger& ledger) {
    ledger.define_currency("core-hours", {"Runtime", {}});
    ledger.define_currency("gCO2e", {"CBA", {}});
}

/// Defines "credits", priced in core-hours by Runtime accounting: the one
/// currency of the single-budget accounts below.
void define_credits(ac::Ledger& ledger) {
    ledger.define_currency("credits", {"Runtime", {}});
}

/// A single-budget account's holdings: `budget` credits.
std::map<std::string, double> credits(double budget) {
    return {{"credits", budget}};
}

// ------------------------------------------------------------- currencies
TEST(LedgerCurrencies, DefinitionAndListing) {
    ac::Ledger ledger;
    define_dual_currencies(ledger);
    EXPECT_TRUE(ledger.has_currency("core-hours"));
    EXPECT_TRUE(ledger.has_currency("gCO2e"));
    EXPECT_FALSE(ledger.has_currency("doubloons"));
    EXPECT_EQ(ledger.currencies(),
              (std::vector<std::string>{"core-hours", "gCO2e"}));
    EXPECT_THROW(
        ledger.define_currency("", {"Runtime", {}}),
        ga::util::PreconditionError);
    // A binder that builds no accountant defines nothing.
    const ac::AccountantBinder null_binder = [](const ac::AccountantSpec&) {
        return std::unique_ptr<const ac::Accountant>{};
    };
    EXPECT_THROW(ledger.define_currency("x", {"Runtime", {}}, null_binder),
                 ga::util::PreconditionError);
    EXPECT_FALSE(ledger.has_currency("x"));
}

// ------------------------------------------------- multi-currency accounts
TEST(LedgerAccounts, MultiCurrencyCreateAndPerCurrencyBalances) {
    ac::Ledger ledger;
    define_dual_currencies(ledger);
    ledger.create_account("alice", {{"core-hours", 5e4}, {"gCO2e", 1e4}});
    EXPECT_TRUE(ledger.has_account("alice"));
    EXPECT_EQ(ledger.account_currencies("alice"),
              (std::vector<std::string>{"core-hours", "gCO2e"}));
    EXPECT_DOUBLE_EQ(ledger.remaining("alice", "core-hours"), 5e4);
    EXPECT_DOUBLE_EQ(ledger.remaining("alice", "gCO2e"), 1e4);
    EXPECT_DOUBLE_EQ(ledger.spent("alice", "gCO2e"), 0.0);
    // Unknown users and unheld currencies throw.
    EXPECT_THROW((void)ledger.remaining("ghost", "gCO2e"),
                 ga::util::RuntimeError);
    EXPECT_THROW((void)ledger.remaining("alice", "doubloons"),
                 ga::util::RuntimeError);
    EXPECT_THROW(ledger.create_account("bob", std::map<std::string, double>{}),
                 ga::util::PreconditionError);
}

TEST(LedgerAccounts, GrantSupplementsOneHolding) {
    ac::Ledger ledger;
    define_dual_currencies(ledger);
    ledger.create_account("alice", {{"core-hours", 100.0}, {"gCO2e", 50.0}});
    ledger.grant("alice", "gCO2e", 25.0);
    EXPECT_DOUBLE_EQ(ledger.remaining("alice", "gCO2e"), 75.0);
    EXPECT_DOUBLE_EQ(ledger.remaining("alice", "core-hours"), 100.0);
    EXPECT_THROW(ledger.grant("alice", "doubloons", 1.0),
                 ga::util::RuntimeError);
}

TEST(LedgerAccounts, IndexFollowsReplaceRecreateAndImport) {
    // Accounts are found through a per-user index, while export_state keeps
    // creation order: a replaced account keeps its place, a re-created one
    // after an import is appended, and an import rebuilds the index.
    ac::Ledger ledger;
    define_credits(ledger);
    for (int i = 0; i < 200; ++i) {
        ledger.create_account("u" + std::to_string(i), credits(1.0 + i));
    }
    ledger.create_account("u57", credits(1000.0));  // replace in place
    const ac::LedgerState state = ledger.export_state();
    ASSERT_EQ(state.accounts.size(), 200u);
    for (int i = 0; i < 200; ++i) {
        const std::string user = "u" + std::to_string(i);
        EXPECT_EQ(state.accounts[static_cast<std::size_t>(i)].user, user);
        EXPECT_DOUBLE_EQ(ledger.remaining(user, "credits"),
                         i == 57 ? 1000.0 : 1.0 + i);
    }
    EXPECT_FALSE(ledger.has_account("u200"));

    // An import replaces every account: users only the old ledger held are
    // gone, and the imported ones are found at their positions.
    ac::Ledger restored;
    define_credits(restored);
    restored.create_account("old", credits(5.0));
    restored.import_state(state);
    EXPECT_FALSE(restored.has_account("old"));
    EXPECT_EQ(restored.export_state(), state);
    for (int i = 0; i < 200; ++i) {
        const std::string user = "u" + std::to_string(i);
        EXPECT_DOUBLE_EQ(restored.remaining(user, "credits"),
                         i == 57 ? 1000.0 : 1.0 + i);
    }
    restored.create_account("u3", credits(7.0));  // replace an imported account
    restored.create_account("old", credits(9.0));  // re-create a dropped user
    const ac::LedgerState after = restored.export_state();
    ASSERT_EQ(after.accounts.size(), 201u);
    EXPECT_EQ(after.accounts[3].user, "u3");
    EXPECT_DOUBLE_EQ(after.accounts[3].holdings.front().second.budget, 7.0);
    EXPECT_EQ(after.accounts.back().user, "old");
    EXPECT_DOUBLE_EQ(restored.remaining("old", "credits"), 9.0);

    // A refused import leaves the accounts and their index as they were.
    ac::LedgerState duplicate = state;
    duplicate.accounts.push_back(duplicate.accounts.front());
    EXPECT_THROW(restored.import_state(duplicate), ga::util::RuntimeError);
    EXPECT_EQ(restored.export_state(), after);
    EXPECT_DOUBLE_EQ(restored.remaining("old", "credits"), 9.0);
}

/// Runtime accounting at twice the price: what a binder returns in place of
/// the registry's accountant.
class DoubledRuntime final : public ac::Accountant {
public:
    [[nodiscard]] double charge(const ac::JobUsage& usage,
                                const mc::CatalogEntry& m) const override {
        return 2.0 * runtime_.charge(usage, m);
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "Runtime";
    }
    [[nodiscard]] std::string_view unit() const noexcept override {
        return runtime_.unit();
    }

private:
    ac::RuntimeAccounting runtime_;
};

TEST(LedgerCurrencies, BinderBuildsTheAccountantAndKeepsTheSpec) {
    int binds = 0;
    const ac::AccountantBinder doubled = [&binds](const ac::AccountantSpec&) {
        ++binds;
        return std::make_unique<DoubledRuntime>();
    };
    const auto& m = mc::find(mc::CatalogId::Desktop);
    ac::Ledger ledger;
    ledger.define_currency("credits", {"Runtime", {}}, doubled);
    EXPECT_EQ(binds, 1);
    ledger.create_account("alice", credits(100.0));
    // 2 cores x 1 h = 2 core-hours, doubled.
    const auto charged = [&m](ac::Ledger& l) {
        return l.charge("alice", cpu_job(3600.0, 1.0, 2), m).costs.at("credits");
    };
    EXPECT_DOUBLE_EQ(charged(ledger), 4.0);
    // The spec, not the bound accountant, is what a snapshot records.
    const ac::LedgerState state = ledger.export_state();
    ASSERT_EQ(state.currencies.size(), 1u);
    EXPECT_EQ(state.currencies.front().second.name, "Runtime");

    ac::Ledger rebound;
    rebound.import_state(state, doubled);
    EXPECT_EQ(binds, 2);
    EXPECT_DOUBLE_EQ(charged(rebound), 4.0);
    ac::Ledger plain;
    plain.import_state(state);
    EXPECT_DOUBLE_EQ(charged(plain), 2.0);
}

// ----------------------------------------------------- dual-budget charges
TEST(LedgerCharge, MultiCurrencyAdmitsWhenAllCanPayAndDebitsAll) {
    ac::Ledger ledger;
    define_dual_currencies(ledger);
    ledger.create_account("alice", {{"core-hours", 100.0}, {"gCO2e", 1e6}});
    const auto& m = mc::find(mc::CatalogId::Desktop);
    // 2 cores x 1 h = 2 core-hours; the CBA price is whatever Eq. 2 says.
    const auto outcome = ledger.charge("alice", cpu_job(3600.0, 1.8e6, 2), m);
    ASSERT_TRUE(outcome.admitted);
    EXPECT_TRUE(outcome.refused_currency.empty());
    ASSERT_EQ(outcome.costs.size(), 2u);
    EXPECT_DOUBLE_EQ(outcome.costs.at("core-hours"), 2.0);
    EXPECT_GT(outcome.costs.at("gCO2e"), 0.0);
    EXPECT_DOUBLE_EQ(ledger.spent("alice", "core-hours"), 2.0);
    EXPECT_DOUBLE_EQ(ledger.spent("alice", "gCO2e"),
                     outcome.costs.at("gCO2e"));
    // One self-describing transaction per currency.
    const auto history = ledger.history();
    ASSERT_EQ(history.size(), 2u);
    EXPECT_EQ(ledger.history_size(), 2u);
    EXPECT_EQ(history[0].currency, "core-hours");
    EXPECT_EQ(history[0].unit, "core-hours");
    EXPECT_EQ(history[1].currency, "gCO2e");
    EXPECT_EQ(history[1].unit, "gCO2e");
    for (const auto& t : history) {
        EXPECT_EQ(t.user, "alice");
        EXPECT_EQ(t.machine, "Desktop");
        EXPECT_EQ(t.cores, 2);
        EXPECT_EQ(t.gpus, 0);
        EXPECT_DOUBLE_EQ(t.duration_s, 3600.0);
        EXPECT_DOUBLE_EQ(t.priced_at_s, 120.0);
        EXPECT_EQ(t.refund_of, 0u);
    }
}

TEST(LedgerCharge, OneStarvedCurrencyBlocksAdmissionEntirely) {
    ac::Ledger ledger;
    define_dual_currencies(ledger);
    // Carbon-poor: plenty of core-hours, almost no carbon credits.
    ledger.create_account("carol", {{"core-hours", 1e6}, {"gCO2e", 1e-6}});
    const auto& m = mc::find(mc::CatalogId::Theta);
    const auto outcome = ledger.charge("carol", cpu_job(3600.0, 5e6, 64), m);
    EXPECT_FALSE(outcome.admitted);
    EXPECT_EQ(outcome.refused_currency, "gCO2e");
    EXPECT_GT(outcome.costs.at("core-hours"), 0.0);  // prices still reported
    // All-or-nothing: the affordable currency was not debited either.
    EXPECT_DOUBLE_EQ(ledger.spent("carol", "core-hours"), 0.0);
    EXPECT_DOUBLE_EQ(ledger.spent("carol", "gCO2e"), 0.0);
    EXPECT_TRUE(ledger.history().empty());
    EXPECT_EQ(ledger.history_size(), 0u);
}

/// A pathological accountant pricing everything negative (a "rebate").
class NegativePricer final : public ac::Accountant {
public:
    double charge(const ac::JobUsage&,
                  const ga::machine::CatalogEntry&) const override {
        return -1.0;
    }
    std::string_view name() const noexcept override { return "NegativePricer"; }
    std::string_view unit() const noexcept override { return "r"; }
};

/// Registers `NegativePricer` once per process.
void register_negative_pricer() {
    auto& accountants = ac::AccountantRegistry::global();
    if (!accountants.contains("NegativePricer")) {
        accountants.register_accountant(
            "NegativePricer", [](const ac::AccountantSpec&) {
                return std::make_unique<NegativePricer>();
            });
    }
}

TEST(LedgerCharge, NegativeQuoteIsRejectedBeforeAnyDebit) {
    // All-or-nothing must survive a custom accountant quoting a negative
    // cost: the charge throws and no holding is touched, no history written.
    register_negative_pricer();
    ac::Ledger ledger;
    ledger.define_currency("core-hours", {"Runtime", {}});
    ledger.define_currency("rebate", {"NegativePricer", {}});
    ledger.create_account("alice", {{"core-hours", 100.0}, {"rebate", 1.0}});
    const auto& m = mc::find(mc::CatalogId::Desktop);
    EXPECT_THROW((void)ledger.charge("alice", cpu_job(3600.0, 1.0, 2), m),
                 ga::util::PreconditionError);
    EXPECT_DOUBLE_EQ(ledger.spent("alice", "core-hours"), 0.0);
    EXPECT_TRUE(ledger.history().empty());
}

TEST(LedgerCharge, HeldCurrencyWithoutAccountantThrows) {
    ac::Ledger ledger;  // no currencies defined
    ledger.create_account("alice", {{"core-hours", 10.0}});
    const auto& m = mc::find(mc::CatalogId::Desktop);
    EXPECT_THROW((void)ledger.charge("alice", cpu_job(60.0, 10.0, 1), m),
                 ga::util::RuntimeError);
    EXPECT_THROW((void)ledger.charge("ghost", cpu_job(60.0, 10.0, 1), m),
                 ga::util::RuntimeError);
}

// ------------------------------------------------------------- edge cases
TEST(LedgerEdge, ExactBudgetChargeSucceedsAndExhaustsTheAllocation) {
    ac::Ledger ledger;
    define_credits(ledger);
    ledger.create_account("dan", credits(4.0));  // exactly one 4-core-hour job
    const auto& m = mc::find(mc::CatalogId::Desktop);
    const auto exact = ledger.charge("dan", cpu_job(3600.0, 1.0, 4), m);
    ASSERT_TRUE(exact.admitted);
    EXPECT_DOUBLE_EQ(exact.costs.at("credits"), 4.0);
    EXPECT_DOUBLE_EQ(ledger.remaining("dan", "credits"), 0.0);
    // The next non-free job is refused; a zero-cost job still fits.
    const auto refused = ledger.charge("dan", cpu_job(3600.0, 1.0, 1), m);
    EXPECT_FALSE(refused.admitted);
    EXPECT_EQ(refused.refused_currency, "credits");
    const auto zero_cost = ledger.charge("dan", cpu_job(0.0, 0.0, 1), m);
    ASSERT_TRUE(zero_cost.admitted);
    EXPECT_DOUBLE_EQ(zero_cost.costs.at("credits"), 0.0);
}

TEST(LedgerEdge, ChargeAfterFailedChargeIsUnaffected) {
    ac::Ledger ledger;
    define_credits(ledger);
    ledger.create_account("erin", credits(10.0));
    const auto& m = mc::find(mc::CatalogId::Desktop);
    // A 16-core-hour job bounces off the 10 core-hour budget...
    EXPECT_FALSE(ledger.charge("erin", cpu_job(3600.0, 1.0, 16), m).admitted);
    EXPECT_DOUBLE_EQ(ledger.spent("erin", "credits"), 0.0);
    EXPECT_TRUE(ledger.history().empty());
    // ...and a fitting job afterwards is charged exactly as if the failed
    // attempt never happened, with transaction ids still dense from 1.
    const auto fitting = ledger.charge("erin", cpu_job(3600.0, 1.0, 8), m);
    ASSERT_TRUE(fitting.admitted);
    EXPECT_DOUBLE_EQ(fitting.costs.at("credits"), 8.0);
    const auto history = ledger.history();
    ASSERT_EQ(history.size(), 1u);
    EXPECT_EQ(history[0].id, 1u);
    EXPECT_DOUBLE_EQ(ledger.remaining("erin", "credits"), 2.0);
}

// ---------------------------------------------------------------- refunds
TEST(LedgerRefund, RecordsANegativeTransactionAndRestoresTheBudget) {
    ac::Ledger ledger;
    define_dual_currencies(ledger);
    ledger.create_account("alice", {{"core-hours", 100.0}, {"gCO2e", 1e5}});
    const auto& m = mc::find(mc::CatalogId::Desktop);
    const auto outcome = ledger.charge("alice", cpu_job(3600.0, 1.8e6, 4), m);
    ASSERT_TRUE(outcome.admitted);
    const auto charged = ledger.history();
    ASSERT_EQ(charged.size(), 2u);

    // Refund the core-hours leg only (e.g. a stranded-job credit).
    const auto refund_id = ledger.refund("alice", charged[0].id);
    EXPECT_DOUBLE_EQ(ledger.spent("alice", "core-hours"), 0.0);
    EXPECT_DOUBLE_EQ(ledger.remaining("alice", "core-hours"), 100.0);
    // The carbon leg is untouched.
    EXPECT_DOUBLE_EQ(ledger.spent("alice", "gCO2e"),
                     outcome.costs.at("gCO2e"));

    const auto history = ledger.history();
    ASSERT_EQ(history.size(), 3u);
    const auto& r = history.back();
    EXPECT_EQ(r.id, refund_id);
    EXPECT_EQ(r.refund_of, charged[0].id);
    EXPECT_DOUBLE_EQ(r.cost, -charged[0].cost);
    EXPECT_EQ(r.currency, "core-hours");
    EXPECT_EQ(r.machine, charged[0].machine);
    EXPECT_EQ(r.cores, charged[0].cores);
    // Net recorded cost in that currency is back to zero.
    EXPECT_DOUBLE_EQ(ledger.total_cost("alice", "core-hours"), 0.0);
    EXPECT_GT(ledger.total_cost("alice", "gCO2e"), 0.0);
}

TEST(LedgerRefund, RejectsUnknownUsersForeignIdsAndDoubleRefunds) {
    ac::Ledger ledger;
    define_credits(ledger);
    ledger.create_account("alice", credits(100.0));
    ledger.create_account("bob", credits(100.0));
    const auto& m = mc::find(mc::CatalogId::Desktop);
    (void)ledger.charge("alice", cpu_job(3600.0, 1.0, 2), m);
    const auto tx = ledger.history().front().id;

    // Unknown user, unknown id, and someone else's transaction all throw.
    EXPECT_THROW((void)ledger.refund("ghost", tx), ga::util::RuntimeError);
    EXPECT_THROW((void)ledger.refund("alice", 999), ga::util::RuntimeError);
    EXPECT_THROW((void)ledger.refund("bob", tx), ga::util::RuntimeError);

    // First refund succeeds; the second (and refunding the refund) throw.
    const auto refund_id = ledger.refund("alice", tx);
    EXPECT_THROW((void)ledger.refund("alice", tx), ga::util::RuntimeError);
    EXPECT_THROW((void)ledger.refund("alice", refund_id),
                 ga::util::RuntimeError);
    EXPECT_DOUBLE_EQ(ledger.spent("alice", "credits"), 0.0);

    // Zero-cost regression: the refund of a 0-cost charge records -0.0,
    // which a cost-sign guard would accept for another refund; the
    // refund_of back-pointer must reject it.
    (void)ledger.charge("alice", cpu_job(0.0, 0.0, 1), m);
    const auto zero_tx = ledger.history().back().id;
    const auto zero_refund = ledger.refund("alice", zero_tx);
    EXPECT_THROW((void)ledger.refund("alice", zero_refund),
                 ga::util::RuntimeError);
}

TEST(LedgerRefund, TransactionsFromAReplacedAccountAreNotRefundable) {
    // Refunding a charge made against a *previous* incarnation of the
    // account would credit the fresh allocation for spend it never made.
    ac::Ledger ledger;
    define_credits(ledger);
    ledger.create_account("fred", credits(100.0));
    const auto& m = mc::find(mc::CatalogId::Desktop);
    (void)ledger.charge("fred", cpu_job(3600.0, 1.0, 50), m);
    const auto old_tx = ledger.history().back().id;

    ledger.create_account("fred", credits(100.0));  // replaces the account
    (void)ledger.charge("fred", cpu_job(3600.0, 1.0, 60), m);
    const auto new_tx = ledger.history().back().id;

    EXPECT_THROW((void)ledger.refund("fred", old_tx), ga::util::RuntimeError);
    EXPECT_DOUBLE_EQ(ledger.spent("fred", "credits"), 60.0);
    // Charges on the current incarnation stay refundable.
    (void)ledger.refund("fred", new_tx);
    EXPECT_DOUBLE_EQ(ledger.spent("fred", "credits"), 0.0);
    EXPECT_DOUBLE_EQ(ledger.remaining("fred", "credits"), 100.0);
}

// ------------------------------------------------------------ concurrency
TEST(LedgerConcurrency, ConcurrentChargesSumExactly) {
    // N threads hammer one shared account with 1-core-hour jobs. Every
    // admitted charge debits exactly 1.0, so spent and the history must sum
    // exactly — no lost updates, no overdraft.
    ac::Ledger ledger;
    constexpr int kThreads = 8;
    constexpr int kJobsPerThread = 200;
    constexpr double kBudget = kThreads * kJobsPerThread;  // all admit
    define_credits(ledger);
    ledger.create_account("team", credits(kBudget));
    const auto& m = mc::find(mc::CatalogId::Desktop);

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            for (int i = 0; i < kJobsPerThread; ++i) {
                (void)ledger.charge("team", cpu_job(3600.0, 1.0, 1), m);
            }
        });
    }
    for (auto& w : workers) w.join();

    EXPECT_DOUBLE_EQ(ledger.spent("team", "credits"), kBudget);
    EXPECT_DOUBLE_EQ(ledger.remaining("team", "credits"), 0.0);
    EXPECT_EQ(ledger.history().size(),
              static_cast<std::size_t>(kThreads * kJobsPerThread));
    EXPECT_DOUBLE_EQ(ledger.total_cost("team", "credits"), kBudget);
}

TEST(LedgerConcurrency, OverSubscribedBudgetNeverOverdraftsUnderContention) {
    // Twice as many unit jobs as the budget admits: exactly `budget` must
    // land, the rest must be refused, and spent can never exceed budget.
    ac::Ledger ledger;
    constexpr int kThreads = 8;
    constexpr int kJobsPerThread = 100;
    constexpr double kBudget = kThreads * kJobsPerThread / 2.0;
    define_credits(ledger);
    ledger.create_account("team", credits(kBudget));
    const auto& m = mc::find(mc::CatalogId::Desktop);

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            for (int i = 0; i < kJobsPerThread; ++i) {
                (void)ledger.charge("team", cpu_job(3600.0, 1.0, 1), m);
            }
        });
    }
    for (auto& w : workers) w.join();

    EXPECT_DOUBLE_EQ(ledger.spent("team", "credits"), kBudget);
    EXPECT_EQ(ledger.history().size(), static_cast<std::size_t>(kBudget));
}

TEST(LedgerConcurrency, ConcurrentMultiCurrencyChargesStayAllOrNothing) {
    // Dual-currency account under contention: every admitted job debits both
    // currencies, so their spends stay in lockstep (1 core-hour : cba cost).
    ac::Ledger ledger;
    define_dual_currencies(ledger);
    const auto& m = mc::find(mc::CatalogId::Desktop);
    const ac::CarbonBasedAccounting cba;
    const double g_per_job = cba.charge(cpu_job(3600.0, 1.8e6, 1), m);
    constexpr int kThreads = 4;
    constexpr int kJobsPerThread = 50;
    constexpr double kAdmittable = 60.0;  // < kThreads * kJobsPerThread
    ledger.create_account(
        "team", {{"core-hours", kAdmittable},
                 {"gCO2e", g_per_job * kAdmittable * 10.0}});  // carbon-rich

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            for (int i = 0; i < kJobsPerThread; ++i) {
                (void)ledger.charge("team", cpu_job(3600.0, 1.8e6, 1), m);
            }
        });
    }
    for (auto& w : workers) w.join();

    EXPECT_DOUBLE_EQ(ledger.spent("team", "core-hours"), kAdmittable);
    EXPECT_NEAR(ledger.spent("team", "gCO2e"), g_per_job * kAdmittable,
                1e-9 * g_per_job * kAdmittable);
    // Two transactions per admitted job, none for refused ones.
    EXPECT_EQ(ledger.history().size(),
              static_cast<std::size_t>(2 * kAdmittable));
}

TEST(LedgerConcurrency, MixedTrafficSweepAcrossThreadCounts) {
    // Stress sweep from 1 thread up through the hardware concurrency (and
    // past it, to force preemption-interleaved critical sections): each
    // worker drives its own account with mixed traffic — unit charges,
    // refunds of every third admitted charge, refusals once the budget
    // runs dry — while a reader thread hammers the balance and audit-trail
    // accessors. Unit costs are exact in a double, so every final balance
    // must sum exactly; any lost update, double refund, or torn read shows
    // up as an off-by-one in spent/remaining/history.
    std::vector<unsigned> ladder = {1, 2, 4, 8};
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    if (std::find(ladder.begin(), ladder.end(), hw) == ladder.end()) {
        ladder.push_back(hw);
        std::sort(ladder.begin(), ladder.end());
    }

    const auto& m = mc::find(mc::CatalogId::Desktop);
    constexpr int kOps = 150;
    constexpr double kBudget = 100.0;  // < kOps, so refusals happen

    for (const unsigned threads : ladder) {
        ac::Ledger ledger;
        define_credits(ledger);
        for (unsigned t = 0; t < threads; ++t) {
            ledger.create_account("u" + std::to_string(t), credits(kBudget));
        }

        std::vector<std::size_t> kept(threads, 0);
        std::vector<std::size_t> refunded(threads, 0);
        std::atomic<bool> done{false};

        // Concurrent readers: balances and the audit trail must stay
        // readable (and internally consistent) mid-traffic.
        std::thread reader([&] {
            while (!done.load(std::memory_order_relaxed)) {
                const double spent = ledger.spent("u0", "credits");
                const double remaining = ledger.remaining("u0", "credits");
                EXPECT_GE(spent, 0.0);
                EXPECT_GE(remaining, 0.0);
                EXPECT_LE(spent, kBudget);
                (void)ledger.history();
                std::this_thread::yield();
            }
        });

        std::vector<std::thread> workers;
        for (unsigned t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                const std::string user = "u" + std::to_string(t);
                for (int i = 0; i < kOps; ++i) {
                    if (!ledger.charge(user, cpu_job(3600.0, 1.0, 1), m)
                             .admitted) {
                        continue;  // refused: budget exhausted
                    }
                    if (i % 3 == 2) {
                        // Refund the charge just made. This worker is the
                        // only writer for `user`, so the newest transaction
                        // bearing this user is that charge.
                        const auto history = ledger.history();
                        std::uint64_t tx = 0;
                        for (auto it = history.rbegin();
                             it != history.rend(); ++it) {
                            if (it->user == user) {
                                tx = it->id;
                                break;
                            }
                        }
                        (void)ledger.refund(user, tx);
                        ++refunded[t];
                    } else {
                        ++kept[t];
                    }
                }
            });
        }
        for (auto& w : workers) w.join();
        done.store(true, std::memory_order_relaxed);
        reader.join();

        std::size_t expected_history = 0;
        for (unsigned t = 0; t < threads; ++t) {
            const std::string user = "u" + std::to_string(t);
            const auto net = static_cast<double>(kept[t]);
            // Exact sums: every charge is 1.0, every refund -1.0.
            EXPECT_DOUBLE_EQ(ledger.spent(user, "credits"), net)
                << threads << " threads, user " << user;
            EXPECT_DOUBLE_EQ(ledger.remaining(user, "credits"), kBudget - net);
            EXPECT_DOUBLE_EQ(ledger.total_cost(user, "credits"), net);
            EXPECT_LE(net, kBudget);
            // One entry per admitted charge, one per refund.
            expected_history += kept[t] + 2 * refunded[t];
        }
        EXPECT_EQ(ledger.history().size(), expected_history)
            << threads << " threads";
    }
}

}  // namespace
