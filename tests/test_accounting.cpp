// Tests for the core accounting library: the five methods, the allocation
// ledger, and the cost estimator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "core/accounting.hpp"
#include "core/allocation.hpp"
#include "core/estimate.hpp"
#include "util/error.hpp"
#include "util/spec.hpp"
#include "util/units.hpp"

namespace {

namespace ac = ga::acct;
namespace mc = ga::machine;
namespace cb = ga::carbon;

ac::JobUsage cpu_job(double seconds, double joules, int cores) {
    ac::JobUsage u;
    u.duration_s = seconds;
    u.energy_j = joules;
    u.cores = cores;
    return u;
}

// ---------------------------------------------------------------- methods
TEST(Runtime, ChargesCoreHours) {
    const ac::RuntimeAccounting acct;
    const auto& m = mc::find(mc::CatalogId::Desktop);
    EXPECT_DOUBLE_EQ(acct.charge(cpu_job(3600.0, 123.0, 4), m), 4.0);
}

TEST(Runtime, GpuJobsChargeDeviceHours) {
    const ac::RuntimeAccounting acct;
    const auto& m = mc::find(mc::CatalogId::V100Node);
    ac::JobUsage u = cpu_job(7200.0, 1e6, 0);
    u.gpus = 2;
    EXPECT_DOUBLE_EQ(acct.charge(u, m), 4.0);
}

TEST(Energy, ChargesRawJoules) {
    const ac::EnergyAccounting acct;
    const auto& m = mc::find(mc::CatalogId::Zen3);
    EXPECT_DOUBLE_EQ(acct.charge(cpu_job(10.0, 55.5, 1), m), 55.5);
}

TEST(Peak, ScalesWithPeakRating) {
    const ac::PeakAccounting acct;
    const auto& desktop = mc::find(mc::CatalogId::Desktop);       // 2900
    const auto& cascade = mc::find(mc::CatalogId::CascadeLake);   // 2250
    const auto u = cpu_job(3600.0, 10.0, 1);
    EXPECT_NEAR(acct.charge(u, desktop) / acct.charge(u, cascade), 2900.0 / 2250.0,
                1e-9);
}

TEST(Eba, MatchesEquationOne) {
    // ê = (e + d * TDP_R) / 2 with the provisioned-core TDP share.
    const ac::EnergyBasedAccounting acct;
    const auto& desktop = mc::find(mc::CatalogId::Desktop);
    const auto u = cpu_job(5.2, 18.3, 1);
    const double tdp_core = 65.0 / 16.0;
    EXPECT_NEAR(acct.charge(u, desktop), (18.3 + 5.2 * tdp_core) / 2.0, 1e-9);
}

TEST(Eba, BetaWeightsThePotentialTerm) {
    // The paper's refinement: ê = (e + β·d·TDP)/2 with β < 1.
    const ac::EnergyBasedAccounting full(1.0);
    const ac::EnergyBasedAccounting half(0.5);
    const auto& m = mc::find(mc::CatalogId::CascadeLake);
    const auto u = cpu_job(100.0, 500.0, 8);
    const double tdp = 8.0 * m.node.tdp_per_core_w();
    EXPECT_NEAR(half.charge(u, m), (500.0 + 0.5 * 100.0 * tdp) / 2.0, 1e-9);
    EXPECT_LT(half.charge(u, m), full.charge(u, m));
    EXPECT_THROW(ac::EnergyBasedAccounting(0.0), ga::util::PreconditionError);
    EXPECT_THROW(ac::EnergyBasedAccounting(1.5), ga::util::PreconditionError);
}

TEST(Eba, GpuTdpShare) {
    const auto& v100 = mc::find(mc::CatalogId::V100Node);
    ac::JobUsage u = cpu_job(10.0, 1000.0, 0);
    u.gpus = 4;
    EXPECT_DOUBLE_EQ(ac::EnergyBasedAccounting::provisioned_tdp_w(u, v100),
                     4.0 * 250.0);
}

TEST(Eba, RewardsEfficiencyButChargesPotential) {
    // Two jobs of equal duration/cores: less energy -> lower charge, but the
    // charge never falls below half the potential-use term.
    const ac::EnergyBasedAccounting acct;
    const auto& m = mc::find(mc::CatalogId::IceLake);
    const auto efficient = cpu_job(100.0, 10.0, 2);
    const auto wasteful = cpu_job(100.0, 900.0, 2);
    EXPECT_LT(acct.charge(efficient, m), acct.charge(wasteful, m));
    const double potential = 100.0 * 2.0 * m.node.tdp_per_core_w();
    EXPECT_GE(acct.charge(efficient, m), potential / 2.0);
}

TEST(Cba, MatchesEquationTwo) {
    // c = e*I + d * share of D(y)/(24*365).
    const ac::CarbonBasedAccounting acct;
    const auto& ic = mc::find(mc::CatalogId::InstitutionalCluster);
    const auto u = cpu_job(3600.0, ga::util::kwh_to_joules(2.0), 48);
    const double expected_op = 2.0 * 454.0;
    EXPECT_NEAR(acct.operational_g(u, ic), expected_op, 1e-9);
    const double expected_embodied = cb::node_rate_g_per_hour(ic);  // full node, 1 h
    EXPECT_NEAR(acct.embodied_g(u, ic), expected_embodied, 1e-9);
    EXPECT_NEAR(acct.charge(u, ic), expected_op + expected_embodied, 1e-9);
}

TEST(Cba, UsesIntensityTraceAtPricedTime) {
    std::map<std::string, cb::IntensityTrace> traces;
    traces.emplace("IC", cb::IntensityTrace::hourly({100.0, 500.0}, 0.0, "t"));
    const ac::CarbonBasedAccounting acct(std::move(traces));
    const auto& ic = mc::find(mc::CatalogId::InstitutionalCluster);
    auto u = cpu_job(60.0, ga::util::kwh_to_joules(1.0), 1);
    u.priced_at_s = 0.0;
    const double early = acct.operational_g(u, ic);
    u.priced_at_s = 3601.0;
    const double late = acct.operational_g(u, ic);
    EXPECT_DOUBLE_EQ(early, 100.0);
    EXPECT_DOUBLE_EQ(late, 500.0);
}

TEST(Cba, LinearVsAcceleratedDepreciationSelectable) {
    const ac::CarbonBasedAccounting accel({}, cb::DepreciationMethod::DoubleDeclining);
    const ac::CarbonBasedAccounting linear({}, cb::DepreciationMethod::Linear);
    // Cascade Lake is 4 years old: accelerated must charge less embodied.
    const auto& cl = mc::find(mc::CatalogId::CascadeLake);
    const auto u = cpu_job(100.0, 50.0, 1);
    EXPECT_LT(accel.embodied_g(u, cl), linear.embodied_g(u, cl));
    // Zen3 is 1 year old: accelerated charges more.
    const auto& zen = mc::find(mc::CatalogId::Zen3);
    EXPECT_GT(accel.embodied_g(u, zen), linear.embodied_g(u, zen));
}

TEST(Methods, FactoryCoversAll) {
    ASSERT_EQ(ac::all_methods().size(), 5u);
    for (const auto& m : ac::all_methods()) {
        const auto acct = ac::AccountantRegistry::global().make(m);
        ASSERT_NE(acct, nullptr);
        EXPECT_EQ(acct->name(), m.name);
        EXPECT_FALSE(std::string(acct->unit()).empty());
        EXPECT_TRUE(m.params.empty()) << m.name;
    }
}

TEST(Methods, FromStringRoundTripsToString) {
    for (const auto& m : ac::all_methods()) {
        const auto parsed = ga::util::parse_spec(m.label());
        EXPECT_EQ((ac::AccountantSpec{parsed.name, parsed.params}), m);
    }
    auto& registry = ac::AccountantRegistry::global();
    EXPECT_FALSE(registry.contains("NoSuchMethod"));
    EXPECT_FALSE(registry.contains("eba"));  // exact match
}

TEST(Methods, RejectInvalidUsage) {
    const ac::RuntimeAccounting acct;
    const auto& m = mc::find(mc::CatalogId::Desktop);
    auto u = cpu_job(-1.0, 0.0, 1);
    EXPECT_THROW((void)acct.charge(u, m), ga::util::PreconditionError);
    u = cpu_job(1.0, -5.0, 1);
    EXPECT_THROW((void)acct.charge(u, m), ga::util::PreconditionError);
    u = cpu_job(1.0, 1.0, 0);
    EXPECT_THROW((void)acct.charge(u, m), ga::util::PreconditionError);
}

// Parameterized: every method is positively homogeneous in duration+energy
// (doubling a job's time and energy doubles its charge). The parameter is
// the method's position in all_methods().
struct MethodIndex {
    std::uint32_t value;
};

class MethodScaling : public ::testing::TestWithParam<MethodIndex> {
protected:
    static std::unique_ptr<const ac::Accountant> accountant() {
        return ac::AccountantRegistry::global().make(
            ac::all_methods().at(GetParam().value));
    }
};

TEST_P(MethodScaling, ChargeScalesLinearly) {
    const auto acct = accountant();
    const auto& m = mc::find(mc::CatalogId::IceLake);
    const auto base = cpu_job(50.0, 300.0, 4);
    const auto doubled = cpu_job(100.0, 600.0, 4);
    EXPECT_NEAR(acct->charge(doubled, m), 2.0 * acct->charge(base, m), 1e-9);
}

TEST_P(MethodScaling, ChargeIsNonNegative) {
    const auto acct = accountant();
    const auto& m = mc::find(mc::CatalogId::Theta);
    EXPECT_GE(acct->charge(cpu_job(0.0, 0.0, 1), m), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MethodScaling,
                         ::testing::Values(MethodIndex{0}, MethodIndex{1},
                                           MethodIndex{2}, MethodIndex{3},
                                           MethodIndex{4}));

// ---------------------------------------------------------------- allocation
TEST(Allocation, ChargesAndRefuses) {
    ac::Allocation a(100.0);
    EXPECT_TRUE(a.charge(60.0));
    EXPECT_DOUBLE_EQ(a.remaining(), 40.0);
    EXPECT_FALSE(a.charge(50.0));  // refused, nothing deducted
    EXPECT_DOUBLE_EQ(a.remaining(), 40.0);
    a.grant(20.0);
    EXPECT_TRUE(a.charge(50.0));
    EXPECT_THROW((void)a.charge(-1.0), ga::util::PreconditionError);
}

/// A ledger whose "credits" currency is priced in core-hours by Runtime
/// accounting, with `user` holding `budget` of it.
void credits_account(ac::Ledger& ledger, const std::string& user,
                     double budget) {
    ledger.define_currency("credits", {"Runtime", {}});
    ledger.create_account(user, {{"credits", budget}});
}

TEST(Ledger, EndToEndCharge) {
    ac::Ledger ledger;
    credits_account(ledger, "alice", 1000.0);
    EXPECT_TRUE(ledger.has_account("alice"));
    EXPECT_FALSE(ledger.has_account("bob"));

    const auto& m = mc::find(mc::CatalogId::Desktop);
    const auto outcome = ledger.charge("alice", cpu_job(3600.0, 1.0, 2), m);
    ASSERT_TRUE(outcome.admitted);
    EXPECT_DOUBLE_EQ(outcome.costs.at("credits"), 2.0);
    EXPECT_DOUBLE_EQ(ledger.spent("alice", "credits"), 2.0);
    EXPECT_DOUBLE_EQ(ledger.remaining("alice", "credits"), 998.0);
    ASSERT_EQ(ledger.history().size(), 1u);
    EXPECT_EQ(ledger.history()[0].user, "alice");
    EXPECT_EQ(ledger.history()[0].machine, "Desktop");
    EXPECT_DOUBLE_EQ(ledger.total_cost("alice", "credits"), 2.0);
}

TEST(Ledger, InsufficientBudgetChargesNothing) {
    ac::Ledger ledger;
    credits_account(ledger, "carol", 1.0);
    const auto& m = mc::find(mc::CatalogId::Desktop);
    const auto outcome = ledger.charge("carol", cpu_job(3600.0, 0.0, 4), m);
    EXPECT_FALSE(outcome.admitted);
    EXPECT_EQ(outcome.refused_currency, "credits");
    EXPECT_DOUBLE_EQ(ledger.spent("carol", "credits"), 0.0);
    EXPECT_TRUE(ledger.history().empty());
}

TEST(Ledger, UnknownUserThrows) {
    ac::Ledger ledger;
    const auto& m = mc::find(mc::CatalogId::Desktop);
    EXPECT_THROW((void)ledger.remaining("ghost", "credits"),
                 ga::util::RuntimeError);
    EXPECT_THROW((void)ledger.charge("ghost", cpu_job(1, 1, 1), m),
                 ga::util::RuntimeError);
}

// ---------------------------------------------------------------- estimator
TEST(Estimator, RanksCheapestFirst) {
    const ac::CostEstimator estimator;
    const ac::EnergyBasedAccounting eba;
    ga::machine::WorkProfile p{20e9, 1e6, 1.0};  // compute-bound
    const auto ranked = estimator.rank(p, mc::chameleon_cpu_nodes(), 1, eba);
    ASSERT_EQ(ranked.size(), 4u);
    for (std::size_t i = 1; i < ranked.size(); ++i) {
        EXPECT_LE(ranked[i - 1].cost, ranked[i].cost);
    }
    // Table 1: Desktop is the cheapest EBA machine for compute-bound work.
    EXPECT_EQ(ranked.front().machine, "Desktop");
}

TEST(Estimator, ClampsCoresToMachine) {
    const ac::CostEstimator estimator;
    const ac::RuntimeAccounting rt;
    ga::machine::WorkProfile p{1e9, 1e6, 0.9};
    const auto est =
        estimator.estimate(p, mc::find(mc::CatalogId::Desktop), 999, rt);
    EXPECT_GT(est.seconds, 0.0);  // used 16 cores, not 999
}


TEST(Eba, PueRefinementScalesEnergyTerm) {
    // Section 3.2: "the measured energy could be multiplied by the PUE".
    const ac::EnergyBasedAccounting plain(1.0, false);
    const ac::EnergyBasedAccounting with_pue(1.0, true);
    const auto& ic = mc::find(mc::CatalogId::InstitutionalCluster);  // PUE 1.4
    const auto u = cpu_job(100.0, 1000.0, 4);
    const double tdp_term = 100.0 * 4.0 * ic.node.tdp_per_core_w();
    EXPECT_NEAR(with_pue.charge(u, ic), (1.4 * 1000.0 + tdp_term) / 2.0, 1e-9);
    EXPECT_GT(with_pue.charge(u, ic), plain.charge(u, ic));
    // The Desktop has PUE 1.0: the refinement changes nothing there.
    const auto& desktop = mc::find(mc::CatalogId::Desktop);
    EXPECT_DOUBLE_EQ(with_pue.charge(u, desktop), plain.charge(u, desktop));
}

TEST(Eba, PueNeverReordersZeroOverheadMachines) {
    // With uniform PUE across facilities the refinement preserves rankings.
    const ac::EnergyBasedAccounting plain(1.0, false);
    const ac::EnergyBasedAccounting with_pue(1.0, true);
    const auto& cl = mc::find(mc::CatalogId::CascadeLake);
    const auto& il = mc::find(mc::CatalogId::IceLake);  // same 1.25 PUE
    const auto cheap = cpu_job(10.0, 50.0, 1);
    const bool before = plain.charge(cheap, cl) < plain.charge(cheap, il);
    const bool after = with_pue.charge(cheap, cl) < with_pue.charge(cheap, il);
    EXPECT_EQ(before, after);
}

}  // namespace
