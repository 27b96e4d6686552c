// Tests for the open accounting API (core/accounting.hpp): AccountantSpec,
// AccountantRegistry, the builtin methods (paper + composites, including
// the hexfloat charge baseline captured from the pre-registry
// implementation), and end-to-end registry-driven simulator runs (spec
// pricing, the pricing sweep axis, and the dual-budget core-hours + gCO2e
// scenario). Every builtin's per-machine bound form (`Accountant::on`) is
// checked against `charge` bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "carbon/grids.hpp"
#include "core/accounting.hpp"
#include "machine/catalog.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim_result_matchers.hpp"
#include "util/error.hpp"
#include "workload/workload.hpp"

namespace {

namespace ac = ga::acct;
namespace mc = ga::machine;
namespace sm = ga::sim;
namespace wl = ga::workload;
using ga::testutil::expect_identical;

// ------------------------------------------------------------ AccountantSpec
TEST(AccountantSpec, ParamLookupWithFallback) {
    const ac::AccountantSpec spec{"EBA", {{"beta", 0.5}}};
    EXPECT_DOUBLE_EQ(spec.param("beta", 1.0), 0.5);
    EXPECT_DOUBLE_EQ(spec.param("absent", 7.0), 7.0);
}

TEST(AccountantSpec, LabelIsNameAloneOrNameWithSortedParams) {
    EXPECT_EQ((ac::AccountantSpec{"CBA", {}}.label()), "CBA");
    EXPECT_EQ((ac::AccountantSpec{"EBA", {{"beta", 0.5}}}.label()),
              "EBA(beta=0.5)");
    // std::map keeps params in key order -> deterministic labels.
    EXPECT_EQ(
        (ac::AccountantSpec{"Blended",
                            {{"core_weight", 2.0}, {"carbon_weight", 1.0}}}
             .label()),
        "Blended(carbon_weight=1,core_weight=2)");
}

// -------------------------------------------------------- AccountantRegistry
TEST(AccountantRegistry, GlobalContainsPaperAndBeyondPaperBuiltins) {
    auto& registry = ac::AccountantRegistry::global();
    for (const auto& m : ac::all_methods()) {
        EXPECT_TRUE(registry.contains(m.name)) << m.name;
    }
    for (const auto& spec : ac::beyond_paper_accountants()) {
        EXPECT_TRUE(registry.contains(spec.name)) << spec.name;
    }
    const auto names = registry.names();
    EXPECT_GE(names.size(), 7u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(AccountantRegistry, UnknownNameThrowsRuntimeError) {
    EXPECT_THROW((void)ac::AccountantRegistry::global().make(
                     ac::AccountantSpec{"NoSuchMethod", {}}),
                 ga::util::RuntimeError);
}

TEST(AccountantRegistry, DuplicateRegistrationThrows) {
    // A private registry starts empty; global() is untouched by this test.
    ac::AccountantRegistry registry;
    EXPECT_FALSE(registry.contains("Runtime"));
    const auto factory = [](const ac::AccountantSpec&) {
        return std::make_unique<ac::RuntimeAccounting>();
    };
    registry.register_accountant("Custom", factory);
    EXPECT_TRUE(registry.contains("Custom"));
    EXPECT_THROW(registry.register_accountant("Custom", factory),
                 ga::util::PreconditionError);
}

TEST(AccountantRegistry, MadeAccountantReportsItsRegistryName) {
    for (const char* name :
         {"Runtime", "Energy", "Peak", "EBA", "CBA", "Blended", "CarbonTax"}) {
        const auto a =
            ac::AccountantRegistry::global().make(ac::AccountantSpec{name, {}});
        EXPECT_EQ(a->name(), name);
        EXPECT_FALSE(std::string(a->unit()).empty()) << name;
    }
}

TEST(AccountantRegistry, SpecParamsReachTheBuiltinConstructors) {
    const auto& m = mc::find(mc::CatalogId::InstitutionalCluster);
    ac::JobUsage u;
    u.duration_s = 100.0;
    u.energy_j = 1000.0;
    u.cores = 4;

    // EBA beta and pue params match direct construction.
    const auto eba_half = ac::AccountantRegistry::global().make(
        ac::AccountantSpec{"EBA", {{"beta", 0.5}, {"pue", 1.0}}});
    const ac::EnergyBasedAccounting direct(0.5, true);
    EXPECT_EQ(eba_half->charge(u, m), direct.charge(u, m));

    // CBA depreciation param selects the linear schedule.
    const auto cba_linear = ac::AccountantRegistry::global().make(
        ac::AccountantSpec{"CBA", {{"depreciation", 1.0}}});
    const ac::CarbonBasedAccounting linear(
        {}, ga::carbon::DepreciationMethod::Linear);
    EXPECT_EQ(cba_linear->charge(u, m), linear.charge(u, m));
    // Out-of-range depreciation values are rejected at build time, and so
    // is a "pue" that is not the 0/1 switch (e.g. an actual PUE value).
    EXPECT_THROW((void)ac::AccountantRegistry::global().make(
                     ac::AccountantSpec{"CBA", {{"depreciation", 2.0}}}),
                 ga::util::PreconditionError);
    EXPECT_THROW((void)ac::AccountantRegistry::global().make(
                     ac::AccountantSpec{"EBA", {{"pue", 1.58}}}),
                 ga::util::PreconditionError);
}

// ------------------------------------------------- beyond-paper composites
TEST(Blended, IsTheWeightedSumOfCoreHoursAndCarbon) {
    const auto& m = mc::find(mc::CatalogId::Theta);
    ac::JobUsage u;
    u.duration_s = 3600.0;
    u.energy_j = 5.0e6;
    u.cores = 64;
    const ac::RuntimeAccounting runtime;
    const ac::CarbonBasedAccounting cba;
    const ac::BlendedAccounting blended(2.0, 0.5);
    EXPECT_DOUBLE_EQ(blended.charge(u, m),
                     2.0 * runtime.charge(u, m) + 0.5 * cba.charge(u, m));
    EXPECT_THROW(ac::BlendedAccounting(-1.0, 1.0), ga::util::PreconditionError);
    EXPECT_THROW(ac::BlendedAccounting(0.0, 0.0), ga::util::PreconditionError);
}

TEST(CarbonTax, AddsAPerGramSurchargeToCoreHours) {
    const auto& clean = mc::find(mc::CatalogId::Desktop);
    const auto& dirty = mc::find(mc::CatalogId::Theta);
    ac::JobUsage u;
    u.duration_s = 3600.0;
    u.energy_j = 2.0e6;
    u.cores = 8;
    const ac::RuntimeAccounting runtime;
    const ac::CarbonBasedAccounting cba;
    const ac::CarbonTaxAccounting taxed(0.02);
    EXPECT_DOUBLE_EQ(taxed.charge(u, clean),
                     runtime.charge(u, clean) + 0.02 * cba.charge(u, clean));
    // Runtime alone cannot tell the machines apart at equal core counts;
    // the tax makes the carbon-heavy machine strictly more expensive.
    EXPECT_EQ(runtime.charge(u, clean), runtime.charge(u, dirty));
    EXPECT_LT(taxed.charge(u, clean), taxed.charge(u, dirty));
    // Zero rate degrades to plain Runtime.
    const ac::CarbonTaxAccounting untaxed(0.0);
    EXPECT_DOUBLE_EQ(untaxed.charge(u, dirty), runtime.charge(u, dirty));
    EXPECT_THROW(ac::CarbonTaxAccounting(-0.1), ga::util::PreconditionError);
}

TEST(WithGrid, CarbonAwareMethodsRebindAndGridBlindOnesReturnNull) {
    const auto& ic = mc::find(mc::CatalogId::InstitutionalCluster);
    std::map<std::string, ga::carbon::IntensityTrace> traces;
    traces.emplace("IC",
                   ga::carbon::IntensityTrace::hourly({10.0, 10.0}, 0.0, "t"));
    ac::JobUsage u;
    u.duration_s = 60.0;
    u.energy_j = 3.6e6;  // 1 kWh
    u.cores = 1;

    for (const char* blind : {"Runtime", "Energy", "Peak", "EBA"}) {
        const auto a = ac::AccountantRegistry::global().make(
            ac::AccountantSpec{blind, {}});
        EXPECT_EQ(a->with_grid(traces), nullptr) << blind;
    }
    for (const char* aware : {"CBA", "Blended", "CarbonTax"}) {
        const auto a = ac::AccountantRegistry::global().make(
            ac::AccountantSpec{aware, {}});
        const auto bound = a->with_grid(traces);
        ASSERT_NE(bound, nullptr) << aware;
        // The 10 g/kWh trace undercuts IC's 454 g/kWh catalog average, so
        // the bound copy must charge strictly less.
        EXPECT_LT(bound->charge(u, ic), a->charge(u, ic)) << aware;
    }
}

// ------------------------------------------------- hexfloat charge baseline
// Captured from the pre-registry implementation across all five paper
// methods, the full ten-machine catalog, and five usage shapes. The
// registry must reproduce every charge bit-for-bit.
struct BaselineRow {
    int method;          // index into all_methods()
    const char* machine; // catalog display name
    int usage;           // index into baseline_usages()
    double expected;     // hexfloat, exact
};

const ac::JobUsage* baseline_usages() {
    static const ac::JobUsage usages[5] = {
        // duration_s, energy_j, cores, gpus, priced_at_s
        {3600.0, 1.8e6, 4, 0, 0.0},
        {913.5, 4.27e5, 48, 0, 7200.0},
        {86400.0, 6.4e8, 128, 0, 54321.0},
        {42.25, 1.25e4, 1, 0, 999.75},
        {7200.0, 9.6e6, 0, 2, 3600.0},  // GPU job (GPU nodes only)
    };
    return usages;
}

const std::vector<BaselineRow>& baseline_rows();

TEST(AccountantRegistry, ChargesBitIdenticalToPreRedesignBaseline) {
    ASSERT_EQ(baseline_rows().size(), 215u);
    const auto& methods = ac::all_methods();
    for (std::size_t mi = 0; mi < methods.size(); ++mi) {
        const auto accountant = ac::AccountantRegistry::global().make(methods[mi]);
        for (const auto& row : baseline_rows()) {
            if (row.method != static_cast<int>(mi)) continue;
            const auto& entry = mc::find(row.machine);
            const auto& usage = baseline_usages()[row.usage];
            SCOPED_TRACE(methods[mi].name + "/" + row.machine + "/usage" +
                         std::to_string(row.usage));
            EXPECT_EQ(accountant->charge(usage, entry), row.expected);
            // The per-machine bound form (`Accountant::on`) prices the same.
            EXPECT_EQ(accountant->on(entry)(usage), row.expected);
        }
    }
}

// ------------------------------------------------ bound per-machine charges
TEST(BoundCharge, CarbonAwareMethodsMatchChargeBitForBit) {
    // Regional traces for the simulation machines, as a regional-grid run
    // builds them; the GPU nodes have no grid region and price at their
    // catalog average intensity.
    std::vector<mc::CatalogEntry> machines = mc::simulation_machines();
    std::map<std::string, ga::carbon::IntensityTrace> traces;
    for (const auto& m : machines) {
        traces.emplace(m.node.name,
                       ga::carbon::synthesize(ga::carbon::region(m.grid_region),
                                              /*days=*/30, /*seed=*/77));
    }
    for (const auto& m : mc::gpu_nodes()) machines.push_back(m);

    const std::vector<ac::AccountantSpec> specs = {
        {"CBA", {}},
        {"CBA", {{"depreciation", 1.0}}},
        {"Blended", {}},
        {"Blended", {{"core_weight", 2.0}, {"carbon_weight", 0.5},
                     {"depreciation", 1.0}}},
        {"CarbonTax", {}},
        {"CarbonTax", {{"rate", 0.02}, {"depreciation", 1.0}}},
    };
    const std::vector<ac::JobUsage> usages = {
        // duration_s, energy_j, cores, gpus (priced_at_s set below)
        {3600.0, 1.8e6, 4, 0, 0.0},
        {913.5, 4.27e5, 48, 0, 0.0},
        {86400.0, 6.4e8, 128, 0, 0.0},
        {42.25, 1.25e4, 1, 0, 0.0},
        {7200.0, 9.6e6, 0, 2, 0.0},
        {1800.0, 1.1e6, 0, 1, 0.0},
    };
    std::size_t compared = 0;
    for (const auto& spec : specs) {
        const auto accountant =
            ac::AccountantRegistry::global().make(spec)->with_grid(traces);
        ASSERT_NE(accountant, nullptr) << spec.label();
        for (const auto& m : machines) {
            const ac::BoundCharge bound = accountant->on(m);
            for (ac::JobUsage u : usages) {
                if (u.gpus > m.node.gpu_count) continue;
                // 72 hourly samples, each mid-hour: three days of the trace.
                for (int hour = 0; hour < 72; ++hour) {
                    u.priced_at_s = 3600.0 * hour + 1234.5;
                    ASSERT_EQ(bound(u), accountant->charge(u, m))
                        << spec.label() << " on " << m.node.name << ", "
                        << u.cores << " cores / " << u.gpus << " gpus, hour "
                        << hour;
                    ++compared;
                }
            }
        }
    }
    // One more input: a CBA site's one-lookup meter, whose total is the
    // charge and whose operational term is `operational_g`, under both
    // depreciation methods.
    for (const auto depreciation : {ga::carbon::DepreciationMethod::DoubleDeclining,
                                    ga::carbon::DepreciationMethod::Linear}) {
        const ac::CarbonBasedAccounting cba(traces, depreciation);
        for (const auto& m : machines) {
            const ac::CarbonSite site = cba.site(m);
            for (ac::JobUsage u : usages) {
                if (u.gpus > m.node.gpu_count) continue;
                for (int hour = 0; hour < 72; ++hour) {
                    u.priced_at_s = 3600.0 * hour + 1234.5;
                    const ac::CarbonSite::Metered metered = site.meter(u);
                    ASSERT_EQ(metered.total_g, cba.charge(u, m)) << m.node.name;
                    ASSERT_EQ(metered.total_g,
                              site.operational_g(u) + site.embodied_g(u))
                        << m.node.name;
                    ASSERT_EQ(metered.operational_g, cba.operational_g(u, m))
                        << m.node.name;
                    ++compared;
                }
            }
        }
    }
    // Every spec, and the meter under each depreciation method, prices 4 CPU
    // shapes on all 7 machines and 2 GPU shapes on the 3 GPU nodes.
    EXPECT_EQ(compared, (specs.size() + 2) * (4 * 7 + 2 * 3) * 72);
}

// ----------------------------------- registry accountants end-to-end in runs
const sm::BatchSimulator& shared_simulator() {
    static const sm::BatchSimulator simulator = [] {
        wl::TraceOptions o;
        o.base_jobs = 2000;
        o.users = 50;
        o.span_days = 6.0;
        o.seed = 33;
        return sm::BatchSimulator(wl::build_workload(o));
    }();
    return simulator;
}

TEST(SpecPricing, CompositeAccountantsRunEndToEnd) {
    for (const auto& spec : ac::beyond_paper_accountants()) {
        sm::SimOptions o;
        o.pricing = spec;
        const auto r = shared_simulator().run(o);
        EXPECT_EQ(r.jobs_completed + r.jobs_skipped,
                  shared_simulator().workload().jobs.size())
            << spec.name;
        EXPECT_GT(r.jobs_completed, 0u) << spec.name;
        EXPECT_GT(r.total_cost, 0.0) << spec.name;
    }
}

TEST(SpecPricing, SweepAxisMatchesDirectRunsAndLabels) {
    sm::SweepGrid grid;
    grid.policies = {sm::PolicySpec{"Greedy", {}}};
    grid.pricings = {ac::AccountantSpec{"EBA", {}},
                     ac::AccountantSpec{"CarbonTax", {{"rate", 0.02}}}};
    grid.base.finish_times = true;
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].label, "Greedy/EBA");
    EXPECT_EQ(specs[1].label, "Greedy/CarbonTax(rate=0.02)");
    EXPECT_EQ(specs[0].options.pricing, (ac::AccountantSpec{"EBA", {}}));
    EXPECT_DOUBLE_EQ(specs[1].options.pricing.param("rate", 0.0), 0.02);

    sm::SweepRunner runner(shared_simulator(), 2);
    const auto outcomes = runner.run(specs);
    ASSERT_EQ(outcomes.size(), 2u);
    sm::SimOptions direct;
    direct.pricing = ac::AccountantSpec{"CarbonTax", {{"rate", 0.02}}};
    direct.finish_times = true;
    expect_identical(outcomes[1].result, shared_simulator().run(direct));
}

// ------------------------------------------------------- custom accountants
/// A user-defined method: a flat money bill — euros per core-hour plus
/// euros per kWh.
class FlatBillAccounting final : public ac::Accountant {
public:
    FlatBillAccounting(double eur_per_core_hour, double eur_per_kwh)
        : eur_per_core_hour_(eur_per_core_hour), eur_per_kwh_(eur_per_kwh) {}

    double charge(const ac::JobUsage& usage,
                  const mc::CatalogEntry& m) const override {
        return eur_per_core_hour_ * runtime_.charge(usage, m) +
               eur_per_kwh_ * usage.energy_j / 3.6e6;
    }
    std::string_view name() const noexcept override { return "FlatBill"; }
    std::string_view unit() const noexcept override { return "EUR"; }

private:
    double eur_per_core_hour_;
    double eur_per_kwh_;
    ac::RuntimeAccounting runtime_;
};

TEST(CustomAccountant, DefaultBindingPricesThroughCharge) {
    // FlatBill does not override `on`: the default binding forwards to
    // `charge`, so a custom method prices the same bound or not.
    const FlatBillAccounting flat(0.05, 0.30);
    std::vector<mc::CatalogEntry> machines = mc::simulation_machines();
    for (const auto& m : mc::gpu_nodes()) machines.push_back(m);
    for (const auto& m : machines) {
        const ac::BoundCharge bound = flat.on(m);
        for (int i = 0; i < 5; ++i) {
            const ac::JobUsage& u = baseline_usages()[i];
            if (u.gpus > m.node.gpu_count) continue;
            EXPECT_EQ(bound(u), flat.charge(u, m))
                << m.node.name << ", usage " << i;
        }
    }
}

TEST(CustomAccountant, RegisteredMethodRunsThroughSimulatorAndSweep) {
    auto& registry = ac::AccountantRegistry::global();
    if (!registry.contains("FlatBill")) {
        registry.register_accountant(
            "FlatBill", [](const ac::AccountantSpec& s) {
                return std::make_unique<FlatBillAccounting>(
                    s.param("core_hour", 0.05), s.param("kwh", 0.30));
            });
    }

    sm::SimOptions o;
    o.pricing = ac::AccountantSpec{"FlatBill", {{"kwh", 0.45}}};
    o.finish_times = true;
    const auto direct = shared_simulator().run(o);
    EXPECT_EQ(direct.jobs_completed + direct.jobs_skipped,
              shared_simulator().workload().jobs.size());

    // And by name through the sweep engine, bit-identical to the direct run.
    sm::SweepGrid grid;
    grid.pricings = {ac::AccountantSpec{"FlatBill", {{"kwh", 0.45}}}};
    grid.base.finish_times = true;
    sm::SweepRunner runner(shared_simulator(), 2);
    const auto outcomes = runner.run(grid);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].spec.label, "Greedy/FlatBill(kwh=0.45)");
    expect_identical(outcomes[0].result, direct);
}

// ------------------------------------- dual-budget (core-hours AND gCO2e)
sm::CurrencyBudget core_hours(double budget) {
    return sm::CurrencyBudget{"core-hours", {"Runtime", {}}, budget};
}
sm::CurrencyBudget carbon_credits(double budget) {
    return sm::CurrencyBudget{"gCO2e", {"CBA", {}}, budget};
}

TEST(DualBudget, UnlimitedCurrenciesMatchTheSingleBudgetRunExactly) {
    // Metering two unlimited currencies must not perturb scheduling: every
    // SimResult field outside currency_spent is bit-identical.
    sm::SimOptions plain;
    plain.finish_times = true;
    sm::SimOptions metered = plain;
    metered.currency_budgets = {core_hours(0.0), carbon_credits(0.0)};
    const auto a = shared_simulator().run(plain);
    auto b = shared_simulator().run(metered);
    ASSERT_EQ(b.currency_spent.size(), 2u);
    EXPECT_GT(b.currency_spent.at("core-hours"), 0.0);
    EXPECT_GT(b.currency_spent.at("gCO2e"), 0.0);
    b.currency_spent.clear();
    expect_identical(a, b);
}

TEST(DualBudget, TheBindingCurrencyGatesAdmission) {
    // Full-run spends in each currency, from an unconstrained metered run.
    sm::SimOptions metered;
    metered.currency_budgets = {core_hours(0.0), carbon_credits(0.0)};
    const auto full = shared_simulator().run(metered);
    const double full_ch = full.currency_spent.at("core-hours");
    const double full_g = full.currency_spent.at("gCO2e");

    // Carbon-poor: generous core-hours, tight carbon. The carbon budget must
    // bind (spent ≈ its cap while core-hours stay under their generous cap),
    // and work completed must drop versus the unconstrained run.
    sm::SimOptions poor;
    poor.currency_budgets = {core_hours(full_ch * 2.0),
                             carbon_credits(full_g * 0.3)};
    const auto r = shared_simulator().run(poor);
    EXPECT_LT(r.jobs_completed, full.jobs_completed);
    EXPECT_GT(r.jobs_skipped, full.jobs_skipped);
    EXPECT_LE(r.currency_spent.at("gCO2e"), full_g * 0.3 + 1e-9);
    EXPECT_LT(r.currency_spent.at("core-hours"), full_ch * 2.0);

    // Both generous -> nothing binds, identical to the unconstrained run.
    sm::SimOptions rich;
    rich.currency_budgets = {core_hours(full_ch * 2.0),
                             carbon_credits(full_g * 2.0)};
    const auto rr = shared_simulator().run(rich);
    EXPECT_EQ(rr.jobs_completed, full.jobs_completed);
    EXPECT_EQ(rr.currency_spent, full.currency_spent);
}

TEST(DualBudget, SweepParallelBitIdenticalToSerial) {
    // The acceptance bar: dual-budget scenarios through BatchSimulator +
    // SweepRunner, parallel results bit-identical to serial.
    sm::SimOptions metered;
    metered.currency_budgets = {core_hours(0.0), carbon_credits(0.0)};
    const auto full = shared_simulator().run(metered);
    const double full_ch = full.currency_spent.at("core-hours");
    const double full_g = full.currency_spent.at("gCO2e");

    std::vector<sm::ScenarioSpec> specs;
    for (const char* policy : {"Greedy", "EFT"}) {
        for (const double carbon_frac : {0.25, 0.5, 1.0}) {
            sm::ScenarioSpec spec;
            spec.label = std::string(policy) + "/carbon=" +
                         std::to_string(carbon_frac);
            spec.options.policy = {policy, {}};
            spec.options.currency_budgets = {
                core_hours(full_ch), carbon_credits(full_g * carbon_frac)};
            spec.options.finish_times = true;
            specs.push_back(std::move(spec));
        }
    }
    sm::SweepRunner runner(shared_simulator(), 4);
    const auto parallel = runner.run(specs);
    const auto serial = runner.run_serial(specs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].label);
        expect_identical(parallel[i].result, serial[i].result);
        EXPECT_EQ(parallel[i].result.currency_spent.size(), 2u);
    }
}

TEST(DualBudget, InvalidCurrencyConfigsAreRejected) {
    sm::SimOptions o;
    o.currency_budgets = {core_hours(10.0), core_hours(20.0)};  // duplicate
    EXPECT_THROW((void)shared_simulator().run(o), ga::util::PreconditionError);
    o.currency_budgets = {sm::CurrencyBudget{"", {"CBA", {}}, 1.0}};
    EXPECT_THROW((void)shared_simulator().run(o), ga::util::PreconditionError);
    o.currency_budgets = {core_hours(-1.0)};
    EXPECT_THROW((void)shared_simulator().run(o), ga::util::PreconditionError);
    o.currency_budgets = {
        sm::CurrencyBudget{"x", ac::AccountantSpec{"NoSuchMethod", {}}, 1.0}};
    EXPECT_THROW((void)shared_simulator().run(o), ga::util::RuntimeError);
}

const std::vector<BaselineRow>& baseline_rows() {
    static const std::vector<BaselineRow> rows = {
    {0, "Desktop", 0, 0x1p+2},
    {0, "Desktop", 1, 0x1.85c28f5c28f5cp+3},
    {0, "Desktop", 2, 0x1.8p+11},
    {0, "Desktop", 3, 0x1.8091a2b3c4d5ep-7},
    {0, "Cascade Lake", 0, 0x1p+2},
    {0, "Cascade Lake", 1, 0x1.85c28f5c28f5cp+3},
    {0, "Cascade Lake", 2, 0x1.8p+11},
    {0, "Cascade Lake", 3, 0x1.8091a2b3c4d5ep-7},
    {0, "Ice Lake", 0, 0x1p+2},
    {0, "Ice Lake", 1, 0x1.85c28f5c28f5cp+3},
    {0, "Ice Lake", 2, 0x1.8p+11},
    {0, "Ice Lake", 3, 0x1.8091a2b3c4d5ep-7},
    {0, "Zen3", 0, 0x1p+2},
    {0, "Zen3", 1, 0x1.85c28f5c28f5cp+3},
    {0, "Zen3", 2, 0x1.8p+11},
    {0, "Zen3", 3, 0x1.8091a2b3c4d5ep-7},
    {0, "FASTER", 0, 0x1p+2},
    {0, "FASTER", 1, 0x1.85c28f5c28f5cp+3},
    {0, "FASTER", 2, 0x1.8p+11},
    {0, "FASTER", 3, 0x1.8091a2b3c4d5ep-7},
    {0, "IC", 0, 0x1p+2},
    {0, "IC", 1, 0x1.85c28f5c28f5cp+3},
    {0, "IC", 2, 0x1.8p+11},
    {0, "IC", 3, 0x1.8091a2b3c4d5ep-7},
    {0, "Theta", 0, 0x1p+2},
    {0, "Theta", 1, 0x1.85c28f5c28f5cp+3},
    {0, "Theta", 2, 0x1.8p+11},
    {0, "Theta", 3, 0x1.8091a2b3c4d5ep-7},
    {0, "P100", 0, 0x1p+2},
    {0, "P100", 1, 0x1.85c28f5c28f5cp+3},
    {0, "P100", 2, 0x1.8p+11},
    {0, "P100", 3, 0x1.8091a2b3c4d5ep-7},
    {0, "P100", 4, 0x1p+2},
    {0, "V100", 0, 0x1p+2},
    {0, "V100", 1, 0x1.85c28f5c28f5cp+3},
    {0, "V100", 2, 0x1.8p+11},
    {0, "V100", 3, 0x1.8091a2b3c4d5ep-7},
    {0, "V100", 4, 0x1p+2},
    {0, "A100", 0, 0x1p+2},
    {0, "A100", 1, 0x1.85c28f5c28f5cp+3},
    {0, "A100", 2, 0x1.8p+11},
    {0, "A100", 3, 0x1.8091a2b3c4d5ep-7},
    {0, "A100", 4, 0x1p+2},
    {1, "Desktop", 0, 0x1.b774p+20},
    {1, "Desktop", 1, 0x1.a0fep+18},
    {1, "Desktop", 2, 0x1.312dp+29},
    {1, "Desktop", 3, 0x1.86ap+13},
    {1, "Cascade Lake", 0, 0x1.b774p+20},
    {1, "Cascade Lake", 1, 0x1.a0fep+18},
    {1, "Cascade Lake", 2, 0x1.312dp+29},
    {1, "Cascade Lake", 3, 0x1.86ap+13},
    {1, "Ice Lake", 0, 0x1.b774p+20},
    {1, "Ice Lake", 1, 0x1.a0fep+18},
    {1, "Ice Lake", 2, 0x1.312dp+29},
    {1, "Ice Lake", 3, 0x1.86ap+13},
    {1, "Zen3", 0, 0x1.b774p+20},
    {1, "Zen3", 1, 0x1.a0fep+18},
    {1, "Zen3", 2, 0x1.312dp+29},
    {1, "Zen3", 3, 0x1.86ap+13},
    {1, "FASTER", 0, 0x1.b774p+20},
    {1, "FASTER", 1, 0x1.a0fep+18},
    {1, "FASTER", 2, 0x1.312dp+29},
    {1, "FASTER", 3, 0x1.86ap+13},
    {1, "IC", 0, 0x1.b774p+20},
    {1, "IC", 1, 0x1.a0fep+18},
    {1, "IC", 2, 0x1.312dp+29},
    {1, "IC", 3, 0x1.86ap+13},
    {1, "Theta", 0, 0x1.b774p+20},
    {1, "Theta", 1, 0x1.a0fep+18},
    {1, "Theta", 2, 0x1.312dp+29},
    {1, "Theta", 3, 0x1.86ap+13},
    {1, "P100", 0, 0x1.b774p+20},
    {1, "P100", 1, 0x1.a0fep+18},
    {1, "P100", 2, 0x1.312dp+29},
    {1, "P100", 3, 0x1.86ap+13},
    {1, "P100", 4, 0x1.24f8p+23},
    {1, "V100", 0, 0x1.b774p+20},
    {1, "V100", 1, 0x1.a0fep+18},
    {1, "V100", 2, 0x1.312dp+29},
    {1, "V100", 3, 0x1.86ap+13},
    {1, "V100", 4, 0x1.24f8p+23},
    {1, "A100", 0, 0x1.b774p+20},
    {1, "A100", 1, 0x1.a0fep+18},
    {1, "A100", 2, 0x1.312dp+29},
    {1, "A100", 3, 0x1.86ap+13},
    {1, "A100", 4, 0x1.24f8p+23},
    {2, "Desktop", 0, 0x1.7333333333333p+3},
    {2, "Desktop", 1, 0x1.1a9374bc6a7fp+5},
    {2, "Desktop", 2, 0x1.1666666666666p+13},
    {2, "Desktop", 3, 0x1.16cffc5beeb4bp-5},
    {2, "Cascade Lake", 0, 0x1.2p+3},
    {2, "Cascade Lake", 1, 0x1.b67ae147ae148p+4},
    {2, "Cascade Lake", 2, 0x1.bp+12},
    {2, "Cascade Lake", 3, 0x1.b0a3d70a3d70ap-6},
    {2, "Ice Lake", 0, 0x1.399999999999ap+3},
    {2, "Ice Lake", 1, 0x1.dd74bc6a7ef9ep+4},
    {2, "Ice Lake", 2, 0x1.d666666666666p+12},
    {2, "Ice Lake", 3, 0x1.d718cdb5d11fap-6},
    {2, "Zen3", 0, 0x1.4666666666666p+3},
    {2, "Zen3", 1, 0x1.f0f1a9fbe76c9p+4},
    {2, "Zen3", 2, 0x1.e99999999999ap+12},
    {2, "Zen3", 3, 0x1.ea53490b9af72p-6},
    {2, "FASTER", 0, 0x1.3333333333333p+3},
    {2, "FASTER", 1, 0x1.d3b645a1cac08p+4},
    {2, "FASTER", 2, 0x1.ccccccccccccdp+12},
    {2, "FASTER", 3, 0x1.cd7b900aec33dp-6},
    {2, "IC", 0, 0x1.2p+3},
    {2, "IC", 1, 0x1.b67ae147ae148p+4},
    {2, "IC", 2, 0x1.bp+12},
    {2, "IC", 3, 0x1.b0a3d70a3d70ap-6},
    {2, "Theta", 0, 0x1.199999999999ap+2},
    {2, "Theta", 1, 0x1.acbc6a7ef9db2p+3},
    {2, "Theta", 2, 0x1.a666666666666p+11},
    {2, "Theta", 3, 0x1.a706995f5884ep-7},
    {2, "P100", 0, 0x1p+3},
    {2, "P100", 1, 0x1.85c28f5c28f5cp+4},
    {2, "P100", 2, 0x1.8p+12},
    {2, "P100", 3, 0x1.8091a2b3c4d5ep-6},
    {2, "P100", 4, 0x1.acccccccccccdp+4},
    {2, "V100", 0, 0x1p+3},
    {2, "V100", 1, 0x1.85c28f5c28f5cp+4},
    {2, "V100", 2, 0x1.8p+12},
    {2, "V100", 3, 0x1.8091a2b3c4d5ep-6},
    {2, "V100", 4, 0x1.cp+5},
    {2, "A100", 0, 0x1p+3},
    {2, "A100", 1, 0x1.85c28f5c28f5cp+4},
    {2, "A100", 2, 0x1.8p+12},
    {2, "A100", 3, 0x1.8091a2b3c4d5ep-6},
    {2, "A100", 4, 0x1.2p+6},
    {3, "Desktop", 0, 0x1.c5bc4p+19},
    {3, "Desktop", 1, 0x1.27799p+18},
    {3, "Desktop", 2, 0x1.46996p+28},
    {3, "Desktop", 3, 0x1.8bfd2p+12},
    {3, "Cascade Lake", 0, 0x1.d57b8p+19},
    {3, "Cascade Lake", 1, 0x1.875fep+18},
    {3, "Cascade Lake", 2, 0x1.5e384p+28},
    {3, "Cascade Lake", 3, 0x1.91e7155555555p+12},
    {3, "Ice Lake", 0, 0x1.cf2fp+19},
    {3, "Ice Lake", 1, 0x1.6103cp+18},
    {3, "Ice Lake", 2, 0x1.54c58p+28},
    {3, "Ice Lake", 3, 0x1.8f898p+12},
    {3, "Zen3", 0, 0x1.c6d58p+19},
    {3, "Zen3", 1, 0x1.2e2a6p+18},
    {3, "Zen3", 2, 0x1.483f4p+28},
    {3, "Zen3", 3, 0x1.8c66cp+12},
    {3, "FASTER", 0, 0x1.cdf9ap+19},
    {3, "FASTER", 1, 0x1.59a7a8p+18},
    {3, "FASTER", 2, 0x1.52f57p+28},
    {3, "FASTER", 3, 0x1.8f155p+12},
    {3, "IC", 0, 0x1.d57b8p+19},
    {3, "IC", 1, 0x1.875fep+18},
    {3, "IC", 2, 0x1.5e384p+28},
    {3, "IC", 3, 0x1.91e7155555555p+12},
    {3, "Theta", 0, 0x1.c3437p+19},
    {3, "Theta", 1, 0x1.186bbcp+18},
    {3, "Theta", 2, 0x1.42e428p+28},
    {3, "Theta", 3, 0x1.8b0f78p+12},
    {3, "P100", 0, 0x1.d8698p+19},
    {3, "P100", 1, 0x1.99376p+18},
    {3, "P100", 2, 0x1.629d4p+28},
    {3, "P100", 3, 0x1.9300cp+12},
    {3, "P100", 4, 0x1.92d5p+22},
    {3, "V100", 0, 0x1.d8698p+19},
    {3, "V100", 1, 0x1.99376p+18},
    {3, "V100", 2, 0x1.629d4p+28},
    {3, "V100", 3, 0x1.9300cp+12},
    {3, "V100", 4, 0x1.92d5p+22},
    {3, "A100", 0, 0x1.d8698p+19},
    {3, "A100", 1, 0x1.99376p+18},
    {3, "A100", 2, 0x1.629d4p+28},
    {3, "A100", 3, 0x1.9300cp+12},
    {3, "A100", 4, 0x1.d4cp+22},
    {4, "Desktop", 0, 0x1.c830c98baf508p+7},
    {4, "Desktop", 1, 0x1.c97a0d27a2fdep+5},
    {4, "Desktop", 2, 0x1.3e904ac34e153p+16},
    {4, "Desktop", 3, 0x1.9460d43994544p+0},
    {4, "Cascade Lake", 0, 0x1.c71a15d95ce97p+7},
    {4, "Cascade Lake", 1, 0x1.bc377635ea876p+5},
    {4, "Cascade Lake", 2, 0x1.3cee3d37d27aap+16},
    {4, "Cascade Lake", 3, 0x1.93f829337b124p+0},
    {4, "Ice Lake", 0, 0x1.c9f27a4346807p+7},
    {4, "Ice Lake", 1, 0x1.dedf477d5eb16p+5},
    {4, "Ice Lake", 2, 0x1.4132d3d6b0dd1p+16},
    {4, "Ice Lake", 3, 0x1.9509b673266c8p+0},
    {4, "Zen3", 0, 0x1.cc29bb44086aap+7},
    {4, "Zen3", 1, 0x1.f9dc6e95f4bcp+5},
    {4, "Zen3", 2, 0x1.4485b557d3bc6p+16},
    {4, "Zen3", 3, 0x1.95debf8084de1p+0},
    {4, "FASTER", 0, 0x1.924e51d39474ep+7},
    {4, "FASTER", 1, 0x1.09978fe7cf7f1p+6},
    {4, "FASTER", 2, 0x1.221908f6423d8p+16},
    {4, "FASTER", 3, 0x1.5ec65f956eef9p+0},
    {4, "IC", 0, 0x1.c89f59ea65d6cp+7},
    {4, "IC", 1, 0x1.cebcb8618f948p+5},
    {4, "IC", 2, 0x1.3f3623515fde9p+16},
    {4, "IC", 3, 0x1.948a5a169b6ffp+0},
    {4, "Theta", 0, 0x1.f6401317bb4b5p+7},
    {4, "Theta", 1, 0x1.df64098b6eeebp+5},
    {4, "Theta", 2, 0x1.5cfc8e6ab562cp+16},
    {4, "Theta", 3, 0x1.be50f3d40180fp+0},
    {4, "P100", 0, 0x1.baa8d8e36457dp+4},
    {4, "P100", 1, 0x1.3acd18eba958cp+3},
    {4, "P100", 2, 0x1.426f0c71884adp+13},
    {4, "P100", 3, 0x1.7fe586eddc4c3p-3},
    {4, "P100", 4, 0x1.3ffc5c71735a4p+7},
    {4, "V100", 0, 0x1.df5cbe589e969p+4},
    {4, "V100", 1, 0x1.0d290d8f44bffp+4},
    {4, "V100", 2, 0x1.797ce4a15fa9p+13},
    {4, "V100", 3, 0x1.8dae3547f74abp-3},
    {4, "V100", 4, 0x1.6a252bb51eb0ap+7},
    {4, "A100", 0, 0x1.59340aa92ba01p+5},
    {4, "A100", 1, 0x1.c7e526b850a4bp+5},
    {4, "A100", 2, 0x1.5b06f38bfa53ap+14},
    {4, "A100", 3, 0x1.dcf079c90575ep-3},
    {4, "A100", 4, 0x1.48d5f6edcfa7p+8},
    };
    return rows;
}

}  // namespace
