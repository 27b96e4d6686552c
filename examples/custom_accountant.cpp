// Writing a custom accounting method: the open accounting API lets a site
// plug its own pricing into the ledger, the batch simulator, and the sweep
// engine without touching their code. This example registers "EuroBill" —
// a money bill combining an energy tariff, a core-hour rate, and a carbon
// levy — sweeps it by name against builtin methods, and walks through the
// titular dual-budget scenario: one user holding core-hours AND carbon
// credits at the same time.
#include <cstdio>
#include <memory>

#include "core/accounting.hpp"
#include "core/allocation.hpp"
#include "machine/catalog.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

/// A site's monthly bill in euros: energy at the utility tariff, occupied
/// cores at an amortized capacity rate, and emitted carbon at an internal
/// carbon price. Parameters: "kwh" (EUR/kWh), "core_hour" (EUR/core-hour),
/// "ton_co2" (EUR/tCO2e).
class EuroBillAccounting final : public ga::acct::Accountant {
public:
    EuroBillAccounting(double eur_per_kwh, double eur_per_core_hour,
                       double eur_per_ton_co2,
                       ga::acct::CarbonBasedAccounting carbon = {})
        : eur_per_kwh_(eur_per_kwh),
          eur_per_core_hour_(eur_per_core_hour),
          eur_per_ton_co2_(eur_per_ton_co2),
          carbon_(std::move(carbon)) {}

    double charge(const ga::acct::JobUsage& usage,
                  const ga::machine::CatalogEntry& m) const override {
        const double kwh = usage.energy_j / 3.6e6;
        const double tons = carbon_.charge(usage, m) / 1e6;  // g -> t
        return eur_per_kwh_ * kwh +
               eur_per_core_hour_ * runtime_.charge(usage, m) +
               eur_per_ton_co2_ * tons;
    }
    std::string_view name() const noexcept override { return "EuroBill"; }
    std::string_view unit() const noexcept override { return "EUR"; }

    // Opt into scenario grid traces so the carbon levy follows the
    // facility's actual grid, exactly like the builtin CBA.
    std::unique_ptr<ga::acct::Accountant> with_grid(
        const std::map<std::string, ga::carbon::IntensityTrace>& intensity)
        const override {
        return std::make_unique<EuroBillAccounting>(
            eur_per_kwh_, eur_per_core_hour_, eur_per_ton_co2_,
            ga::acct::CarbonBasedAccounting(intensity,
                                            carbon_.depreciation()));
    }

private:
    double eur_per_kwh_;
    double eur_per_core_hour_;
    double eur_per_ton_co2_;
    ga::acct::RuntimeAccounting runtime_;
    ga::acct::CarbonBasedAccounting carbon_;
};

}  // namespace

int main() {
    // One-time registration, typically at program startup. From here on the
    // method is addressable by name anywhere an AccountantSpec goes:
    // SimOptions, SweepGrid axes, Ledger currencies.
    ga::acct::AccountantRegistry::global().register_accountant(
        "EuroBill", [](const ga::acct::AccountantSpec& spec) {
            return std::make_unique<EuroBillAccounting>(
                spec.param("kwh", 0.30), spec.param("core_hour", 0.02),
                spec.param("ton_co2", 90.0));
        });

    std::printf("registered accountants:");
    for (const auto& name : ga::acct::AccountantRegistry::global().names()) {
        std::printf(" %s", name.c_str());
    }

    // ---- 1. price one job under builtins and the custom method ----------
    const auto& zen3 = ga::machine::find("Zen3");
    ga::acct::JobUsage usage;
    usage.duration_s = 2.0 * 3600.0;
    usage.energy_j = 4.3e6;
    usage.cores = 16;
    std::printf("\n\na 2 h, 16-core, 4.3 MJ job on %s costs:\n",
                zen3.node.name.c_str());
    for (const char* name : {"Runtime", "EBA", "CBA", "CarbonTax", "EuroBill"}) {
        const auto accountant = ga::acct::AccountantRegistry::global().make(
            ga::acct::AccountantSpec{name, {}});
        std::printf("  %-10s %12.4f %s\n", name,
                    accountant->charge(usage, zen3),
                    std::string(accountant->unit()).c_str());
    }

    // ---- 2. the titular scenario: core-hours AND carbon credits ---------
    // alice's account holds two currencies; a job is admitted only if both
    // allocations can pay, and each charge writes one self-describing
    // transaction per currency.
    ga::acct::Ledger ledger;
    ledger.define_currency("core-hours", {"Runtime", {}});
    ledger.define_currency("gCO2e", {"CBA", {}});
    ledger.create_account("alice", {{"core-hours", 5e4}, {"gCO2e", 1e4}});
    const auto outcome = ledger.charge("alice", usage, zen3);
    std::printf("\nalice is charged %.1f core-hours and %.1f gCO2e (%s)\n",
                outcome.costs.at("core-hours"), outcome.costs.at("gCO2e"),
                outcome.admitted ? "admitted" : "refused");
    const auto history = ledger.history();  // one snapshot, used twice below
    const auto& tx = history.back();
    std::printf("last transaction: #%llu %s %.1f %s on %s (%d cores)\n",
                static_cast<unsigned long long>(tx.id), tx.currency.c_str(),
                tx.cost, tx.unit.c_str(), tx.machine.c_str(), tx.cores);
    // The job was preempted: a dual-currency charge wrote one transaction
    // per currency, so a full refund reverses every leg.
    for (const auto& charged : history) {
        if (charged.cost > 0.0) (void)ledger.refund("alice", charged.id);
    }
    std::printf("after the preemption refund, alice has %.1f core-hours and "
                "%.1f gCO2e again\n",
                ledger.remaining("alice", "core-hours"),
                ledger.remaining("alice", "gCO2e"));

    // ---- 3. sweep the custom method by name against builtins ------------
    std::printf("\nbuilding a small workload...\n");
    ga::workload::TraceOptions options;
    options.base_jobs = 3000;
    options.users = 60;
    options.span_days = 5.0;
    options.seed = 7;
    const ga::sim::BatchSimulator simulator(
        ga::workload::build_workload(options));

    // Same policy, four pricing rules: the carbon price is the only thing
    // changing how Greedy perceives the machines.
    ga::sim::SweepGrid grid;
    grid.pricings = {
        ga::acct::AccountantSpec{"EBA", {}},
        ga::acct::AccountantSpec{"CarbonTax", {}},
        ga::acct::AccountantSpec{"EuroBill", {{"ton_co2", 0.0}}},
        ga::acct::AccountantSpec{"EuroBill", {{"ton_co2", 400.0}}},
    };
    grid.regional_grids = {true};

    ga::sim::SweepRunner runner(simulator);
    ga::util::TablePrinter table({"Scenario", "Jobs done", "Op carbon (kg)",
                                  "Total cost", "Makespan (d)"});
    table.set_title("Custom accountant vs builtins (Greedy, regional grids)");
    for (const auto& outcome2 : runner.run(grid)) {
        const auto& r = outcome2.result;
        table.add_row({outcome2.spec.label, std::to_string(r.jobs_completed),
                       ga::util::TablePrinter::num(r.operational_carbon_kg, 1),
                       ga::util::TablePrinter::num(r.total_cost, 3),
                       ga::util::TablePrinter::num(r.makespan_s / 86400.0, 2)});
    }
    std::printf("%s", table.render().c_str());
    std::printf(
        "\nA high internal carbon price (400 EUR/t) steers Greedy toward the\n"
        "clean-grid machines; at 0 EUR/t the bill is carbon-blind — the\n"
        "method, its parameters, and the sweep never touched the simulator\n"
        "core.\n");
    return 0;
}
