// Micro-benchmarks (google-benchmark): the accounting hot paths — cost
// evaluation per registry method (called once per job per candidate
// machine by the simulator's policy loop), registry construction from an
// AccountantSpec, and multi-currency ledger charges.
#include <benchmark/benchmark.h>

#include "core/accounting.hpp"
#include "core/allocation.hpp"
#include "machine/catalog.hpp"

namespace {

ga::acct::JobUsage bench_usage() {
    ga::acct::JobUsage usage;
    usage.duration_s = 1234.0;
    usage.energy_j = 5.6e6;
    usage.cores = 16;
    usage.priced_at_s = 7200.0;
    return usage;
}

void BM_Charge(benchmark::State& state, const char* name) {
    const auto accountant = ga::acct::AccountantRegistry::global().make(
        ga::acct::AccountantSpec{name, {}});
    const auto& machine =
        ga::machine::find(ga::machine::CatalogId::InstitutionalCluster);
    const auto usage = bench_usage();
    for (auto _ : state) {
        benchmark::DoNotOptimize(accountant->charge(usage, machine));
    }
}

// Spec -> accountant construction (the once-per-run registry cost).
void BM_RegistryMake(benchmark::State& state) {
    const ga::acct::AccountantSpec spec{"CarbonTax", {{"rate", 0.02}}};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ga::acct::AccountantRegistry::global().make(spec));
    }
}

// Multi-currency charge: dual-budget admission + debit + two transactions,
// under the ledger's internal lock (the green-ACCESS settlement path).
void BM_LedgerDualCharge(benchmark::State& state) {
    ga::acct::Ledger ledger;
    ledger.define_currency("core-hours", {"Runtime", {}});
    ledger.define_currency("gCO2e", {"CBA", {}});
    ledger.create_account("user", {{"core-hours", 1e18}, {"gCO2e", 1e18}});
    const auto& machine =
        ga::machine::find(ga::machine::CatalogId::InstitutionalCluster);
    const auto usage = bench_usage();
    for (auto _ : state) {
        benchmark::DoNotOptimize(ledger.charge("user", usage, machine));
    }
}

}  // namespace

BENCHMARK_CAPTURE(BM_Charge, runtime, "Runtime");
BENCHMARK_CAPTURE(BM_Charge, energy, "Energy");
BENCHMARK_CAPTURE(BM_Charge, peak, "Peak");
BENCHMARK_CAPTURE(BM_Charge, eba, "EBA");
BENCHMARK_CAPTURE(BM_Charge, cba, "CBA");
BENCHMARK_CAPTURE(BM_Charge, blended, "Blended");
BENCHMARK_CAPTURE(BM_Charge, carbon_tax, "CarbonTax");
BENCHMARK(BM_RegistryMake);
// Fixed iteration count: every charge appends two history rows, so an
// auto-scaled run would grow the audit trail (and its memory) unboundedly.
BENCHMARK(BM_LedgerDualCharge)->Iterations(100000);
