// Quickstart: price one computation under all five accounting methods.
//
// Shows the core API in ~40 lines: run a work-metered kernel, map it onto a
// catalog machine with the execution model, and ask each accountant what the
// job costs.
#include <cstdio>

#include "core/accounting.hpp"
#include "core/allocation.hpp"
#include "kernels/kernel.hpp"
#include "machine/catalog.hpp"
#include "machine/perf.hpp"

int main() {
    // 1. Really execute an application and capture its work profile.
    const auto kernel = ga::kernels::make_cholesky();
    const auto run = kernel->run(2048);
    std::printf("Cholesky n=2048: %.2f Gflop, %.2f GB moved (host: %.2f s)\n",
                run.profile.flops * 1e-9, run.profile.mem_bytes * 1e-9,
                run.wall_seconds);

    // 2. Map the profile onto a machine from the paper's catalog.
    const auto& machine = ga::machine::find("Zen3");
    const ga::machine::CpuPerfModel model;
    const auto exec = model.execute(run.profile, machine.node, 4);
    std::printf("on %s with 4 cores: %.2f s, %.1f J\n",
                machine.node.name.c_str(), exec.seconds, exec.joules);

    // 3. Price the job under each accounting method.
    ga::acct::JobUsage usage;
    usage.duration_s = exec.seconds;
    usage.energy_j = exec.joules;
    usage.cores = 4;
    for (const auto& method : ga::acct::all_methods()) {
        const auto accountant = ga::acct::AccountantRegistry::global().make(method);
        std::printf("  %-8s charge: %10.4f %s\n", method.name.c_str(),
                    accountant->charge(usage, machine),
                    std::string(accountant->unit()).c_str());
    }

    // 4. Fungible allocation: define a currency priced by CBA, grant a
    // budget in it and spend from it.
    ga::acct::Ledger ledger;
    ledger.define_currency("gCO2e", {"CBA", {}});
    ledger.create_account("you", {{"gCO2e", 10'000.0}});  // 10 kgCO2e
    const auto charged = ledger.charge("you", usage, machine);
    std::printf("charged %.3f gCO2e; %.1f gCO2e remaining\n",
                charged.costs.at("gCO2e"), ledger.remaining("you", "gCO2e"));

    // 5. Multi-currency account: core hours AND carbon credits at once —
    // the job is admitted only if both allocations can pay.
    ledger.define_currency("core-hours", {"Runtime", {}});
    ledger.create_account("dual", {{"core-hours", 500.0}, {"gCO2e", 10'000.0}});
    const auto outcome = ledger.charge("dual", usage, machine);
    std::printf("dual account charged %.3f core-hours + %.3f gCO2e (%s)\n",
                outcome.costs.at("core-hours"), outcome.costs.at("gCO2e"),
                outcome.admitted ? "admitted" : "refused");
    return 0;
}
