// green-ACCESS platform walk-through: register endpoints, grant a fungible
// allocation, get a pre-submission estimate, submit real kernels, and audit
// the ledger — the full Fig-3 pipeline (endpoint telemetry -> Kafka-like
// broker -> streaming monitor -> measured-energy charging).
#include <cstdio>

#include "faas/platform.hpp"
#include "kernels/kernel.hpp"
#include "machine/catalog.hpp"

int main() {
    ga::faas::GreenAccess platform({"EBA", {}});
    for (const auto& entry : ga::machine::chameleon_cpu_nodes()) {
        platform.register_endpoint(entry);
    }
    platform.create_user("aisha", 50'000.0);  // EBA joule-equivalents

    // Ask the prediction service before committing.
    const auto matmul = ga::kernels::make_matmul();
    const auto profile = matmul->run(512).profile;
    std::printf("prediction for MatMul n=512 on 2 cores (EBA):\n");
    for (const auto& est : platform.predict(profile, 2)) {
        std::printf("  %-13s %7.2f s %9.1f J -> cost %9.1f\n",
                    est.machine.c_str(), est.seconds, est.energy_j, est.cost);
    }

    // Submit a mix of functions; the router picks the cheapest endpoint.
    const char* kernels[] = {"MatMul", "Pagerank", "BFS", "Cholesky"};
    std::printf("\nsubmissions:\n");
    for (const char* name : kernels) {
        const auto kernel = ga::kernels::make_kernel(name);
        const auto run = kernel->run(kernel->test_scale());
        const auto r = platform.submit("aisha", run.profile, 2);
        if (!r.accepted) {
            std::printf("  %-9s REJECTED (%s)\n", name, r.reject_reason.c_str());
            continue;
        }
        std::printf("  %-9s -> %-13s %7.3f s, measured %8.2f J, charged %8.2f\n",
                    name, r.machine.c_str(), r.duration_s, r.measured_energy_j,
                    r.cost);
    }

    // Audit trail: what the frontend would show the user. history() returns
    // a snapshot copy (the ledger is thread-safe), so take it once.
    std::printf("\nledger for aisha (remaining %.1f):\n",
                platform.ledger().remaining("aisha",
                                            ga::acct::Ledger::kDefaultCurrency));
    const auto history = platform.ledger().history();
    for (const auto& t : history) {
        std::printf("  tx#%llu %-13s %4d cores, cost %9.2f %s (%.2f J over %.3f s)\n",
                    static_cast<unsigned long long>(t.id), t.machine.c_str(),
                    t.cores, t.cost, t.unit.c_str(), t.energy_j, t.duration_s);
    }
    const double idle = platform.monitor().idle_estimate_w(
        history.empty() ? "Desktop" : history[0].machine);
    std::printf("\nmonitor's fitted idle power on the busiest endpoint: %.1f W\n",
                idle);
    return 0;
}
