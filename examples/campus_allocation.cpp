// Campus-allocation scenario: a research group must decide how to spend a
// fixed energy allocation across four machines (the paper's intro
// motivation). Compares what an energy-aware user achieves against a
// performance-chaser with the same budget.
#include <cstdio>

#include "sim/simulator.hpp"
#include "workload/workload.hpp"

int main() {
    // A month of group workload: 8,000 jobs from 50 users.
    ga::workload::TraceOptions options;
    options.base_jobs = 4000;
    options.users = 50;
    options.span_days = 30.0;
    options.seed = 7;
    const ga::sim::BatchSimulator simulator(ga::workload::build_workload(options));

    // Size the allocation at 60% of what a cost-optimal user would need.
    const ga::sim::SimOptions greedy;  // Greedy routing, EBA pricing
    const double budget = simulator.run(greedy).total_cost * 0.6;
    std::printf("group allocation: %.3g EBA units\n\n", budget);

    std::printf("%-10s %14s %10s %12s %14s\n", "policy", "work (core-h)",
                "jobs", "energy(MWh)", "makespan (d)");
    for (const auto& policy : ga::sim::all_policies()) {
        ga::sim::SimOptions o;
        o.policy = policy;
        o.budget = budget;
        const auto r = simulator.run(o);
        std::printf("%-10s %14.0f %10zu %12.3f %14.1f\n", policy.label().c_str(),
                    r.work_core_hours, r.jobs_completed, r.energy_mwh,
                    r.makespan_s / 86400.0);
    }
    std::printf(
        "\nReading: with energy-based charging, the group computes the most\n"
        "science per allocation by following cost (Greedy) or energy; chasing\n"
        "speed (EFT/Runtime) or pinning one machine burns the budget early.\n");
    return 0;
}
