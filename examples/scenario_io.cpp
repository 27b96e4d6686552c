// Scenario I/O: the same experiment expressed in code and as a file.
//
// Builds a small sweep grid programmatically, serializes it to the
// declarative scenario-file form (the format `ga-sim` runs and
// examples/scenarios/ commits), loads it back, and runs both through the
// sweep engine — demonstrating that a scenario file is just a committed,
// diffable `SweepGrid`, and that results serialize deterministically.
#include <cstdio>

#include "io/results.hpp"
#include "io/scenario.hpp"
#include "sim/sweep.hpp"
#include "workload/workload.hpp"

int main() {
    // 1. An experiment, in code: two policies x EBA x {budgeted, not}.
    ga::io::ScenarioFile scenario;
    scenario.name = "scenario-io-demo";
    scenario.workload.base_jobs = 150;  // tiny workload, runs in ~a second
    scenario.workload.users = 20;
    scenario.workload.span_days = 1.0;
    scenario.grid.policies = {{"Greedy", {}}, {"EFT", {}}};
    scenario.grid.pricings = {{"EBA", {}}};
    scenario.grid.budgets = {0.0, 2e7};

    // 2. The same experiment, as a declarative file.
    const std::string text =
        ga::io::write_json(ga::io::scenario_to_json(scenario));
    std::printf("--- scenario file ---\n%s", text.c_str());

    // 3. Load it back and run: the loaded grid expands to the same specs.
    const auto loaded = ga::io::scenario_from_json(ga::io::parse_json(text));
    const ga::sim::BatchSimulator simulator(
        ga::workload::build_workload(loaded.workload));
    ga::sim::SweepRunner runner(simulator);
    const auto outcomes = runner.run(loaded.grid);

    // 4. Serialize the results; doubles are round-trip exact, bytes are
    //    deterministic — what `ga-sim --out csv` would print.
    std::printf("--- results (csv) ---\n%s",
                ga::io::results_to_csv(outcomes).c_str());
    return 0;
}
