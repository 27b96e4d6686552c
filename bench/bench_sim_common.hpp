// Shared setup for the §5 simulation benches (Figs 5–7, Table 6). All
// drivers run their scenario grids through the sweep engine so every
// policy/pricing/budget point executes concurrently over one shared
// immutable simulator.
#pragma once

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "workload/workload.hpp"

namespace ga::bench {

/// Builds the paper-scale workload (142,380 jobs) and the simulator.
/// Pass `scale < 1.0` to shrink for quick runs.
inline ga::sim::BatchSimulator make_simulator(double scale = 1.0) {
    ga::workload::TraceOptions options;  // paper defaults: 71,190 x 2 jobs
    options.base_jobs =
        static_cast<std::size_t>(static_cast<double>(options.base_jobs) * scale);
    std::printf("building workload: %zu jobs over %zu users...\n",
                options.total_jobs(), options.users);
    return ga::sim::BatchSimulator(ga::workload::build_workload(options));
}

/// Builds the simulator at the scale the parsed bench args call for
/// (paper scale, or ~1% under `--smoke`).
inline ga::sim::BatchSimulator make_simulator(const BenchArgs& args) {
    return make_simulator(args.workload_scale());
}

/// Expands a scenario grid and executes it concurrently. Outcome order is
/// the grid's deterministic expansion order (policies vary slowest). This
/// one-shot helper spawns a fresh pool per call; drivers issuing several
/// grids should hold their own `SweepRunner` (see bench_ablations).
inline std::vector<ga::sim::SweepOutcome> sweep(
    const ga::sim::BatchSimulator& simulator, const ga::sim::SweepGrid& grid) {
    ga::sim::SweepRunner runner(simulator);
    std::printf("sweeping %zu scenarios over %zu threads...\n", grid.size(),
                runner.threads());
    return runner.run(grid);
}

/// Runs one policy/pricing combination (single-scenario convenience).
inline ga::sim::SimResult run(const ga::sim::BatchSimulator& simulator,
                              ga::sim::PolicySpec policy,
                              ga::acct::AccountantSpec pricing,
                              double budget = 0.0, bool regional = false) {
    ga::sim::SimOptions o;
    o.policy = std::move(policy);
    o.pricing = std::move(pricing);
    o.budget = budget;
    o.regional_grids = regional;
    return simulator.run(o);
}

}  // namespace ga::bench
