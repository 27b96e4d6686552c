// Ablations of the design choices DESIGN.md calls out:
//   A1 — EBA's β (potential-use weight): sweeping β shows when the cheapest
//        machine flips from Desktop toward the lowest-energy node.
//   A2 — EBA with/without the PUE refinement (§3.2).
//   A3 — Depreciation lifetime and method: the machine's carbon rate.
//   A4 — Per-job static vs hourly carbon intensity on a solar-heavy grid.
//   A5 — Mixed policy threshold: cost/completion-time tradeoff.
//   A6 — cluster outage resilience (scenario dimension beyond the paper).
//   A7 — arrival-burst compression (scenario dimension beyond the paper).
//   A8 — context-aware routing policies (open policy API beyond the paper):
//        carbon-aware and queue-balancing strategies vs the paper's best,
//        on the Fig-7 regional grids under CBA.
#include <cstdio>

#include "bench_common.hpp"
#include "carbon/grids.hpp"
#include "core/accounting.hpp"
#include "kernels/kernel.hpp"
#include "machine/perf.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

int main() {
    // ---- A1: beta sweep on the Table-1 job ----
    ga::bench::banner("Ablation A1: EBA beta sweep (Cholesky, 1 core)");
    const auto kernel = ga::kernels::make_cholesky();
    const auto result = kernel->run(1024);  // normalized costs are scale-free
    const ga::machine::CpuPerfModel model;
    ga::util::TablePrinter beta_table(
        {"beta", "Desktop", "Cascade Lake", "Ice Lake", "Zen3", "cheapest"});
    for (const double beta : {0.25, 0.5, 0.75, 1.0}) {
        const ga::acct::EnergyBasedAccounting eba(beta);
        std::vector<std::string> row = {ga::util::TablePrinter::num(beta, 2)};
        double best = 1e300;
        double ref = 0.0;
        std::string best_name;
        std::vector<double> costs;
        for (const auto& entry : ga::machine::chameleon_cpu_nodes()) {
            const auto exec = model.execute(result.profile, entry.node, 1);
            ga::acct::JobUsage u{exec.seconds, exec.joules, 1, 0, 0.0};
            const double c = eba.charge(u, entry);
            costs.push_back(c);
            if (ref == 0.0) ref = c;
            if (c < best) {
                best = c;
                best_name = entry.node.name;
            }
        }
        for (const double c : costs) row.push_back(ga::bench::norm(c, ref));
        row.push_back(best_name);
        beta_table.add_row(std::move(row));
    }
    std::printf("%s", beta_table.render().c_str());
    std::printf(
        "As beta shrinks, the potential-use term fades and EBA converges to\n"
        "pure energy pricing — the least-energy node (Zen3) takes over.\n");

    // ---- A2: PUE refinement ----
    ga::bench::banner("Ablation A2: EBA with facility PUE");
    const ga::acct::EnergyBasedAccounting plain(1.0, false);
    const ga::acct::EnergyBasedAccounting with_pue(1.0, true);
    ga::util::TablePrinter pue_table({"Machine", "PUE", "EBA", "EBA+PUE", "ratio"});
    for (const auto& entry : ga::machine::chameleon_cpu_nodes()) {
        const auto exec = model.execute(result.profile, entry.node, 1);
        ga::acct::JobUsage u{exec.seconds, exec.joules, 1, 0, 0.0};
        const double a = plain.charge(u, entry);
        const double b = with_pue.charge(u, entry);
        pue_table.add_row({entry.node.name,
                           ga::util::TablePrinter::num(entry.pue, 2),
                           ga::util::TablePrinter::num(a, 1),
                           ga::util::TablePrinter::num(b, 1),
                           ga::util::TablePrinter::num(b / a, 3)});
    }
    std::printf("%s", pue_table.render().c_str());

    // ---- A3: depreciation lifetime/method on FASTER's carbon rate ----
    ga::bench::banner("Ablation A3: depreciation schedule (FASTER, age 0)");
    const auto& faster = ga::machine::find("FASTER");
    ga::util::TablePrinter dep_table(
        {"Lifetime (y)", "DDB rate (g/h)", "Linear rate (g/h)"});
    for (const double life : {3.0, 5.0, 7.0}) {
        const ga::carbon::DepreciationSchedule s(faster.embodied().total_g(), life);
        dep_table.add_row(
            {ga::util::TablePrinter::num(life, 0),
             ga::util::TablePrinter::num(
                 s.rate_g_per_hour(0.0,
                                   ga::carbon::DepreciationMethod::DoubleDeclining),
                 1),
             ga::util::TablePrinter::num(
                 s.rate_g_per_hour(0.0, ga::carbon::DepreciationMethod::Linear),
                 1)});
    }
    std::printf("%s", dep_table.render().c_str());

    // ---- A4: static vs hourly intensity ----
    ga::bench::banner("Ablation A4: static vs hourly intensity (AU-SA, 1 kWh job)");
    const auto trace = ga::carbon::synthesize(ga::carbon::region("AU-SA"), 7, 5);
    std::map<std::string, ga::carbon::IntensityTrace> traces;
    traces.emplace("IC", trace);
    const ga::acct::CarbonBasedAccounting hourly(std::move(traces));
    const ga::acct::CarbonBasedAccounting yearly;  // falls back to Table-5 average
    const auto& ic = ga::machine::find("IC");
    ga::util::TablePrinter i_table({"Submit hour", "hourly op (g)", "static op (g)"});
    for (const int h : {2, 8, 14, 20}) {  // UTC; AU-SA solar noon ~02:30 UTC
        ga::acct::JobUsage u{3600.0, 3.6e6, 16, 0, 2 * 86400.0 + h * 3600.0};
        i_table.add_row({std::to_string(h),
                         ga::util::TablePrinter::num(hourly.operational_g(u, ic), 1),
                         ga::util::TablePrinter::num(yearly.operational_g(u, ic), 1)});
    }
    std::printf("%s", i_table.render().c_str());
    std::printf(
        "Static pricing cannot reward solar-aligned submission; hourly CBA\n"
        "makes the same job several times cheaper at solar noon.\n");

    // ---- A5: Mixed threshold sweep ----
    ga::bench::banner("Ablation A5: Mixed policy threshold (small workload)");
    ga::workload::TraceOptions options;
    options.base_jobs = 3000;
    options.users = 60;
    options.span_days = 5.0;
    options.seed = 77;
    const ga::sim::BatchSimulator simulator(ga::workload::build_workload(options));
    ga::sim::SweepRunner runner(simulator);
    ga::sim::SweepGrid mixed_grid;
    for (const double threshold : {1.25, 1.5, 2.0, 4.0, 100.0}) {
        mixed_grid.policies.push_back({"Mixed", {{"threshold", threshold}}});
    }
    ga::util::TablePrinter mixed_table(
        {"Threshold", "Cost", "Makespan (d)", "Energy (MWh)"});
    for (const auto& outcome : runner.run(mixed_grid)) {
        const auto& r = outcome.result;
        mixed_table.add_row(
            {ga::util::TablePrinter::num(
                 outcome.spec.options.policy.param("threshold", 2.0), 2),
             ga::util::TablePrinter::num(r.total_cost / 1e6, 1),
             ga::util::TablePrinter::num(r.makespan_s / 86400.0, 1),
             ga::util::TablePrinter::num(r.energy_mwh, 3)});
    }
    std::printf("%s", mixed_table.render().c_str());
    std::printf(
        "Low thresholds chase completion time (toward EFT behavior, higher\n"
        "cost); high thresholds almost never switch (toward Greedy).\n");

    // ---- A6: cluster-outage resilience (new scenario dimension) ----
    // FASTER (cluster 0, 32 nodes) loses half, then all, of its nodes on
    // day 2. Queued jobs that no longer fit are refunded and skipped; the
    // policies reroute the rest of the trace.
    ga::bench::banner("Ablation A6: FASTER outage on day 2 (new dimension)");
    ga::sim::SweepGrid outage_grid;
    outage_grid.policies = {{"Greedy", {}}, {"EFT", {}}, {"FASTER", {}}};
    outage_grid.outages = {
        std::nullopt,
        ga::sim::ClusterOutage{0, 2 * 86400.0, 16},
        ga::sim::ClusterOutage{0, 2 * 86400.0, 32},
    };
    ga::util::TablePrinter outage_table(
        {"Scenario", "Jobs done", "Skipped", "FASTER jobs", "Makespan (d)"});
    for (const auto& outcome : runner.run(outage_grid)) {
        const auto& r = outcome.result;
        outage_table.add_row(
            {outcome.spec.label, std::to_string(r.jobs_completed),
             std::to_string(r.jobs_skipped),
             std::to_string(r.jobs_per_machine.at("FASTER")),
             ga::util::TablePrinter::num(r.makespan_s / 86400.0, 2)});
    }
    std::printf("%s", outage_table.render().c_str());
    std::printf(
        "Adaptive policies absorb the outage by rerouting; the fixed policy\n"
        "strands its users once the pinned machine shrinks below job sizes.\n");

    // ---- A7: arrival-burst scaling (new scenario dimension) ----
    // The same trace compressed into ever-burstier submission windows.
    ga::bench::banner("Ablation A7: arrival-burst compression (new dimension)");
    ga::sim::SweepGrid burst_grid;
    burst_grid.policies = {{"Greedy", {}}};
    burst_grid.arrival_compressions = {1.0, 2.0, 4.0, 8.0};
    burst_grid.base.finish_times = true;  // for the mean finish time
    ga::util::TablePrinter burst_table(
        {"Compression", "Jobs done", "Makespan (d)", "Mean finish (h)"});
    for (const auto& outcome : runner.run(burst_grid)) {
        const auto& r = outcome.result;
        double mean_finish = 0.0;
        for (const double t : r.finish_times_s) mean_finish += t;
        mean_finish /= static_cast<double>(r.finish_times_s.size());
        burst_table.add_row(
            {ga::util::TablePrinter::num(
                 outcome.spec.options.arrival_compression, 1),
             std::to_string(r.jobs_completed),
             ga::util::TablePrinter::num(r.makespan_s / 86400.0, 2),
             ga::util::TablePrinter::num(mean_finish / 3600.0, 1)});
    }
    std::printf("%s", burst_table.render().c_str());
    std::printf(
        "Compressing arrivals stresses the queues: completed work holds but\n"
        "contention grows as the submission window shrinks.\n");

    // ---- A8: context-aware routing (open policy API, beyond the paper) ----
    // Registry policies swept by name next to the paper's policies:
    // CarbonAware routes on live (or one-hour-ahead) grid intensity,
    // LeastLoaded balances queue depths. Regional grids, CBA pricing.
    ga::bench::banner("Ablation A8: carbon-aware routing on regional grids");
    ga::sim::SweepGrid carbon_grid;
    carbon_grid.policies = {
        {"Greedy", {}},
        {"Energy", {}},
        {"CarbonAware", {}},
        {"CarbonAware", {{"forecast", 1.0}}},
        {"LeastLoaded", {}},
    };
    carbon_grid.pricings = {{"CBA", {}}};
    carbon_grid.regional_grids = {true};
    ga::util::TablePrinter carbon_table({"Scenario", "Op carbon (kg)",
                                         "Total carbon (kg)", "Cost (kg eq)",
                                         "Makespan (d)"});
    for (const auto& outcome : runner.run(carbon_grid)) {
        const auto& r = outcome.result;
        carbon_table.add_row(
            {outcome.spec.label,
             ga::util::TablePrinter::num(r.operational_carbon_kg, 1),
             ga::util::TablePrinter::num(r.attributed_carbon_kg, 1),
             ga::util::TablePrinter::num(r.total_cost / 1000.0, 1),
             ga::util::TablePrinter::num(r.makespan_s / 86400.0, 2)});
    }
    std::printf("%s", carbon_table.render().c_str());
    std::printf(
        "CBA-Greedy already internalizes carbon through prices; CarbonAware\n"
        "chases the cleanest grid directly (lowest operational carbon) at\n"
        "some cost in makespan, and LeastLoaded trades carbon for speed.\n");
    return 0;
}
