// Figure 5: simulating EBA across the eight machine-selection policies.
//   5a — work completed (machine-averaged core-hours) under a fixed
//        EBA allocation;
//   5b — jobs finished over time (unbudgeted runs);
//   5c — distribution of jobs over machines per policy.
//
// The 16 scenario runs (8 policies × {budgeted, unbudgeted}) execute
// concurrently through the sweep engine.
#include <cstdio>

#include "bench_common.hpp"
#include "bench_sim_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    const auto args = ga::bench::parse_bench_args(argc, argv);
    ga::bench::banner("Figure 5: EBA simulation (8 policies)");
    const auto simulator = ga::bench::make_simulator(args);

    // The fixed allocation: 75% of what Greedy needs for the full workload.
    const auto greedy_full =
        ga::bench::run(simulator, {"Greedy", {}}, {"EBA", {}});
    const double budget = greedy_full.total_cost * 0.75;
    std::printf("fixed EBA allocation: %.3g (75%% of Greedy's full-run cost)\n",
                budget);

    // One grid, all policies, both budget levels; rows are classified by
    // each outcome's own spec, independent of expansion order.
    ga::sim::SweepGrid grid;
    grid.policies = ga::sim::all_policies();
    grid.pricings = {{"EBA", {}}};
    grid.budgets = {budget, 0.0};
    grid.base.finish_times = true;  // Fig 5b counts jobs finished over time
    const auto outcomes = ga::bench::sweep(simulator, grid);

    // ---- 5a: work at fixed allocation + 5c: machine distribution ----
    ga::util::TablePrinter work_table(
        {"Policy", "Work (M core-h)", "Jobs done", "Skipped"});
    work_table.set_title("Fig 5a: work completed with a fixed EBA allocation");
    ga::util::TablePrinter dist_table(
        {"Policy", "FASTER", "Desktop", "IC", "Theta"});
    dist_table.set_title("Fig 5c: distribution of jobs over machines (unbudgeted)");

    std::vector<std::pair<std::string, ga::sim::SimResult>> unbudgeted;
    for (const auto& outcome : outcomes) {
        const std::string policy = outcome.spec.options.policy.label();
        const auto& r = outcome.result;
        if (outcome.spec.options.budget > 0.0) {
            work_table.add_row(
                {policy,
                 ga::util::TablePrinter::num(r.work_core_hours / 1e6, 2),
                 std::to_string(r.jobs_completed),
                 std::to_string(r.jobs_skipped)});
        } else {
            dist_table.add_row(
                {policy,
                 std::to_string(r.jobs_per_machine.at("FASTER")),
                 std::to_string(r.jobs_per_machine.at("Desktop")),
                 std::to_string(r.jobs_per_machine.at("IC")),
                 std::to_string(r.jobs_per_machine.at("Theta"))});
            unbudgeted.emplace_back(policy, r);
        }
    }
    std::printf("%s", work_table.render().c_str());

    // ---- 5b: jobs finished over time ----
    ga::util::TablePrinter time_table({"Policy", "t=25%", "t=50%", "t=75%",
                                       "t=100%", "makespan (d)"});
    time_table.set_title(
        "Fig 5b: jobs finished (thousands) at fractions of the slowest makespan");
    double max_makespan = 0.0;
    for (const auto& [p, r] : unbudgeted) {
        max_makespan = std::max(max_makespan, r.makespan_s);
    }
    for (const auto& [p, r] : unbudgeted) {
        std::vector<std::string> row = {p};
        for (const double frac : {0.25, 0.5, 0.75, 1.0}) {
            const double t = frac * max_makespan;
            const auto done = std::lower_bound(r.finish_times_s.begin(),
                                               r.finish_times_s.end(), t) -
                              r.finish_times_s.begin();
            row.push_back(ga::util::TablePrinter::num(
                static_cast<double>(done) / 1000.0, 1));
        }
        row.push_back(ga::util::TablePrinter::num(r.makespan_s / 86400.0, 1));
        time_table.add_row(std::move(row));
    }
    std::printf("%s%s", time_table.render().c_str(), dist_table.render().c_str());

    std::printf(
        "\nPaper shapes: Greedy completes the most work (28%% more than EFT);\n"
        "Energy reaches ~99%% of Greedy; single-machine policies and EFT/\n"
        "Runtime trail badly; Greedy/Energy route nothing to Theta; Mixed\n"
        "spreads over all four machines to cut completion time.\n");
    return 0;
}
