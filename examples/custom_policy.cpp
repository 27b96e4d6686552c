// Writing a custom routing policy: the open policy API lets a site plug its
// own machine-selection strategy into the batch simulator without touching
// simulator code. This example registers "CappedGreedy" — cheapest machine,
// but never one whose grid is dirtier than a configurable intensity cap —
// and sweeps it by name against builtin policies on the Fig-7 regional
// grids.
#include <cstdio>
#include <memory>

#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace {

/// Cheapest feasible machine among those whose grid intensity is at or
/// below the cap; if no cluster qualifies, falls back to plain Greedy so
/// work is never stranded. Parameter: "cap" (gCO2e/kWh, default 200).
class CappedGreedyPolicy final : public ga::sim::RoutingPolicy {
public:
    explicit CappedGreedyPolicy(double cap_g_per_kwh)
        : cap_g_per_kwh_(cap_g_per_kwh) {}

    std::optional<std::size_t> choose(
        const ga::sim::SchedulingContext& ctx,
        std::span<const ga::sim::MachineChoice> choices) const override {
        std::optional<std::size_t> cheapest, cheapest_clean;
        for (std::size_t i = 0; i < choices.size(); ++i) {
            if (!choices[i].feasible) continue;
            if (!cheapest || choices[i].cost < choices[*cheapest].cost) {
                cheapest = i;
            }
            // A caller without cluster state (ctx.clusters empty) gets the
            // plain-Greedy fallback rather than out-of-bounds access.
            if (choices[i].machine_index >= ctx.clusters.size()) continue;
            const auto& cluster = ctx.clusters[choices[i].machine_index];
            if (cluster.grid_intensity_g_per_kwh > cap_g_per_kwh_) continue;
            if (!cheapest_clean ||
                choices[i].cost < choices[*cheapest_clean].cost) {
                cheapest_clean = i;
            }
        }
        return cheapest_clean ? cheapest_clean : cheapest;
    }

    std::string_view name() const noexcept override { return "CappedGreedy"; }

private:
    double cap_g_per_kwh_;
};

}  // namespace

int main() {
    // One-time registration, typically at program startup. From here on the
    // policy is addressable by name anywhere a PolicySpec goes: SimOptions,
    // SweepGrid axes, future config files.
    ga::sim::PolicyRegistry::global().register_policy(
        "CappedGreedy", [](const ga::sim::PolicySpec& spec) {
            return std::make_unique<CappedGreedyPolicy>(
                spec.param("cap", 200.0));
        });

    std::printf("registered policies:");
    for (const auto& name : ga::sim::PolicyRegistry::global().names()) {
        std::printf(" %s", name.c_str());
    }
    std::printf("\n\nbuilding a small workload...\n");

    ga::workload::TraceOptions options;
    options.base_jobs = 3000;
    options.users = 60;
    options.span_days = 5.0;
    options.seed = 7;
    const ga::sim::BatchSimulator simulator(
        ga::workload::build_workload(options));

    // One declarative grid: two builtin baselines (the paper's Greedy and
    // the context-aware CarbonAware) and the custom policy at two caps.
    // Pricing is EBA — carbon-blind prices — so the carbon guardrail is
    // doing real work that the cost signal alone would not.
    ga::sim::SweepGrid grid;
    grid.policies = {
        ga::sim::PolicySpec{"Greedy", {}},
        ga::sim::PolicySpec{"CarbonAware", {}},
        ga::sim::PolicySpec{"CappedGreedy", {{"cap", 60.0}}},
        ga::sim::PolicySpec{"CappedGreedy", {{"cap", 300.0}}},
    };
    grid.regional_grids = {true};

    ga::sim::SweepRunner runner(simulator);
    ga::util::TablePrinter table({"Scenario", "Jobs done", "Op carbon (kg)",
                                  "Cost (MJ eq)", "Makespan (d)"});
    table.set_title("Custom policy vs builtins (EBA pricing, regional grids)");
    for (const auto& outcome : runner.run(grid)) {
        const auto& r = outcome.result;
        table.add_row({outcome.spec.label, std::to_string(r.jobs_completed),
                       ga::util::TablePrinter::num(r.operational_carbon_kg, 1),
                       ga::util::TablePrinter::num(r.total_cost / 1e6, 1),
                       ga::util::TablePrinter::num(r.makespan_s / 86400.0, 2)});
    }
    std::printf("%s", table.render().c_str());
    std::printf(
        "\nA tight cap (60 g/kWh) pins work to the cleanest grids like\n"
        "CarbonAware does; a loose cap (300 g/kWh) relaxes toward plain\n"
        "Greedy — the strategy, its parameters, and the sweep never touched\n"
        "the simulator core.\n");
    return 0;
}
