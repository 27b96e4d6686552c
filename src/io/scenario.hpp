// Declarative scenario files (JSON) covering the full simulation surface.
//
// A scenario file is the committed, diffable form of one `SweepGrid` plus
// the workload it runs over — every experiment in the repo (and beyond-paper
// combinations: outages, dual budgets, carbon-aware policies) expressed as
// data instead of recompiled C++. The `ga-sim` CLI (tools/) loads one,
// expands the grid, and runs it through the sweep engine.
//
// Schema (all keys optional unless noted; see README for the reference):
//
//   {
//     "name": "fig5-eba",                       // required
//     "description": "...",
//     "workload": {                              // trace generator knobs
//       "base_jobs": 71190, "repetitions": 2, "users": 400,
//       "span_days": 12.0, "seed": 2023,
//       "arrival": "uniform" | "diurnal",        // datacenter-scale arrivals
//       "diurnal_peak_hour": 14.0, "diurnal_amplitude": 0.75,
//       "weekend_factor": 0.35, "burst_fraction": 0.15,
//       "burst_width_s": 120.0, "burst_mean_jobs": 50.0
//     },
//     "options": { ... },   // SimOptions every scenario starts from
//     "grid":    { ... }    // sweep axes overriding options per point
//   }
//
// "options" carries every `SimOptions` field: "policy", "pricing",
// "budget", "regional_grids", "grid_seed", "arrival_compression", "outage"
// ({"cluster", "at_s", "nodes_lost"} or null), and "currency_budgets"
// ([{"currency", "accountant", "budget"}, ...]). "grid" carries every
// `SweepGrid` axis: "policies", "pricings", "budgets", "regional_grids",
// "grid_seeds", "arrival_compressions", "outages". Policy/accountant specs
// are written either as a label string ("Mixed", "Mixed(threshold=1.5)",
// parsed by ga::util::parse_spec) or as {"name": ..., "params": {...}};
// a parameter sweep is one spec per value. Spec names are validated
// against the live registries at load time, so register custom strategies
// before loading.
//
// One older spelling still loads: "grid.accountant_specs" continues
// "grid.pricings". The writer emits only the keys above.
//
// Loading is strict: unknown keys, wrong types, unknown names, and
// malformed specs all throw ga::util::RuntimeError naming the offending
// path ("grid.budgets[2]", "options.outage.cluster", ...).
#pragma once

#include <filesystem>
#include <string>

#include "io/json.hpp"
#include "sim/sweep.hpp"
#include "workload/workload.hpp"

namespace ga::io {

/// One loaded scenario file: the grid (axes + base options) and the
/// workload configuration it runs over.
struct ScenarioFile {
    std::string name;
    std::string description;
    ga::workload::TraceOptions workload;
    ga::sim::SweepGrid grid;

    /// Shrinks the workload in place: `base_jobs` is scaled by `factor`
    /// (floored, minimum 1 job). The `ga-sim --scale` override.
    void scale_workload(double factor);
};

/// Maps a parsed document onto the simulation surface. Throws RuntimeError
/// with the offending path on any schema violation.
[[nodiscard]] ScenarioFile scenario_from_json(const JsonValue& root);

/// Reads, parses, and maps a scenario file; errors are prefixed with the
/// path.
[[nodiscard]] ScenarioFile load_scenario_file(
    const std::filesystem::path& path);

/// The canonical document for a scenario: every workload and options field
/// explicit, grid axes only when non-empty, specs in object form.
/// `scenario_from_json(scenario_to_json(s))` reproduces `s` exactly, and
/// the canonical form of a loaded file is byte-stable across load cycles.
[[nodiscard]] JsonValue scenario_to_json(const ScenarioFile& scenario);

}  // namespace ga::io
