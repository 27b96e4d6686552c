// Sweep-result serialization: scenario labels + `SimResult` to JSON and
// CSV, with every double in its shortest round-trip form, so serialized
// results deserialize bit-exactly and golden files diff cleanly.
//
// The JSON document is deterministic — serializing the same outcomes twice
// yields the same bytes — which is what the golden-run CI check and the
// `ga-sim` reproducibility contract (parallel == serial == golden) pin.
//
// Per-job finish times are omitted by default (they dominate the payload at
// paper scale); pass `include_finish_times` to keep them, from runs that
// recorded them (`SimOptions::finish_times`). The CSV form
// carries the scalar fields only — per-machine job counts and per-currency
// spend live in the JSON form, whose maps serialize in sorted key order.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "sim/sweep.hpp"

namespace ga::io {

/// One serialized row: the scenario label and its result. (The full
/// `ScenarioSpec` options are not round-tripped — the scenario *file* is
/// the canonical source of the grid; results reference it by label.)
struct ResultRow {
    std::string label;
    ga::sim::SimResult result;
};

/// Serialization switches.
struct ResultWriteOptions {
    bool include_finish_times = false;
    /// Name echoed into the document header ("" omits it).
    std::string scenario_name;
};

/// {"scenario": ..., "results": [{"label": ..., <SimResult fields>}, ...]}.
[[nodiscard]] JsonValue results_to_json(
    std::span<const ga::sim::SweepOutcome> outcomes,
    const ResultWriteOptions& options = {});

/// `write_json(results_to_json(...))` — the `ga-sim --out json` payload.
[[nodiscard]] std::string results_to_json_text(
    std::span<const ga::sim::SweepOutcome> outcomes,
    const ResultWriteOptions& options = {});

/// Scalar columns only: label, work_core_hours, jobs_completed,
/// jobs_skipped, total_cost, energy_mwh, operational_carbon_kg,
/// attributed_carbon_kg, makespan_s. Doubles in shortest round-trip form.
[[nodiscard]] std::string results_to_csv(
    std::span<const ga::sim::SweepOutcome> outcomes);

/// Inverse of `results_to_json`: rows in document order, doubles
/// bit-identical to the serialized values. Throws RuntimeError naming the
/// offending path on schema violations.
[[nodiscard]] std::vector<ResultRow> results_from_json(const JsonValue& root);

}  // namespace ga::io
