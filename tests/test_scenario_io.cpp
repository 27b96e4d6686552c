// Tests for the scenario I/O subsystem (io/scenario.hpp, io/results.hpp):
// the scenario-file -> SweepGrid/SimOptions mapping over the full
// simulation surface, path-naming diagnostics, result serialization round
// trips, and the golden-run reproducibility contract on the committed
// example scenarios (parallel == serial == golden bytes).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/json.hpp"
#include "io/results.hpp"
#include "io/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim_result_matchers.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "workload/workload.hpp"

namespace {

using ga::io::JsonValue;
using ga::io::ScenarioFile;
using ga::io::load_scenario_file;
using ga::io::parse_json;
using ga::io::scenario_from_json;
using ga::io::scenario_to_json;
using ga::util::RuntimeError;

const std::filesystem::path kScenarioDir = GA_REPO_SCENARIO_DIR;

ScenarioFile from_text(const std::string& text) {
    return scenario_from_json(parse_json(text));
}

/// EXPECT_THROW + the error message must mention `needle` (the offending
/// path or name).
void expect_error_mentions(const std::string& text, const std::string& needle) {
    try {
        (void)from_text(text);
        FAIL() << "should have thrown for: " << text;
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "error was: " << e.what();
    }
}

// ------------------------------------------------------------- mapping
TEST(Scenario, MinimalFileUsesDefaults) {
    const auto scenario = from_text(R"json({"name": "minimal"})json");
    EXPECT_EQ(scenario.name, "minimal");
    EXPECT_EQ(scenario.grid.base, ga::sim::SimOptions{});
    EXPECT_EQ(scenario.grid.size(), 1u);
    EXPECT_EQ(scenario.workload.base_jobs,
              ga::workload::TraceOptions{}.base_jobs);
}

TEST(Scenario, MapsEveryAxisAndOption) {
    const auto scenario = from_text(R"json({
      "name": "full-surface",
      "description": "every knob at once",
      "workload": {"base_jobs": 500, "repetitions": 3, "users": 25,
                   "span_days": 4.5, "seed": 99},
      "options": {
        "policy": {"name": "BudgetPacing", "params": {"slack": 1.25}},
        "pricing": "CarbonTax(rate=0.02)",
        "currency_budgets": [
          {"currency": "core-hours", "accountant": "Runtime", "budget": 5e4},
          {"currency": "gCO2e", "accountant": {"name": "CBA"}, "budget": 1e4}
        ],
        "budget": 1234.5,
        "regional_grids": true,
        "grid_seed": 123,
        "arrival_compression": 2.5,
        "outage": {"cluster": 1, "at_s": 3600, "nodes_lost": 2}
      },
      "grid": {
        "policies": ["Greedy", "EFT", "CarbonAware(forecast=1)",
                     {"name": "LeastLoaded"}],
        "pricings": ["EBA", "Runtime",
                     {"name": "Blended", "params": {"carbon_weight": 0.5}}],
        "budgets": [0, 7e7],
        "regional_grids": [false, true],
        "grid_seeds": [77, 78],
        "arrival_compressions": [1, 4],
        "outages": [null, {"cluster": 0, "at_s": 43200, "nodes_lost": 28}]
      }
    })json");

    EXPECT_EQ(scenario.name, "full-surface");
    EXPECT_EQ(scenario.description, "every knob at once");
    EXPECT_EQ(scenario.workload.base_jobs, 500u);
    EXPECT_EQ(scenario.workload.repetitions, 3);
    EXPECT_EQ(scenario.workload.users, 25u);
    EXPECT_EQ(scenario.workload.span_days, 4.5);
    EXPECT_EQ(scenario.workload.seed, 99u);

    // Base options, field for field.
    ga::sim::SimOptions expected;
    expected.policy = ga::sim::PolicySpec{"BudgetPacing", {{"slack", 1.25}}};
    expected.pricing = ga::acct::AccountantSpec{"CarbonTax", {{"rate", 0.02}}};
    expected.currency_budgets = {
        {"core-hours", ga::acct::AccountantSpec{"Runtime", {}}, 5e4},
        {"gCO2e", ga::acct::AccountantSpec{"CBA", {}}, 1e4}};
    expected.budget = 1234.5;
    expected.regional_grids = true;
    expected.grid_seed = 123;
    expected.arrival_compression = 2.5;
    expected.outage = ga::sim::ClusterOutage{1, 3600.0, 2};
    EXPECT_EQ(scenario.grid.base, expected);

    // Axes, field for field, specs in the order written.
    const auto& grid = scenario.grid;
    EXPECT_EQ(grid.policies,
              (std::vector<ga::sim::PolicySpec>{
                  {"Greedy", {}},
                  {"EFT", {}},
                  {"CarbonAware", {{"forecast", 1.0}}},
                  {"LeastLoaded", {}}}));
    EXPECT_EQ(grid.pricings,
              (std::vector<ga::acct::AccountantSpec>{
                  {"EBA", {}},
                  {"Runtime", {}},
                  {"Blended", {{"carbon_weight", 0.5}}}}));
    EXPECT_EQ(grid.budgets, (std::vector<double>{0.0, 7e7}));
    EXPECT_EQ(grid.regional_grids, (std::vector<bool>{false, true}));
    EXPECT_EQ(grid.grid_seeds, (std::vector<std::uint64_t>{77, 78}));
    EXPECT_EQ(grid.arrival_compressions, (std::vector<double>{1.0, 4.0}));
    ASSERT_EQ(grid.outages.size(), 2u);
    EXPECT_FALSE(grid.outages[0].has_value());
    EXPECT_EQ(*grid.outages[1], (ga::sim::ClusterOutage{0, 43200.0, 28}));

    // 4 policies, 3 pricings, and five 2-point axes.
    EXPECT_EQ(grid.size(), 4u * 3u * 2u * 2u * 2u * 2u * 2u);
}

TEST(Scenario, BaseOptionsReachEveryExpandedPoint) {
    const auto scenario = from_text(R"json({
      "name": "base-carryover",
      "options": {
        "currency_budgets": [
          {"currency": "core-hours", "accountant": "Runtime", "budget": 100}
        ],
        "grid_seed": 5
      },
      "grid": {"policies": ["Greedy", "EFT"], "budgets": [0, 10]}
    })json");
    const auto specs = scenario.grid.expand();
    ASSERT_EQ(specs.size(), 4u);
    for (const auto& spec : specs) {
        ASSERT_EQ(spec.options.currency_budgets.size(), 1u);
        EXPECT_EQ(spec.options.currency_budgets[0].currency, "core-hours");
        EXPECT_EQ(spec.options.grid_seed, 5u);
    }
    EXPECT_EQ(specs[0].label, "Greedy/EBA/unbudgeted");
    EXPECT_EQ(specs[3].label, "EFT/EBA/budget=10");
}

TEST(Scenario, BasePolicySpecIsTheFallbackAxisPoint) {
    const auto scenario = from_text(R"json({
      "name": "spec-fallback",
      "options": {"policy": "CarbonAware(forecast=1)",
                  "pricing": "CarbonTax(rate=0.02)"}
    })json");
    const auto specs = scenario.grid.expand();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].label, "CarbonAware(forecast=1)/CarbonTax(rate=0.02)");
    EXPECT_EQ(specs[0].options.policy.name, "CarbonAware");
}

TEST(Scenario, EverySpellingLoadsToTheSameOptions) {
    // "policy" and "pricing" take any spec, as a label or an object.
    const auto labels = from_text(R"json({
      "name": "labels",
      "options": {"policy": "Mixed(threshold=1.5)", "pricing": "EBA(beta=0.5)"}
    })json");
    const auto objects = from_text(R"json({
      "name": "objects",
      "options": {
        "policy": {"name": "Mixed", "params": {"threshold": 1.5}},
        "pricing": {"name": "EBA", "params": {"beta": 0.5}}
      }
    })json");
    EXPECT_EQ(labels.grid.base.policy,
              (ga::sim::PolicySpec{"Mixed", {{"threshold", 1.5}}}));
    EXPECT_EQ(labels.grid.base.pricing,
              (ga::acct::AccountantSpec{"EBA", {{"beta", 0.5}}}));
    EXPECT_EQ(objects.grid.base, labels.grid.base);
}

// --------------------------------------------------------- diagnostics
TEST(Scenario, UnknownKeysNameTheirPath) {
    expect_error_mentions(R"json({"name": "x", "grid": {"polices": []}})json",
                          "grid.polices");
    expect_error_mentions(R"json({"name": "x", "optoins": {}})json", "optoins");
    expect_error_mentions(
        R"json({"name": "x", "options": {"outage": {"clutser": 0}}})json",
        "options.outage.clutser");
    expect_error_mentions(
        R"json({"name": "x", "workload": {"base_jobs": 10, "sead": 1}})json",
        "workload.sead");
}

TEST(Scenario, OlderSpellingsAreUnknownKeysButAccountantSpecs) {
    // Policies and pricings are written one way: "policy"/"pricing" and
    // "policies"/"pricings", a threshold sweep as Mixed(threshold=X) specs.
    const std::pair<std::string, std::string> removed[] = {
        {R"json({"name": "x", "options": {"policy_spec": "Greedy"}})json",
         "options.policy_spec"},
        {R"json({"name": "x", "options": {"accountant_spec": "EBA"}})json",
         "options.accountant_spec"},
        {R"json({"name": "x", "options": {"mixed_threshold": 1.5}})json",
         "options.mixed_threshold"},
        {R"json({"name": "x", "grid": {"policy_specs": ["Greedy"]}})json",
         "grid.policy_specs"},
        {R"json({"name": "x", "grid": {"mixed_thresholds": [1.5, 2]}})json",
         "grid.mixed_thresholds"},
    };
    for (const auto& [text, path] : removed) {
        expect_error_mentions(text, "\"" + path + "\": unknown key");
    }
    // perfbench's sim_small scenario writes "accountant_specs", which
    // still continues "pricings".
    const auto older = from_text(R"json({
      "name": "accountant-specs",
      "grid": {"pricings": ["EBA"],
               "accountant_specs": ["CBA", {"name": "Runtime"}]}
    })json");
    EXPECT_EQ(older.grid.pricings,
              (std::vector<ga::acct::AccountantSpec>{
                  {"EBA", {}}, {"CBA", {}}, {"Runtime", {}}}));
    EXPECT_EQ(older.grid.expand()[2].label, "Greedy/Runtime");
}

TEST(Scenario, BadTypesNameTheirPath) {
    expect_error_mentions(R"json({"name": 7})json", "name");
    expect_error_mentions(R"json({"name": "x", "grid": []})json", "grid");
    expect_error_mentions(R"json({"name": "x", "grid": {"budgets": [1, "two"]}})json",
                          "grid.budgets[1]");
    expect_error_mentions(
        R"json({"name": "x", "grid": {"regional_grids": [false, 3]}})json",
        "grid.regional_grids[1]");
    expect_error_mentions(
        R"json({"name": "x", "options": {"budget": "lots"}})json", "options.budget");
    expect_error_mentions(
        R"json({"name": "x", "options": {"grid_seed": 1.5}})json", "options.grid_seed");
    expect_error_mentions(
        R"json({"name": "x", "options": {"grid_seed": -3}})json", "options.grid_seed");
    expect_error_mentions(
        R"json({"name": "x", "options":
            {"currency_budgets": [{"currency": "c"}]}})json",
        "options.currency_budgets[0]");
}

TEST(Scenario, UnknownNamesListTheCandidates) {
    try {
        (void)from_text(R"json({"name": "x", "grid": {"policies": ["Greddy"]}})json");
        FAIL() << "should have thrown";
    } catch (const RuntimeError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("Greddy"), std::string::npos);
        EXPECT_NE(what.find("Greedy"), std::string::npos);  // candidate list
        EXPECT_NE(what.find("grid.policies[0]"), std::string::npos);
    }
    // Spec names are validated against the live registries.
    expect_error_mentions(
        R"json({"name": "x", "grid": {"policies": ["NoSuchPolicy"]}})json",
        "NoSuchPolicy");
    expect_error_mentions(
        R"json({"name": "x", "options": {"pricing": "NoSuchMethod"}})json",
        "NoSuchMethod");
    expect_error_mentions(
        R"json({"name": "x", "grid": {"pricings": ["EBAA"]}})json", "grid.pricings[0]");
}

TEST(Scenario, RequiresName) {
    expect_error_mentions(R"json({"grid": {}})json", "name");
    expect_error_mentions(R"json({"name": ""})json", "name");
}

TEST(Scenario, FileErrorsArePrefixedWithThePath) {
    try {
        (void)load_scenario_file(kScenarioDir / "does_not_exist.json");
        FAIL() << "should have thrown";
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string(e.what()).find("does_not_exist.json"),
                  std::string::npos);
    }
}

// ------------------------------------------------------- serialization
TEST(Scenario, CanonicalJsonRoundTripsExactly) {
    const auto original = from_text(R"json({
      "name": "round-trip",
      "description": "canonical form survives load cycles",
      "workload": {"base_jobs": 250, "users": 10},
      "options": {
        "policy": "Mixed(threshold=1.5)",
        "pricing": "CBA",
        "currency_budgets": [
          {"currency": "gCO2e", "accountant": "CBA", "budget": 0.1}
        ],
        "outage": {"cluster": 2, "at_s": 100.5, "nodes_lost": 1}
      },
      "grid": {
        "policies": ["Runtime", {"name": "LeastLoaded"}],
        "budgets": [0, 0.125],
        "outages": [null, {"cluster": 0, "at_s": 1, "nodes_lost": 2}]
      }
    })json");
    const JsonValue canonical = scenario_to_json(original);
    const auto reloaded = scenario_from_json(canonical);
    EXPECT_EQ(reloaded.name, original.name);
    EXPECT_EQ(reloaded.description, original.description);
    EXPECT_EQ(reloaded.workload.base_jobs, original.workload.base_jobs);
    EXPECT_EQ(reloaded.workload.users, original.workload.users);
    EXPECT_EQ(reloaded.grid.base, original.grid.base);
    EXPECT_EQ(reloaded.grid.expand(), original.grid.expand());
    // Canonical form is byte-stable across load cycles.
    EXPECT_EQ(ga::io::write_json(scenario_to_json(reloaded)),
              ga::io::write_json(canonical));
}

TEST(Scenario, ArrivalProcessKnobsRoundTripExactly) {
    const auto original = from_text(R"json({
      "name": "diurnal-knobs",
      "workload": {
        "base_jobs": 500, "users": 20, "span_days": 9.5, "seed": 31,
        "arrival": "diurnal",
        "diurnal_peak_hour": 9.25,
        "diurnal_amplitude": 0.85,
        "weekend_factor": 0.4,
        "burst_fraction": 0.3,
        "burst_width_s": 90.5,
        "burst_mean_jobs": 25
      }
    })json");
    EXPECT_EQ(original.workload.arrival,
              ga::workload::ArrivalProcess::Diurnal);
    EXPECT_EQ(original.workload.diurnal_peak_hour, 9.25);
    EXPECT_EQ(original.workload.diurnal_amplitude, 0.85);
    EXPECT_EQ(original.workload.weekend_factor, 0.4);
    EXPECT_EQ(original.workload.burst_fraction, 0.3);
    EXPECT_EQ(original.workload.burst_width_s, 90.5);
    EXPECT_EQ(original.workload.burst_mean_jobs, 25.0);

    // Canonical serialization preserves every knob bit-exactly
    // (TraceOptions compares field-for-field).
    const auto reloaded = scenario_from_json(scenario_to_json(original));
    EXPECT_EQ(reloaded.workload, original.workload);
    EXPECT_EQ(ga::io::write_json(scenario_to_json(reloaded)),
              ga::io::write_json(scenario_to_json(original)));

    // Default arrival stays uniform, knobs at their documented defaults.
    const auto plain = from_text(
        R"json({"name": "plain", "workload": {"base_jobs": 10}})json");
    EXPECT_EQ(plain.workload.arrival, ga::workload::ArrivalProcess::Uniform);
    EXPECT_EQ(plain.workload.diurnal_peak_hour, 14.0);
    EXPECT_EQ(plain.workload.burst_fraction, 0.15);
}

TEST(Results, JsonRoundTripsBitExactly) {
    ga::sim::SweepOutcome outcome;
    outcome.spec.label = "Greedy/EBA/with, a \"comma\"";
    outcome.result.work_core_hours = 1.0 / 3.0;
    outcome.result.jobs_completed = 7;
    outcome.result.jobs_skipped = 3;
    outcome.result.total_cost = 0.1 + 0.2;  // not representable exactly
    outcome.result.energy_mwh = 6.02e-23;
    outcome.result.operational_carbon_kg = 12.3456789012345678;
    outcome.result.attributed_carbon_kg = 1e300;
    outcome.result.makespan_s = 123456.789;
    outcome.result.finish_times_s = {1.5, 2.25, 1e-9};
    outcome.result.jobs_per_machine = {{"FASTER", 5}, {"IC", 2}};
    outcome.result.currency_spent = {{"core-hours", 0.125},
                                     {"gCO2e", 1.0 / 7.0}};
    const std::vector<ga::sim::SweepOutcome> outcomes = {outcome};

    ga::io::ResultWriteOptions options;
    options.scenario_name = "round-trip";
    options.include_finish_times = true;
    const std::string text = ga::io::results_to_json_text(outcomes, options);
    const auto rows = ga::io::results_from_json(parse_json(text));
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].label, outcome.spec.label);
    ga::testutil::expect_identical(rows[0].result, outcome.result);
    // Same bytes on a second serialization.
    EXPECT_EQ(text, ga::io::results_to_json_text(outcomes, options));
}

TEST(Results, CsvCarriesScalarsRoundTripExact) {
    ga::sim::SweepOutcome outcome;
    outcome.spec.label = "label,with\"quotes\"";
    outcome.result.work_core_hours = 1.0 / 3.0;
    outcome.result.jobs_completed = 11;
    outcome.result.makespan_s = 0.1;
    const std::vector<ga::sim::SweepOutcome> outcomes = {outcome};
    const auto table = ga::util::parse_csv(ga::io::results_to_csv(outcomes));
    ASSERT_EQ(table.rows.size(), 1u);
    EXPECT_EQ(table.rows[0][table.column("label")], outcome.spec.label);
    EXPECT_EQ(std::stod(table.rows[0][table.column("work_core_hours")]),
              1.0 / 3.0);
    EXPECT_EQ(std::stod(table.rows[0][table.column("makespan_s")]), 0.1);
    EXPECT_EQ(table.rows[0][table.column("jobs_completed")], "11");
}

TEST(Results, FromJsonErrorsNameTheirPath) {
    EXPECT_THROW((void)ga::io::results_from_json(parse_json("[]")),
                 RuntimeError);
    try {
        (void)ga::io::results_from_json(parse_json(
            R"json({"results": [{"label": "x", "work_core_hours": "NaN"}]})json"));
        FAIL() << "should have thrown";
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string(e.what()).find("results[0].work_core_hours"),
                  std::string::npos);
    }
}

// ------------------------------------------------- committed scenarios
// The committed fig5-style scenario file expands to exactly the grid
// bench_fig5 builds in code (its unbudgeted half), so `ga-sim` on the file
// is value-identical to the in-code sweep.
TEST(ScenarioFiles, Fig5FileMatchesInCodeGrid) {
    const auto scenario =
        load_scenario_file(kScenarioDir / "fig5_eba_policies.json");
    ga::sim::SweepGrid in_code;
    in_code.policies = ga::sim::all_policies();
    in_code.pricings = {ga::acct::AccountantSpec{"EBA", {}}};
    EXPECT_EQ(scenario.grid.expand(), in_code.expand());
    // Paper scale: the full 142,380-job workload.
    EXPECT_EQ(scenario.workload.total_jobs(),
              ga::workload::TraceOptions{}.total_jobs());

    // And the runs agree on a shrunken workload: file-driven == in-code,
    // scenario by scenario.
    auto small = scenario;
    small.workload.base_jobs = 60;
    small.workload.users = 10;
    small.workload.span_days = 1.0;
    small.grid.base.finish_times = true;
    in_code.base.finish_times = true;
    const ga::sim::BatchSimulator simulator(
        ga::workload::build_workload(small.workload));
    ga::sim::SweepRunner runner(simulator, 2);
    const auto from_file = runner.run(small.grid.expand());
    const auto from_code = runner.run_serial(in_code.expand());
    ASSERT_EQ(from_file.size(), from_code.size());
    for (std::size_t i = 0; i < from_file.size(); ++i) {
        EXPECT_EQ(from_file[i].spec.label, from_code[i].spec.label);
        ga::testutil::expect_identical(from_file[i].result,
                                       from_code[i].result);
    }
}

// Every committed scenario loads, and its expanded labels match the pinned
// `golden/<stem>.labels.txt` (the `ga-sim --list` output), so a change to
// the loader or the sweep expander cannot silently rename a grid point.
TEST(ScenarioFiles, AllCommittedScenariosLoadAndExpand) {
    std::size_t seen = 0;
    for (const auto& entry : std::filesystem::directory_iterator(kScenarioDir)) {
        if (entry.path().extension() != ".json") continue;
        ++seen;
        const auto scenario = load_scenario_file(entry.path());
        EXPECT_FALSE(scenario.name.empty()) << entry.path();
        std::string labels;
        for (const auto& spec : scenario.grid.expand()) {
            labels += spec.label + "\n";
        }
        const auto golden = kScenarioDir / "golden" /
                            (entry.path().stem().string() + ".labels.txt");
        std::ifstream in(golden, std::ios::binary);
        ASSERT_TRUE(in.good()) << "missing label file " << golden;
        std::ostringstream expected;
        expected << in.rdbuf();
        EXPECT_EQ(labels, expected.str()) << entry.path();
    }
    EXPECT_GE(seen, 4u);
}

// The golden-run reproducibility contract on the committed smoke scenario:
// load -> run (parallel and serial) -> serialize must be deterministic and
// must reproduce the checked-in golden bytes (tolerating only trailing
// whitespace). CI repeats this check through the ga-sim binary itself.
TEST(ScenarioFiles, CiSmokeReproducesGoldenResults) {
    const auto scenario = load_scenario_file(kScenarioDir / "ci_smoke.json");
    const ga::sim::BatchSimulator simulator(
        ga::workload::build_workload(scenario.workload));
    ga::sim::SweepRunner runner(simulator, 3);
    auto recorded = scenario.grid;
    recorded.base.finish_times = true;
    const auto parallel = runner.run(recorded.expand());
    const auto serial = runner.run_serial(recorded.expand());
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < parallel.size(); ++i) {
        ga::testutil::expect_identical(parallel[i].result, serial[i].result);
    }

    ga::io::ResultWriteOptions options;
    options.scenario_name = scenario.name;
    const std::string text = ga::io::results_to_json_text(parallel, options);
    EXPECT_EQ(text, ga::io::results_to_json_text(serial, options));

    const auto strip_trailing = [](const std::string& s) {
        std::istringstream in(s);
        std::string out;
        std::string line;
        while (std::getline(in, line)) {
            while (!line.empty() &&
                   (line.back() == ' ' || line.back() == '\t' ||
                    line.back() == '\r')) {
                line.pop_back();
            }
            out += line;
            out += '\n';
        }
        while (out.size() > 1 && out[out.size() - 2] == '\n') out.pop_back();
        return out;
    };
    std::ifstream golden_in(kScenarioDir / "golden" / "ci_smoke.results.json");
    ASSERT_TRUE(golden_in) << "missing golden file";
    std::ostringstream golden;
    golden << golden_in.rdbuf();
    EXPECT_EQ(strip_trailing(text), strip_trailing(golden.str()))
        << "ci_smoke results diverged from the committed golden file. If the "
           "change is intentional, regenerate with: ga-sim "
           "examples/scenarios/ci_smoke.json --output "
           "examples/scenarios/golden/ci_smoke.results.json";
}

}  // namespace
