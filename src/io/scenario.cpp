#include "io/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "util/error.hpp"
#include "util/spec.hpp"

namespace ga::io {

using ga::util::RuntimeError;

namespace {

// Doubles can represent integers exactly only up to 2^53; seeds and counts
// beyond that would silently round through the JSON number type.
constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

[[noreturn]] void fail(const std::string& path, const std::string& why) {
    throw RuntimeError("scenario: \"" + path + "\": " + why);
}

[[noreturn]] void fail_type(const std::string& path, std::string_view expected,
                            const JsonValue& actual) {
    fail(path, "expected " + std::string(expected) + ", got " +
                   std::string(kind_name(actual.kind())));
}

std::string join(const std::vector<std::string>& names) {
    std::string out;
    for (const auto& name : names) {
        if (!out.empty()) out += ", ";
        out += name;
    }
    return out;
}

/// Rejects keys outside `allowed` (order: the schema's documentation
/// order, echoed in the diagnostic).
void check_keys(const JsonValue& object, const std::string& path,
                const std::vector<std::string>& allowed) {
    for (const auto& [key, value] : object.as_object()) {
        if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
            fail(path.empty() ? key : path + "." + key,
                 "unknown key (allowed here: " + join(allowed) + ")");
        }
    }
}

const JsonValue& expect_object(const JsonValue& v, const std::string& path) {
    if (!v.is_object()) fail_type(path, "object", v);
    return v;
}

double get_number(const JsonValue& v, const std::string& path) {
    if (!v.is_number()) fail_type(path, "number", v);
    return v.as_number();
}

bool get_bool(const JsonValue& v, const std::string& path) {
    if (!v.is_bool()) fail_type(path, "bool", v);
    return v.as_bool();
}

std::string get_string(const JsonValue& v, const std::string& path) {
    if (!v.is_string()) fail_type(path, "string", v);
    return v.as_string();
}

/// A non-negative integer (counts, indices, seeds).
std::uint64_t get_uint(const JsonValue& v, const std::string& path) {
    const double n = get_number(v, path);
    if (!(n >= 0.0) || n > kMaxExactInteger || std::trunc(n) != n) {
        fail(path, "expected a non-negative integer, got " +
                       format_double(n));
    }
    return static_cast<std::uint64_t>(n);
}

const JsonValue::Array& get_array(const JsonValue& v, const std::string& path) {
    if (!v.is_array()) fail_type(path, "array", v);
    return v.as_array();
}

/// Required object member; the diagnostic names the full missing path.
const JsonValue& require_key(const JsonValue& v, const char* key,
                             const std::string& path) {
    const JsonValue* found = v.find(key);
    if (found == nullptr) fail(path + "." + key, "required key is missing");
    return *found;
}

// ------------------------------------------------------------------ specs

/// A policy/accountant spec entry: either a "Name(k=v,...)" label string
/// or {"name": ..., "params": {...}}.
ga::util::ParsedSpec get_spec(const JsonValue& v, const std::string& path) {
    if (v.is_string()) {
        try {
            return ga::util::parse_spec(v.as_string());
        } catch (const RuntimeError& e) {
            fail(path, e.what());
        }
    }
    if (!v.is_object()) fail_type(path, "spec (label string or object)", v);
    check_keys(v, path, {"name", "params"});
    ga::util::ParsedSpec spec;
    spec.name = get_string(require_key(v, "name", path), path + ".name");
    if (spec.name.empty()) fail(path + ".name", "empty name");
    if (const JsonValue* params = v.find("params")) {
        expect_object(*params, path + ".params");
        for (const auto& [key, value] : params->as_object()) {
            spec.params[key] = get_number(value, path + ".params." + key);
        }
    }
    return spec;
}

ga::sim::PolicySpec get_policy_spec(const JsonValue& v,
                                    const std::string& path) {
    auto parsed = get_spec(v, path);
    if (!ga::sim::PolicyRegistry::global().contains(parsed.name)) {
        fail(path, "unknown policy \"" + parsed.name + "\" (registered: " +
                       join(ga::sim::PolicyRegistry::global().names()) + ")");
    }
    return ga::sim::PolicySpec{std::move(parsed.name),
                               std::move(parsed.params)};
}

ga::acct::AccountantSpec get_accountant_spec(const JsonValue& v,
                                             const std::string& path) {
    auto parsed = get_spec(v, path);
    if (!ga::acct::AccountantRegistry::global().contains(parsed.name)) {
        fail(path,
             "unknown accountant \"" + parsed.name + "\" (registered: " +
                 join(ga::acct::AccountantRegistry::global().names()) + ")");
    }
    return ga::acct::AccountantSpec{std::move(parsed.name),
                                    std::move(parsed.params)};
}

// ---------------------------------------------------------------- options

ga::sim::ClusterOutage get_outage(const JsonValue& v, const std::string& path) {
    expect_object(v, path);
    check_keys(v, path, {"cluster", "at_s", "nodes_lost"});
    ga::sim::ClusterOutage outage;
    outage.cluster = static_cast<std::size_t>(
        get_uint(require_key(v, "cluster", path), path + ".cluster"));
    outage.at_s = get_number(require_key(v, "at_s", path), path + ".at_s");
    outage.nodes_lost = static_cast<int>(std::min<std::uint64_t>(
        get_uint(require_key(v, "nodes_lost", path), path + ".nodes_lost"),
        static_cast<std::uint64_t>(std::numeric_limits<int>::max())));
    return outage;
}

ga::sim::CurrencyBudget get_currency_budget(const JsonValue& v,
                                            const std::string& path) {
    expect_object(v, path);
    check_keys(v, path, {"currency", "accountant", "budget"});
    ga::sim::CurrencyBudget cb;
    cb.currency = get_string(require_key(v, "currency", path), path + ".currency");
    if (cb.currency.empty()) fail(path + ".currency", "empty currency name");
    cb.accountant = get_accountant_spec(require_key(v, "accountant", path),
                                        path + ".accountant");
    cb.budget = get_number(require_key(v, "budget", path), path + ".budget");
    return cb;
}

ga::sim::SimOptions get_options(const JsonValue& v, const std::string& path) {
    expect_object(v, path);
    check_keys(v, path,
               {"policy", "pricing", "currency_budgets", "budget",
                "regional_grids", "grid_seed", "arrival_compression",
                "outage"});
    ga::sim::SimOptions options;
    if (const JsonValue* f = v.find("policy")) {
        options.policy = get_policy_spec(*f, path + ".policy");
    }
    if (const JsonValue* f = v.find("pricing")) {
        options.pricing = get_accountant_spec(*f, path + ".pricing");
    }
    if (const JsonValue* f = v.find("currency_budgets")) {
        const auto& entries = get_array(*f, path + ".currency_budgets");
        for (std::size_t i = 0; i < entries.size(); ++i) {
            options.currency_budgets.push_back(get_currency_budget(
                entries[i],
                path + ".currency_budgets[" + std::to_string(i) + "]"));
        }
    }
    if (const JsonValue* f = v.find("budget")) {
        options.budget = get_number(*f, path + ".budget");
    }
    if (const JsonValue* f = v.find("regional_grids")) {
        options.regional_grids = get_bool(*f, path + ".regional_grids");
    }
    if (const JsonValue* f = v.find("grid_seed")) {
        options.grid_seed = get_uint(*f, path + ".grid_seed");
    }
    if (const JsonValue* f = v.find("arrival_compression")) {
        options.arrival_compression =
            get_number(*f, path + ".arrival_compression");
    }
    if (const JsonValue* f = v.find("outage")) {
        if (!f->is_null()) options.outage = get_outage(*f, path + ".outage");
    }
    return options;
}

// ------------------------------------------------------------------- grid

void load_grid_axes(const JsonValue& v, const std::string& path,
                    ga::sim::SweepGrid& grid) {
    expect_object(v, path);
    check_keys(v, path,
               {"policies", "pricings", "accountant_specs", "budgets",
                "regional_grids", "grid_seeds", "arrival_compressions",
                "outages"});
    const auto element = [&path](const std::string& axis, std::size_t i) {
        return path + "." + axis + "[" + std::to_string(i) + "]";
    };
    if (const JsonValue* f = v.find("policies")) {
        const auto& items = get_array(*f, path + ".policies");
        for (std::size_t i = 0; i < items.size(); ++i) {
            grid.policies.push_back(
                get_policy_spec(items[i], element("policies", i)));
        }
    }
    // "accountant_specs", an older spelling, continues the "pricings" axis.
    // perfbench/workloads.py's sim_small scenario still writes it.
    for (const char* axis : {"pricings", "accountant_specs"}) {
        if (const JsonValue* f = v.find(axis)) {
            const auto& items = get_array(*f, path + "." + axis);
            for (std::size_t i = 0; i < items.size(); ++i) {
                grid.pricings.push_back(
                    get_accountant_spec(items[i], element(axis, i)));
            }
        }
    }
    if (const JsonValue* f = v.find("budgets")) {
        const auto& items = get_array(*f, path + ".budgets");
        for (std::size_t i = 0; i < items.size(); ++i) {
            grid.budgets.push_back(
                get_number(items[i], element("budgets", i)));
        }
    }
    if (const JsonValue* f = v.find("regional_grids")) {
        const auto& items = get_array(*f, path + ".regional_grids");
        for (std::size_t i = 0; i < items.size(); ++i) {
            grid.regional_grids.push_back(
                get_bool(items[i], element("regional_grids", i)));
        }
    }
    if (const JsonValue* f = v.find("grid_seeds")) {
        const auto& items = get_array(*f, path + ".grid_seeds");
        for (std::size_t i = 0; i < items.size(); ++i) {
            grid.grid_seeds.push_back(
                get_uint(items[i], element("grid_seeds", i)));
        }
    }
    if (const JsonValue* f = v.find("arrival_compressions")) {
        const auto& items = get_array(*f, path + ".arrival_compressions");
        for (std::size_t i = 0; i < items.size(); ++i) {
            grid.arrival_compressions.push_back(
                get_number(items[i], element("arrival_compressions", i)));
        }
    }
    if (const JsonValue* f = v.find("outages")) {
        const auto& items = get_array(*f, path + ".outages");
        for (std::size_t i = 0; i < items.size(); ++i) {
            const std::string p = element("outages", i);
            if (items[i].is_null()) {
                grid.outages.emplace_back(std::nullopt);
            } else {
                grid.outages.emplace_back(get_outage(items[i], p));
            }
        }
    }
}

ga::workload::TraceOptions get_workload(const JsonValue& v,
                                        const std::string& path) {
    expect_object(v, path);
    check_keys(v, path,
               {"base_jobs", "repetitions", "users", "span_days", "seed",
                "arrival", "diurnal_peak_hour", "diurnal_amplitude",
                "weekend_factor", "burst_fraction", "burst_width_s",
                "burst_mean_jobs"});
    ga::workload::TraceOptions options;
    if (const JsonValue* f = v.find("base_jobs")) {
        options.base_jobs =
            static_cast<std::size_t>(get_uint(*f, path + ".base_jobs"));
        if (options.base_jobs == 0) fail(path + ".base_jobs", "must be >= 1");
    }
    if (const JsonValue* f = v.find("repetitions")) {
        const std::uint64_t reps = get_uint(*f, path + ".repetitions");
        if (reps == 0 ||
            reps > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
            fail(path + ".repetitions", "must be a positive int");
        }
        options.repetitions = static_cast<int>(reps);
    }
    if (const JsonValue* f = v.find("users")) {
        options.users = static_cast<std::size_t>(get_uint(*f, path + ".users"));
        if (options.users == 0) fail(path + ".users", "must be >= 1");
    }
    if (const JsonValue* f = v.find("span_days")) {
        options.span_days = get_number(*f, path + ".span_days");
        if (!(options.span_days > 0.0)) {
            fail(path + ".span_days", "must be > 0");
        }
    }
    if (const JsonValue* f = v.find("seed")) {
        options.seed = get_uint(*f, path + ".seed");
    }
    if (const JsonValue* f = v.find("arrival")) {
        const std::string name = get_string(*f, path + ".arrival");
        const auto arrival = ga::workload::arrival_from_string(name);
        if (!arrival.has_value()) {
            fail(path + ".arrival", "unknown arrival process \"" + name +
                                        "\" (known: uniform, diurnal)");
        }
        options.arrival = *arrival;
    }
    if (const JsonValue* f = v.find("diurnal_peak_hour")) {
        options.diurnal_peak_hour = get_number(*f, path + ".diurnal_peak_hour");
        if (!(options.diurnal_peak_hour >= 0.0 &&
              options.diurnal_peak_hour < 24.0)) {
            fail(path + ".diurnal_peak_hour", "must be in [0, 24)");
        }
    }
    if (const JsonValue* f = v.find("diurnal_amplitude")) {
        options.diurnal_amplitude = get_number(*f, path + ".diurnal_amplitude");
        if (!(options.diurnal_amplitude >= 0.0 &&
              options.diurnal_amplitude < 1.0)) {
            fail(path + ".diurnal_amplitude", "must be in [0, 1)");
        }
    }
    if (const JsonValue* f = v.find("weekend_factor")) {
        options.weekend_factor = get_number(*f, path + ".weekend_factor");
        if (!(options.weekend_factor > 0.0 && options.weekend_factor <= 1.0)) {
            fail(path + ".weekend_factor", "must be in (0, 1]");
        }
    }
    if (const JsonValue* f = v.find("burst_fraction")) {
        options.burst_fraction = get_number(*f, path + ".burst_fraction");
        if (!(options.burst_fraction >= 0.0 && options.burst_fraction <= 1.0)) {
            fail(path + ".burst_fraction", "must be in [0, 1]");
        }
    }
    if (const JsonValue* f = v.find("burst_width_s")) {
        options.burst_width_s = get_number(*f, path + ".burst_width_s");
        if (!(options.burst_width_s > 0.0)) {
            fail(path + ".burst_width_s", "must be > 0");
        }
    }
    if (const JsonValue* f = v.find("burst_mean_jobs")) {
        options.burst_mean_jobs = get_number(*f, path + ".burst_mean_jobs");
        if (!(options.burst_mean_jobs >= 1.0)) {
            fail(path + ".burst_mean_jobs", "must be >= 1");
        }
    }
    return options;
}

// ------------------------------------------------------------- serializer

/// Integer -> JSON number, refusing values the double representation would
/// silently round (which would break the documented to_json/from_json round
/// trip — the loader rejects non-exact integers).
JsonValue uint_to_json(std::uint64_t v, const char* what) {
    if (static_cast<double>(v) > kMaxExactInteger) {
        throw RuntimeError("scenario: cannot serialize " + std::string(what) +
                           " " + std::to_string(v) +
                           ": exceeds 2^53, not exactly representable as a "
                           "JSON number");
    }
    return JsonValue(static_cast<double>(v));
}

/// A policy or accountant spec in object form: {"name", "params"}.
template <typename Spec>
JsonValue spec_to_json(const Spec& spec) {
    JsonValue params{JsonValue::Object{}};
    for (const auto& [key, value] : spec.params) params.set(key, value);
    JsonValue out;
    out.set("name", spec.name);
    out.set("params", std::move(params));
    return out;
}

template <typename Spec>
JsonValue specs_to_json(const std::vector<Spec>& specs) {
    JsonValue::Array items;
    for (const auto& spec : specs) items.push_back(spec_to_json(spec));
    return JsonValue(std::move(items));
}

JsonValue outage_to_json(const ga::sim::ClusterOutage& outage) {
    JsonValue out;
    out.set("cluster", uint_to_json(outage.cluster, "outage cluster"));
    out.set("at_s", outage.at_s);
    out.set("nodes_lost", outage.nodes_lost);
    return out;
}

JsonValue options_to_json(const ga::sim::SimOptions& options) {
    JsonValue out;
    out.set("policy", spec_to_json(options.policy));
    out.set("pricing", spec_to_json(options.pricing));
    if (!options.currency_budgets.empty()) {
        JsonValue::Array budgets;
        for (const auto& cb : options.currency_budgets) {
            JsonValue entry;
            entry.set("currency", cb.currency);
            entry.set("accountant", spec_to_json(cb.accountant));
            entry.set("budget", cb.budget);
            budgets.push_back(std::move(entry));
        }
        out.set("currency_budgets", JsonValue(std::move(budgets)));
    }
    out.set("budget", options.budget);
    out.set("regional_grids", options.regional_grids);
    out.set("grid_seed", uint_to_json(options.grid_seed, "grid_seed"));
    out.set("arrival_compression", options.arrival_compression);
    out.set("outage", options.outage.has_value()
                          ? outage_to_json(*options.outage)
                          : JsonValue(nullptr));
    return out;
}

}  // namespace

void ScenarioFile::scale_workload(double factor) {
    GA_REQUIRE(factor > 0.0, "workload scale must be > 0");
    const double scaled =
        std::floor(static_cast<double>(workload.base_jobs) * factor);
    workload.base_jobs =
        scaled < 1.0 ? std::size_t{1} : static_cast<std::size_t>(scaled);
}

ScenarioFile scenario_from_json(const JsonValue& root) {
    if (!root.is_object()) fail_type("(document)", "object", root);
    check_keys(root, "", {"name", "description", "workload", "options", "grid"});
    ScenarioFile scenario;
    const JsonValue* name = root.find("name");
    if (name == nullptr) fail("name", "required key is missing");
    scenario.name = get_string(*name, "name");
    if (scenario.name.empty()) fail("name", "must be non-empty");
    if (const JsonValue* f = root.find("description")) {
        scenario.description = get_string(*f, "description");
    }
    if (const JsonValue* f = root.find("workload")) {
        scenario.workload = get_workload(*f, "workload");
    }
    if (const JsonValue* f = root.find("options")) {
        scenario.grid.base = get_options(*f, "options");
    }
    if (const JsonValue* f = root.find("grid")) {
        load_grid_axes(*f, "grid", scenario.grid);
    }
    return scenario;
}

ScenarioFile load_scenario_file(const std::filesystem::path& path) {
    const JsonValue document = load_json_file(path);
    try {
        return scenario_from_json(document);
    } catch (const RuntimeError& e) {
        throw RuntimeError(path.string() + ": " + e.what());
    }
}

JsonValue scenario_to_json(const ScenarioFile& scenario) {
    JsonValue out;
    out.set("name", scenario.name);
    if (!scenario.description.empty()) {
        out.set("description", scenario.description);
    }
    JsonValue workload;
    workload.set("base_jobs",
                 uint_to_json(scenario.workload.base_jobs, "base_jobs"));
    workload.set("repetitions", scenario.workload.repetitions);
    workload.set("users", uint_to_json(scenario.workload.users, "users"));
    workload.set("span_days", scenario.workload.span_days);
    workload.set("seed", uint_to_json(scenario.workload.seed, "workload seed"));
    workload.set("arrival", std::string(ga::workload::to_string(
                                scenario.workload.arrival)));
    workload.set("diurnal_peak_hour", scenario.workload.diurnal_peak_hour);
    workload.set("diurnal_amplitude", scenario.workload.diurnal_amplitude);
    workload.set("weekend_factor", scenario.workload.weekend_factor);
    workload.set("burst_fraction", scenario.workload.burst_fraction);
    workload.set("burst_width_s", scenario.workload.burst_width_s);
    workload.set("burst_mean_jobs", scenario.workload.burst_mean_jobs);
    out.set("workload", std::move(workload));
    out.set("options", options_to_json(scenario.grid.base));

    const auto& grid = scenario.grid;
    JsonValue axes{JsonValue::Object{}};  // "grid": {} when nothing is swept
    if (!grid.policies.empty()) {
        axes.set("policies", specs_to_json(grid.policies));
    }
    if (!grid.pricings.empty()) {
        axes.set("pricings", specs_to_json(grid.pricings));
    }
    if (!grid.budgets.empty()) {
        JsonValue::Array items;
        for (const auto b : grid.budgets) items.emplace_back(b);
        axes.set("budgets", JsonValue(std::move(items)));
    }
    if (!grid.regional_grids.empty()) {
        JsonValue::Array items;
        for (const bool r : grid.regional_grids) items.emplace_back(r);
        axes.set("regional_grids", JsonValue(std::move(items)));
    }
    if (!grid.grid_seeds.empty()) {
        JsonValue::Array items;
        for (const auto s : grid.grid_seeds) {
            items.push_back(uint_to_json(s, "grid_seeds entry"));
        }
        axes.set("grid_seeds", JsonValue(std::move(items)));
    }
    if (!grid.arrival_compressions.empty()) {
        JsonValue::Array items;
        for (const auto c : grid.arrival_compressions) items.emplace_back(c);
        axes.set("arrival_compressions", JsonValue(std::move(items)));
    }
    if (!grid.outages.empty()) {
        JsonValue::Array items;
        for (const auto& outage : grid.outages) {
            items.push_back(outage.has_value() ? outage_to_json(*outage)
                                               : JsonValue(nullptr));
        }
        axes.set("outages", JsonValue(std::move(items)));
    }
    out.set("grid", std::move(axes));
    return out;
}

}  // namespace ga::io
