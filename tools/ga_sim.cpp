// ga-sim — run declarative scenario files through the sweep engine.
//
// Loads a JSON scenario (io/scenario.hpp), expands its grid, executes every
// scenario over the shared batch simulator, and serializes labels + results
// (io/results.hpp) to stdout or a file. Progress goes to stderr so the
// payload stays pipeable.
//
// The output is reproducible by construction: the sweep engine is
// bit-identical parallel vs serial, the serializers are deterministic, and
// doubles are written in shortest round-trip form — the same scenario file
// produces the same bytes on every run at any --threads count, which the
// golden CI check pins.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/results.hpp"
#include "io/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/sweep.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/spec.hpp"

namespace {

constexpr std::string_view kUsage =
    R"USAGE(usage: ga-sim <scenario.json> [options]

Runs every scenario in a declarative scenario file through the parallel
sweep engine and writes labels + results as JSON (default) or CSV.

options:
  --list             print the expanded scenario labels and exit (no run)
  --threads N        worker threads (default 0 = hardware concurrency)
  --serial           run the serial reference executor instead of the pool
                     (output is bit-identical to the parallel run)
  --out json|csv     output format (default json)
  --output FILE      write the payload to FILE instead of stdout
  --finish-times     record per-job finish times and include them in the
                     JSON payload (runs record none without it)
  --policy SPEC      replace the grid's policy axis with one registry policy,
                     e.g. --policy "CarbonAware(forecast=1)"
  --accountant SPEC  replace the grid's pricing axis likewise,
                     e.g. --accountant "CarbonTax(rate=0.02)"
  --scale X          scale the workload's base_jobs by X (quick runs)
  --trace FILE       record simulator/sweep spans and write a Chrome
                     trace_event JSON to FILE (open in Perfetto). Spans carry
                     logical sim time, so the trace is deterministic and the
                     results payload stays byte-identical
  --trace-wallclock  additionally stamp each span with wall time (makes the
                     trace file non-deterministic; results are unaffected)
  --metrics          collect obs metrics during the run and print the
                     registry in Prometheus text form to stderr
  --metrics-out FILE write the metrics registry as deterministic JSON to FILE
                     (implies --metrics)
  --help             show this message
)USAGE";

struct CliOptions {
    std::string scenario_path;
    bool list = false;
    bool serial = false;
    bool finish_times = false;
    bool metrics = false;
    bool trace_wallclock = false;
    std::size_t threads = 0;
    std::string format = "json";
    std::string output_path;
    std::string trace_path;
    std::string metrics_out_path;
    std::optional<std::string> policy_override;
    std::optional<std::string> accountant_override;
    std::optional<double> scale;
};

[[noreturn]] void fail_usage(const std::string& message) {
    std::fprintf(stderr, "ga-sim: %s\n\n%s", message.c_str(),
                 std::string(kUsage).c_str());
    std::exit(2);
}

std::string next_arg(int argc, char** argv, int& i, std::string_view flag) {
    if (i + 1 >= argc) {
        fail_usage(std::string(flag) + " requires an argument");
    }
    return argv[++i];
}

CliOptions parse_cli(int argc, char** argv) {
    CliOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(std::string(kUsage).c_str(), stdout);
            std::exit(0);
        } else if (arg == "--list") {
            options.list = true;
        } else if (arg == "--serial") {
            options.serial = true;
        } else if (arg == "--finish-times") {
            options.finish_times = true;
        } else if (arg == "--threads") {
            const std::string value = next_arg(argc, argv, i, arg);
            const auto [end, ec] = std::from_chars(
                value.data(), value.data() + value.size(), options.threads);
            if (ec != std::errc{} || end != value.data() + value.size() ||
                value.empty()) {
                fail_usage("--threads expects a non-negative integer, got '" +
                           value + "'");
            }
        } else if (arg == "--out") {
            options.format = next_arg(argc, argv, i, arg);
            if (options.format != "json" && options.format != "csv") {
                fail_usage("--out expects 'json' or 'csv', got '" +
                           options.format + "'");
            }
        } else if (arg == "--output") {
            options.output_path = next_arg(argc, argv, i, arg);
        } else if (arg == "--policy") {
            options.policy_override = next_arg(argc, argv, i, arg);
        } else if (arg == "--accountant") {
            options.accountant_override = next_arg(argc, argv, i, arg);
        } else if (arg == "--scale") {
            const std::string value = next_arg(argc, argv, i, arg);
            double scale = 0.0;
            const auto [end, ec] = std::from_chars(
                value.data(), value.data() + value.size(), scale);
            if (ec != std::errc{} || end != value.data() + value.size() ||
                value.empty()) {
                fail_usage("--scale expects a number, got '" + value + "'");
            }
            if (!(scale > 0.0)) {
                fail_usage("--scale must be > 0");
            }
            options.scale = scale;
        } else if (arg == "--trace") {
            options.trace_path = next_arg(argc, argv, i, arg);
        } else if (arg == "--trace-wallclock") {
            options.trace_wallclock = true;
        } else if (arg == "--metrics") {
            options.metrics = true;
        } else if (arg == "--metrics-out") {
            options.metrics_out_path = next_arg(argc, argv, i, arg);
            options.metrics = true;
        } else if (!arg.empty() && arg.front() == '-') {
            fail_usage("unknown option '" + std::string(arg) + "'");
        } else if (options.scenario_path.empty()) {
            options.scenario_path = arg;
        } else {
            fail_usage("unexpected extra argument '" + std::string(arg) + "'");
        }
    }
    if (options.scenario_path.empty()) {
        fail_usage("missing scenario file");
    }
    return options;
}

/// Writes `text` to `file_path`, creating parent directories; throws on a
/// short write. Shared by the results payload, --trace, and --metrics-out.
void write_text_file(const std::string& file_path, const std::string& text) {
    const std::filesystem::path path(file_path);
    if (path.has_parent_path()) {
        std::filesystem::create_directories(path.parent_path());
    }
    std::FILE* out = std::fopen(file_path.c_str(), "wb");
    if (out == nullptr) {
        throw ga::util::RuntimeError("ga-sim: cannot open '" + file_path +
                                     "' for write");
    }
    const std::size_t written = std::fwrite(text.data(), 1, text.size(), out);
    const bool closed = std::fclose(out) == 0;
    if (written != text.size() || !closed) {
        throw ga::util::RuntimeError("ga-sim: short write to '" + file_path +
                                     "'");
    }
    std::fprintf(stderr, "wrote %zu bytes to %s\n", text.size(),
                 file_path.c_str());
}

void write_payload(const CliOptions& cli, const std::string& payload) {
    if (cli.output_path.empty()) {
        std::fputs(payload.c_str(), stdout);
        return;
    }
    write_text_file(cli.output_path, payload);
}

int run(const CliOptions& cli) {
    if (cli.metrics) ga::obs::set_metrics_enabled(true);
    if (!cli.trace_path.empty()) ga::obs::set_tracing_enabled(true);
    if (cli.trace_wallclock) ga::obs::set_trace_wallclock(true);
    ga::io::ScenarioFile scenario =
        ga::io::load_scenario_file(cli.scenario_path);
    if (cli.scale.has_value()) scenario.scale_workload(*cli.scale);

    // Axis overrides: one registry spec replaces the whole corresponding
    // axis, so "what would this grid look like under policy X" needs no
    // file edit.
    if (cli.policy_override.has_value()) {
        auto parsed = ga::util::parse_spec(*cli.policy_override);
        if (!ga::sim::PolicyRegistry::global().contains(parsed.name)) {
            throw ga::util::RuntimeError("ga-sim: --policy names unknown "
                                         "policy \"" + parsed.name + "\"");
        }
        scenario.grid.policies = {
            ga::sim::PolicySpec{parsed.name, parsed.params}};
    }
    if (cli.accountant_override.has_value()) {
        auto parsed = ga::util::parse_spec(*cli.accountant_override);
        if (!ga::acct::AccountantRegistry::global().contains(parsed.name)) {
            throw ga::util::RuntimeError("ga-sim: --accountant names unknown "
                                         "accountant \"" + parsed.name + "\"");
        }
        scenario.grid.pricings = {
            ga::acct::AccountantSpec{parsed.name, parsed.params}};
    }

    // Finish times are recorded only for the payload that prints them.
    scenario.grid.base.finish_times = cli.finish_times && cli.format == "json";
    const std::vector<ga::sim::ScenarioSpec> specs = scenario.grid.expand();
    if (cli.list) {
        for (const auto& spec : specs) {
            std::printf("%s\n", spec.label.c_str());
        }
        std::fprintf(stderr, "%zu scenarios (not run: --list)\n", specs.size());
        return 0;
    }

    std::fprintf(stderr, "scenario '%s': %zu jobs over %zu users, %zu grid points\n",
                 scenario.name.c_str(), scenario.workload.total_jobs(),
                 scenario.workload.users, specs.size());
    const ga::sim::BatchSimulator simulator(
        ga::workload::build_workload(scenario.workload));

    std::vector<ga::sim::SweepOutcome> outcomes;
    if (cli.serial) {
        std::fprintf(stderr, "running serially...\n");
        const ga::sim::SweepRunner runner(simulator, 1);
        outcomes = runner.run_serial(specs);
    } else {
        ga::sim::SweepRunner runner(simulator, cli.threads);
        std::fprintf(stderr, "running on %zu threads...\n", runner.threads());
        outcomes = runner.run(specs);
    }

    ga::io::ResultWriteOptions write_options;
    write_options.scenario_name = scenario.name;
    write_options.include_finish_times = cli.finish_times;
    write_payload(cli, cli.format == "csv"
                           ? ga::io::results_to_csv(outcomes)
                           : ga::io::results_to_json_text(outcomes,
                                                          write_options));

    // Observability exports come after the payload, once every worker has
    // quiesced (the pool is idle after run()/run_serial() return).
    if (!cli.trace_path.empty()) {
        auto& tracer = ga::obs::Tracer::global();
        write_text_file(cli.trace_path, tracer.render_chrome_trace());
        if (tracer.dropped_events() > 0) {
            std::fprintf(stderr,
                         "trace ring overflow: %llu oldest events overwritten\n",
                         static_cast<unsigned long long>(
                             tracer.dropped_events()));
        }
    }
    if (!cli.metrics_out_path.empty()) {
        write_text_file(cli.metrics_out_path,
                        ga::obs::Registry::global().render_json());
    }
    if (cli.metrics) {
        std::fputs(ga::obs::Registry::global().render_prometheus().c_str(),
                   stderr);
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const CliOptions cli = parse_cli(argc, argv);
    try {
        return run(cli);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ga-sim: error: %s\n", e.what());
        return 1;
    }
}
