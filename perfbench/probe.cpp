// perfbench-probe — the traced, in-process side of the repository benchmark.
//
// run.py times the shipped ga-sim and ga-serve binaries end to end with no
// instrumentation. This program links the library instead and calls the
// same public functions stage by stage, recording a span (name, start, end,
// parent) around each call into a module. Spans stay in memory and are
// written once, at exit, as JSON; run.py turns them into the per-layer
// metrics. The payload and transcript it writes must be byte-identical to
// the untraced binaries' output, which shows the staged calls compute the
// same program.
//
//   perfbench-probe sim SCENARIO --threads N --payload OUT --trace OUT
//   perfbench-probe serve SCENARIO REQUESTS --transcript OUT --trace OUT
//   perfbench-probe check-sim PAYLOAD --jobs N --points P
//   perfbench-probe exec RSS_FILE PROGRAM [ARGS...]
//
// Wall time comes only from ga::obs::WallTimer; the probe draws no random
// numbers (every input is generated from the benchmark seed by run.py).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "io/json.hpp"
#include "io/results.hpp"
#include "io/scenario.hpp"
#include "machine/catalog.hpp"
#include "obs/walltime.hpp"
#include "service/session.hpp"
#include "service/snapshot.hpp"
#include "sim/sweep.hpp"
#include "util/error.hpp"
#include "workload/counters.hpp"
#include "workload/predictor.hpp"
#include "workload/workload.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

using ga::io::JsonValue;

/// In-memory span recorder. Spans nest through an explicit stack, so each
/// span's parent is the span open when it began.
class SpanLog {
public:
    void open(std::string name) {
        const long parent =
            stack_.empty() ? -1L : static_cast<long>(stack_.back());
        stack_.push_back(spans_.size());
        spans_.push_back(Span{std::move(name), clock_.seconds(), 0.0, parent});
    }

    void close() {
        spans_[stack_.back()].end_s = clock_.seconds();
        stack_.pop_back();
    }

    [[nodiscard]] JsonValue to_json() const {
        JsonValue::Array out;
        out.reserve(spans_.size());
        for (const Span& span : spans_) {
            JsonValue entry{JsonValue::Object{}};
            entry.set("name", span.name);
            entry.set("start_s", span.start_s);
            entry.set("end_s", span.end_s);
            entry.set("parent", static_cast<double>(span.parent));
            out.push_back(std::move(entry));
        }
        return JsonValue(std::move(out));
    }

private:
    struct Span {
        std::string name;
        double start_s = 0.0;
        double end_s = 0.0;
        long parent = -1;
    };
    ga::obs::WallTimer clock_;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/// RAII span: open on construction, close on scope exit.
class Scope {
public:
    Scope(SpanLog& log, std::string name) : log_(log) {
        log_.open(std::move(name));
    }
    ~Scope() { log_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    SpanLog& log_;
};

[[noreturn]] void fail_usage(const std::string& message) {
    std::fprintf(stderr,
                 "perfbench-probe: %s\n"
                 "usage: perfbench-probe sim SCENARIO --threads N --payload "
                 "OUT --trace OUT\n"
                 "       perfbench-probe serve SCENARIO REQUESTS --transcript "
                 "OUT --trace OUT\n"
                 "       perfbench-probe check-sim PAYLOAD --jobs N --points P\n"
                 "       perfbench-probe exec RSS_FILE PROGRAM [ARGS...]\n",
                 message.c_str());
    std::exit(2);
}

/// Positional arguments plus `--flag value` pairs.
struct Args {
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;

    [[nodiscard]] const std::string& flag(const std::string& name) const {
        const auto it = flags.find(name);
        if (it == flags.end()) fail_usage("missing --" + name);
        return it->second;
    }

    [[nodiscard]] std::size_t count(const std::string& name) const {
        const std::string& text = flag(name);
        std::size_t value = 0;
        const auto [end, ec] =
            std::from_chars(text.data(), text.data() + text.size(), value);
        if (ec != std::errc{} || end != text.data() + text.size()) {
            fail_usage("--" + name + " expects a non-negative integer");
        }
        return value;
    }
};

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 2; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg.starts_with("--")) {
            if (i + 1 >= argc) fail_usage(std::string(arg) + " needs a value");
            args.flags[std::string(arg.substr(2))] = argv[++i];
        } else {
            args.positional.emplace_back(arg);
        }
    }
    return args;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw ga::util::RuntimeError("cannot read '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void write_file(const std::string& path, std::string_view text) {
    std::ofstream out(path, std::ios::binary);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.close();
    if (!out) throw ga::util::RuntimeError("cannot write '" + path + "'");
}

/// Runs the kernel suite through its process-wide cache and reports the
/// computed work counts (machine-independent; they repeat exactly).
JsonValue profile_kernels(SpanLog& log) {
    const std::vector<ga::workload::BenchmarkPoint>* points = nullptr;
    {
        const Scope span(log, "kernels.profile");
        points = &ga::workload::benchmark_points();
    }
    double flops = 0.0;
    double mem_bytes = 0.0;
    for (const auto& point : *points) {
        flops += point.profile.flops;
        mem_bytes += point.profile.mem_bytes;
    }
    JsonValue counts{JsonValue::Object{}};
    counts.set("kernels.points", static_cast<double>(points->size()));
    counts.set("kernels.flops", flops);
    counts.set("kernels.mem_bytes", mem_bytes);
    return counts;
}

void merge_into(JsonValue& into, const JsonValue& from) {
    for (const auto& [key, value] : from.as_object()) into.set(key, value);
}

void write_trace(const std::string& path, const SpanLog& log,
                 JsonValue counts) {
    JsonValue doc{JsonValue::Object{}};
    doc.set("spans", log.to_json());
    doc.set("counts", std::move(counts));
    write_file(path, ga::io::write_json(doc, /*indent=*/0));
}

/// ga-sim's pipeline, one module call per span. The workload stages are
/// ga::workload::build_workload taken apart (same calls, same seeds, same
/// order after the kernel cache is warm); the payload byte-identity check in
/// run.py is what pins the two together.
int run_sim(const Args& args) {
    if (args.positional.size() != 1) fail_usage("sim needs one SCENARIO");
    SpanLog log;
    JsonValue counts{JsonValue::Object{}};
    log.open("sim.pipeline");

    ga::io::ScenarioFile scenario = [&] {
        const Scope span(log, "io.load_scenario");
        return ga::io::load_scenario_file(args.positional[0]);
    }();
    const std::vector<ga::sim::ScenarioSpec> specs = scenario.grid.expand();
    merge_into(counts, profile_kernels(log));

    ga::workload::Workload workload;
    const std::uint64_t seed = scenario.workload.seed;
    {
        const Scope span(log, "workload.trace");
        workload.jobs = ga::workload::generate_trace(scenario.workload);
    }
    const ga::stats::Gmm gmm = [&] {
        const Scope span(log, "workload.gmm_fit");
        return ga::workload::fit_counter_gmm(/*training_rows=*/4000,
                                             seed ^ 0x9E5u);
    }();
    {
        const Scope span(log, "workload.counters");
        ga::workload::synthesize_counters(workload.jobs, gmm, seed ^ 0x51Du);
    }
    {
        const Scope span(log, "workload.predictor");
        workload.predictor =
            std::make_shared<ga::workload::CrossPlatformPredictor>(
                ga::machine::simulation_machines());
    }
    const std::size_t jobs = workload.jobs.size();
    std::unique_ptr<const ga::sim::BatchSimulator> simulator;
    {
        const Scope span(log, "sim.precompute");
        simulator =
            std::make_unique<const ga::sim::BatchSimulator>(std::move(workload));
    }

    std::vector<ga::sim::SweepOutcome> outcomes;
    std::size_t threads = 0;
    {
        const Scope span(log, "sweep.run");
        ga::sim::SweepRunner runner(*simulator, args.count("threads"));
        threads = runner.threads();
        outcomes = runner.run(specs);
    }
    ga::io::ResultWriteOptions write_options;
    write_options.scenario_name = scenario.name;
    const std::string payload = [&] {
        const Scope span(log, "io.serialize");
        return ga::io::results_to_json_text(outcomes, write_options);
    }();
    log.close();

    // Not part of ga-sim: every grid point once more, serially, so each
    // point's event loop is timed alone. The serial results must serialize
    // to the same bytes as the pooled sweep.
    std::vector<ga::sim::SweepOutcome> serial;
    serial.reserve(specs.size());
    {
        const Scope pass(log, "sim.serial_points");
        for (const auto& spec : specs) {
            const Scope span(log, "sim.point");
            serial.push_back(
                ga::sim::SweepOutcome{spec, simulator->run(spec.options)});
        }
    }
    if (ga::io::results_to_json_text(serial, write_options) != payload) {
        std::fprintf(stderr,
                     "perfbench-probe: serial points differ from the sweep\n");
        return 1;
    }

    std::size_t completed = 0;
    std::size_t skipped = 0;
    for (const auto& outcome : outcomes) {
        completed += outcome.result.jobs_completed;
        skipped += outcome.result.jobs_skipped;
    }
    counts.set("workload.jobs", static_cast<double>(jobs));
    counts.set("sim.jobs_completed", static_cast<double>(completed));
    counts.set("sim.jobs_skipped", static_cast<double>(skipped));
    counts.set("sweep.threads", static_cast<double>(threads));
    counts.set("io.result_bytes", static_cast<double>(payload.size()));

    write_file(args.flag("payload"), payload);
    write_trace(args.flag("trace"), log, std::move(counts));
    return 0;
}

/// The request's "type" from a generated line ({"id":N,"type":"verb",...});
/// "other" when absent.
std::string verb_of(std::string_view line) {
    constexpr std::string_view kKey = "\"type\":\"";
    const std::size_t at = line.find(kKey);
    if (at == std::string_view::npos) return "other";
    const std::size_t begin = at + kKey.size();
    const std::size_t end = line.find('"', begin);
    if (end == std::string_view::npos) return "other";
    return std::string(line.substr(begin, end - begin));
}

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::size_t begin = 0;
    while (begin < text.size()) {
        std::size_t end = text.find('\n', begin);
        if (end == std::string::npos) end = text.size();
        if (end > begin) lines.emplace_back(text, begin, end - begin);
        begin = end + 1;
    }
    return lines;
}

/// ga-serve's request path without the transport. The stream is replayed
/// twice in fresh sessions, untraced and then with one span per request, so
/// the cost of the spans themselves is measured on identical work.
int run_serve(const Args& args) {
    if (args.positional.size() != 2) {
        fail_usage("serve needs SCENARIO and REQUESTS");
    }
    SpanLog log;
    JsonValue counts{JsonValue::Object{}};
    const ga::io::ScenarioFile scenario = [&] {
        const Scope span(log, "io.load_scenario");
        return ga::io::load_scenario_file(args.positional[0]);
    }();
    merge_into(counts, profile_kernels(log));
    const std::vector<std::string> lines =
        split_lines(read_file(args.positional[1]));
    std::vector<std::string> verbs;
    verbs.reserve(lines.size());
    for (const std::string& line : lines) verbs.push_back(verb_of(line));

    std::string untraced;
    double untraced_s = 0.0;
    {
        ga::service::ServeSession session{ga::io::ScenarioFile(scenario)};
        const ga::obs::WallTimer timer;
        for (const std::string& line : lines) {
            untraced += session.handle_line(line);
            untraced.push_back('\n');
            if (session.shutdown_requested()) break;
        }
        untraced_s = timer.seconds();
    }

    std::string transcript;
    transcript.reserve(untraced.size());
    std::unique_ptr<ga::service::ServeSession> session;
    {
        const Scope span(log, "service.construct");
        session = std::make_unique<ga::service::ServeSession>(
            ga::io::ScenarioFile(scenario));
    }
    log.open("service.stream");
    for (std::size_t i = 0; i < lines.size(); ++i) {
        log.open("service." + verbs[i]);
        transcript += session->handle_line(lines[i]);
        log.close();
        transcript.push_back('\n');
        if (session->shutdown_requested()) break;
    }
    log.close();
    std::string snapshot;
    {
        const Scope span(log, "service.snapshot");
        snapshot = ga::service::encode_snapshot(session->export_state());
    }
    if (transcript != untraced) {
        std::fprintf(stderr,
                     "perfbench-probe: traced transcript differs from the "
                     "untraced replay\n");
        return 1;
    }
    counts.set("service.snapshot_bytes", static_cast<double>(snapshot.size()));
    counts.set("service.untraced_stream_s", untraced_s);
    counts.set("io.result_bytes", static_cast<double>(transcript.size()));

    write_file(args.flag("transcript"), transcript);
    write_trace(args.flag("trace"), log, std::move(counts));
    return 0;
}

bool all_finite(const ga::sim::SimResult& r) {
    bool finite = std::isfinite(r.work_core_hours) &&
                  std::isfinite(r.total_cost) && std::isfinite(r.energy_mwh) &&
                  std::isfinite(r.operational_carbon_kg) &&
                  std::isfinite(r.attributed_carbon_kg) &&
                  std::isfinite(r.makespan_s);
    for (const double t : r.finish_times_s) finite = finite && std::isfinite(t);
    for (const auto& [currency, spent] : r.currency_spent) {
        finite = finite && std::isfinite(spent);
    }
    return finite;
}

/// Validates a ga-sim payload: it parses with io::results_from_json, has one
/// row per grid point, accounts for every job in every row, and holds only
/// finite values. Exit 1 names the first failure.
int check_sim(const Args& args) {
    if (args.positional.size() != 1) fail_usage("check-sim needs one PAYLOAD");
    const std::size_t jobs = args.count("jobs");
    const std::size_t points = args.count("points");
    const std::vector<ga::io::ResultRow> rows = ga::io::results_from_json(
        ga::io::parse_json(read_file(args.positional[0])));
    std::string problem;
    if (rows.size() != points) {
        problem = "expected " + std::to_string(points) + " rows, got " +
                  std::to_string(rows.size());
    }
    for (const auto& row : rows) {
        if (!problem.empty()) break;
        if (row.result.jobs_completed + row.result.jobs_skipped != jobs) {
            problem = "row '" + row.label + "' accounts for " +
                      std::to_string(row.result.jobs_completed +
                                     row.result.jobs_skipped) +
                      " of " + std::to_string(jobs) + " jobs";
        } else if (!all_finite(row.result)) {
            problem = "row '" + row.label + "' holds a non-finite value";
        }
    }
    if (problem.empty()) return 0;
    std::fprintf(stderr, "perfbench-probe: check-sim: %s\n", problem.c_str());
    return 1;
}

/// Runs PROGRAM as a child with this process's stdio, writes the child's
/// peak resident set (kB, from wait4) to RSS_FILE and exits with the
/// child's status. Linux starts a child's ru_maxrss at the peak of the
/// address space it replaced at exec, i.e. at its forking parent's size, so
/// children spawned straight from the benchmark's Python driver would read
/// at least the driver's size; spawned through this small process they read
/// their own.
int exec_child(int argc, char** argv) {
    if (argc < 4) fail_usage("exec needs RSS_FILE and PROGRAM");
    const pid_t pid = ::fork();
    if (pid < 0) throw ga::util::RuntimeError("exec: fork failed");
    if (pid == 0) {
        ::execvp(argv[3], argv + 3);
        std::fprintf(stderr, "perfbench-probe: cannot run %s\n", argv[3]);
        ::_exit(127);
    }
    int status = 0;
    rusage usage{};
    if (::wait4(pid, &status, 0, &usage) != pid) {
        throw ga::util::RuntimeError("exec: wait4 failed");
    }
    write_file(argv[2], std::to_string(usage.ru_maxrss) + "\n");
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) fail_usage("missing command");
    const std::string_view command = argv[1];
    try {
        if (command == "exec") return exec_child(argc, argv);
        const Args args = parse_args(argc, argv);
        if (command == "sim") return run_sim(args);
        if (command == "serve") return run_serve(args);
        if (command == "check-sim") return check_sim(args);
        fail_usage("unknown command '" + std::string(command) + "'");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench-probe: error: %s\n", e.what());
        return 1;
    }
}
