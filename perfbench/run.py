#!/usr/bin/env python3
"""The repository benchmark: ga-sim and ga-serve, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the programs from the checkout (into .bench_build/), generates the
workload's inputs from --seed, and then

  --trace 0  times fresh ga-sim / ga-serve processes for S seconds, with no
             instrumentation, and reports the end-to-end metrics;
  --trace 1  runs perfbench-probe, which calls the same library functions
             stage by stage inside spans, and reports the per-layer metrics.

Every output is checked. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import quantiles  # noqa: E402
import workloads  # noqa: E402

BUILD_DIR = ROOT / ".bench_build"
GOLDEN_SMALL = ROOT / "examples" / "scenarios" / "golden" / "ci_smoke.results.json"
WORKLOADS = ("sim_small", "sim_paper", "serve_stream")
SERVE_VERBS = ("submit_jobs", "quote", "balance", "charge", "stats")
# Fewest processes (or sessions) a --trace 0 run times, however short
# --seconds is, so every median has company.
MIN_SAMPLES = {"sim_small": 5, "sim_paper": 3, "serve_stream": 2}
# Requests (after account creation) of the short ga-serve stream that a sim
# workload's traced run serves on its scenario, so the service layer is
# measured on every workload.
COMPANION_REQUESTS = 4_000


class BenchError(Exception):
    """The benchmark could not run (no source tree, build failure, a program
    that crashed); no result is printed."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------- build

def build():
    """Configures (once) and builds the benchmark's targets. Build output goes
    to .bench_build/build.log; stdout stays free for the report."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no ga source tree beside perfbench/ at %s" % ROOT)
    BUILD_DIR.mkdir(exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(nproc()),
                  "--target", "ga-sim", "ga-serve", "perfbench-probe"])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode:
                tail = build_log.read_text(errors="replace").splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return {name: BUILD_DIR / rel for name, rel in (
        ("ga-sim", "ga/tools/ga-sim"), ("ga-serve", "ga/tools/ga-serve"),
        ("probe", "perfbench-probe"))}


def provenance(seed, threads, steal_frac):
    compiler, build_type = build_info()
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {"nproc": nproc(), "compiler": compiler, "build_type": build_type,
            "commit": commit, "source_digest": source_digest(), "seed": seed,
            "sweep_threads": threads, "steal_frac": steal_frac}


def build_info():
    """(compiler, build type) of the benchmark build, as CMake recorded
    them when it configured .bench_build/."""
    cache = {}
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.startswith(("#", "//")):
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    for path in BUILD_DIR.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        found = dict(re.findall(
            r'set\(CMAKE_CXX_COMPILER_(ID|VERSION) "([^"]*)"\)',
            path.read_text()))
        if found.get("ID"):
            compiler = ("%s %s" % (found["ID"], found.get("VERSION", ""))).strip()
    return compiler, cache.get("CMAKE_BUILD_TYPE", "unknown")


def cpu_times():
    """(steal, total) CPU time of the whole host so far, in clock ticks, from
    /proc/stat; None where the kernel does not report it."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    if len(fields) < 8:
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    """Share of CPU time the hypervisor took from this host between two
    cpu_times() readings. Runs with a large share were slowed by other
    guests, not by the program; compare their figures with care."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return round((after[0] - before[0]) / (after[1] - before[1]), 4)


def source_digest():
    """sha256 over the program sources, so results name the code they timed
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    files = sorted(p for top in ("src", "tools") for p in (ROOT / top).rglob("*")
                   if p.is_file())
    for path in files + [ROOT / "CMakeLists.txt"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ----------------------------------------------------- child processes

class Child:
    """Timings of one program run, all in seconds from its spawn."""

    def __init__(self):
        self.ready_s = None
        self.last_byte_s = None
        self.exit_s = None
        self.returncode = None
        self.peak_rss_mb = None
        self.stdout = b""
        self.stderr = b""


RSS_FILE = "child.rss"


def spawn(launcher, args, cwd, stdin=subprocess.DEVNULL):
    """Starts `args` through `perfbench-probe exec`, which reports the
    child's own peak RSS (see exec_child in probe.cpp)."""
    return time.perf_counter(), subprocess.Popen(
        [str(launcher), "exec", RSS_FILE] + args, cwd=cwd, stdin=stdin,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def reap(proc, started, child, cwd):
    """Waits for the process and records exit time and peak RSS."""
    _, status, _ = os.wait4(proc.pid, 0)
    child.exit_s = time.perf_counter() - started
    proc.returncode = child.returncode = os.waitstatus_to_exitcode(status)
    rss = Path(cwd) / RSS_FILE
    if rss.is_file():
        child.peak_rss_mb = int(rss.read_text()) / 1024.0  # kB on Linux
        rss.unlink()


def run_batch(launcher, args, cwd, ready_marker=None):
    """Runs a batch program to completion, timestamping the stderr line that
    says it is ready to work (when given) and the last stdout byte."""
    child = Child()
    started, proc = spawn(launcher, args, cwd)
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ, "out")
    selector.register(proc.stderr, selectors.EVENT_READ, "err")
    out, err = [], bytearray()
    while selector.get_map():
        for key, _ in selector.select():
            chunk = os.read(key.fileobj.fileno(), 1 << 16)
            now = time.perf_counter() - started
            if not chunk:
                selector.unregister(key.fileobj)
            elif key.data == "out":
                out.append(chunk)
                child.last_byte_s = now
            else:
                err += chunk
                if (ready_marker and child.ready_s is None and
                        ready_marker in err):
                    child.ready_s = now
    selector.close()
    reap(proc, started, child, cwd)
    proc.stdout.close()
    proc.stderr.close()
    child.stdout, child.stderr = b"".join(out), bytes(err)
    return child


def run_ga_sim(spec, binaries, run_dir, threads):
    child = run_batch(binaries["probe"],
                      [str(binaries["ga-sim"]), str(spec["scenario"]),
                       "--threads", str(threads)], run_dir, b"running on ")
    if child.returncode != 0 or child.ready_s is None:
        raise BenchError("ga-sim failed:\n" +
                         child.stderr.decode(errors="replace"))
    return child


def serve_session(binaries, scenario, lines, cwd):
    """One ga-serve daemon driven by one closed-loop client over its
    stdin/stdout: each request is written only after the previous response
    has been read. Returns (child, per-request latencies in seconds,
    responses, stream seconds)."""
    # --socket switches ga-serve's stdin from blocking 64 KiB fread()s, which
    # would wait for more lines forever, to poll()/read(); the socket itself
    # stays unused.
    child = Child()
    started, proc = spawn(binaries["probe"],
                          [str(binaries["ga-serve"]), str(scenario), "--socket",
                           "serve.sock"], cwd, stdin=subprocess.PIPE)
    err = bytearray()
    while b"ga-serve: ready\n" not in err:
        chunk = os.read(proc.stderr.fileno(), 1 << 12)
        if not chunk:
            break
        err += chunk
    child.ready_s = time.perf_counter() - started
    if b"ga-serve: ready\n" not in err:
        proc.stdin.close()
        reap(proc, started, child, cwd)
        child.stderr = bytes(err)
        return child, [], [], 0.0
    write = proc.stdin.fileno()
    read = proc.stdout.fileno()
    # The client spins on the reply pipe instead of sleeping in read(), so
    # its own wake-up does not pad (and add noise to) every latency.
    os.set_blocking(read, False)
    clock = time.perf_counter
    payloads = [(line + "\n").encode() for line in lines]
    latencies = []
    responses = []
    stream_start = clock()
    for payload in payloads:
        sent = clock()
        os.write(write, payload)
        response = b""
        while not response.endswith(b"\n"):
            try:
                chunk = os.read(read, 1 << 16)
            except BlockingIOError:
                continue
            if not chunk:
                break
            response += chunk
        latencies.append(clock() - sent)
        if not response.endswith(b"\n"):
            break
        responses.append(response)
    stream_s = clock() - stream_start
    os.set_blocking(read, True)
    child.last_byte_s = clock() - started
    proc.stdin.close()
    rest = proc.stdout.read()
    err += proc.stderr.read()
    reap(proc, started, child, cwd)
    proc.stdout.close()
    proc.stderr.close()
    child.stdout, child.stderr = rest, bytes(err)
    return child, latencies, responses, stream_s


# --------------------------------------------------------------- checks

class Checks:
    """Counts checked operations and failures; failures are also logged."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        return self.tally(1, 0 if ok else 1, what) == 0

    def tally(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            log("check failed (%d of %d): %s" % (failed, attempted, what))
        return failed


def check_sim_payload(checks, binaries, payload, spec, run_dir, seed):
    path = run_dir / "payload.json"
    path.write_bytes(payload)
    verdict = subprocess.run(
        [str(binaries["probe"]), "check-sim", str(path), "--jobs",
         str(spec["jobs"]), "--points", str(spec["points"])],
        capture_output=True, text=True, check=False)
    checks.check(verdict.returncode == 0,
                 "sim payload: " + verdict.stderr.strip())
    if spec["name"] == "sim_small" and seed == workloads.CI_SMOKE_SEED:
        checks.check(payload == GOLDEN_SMALL.read_bytes(),
                     "sim_small payload differs from the ci_smoke golden")


def check_serve_responses(checks, lines, responses, expected_jobs):
    """Every response parses, echoes its request's id and is ok:true; the
    final stats accounts for every submitted job. Returns that stats result
    (None when missing)."""
    first_bad = "%d of %d responses" % (len(responses), len(lines))
    failed = len(lines) - len(responses)
    stats = None
    for line, raw in zip(lines, responses):
        try:
            response = json.loads(raw)
        except ValueError:
            response = {}
        request_id = json.loads(line)["id"]
        if response.get("id") != request_id or response.get("ok") is not True:
            if not failed:
                first_bad = "request %d: %r" % (request_id, raw[:160])
            failed += 1
        elif '"type":"stats"' in line:
            stats = response["result"]
    checks.tally(len(lines), failed, first_bad)
    checks.check(stats is not None and
                 stats["jobs_submitted"] + stats["jobs_rejected"] ==
                 expected_jobs,
                 "final stats does not account for %d jobs" % expected_jobs)
    return stats


# ---------------------------------------------------------- workloads

def prepare(workload, seed, run_dir):
    """Writes the workload's generated inputs; returns its description."""
    if workload == "serve_stream":
        lines, jobs = workloads.serve_requests(seed)
        scenario = run_dir / "scenario.json"
        scenario.write_text(workloads.serve_scenario(seed))
        requests = run_dir / "requests.jsonl"
        requests.write_text("\n".join(lines) + "\n")
        return {"name": workload, "scenario": scenario, "requests": requests,
                "lines": lines, "jobs": jobs}
    if workload == "sim_small":
        text = workloads.sim_small_scenario(seed)
    else:
        text = workloads.sim_paper_scenario(seed)
    scenario = run_dir / "scenario.json"
    scenario.write_text(text)
    return sim_spec(workload, scenario)


def sim_spec(name, scenario):
    """A ga-sim input: the scenario file, its grid points and job count."""
    doc = json.loads(scenario.read_text())
    shape = doc["workload"]
    points = 1
    for axis in doc.get("grid", {}).values():
        points *= len(axis)
    return {"name": name, "scenario": scenario, "points": points,
            "jobs": shape["base_jobs"] * shape["repetitions"]}


def companion(spec, seed, run_dir):
    """The other program's input on the workload's scenario, for the traced
    run: ga-sim on serve_stream's one grid point, or, on a sim workload, a
    short ga-serve stream served on the scenario's first grid point."""
    name = spec["name"] + ".companion"
    if spec["name"] == "serve_stream":
        return sim_spec(name, spec["scenario"])
    lines, jobs = workloads.serve_requests(seed, requests=COMPANION_REQUESTS)
    requests = run_dir / "companion.jsonl"
    requests.write_text("\n".join(lines) + "\n")
    return {"name": name, "scenario": spec["scenario"], "requests": requests,
            "lines": lines, "jobs": jobs}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(children, rates, latencies_us):
    """The end-to-end metrics from a run's processes, their work rates and
    its answer latencies."""
    return {
        "setup_s": metric(statistics.median([c.ready_s for c in children]),
                          "s"),
        "wall_s": metric(statistics.median([c.exit_s for c in children]), "s"),
        "ops_per_s": metric(statistics.median(rates), "1/s"),
        "latency_p50_us": metric(quantiles.percentile(latencies_us, 50), "us"),
        "latency_p99_us": metric(quantiles.percentile(latencies_us, 99), "us"),
        "peak_rss_mb": metric(statistics.median(
            [c.peak_rss_mb for c in children]), "MB"),
    }


def sim_end_to_end(spec, binaries, run_dir, seconds, threads, checks, seed):
    children = []
    begin = time.perf_counter()
    while (len(children) < MIN_SAMPLES[spec["name"]] or
           time.perf_counter() - begin < seconds):
        children.append(run_ga_sim(spec, binaries, run_dir, threads))
    payload = children[0].stdout
    for child in children:
        checks.check(child.stdout == payload,
                     "ga-sim payloads differ between identical runs")
    check_sim_payload(checks, binaries, payload, spec, run_dir, seed)
    job_runs = spec["jobs"] * spec["points"]
    log("%s: %d ga-sim processes" % (spec["name"], len(children)))
    # On sim_paper, job-runs per second of the work phase: from the ready
    # line to the last result byte, i.e. the sweep and the payload's
    # serialization. On sim_small that phase lasts about 3 ms, too short to
    # time steadily from another process, so the rate there is over the
    # whole wait and carries the same information as wall_s. A latency
    # sample is one process's answer: spawn to last result byte.
    if spec["name"] == "sim_paper":
        rates = [job_runs / (c.last_byte_s - c.ready_s) for c in children]
    else:
        rates = [job_runs / c.exit_s for c in children]
    metrics = end_to_end(children, rates,
                         [c.last_byte_s * 1e6 for c in children])
    return metrics, {"samples": len(children),
                     "latency_samples": len(children)}


def serve_end_to_end(spec, binaries, run_dir, seconds, checks):
    sessions = []
    rates = []
    latencies_us = []
    transcript = None
    begin = time.perf_counter()
    while (len(sessions) < MIN_SAMPLES[spec["name"]] or
           time.perf_counter() - begin < seconds):
        child, lats, responses, stream_s = serve_session(
            binaries, spec["scenario"], spec["lines"], run_dir)
        if child.returncode != 0 or not responses:
            raise BenchError("ga-serve failed:\n" +
                             child.stderr.decode(errors="replace"))
        stats = check_serve_responses(checks, spec["lines"], responses,
                                      spec["jobs"])
        joined = b"".join(responses)
        if transcript is None:
            transcript = joined
            log("serve_stream: %d requests, %d jobs, %s queued at the end" % (
                len(responses), spec["jobs"],
                stats["jobs_queued"] if stats else "?"))
        checks.check(joined == transcript,
                     "ga-serve transcripts differ between identical sessions")
        sessions.append(child)
        rates.append(len(responses) / stream_s)
        latencies_us.extend(x * 1e6 for x in lats)
    log("serve_stream: %d sessions, %d latency samples" % (
        len(sessions), len(latencies_us)))
    return end_to_end(sessions, rates, latencies_us), {
        "samples": len(sessions), "latency_samples": len(latencies_us)}


# ---------------------------------------------------------------- traced

def span_durations(trace):
    """{span name: [durations in seconds]} in recording order."""
    out = {}
    for span in trace["spans"]:
        out.setdefault(span["name"], []).append(span["end_s"] - span["start_s"])
    return out


def one(durations, name):
    return durations[name][0]


def sim_layers(trace, traced_s, untraced_s):
    d = span_durations(trace)
    c = trace["counts"]
    points = d["sim.point"]
    jobs, threads = c["workload.jobs"], c["sweep.threads"]
    done, skipped = c["sim.jobs_completed"], c["sim.jobs_skipped"]
    layers = {
        "kernels.profile_s": (one(d, "kernels.profile"), "s"),
        "kernels.points": (c["kernels.points"], "count"),
        "kernels.flops": (c["kernels.flops"], "count"),
        "kernels.mem_bytes": (c["kernels.mem_bytes"], "bytes"),
        "workload.trace_s": (one(d, "workload.trace"), "s"),
        "workload.gmm_fit_s": (one(d, "workload.gmm_fit"), "s"),
        "workload.counters_s": (one(d, "workload.counters"), "s"),
        "workload.predictor_s": (one(d, "workload.predictor"), "s"),
        "workload.jobs": (jobs, "count"),
        "sim.precompute_s": (one(d, "sim.precompute"), "s"),
        "sim.point_p50_s": (statistics.median(points), "s"),
        "sim.point_max_s": (max(points), "s"),
        "sim.jobs_per_s": (jobs * len(points) / sum(points), "1/s"),
        "sim.admitted_frac": (done / (done + skipped), "ratio"),
        "sweep.wall_s": (one(d, "sweep.run"), "s"),
        "sweep.threads": (threads, "count"),
        "sweep.efficiency": (sum(points) / (threads * one(d, "sweep.run")),
                             "ratio"),
        "io.load_scenario_s": (one(d, "io.load_scenario"), "s"),
        "io.serialize_s": (one(d, "io.serialize"), "s"),
        "io.result_bytes": (c["io.result_bytes"], "bytes"),
        "trace_overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    }
    return layers


def serve_layers(trace, stats):
    d = span_durations(trace)
    c = trace["counts"]
    layers = {
        "kernels.profile_s": (one(d, "kernels.profile"), "s"),
        "kernels.points": (c["kernels.points"], "count"),
        "kernels.flops": (c["kernels.flops"], "count"),
        "kernels.mem_bytes": (c["kernels.mem_bytes"], "bytes"),
        "workload.jobs": (stats["jobs_submitted"] + stats["jobs_rejected"],
                          "count"),
        "service.ready_s": (one(d, "service.construct"), "s"),
        "service.queued_end": (stats["jobs_queued"], "count"),
        "service.transactions_end": (stats["transactions"], "count"),
        "service.snapshot_s": (one(d, "service.snapshot"), "s"),
        "service.snapshot_bytes": (c["service.snapshot_bytes"], "bytes"),
        "io.load_scenario_s": (one(d, "io.load_scenario"), "s"),
        "io.result_bytes": (c["io.result_bytes"], "bytes"),
        "trace_overhead_frac": (one(d, "service.stream") /
                                c["service.untraced_stream_s"] - 1.0, "ratio"),
    }
    for verb in SERVE_VERBS:
        us = [x * 1e6 for x in d["service." + verb]]
        layers["service.%s.count" % verb] = (len(us), "count")
        layers["service.%s.p50_us" % verb] = (quantiles.percentile(us, 50), "us")
        layers["service.%s.p99_us" % verb] = (quantiles.percentile(us, 99), "us")
    return layers


def median_layers(passes):
    """Per-layer medians over repeated traced passes."""
    names = passes[0].keys()
    return {name: metric(statistics.median([p[name][0] for p in passes]),
                         passes[0][name][1]) for name in names}


def run_probe(binaries, run_dir, command, args):
    """One perfbench-probe pipeline (`sim` or `serve`). Returns its payload
    or transcript, its trace and its wall seconds."""
    out_path = run_dir / ("probe-%s.out" % command)
    trace_path = run_dir / ("probe-%s.trace.json" % command)
    out_flag = "--payload" if command == "sim" else "--transcript"
    probe_run = run_batch(
        binaries["probe"], [str(binaries["probe"]), command] + args +
        [out_flag, str(out_path), "--trace", str(trace_path)], run_dir)
    if probe_run.returncode != 0:
        raise BenchError("perfbench-probe failed:\n" +
                         probe_run.stderr.decode(errors="replace"))
    return (out_path.read_bytes(), json.loads(trace_path.read_text()),
            probe_run.exit_s)


def traced_sim(spec, binaries, run_dir, threads, checks, seed, reference):
    """One sim pass: an untraced ga-sim process, then the probe's sim
    pipeline on the same scenario. Returns the pass's layers and the payload
    (checked on the first pass) that every pass must reproduce."""
    child = run_ga_sim(spec, binaries, run_dir, threads)
    if reference is None:
        reference = child.stdout
        check_sim_payload(checks, binaries, reference, spec, run_dir, seed)
    payload, trace, exit_s = run_probe(
        binaries, run_dir, "sim",
        [str(spec["scenario"]), "--threads", str(threads)])
    checks.check(payload == reference and child.stdout == reference,
                 "traced %s payload differs from ga-sim's" % spec["name"])
    # The probe's extra serial pass is not ga-sim work; leave it out of the
    # traced time compared with ga-sim's wall time.
    extra = span_durations(trace)["sim.serial_points"][0]
    return sim_layers(trace, exit_s - extra, child.exit_s), reference


def serve_reference(spec, binaries, run_dir, checks):
    """One untraced ga-serve session: its checked transcript and final
    stats."""
    child, _, responses, _ = serve_session(
        binaries, spec["scenario"], spec["lines"], run_dir)
    if child.returncode != 0 or not responses:
        raise BenchError("ga-serve failed:\n" +
                         child.stderr.decode(errors="replace"))
    stats = check_serve_responses(checks, spec["lines"], responses,
                                  spec["jobs"])
    return b"".join(responses), stats


def traced_serve(spec, binaries, run_dir, checks, reference, stats):
    """One serve pass of the probe; its transcript must equal ga-serve's."""
    transcript, trace, _ = run_probe(
        binaries, run_dir, "serve",
        [str(spec["scenario"]), str(spec["requests"])])
    checks.check(transcript == reference,
                 "traced %s transcript differs from ga-serve's" % spec["name"])
    return serve_layers(trace, stats)


def traced(spec, other, binaries, run_dir, seconds, threads, checks, seed):
    """Traced passes for `seconds` (at least one). Each pass runs both probe
    pipelines, so every layer is measured on every workload: the workload's
    own program on its input (`spec`) and the other program on the same
    scenario (`other`, from companion()). Layers both pipelines touch
    (kernels, io, workload.jobs, trace_overhead_frac) are reported from the
    workload's own program. The probe's output must equal the untraced
    program's byte for byte: ga-serve runs once, ga-sim once before each
    pass, so each sim pass compares its traced time with an untraced process
    run just before it."""
    serve_own = spec["name"] == "serve_stream"
    sim_input, serve_input = (other, spec) if serve_own else (spec, other)
    serve_ref, stats = serve_reference(serve_input, binaries, run_dir, checks)
    sim_ref = None
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        sim, sim_ref = traced_sim(sim_input, binaries, run_dir, threads,
                                  checks, seed, sim_ref)
        serve = traced_serve(serve_input, binaries, run_dir, checks,
                             serve_ref, stats)
        passes.append({**sim, **serve} if serve_own else {**serve, **sim})
    log("%s: %d traced passes" % (spec["name"], len(passes)))
    return median_layers(passes), {"samples": len(passes)}


# ------------------------------------------------------------------ main

def manifest_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this pass."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if args.seed < 0:
        raise BenchError("--seed must be non-negative")
    binaries = build()
    threads = nproc()
    run_dir = BUILD_DIR / "runs" / ("%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec = prepare(args.workload, args.seed, run_dir)
    checks = Checks()
    cpu_before = cpu_times()
    if args.trace:
        metrics, samples = traced(spec, companion(spec, args.seed, run_dir),
                                  binaries, run_dir, args.seconds, threads,
                                  checks, args.seed)
    elif args.workload == "serve_stream":
        metrics, samples = serve_end_to_end(spec, binaries, run_dir,
                                            args.seconds, checks)
    else:
        metrics, samples = sim_end_to_end(spec, binaries, run_dir,
                                          args.seconds, threads, checks,
                                          args.seed)
    declared = manifest_metrics(args.trace)
    if set(metrics) != set(declared) or any(
            metrics[name]["unit"] != unit for name, unit in declared.items()):
        raise BenchError("metrics do not match BENCHMARK.json: missing %s, "
                         "extra %s" % (sorted(set(declared) - set(metrics)),
                                       sorted(set(metrics) - set(declared))))
    metrics = {name: metrics[name] for name in declared}
    record ={"workload": args.workload, "trace": args.trace,
              "provenance": provenance(args.seed, threads,
                                       steal_share(cpu_before, cpu_times()))}
    record.update(samples)
    print("provenance: " + json.dumps(record, sort_keys=True))
    if checks.failed == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as error:
        log("perfbench: " + str(error))
        sys.exit(1)
