"""Seeded inputs for the three benchmark workloads.

Every input the programs see is generated here from the benchmark seed: a
scenario file for ga-sim or ga-serve, and for serve_stream the request
lines a client sends. The same seed gives the same bytes; the programs never
see the seed itself.
"""

import json
import math
import random

# At this seed sim_small is examples/scenarios/ci_smoke.json, so its payload
# must equal the committed golden results byte for byte.
CI_SMOKE_SEED = 2023

PAPER_POLICIES = ["Greedy", "Energy", "Mixed", "EFT", "Runtime", "Theta", "IC",
                  "FASTER"]
# An EBA budget below every policy's unbudgeted cost (2.6e10 to 6.7e10 at
# paper scale), so a visible share of jobs skips on each budgeted EBA point.
# CBA charges stay far below it, so CBA points admit every job.
PAPER_BUDGET = 2.5e10

SERVE_ACCOUNTS = 50
SERVE_REQUESTS = 40_000  # after account creation
# Mean logical seconds between submits. Submitted work outpaces the
# deployment's cores, so the backlog grows to tens of thousands of jobs.
SERVE_SUBMIT_SPACING_S = 2.0
# Every tenth submit generates SERVE_GENERATE_COUNT jobs; the rest carry one
# explicit job, from an account holder and an accountless user in turn. The
# rotation is fixed, so every seed submits and charges the same number of
# jobs and state sizes stay comparable between seeds.
SERVE_GENERATE_EVERY = 10
SERVE_GENERATE_COUNT = 5
SERVE_MACHINES = ["FASTER", "Desktop", "IC", "Theta"]
# The trace generator's calibrated app model, src/workload/trace.cpp
# (sample_core_count, sample_app_profile): core mix with P(cores > 16) = 0.17,
# runtime medians lognormal around 1200 s with sigma 1.1, clipped to 24 h.
TRACE_CORES = [1, 2, 4, 8, 16, 32, 48, 64]
TRACE_CORE_WEIGHTS = [0.25, 0.10, 0.10, 0.15, 0.23, 0.10, 0.04, 0.03]
TRACE_RUNTIME_MEDIAN_S = 1200.0
TRACE_RUNTIME_SIGMA = 1.1
TRACE_RUNTIME_CAP_S = 24 * 3600.0


def _uint32(seed, stream):
    return random.Random(f"{stream}:{seed}").randrange(1 << 32)


def _document(doc):
    return json.dumps(doc, indent=2) + "\n"


def sim_small_scenario(seed):
    """ci_smoke's grid (2 policies x EBA x {unbudgeted, budgeted} x {no
    outage, outage}, 720 jobs) over the trace generated at `seed`."""
    return _document({
        "name": "ci-smoke",
        "description": "ci_smoke shape at trace seed %d" % (seed % (1 << 32)),
        "workload": {"base_jobs": 360, "repetitions": 2, "users": 40,
                     "span_days": 2.0, "seed": seed % (1 << 32)},
        "grid": {
            "policies": ["Greedy", "EFT"],
            "accountant_specs": [{"name": "EBA"}],
            "budgets": [0, 7.0e7],
            "outages": [None,
                        {"cluster": 0, "at_s": 43200, "nodes_lost": 28}],
        },
    })


def sim_paper_scenario(seed):
    """The paper-scale trace (142,380 jobs) on regional grids: 8 policies x
    {EBA, CBA} x {unbudgeted, PAPER_BUDGET}, the Figs 5-7 shape."""
    return _document({
        "name": "paper-sweep",
        "description": "Figs 5-7 shape at paper scale",
        "workload": {"base_jobs": 71190, "repetitions": 2, "users": 400,
                     "span_days": 12.0, "seed": _uint32(seed, "paper-trace")},
        "options": {"regional_grids": True,
                    "grid_seed": _uint32(seed, "paper-grid")},
        "grid": {
            "policies": PAPER_POLICIES,
            "pricings": ["EBA", "CBA"],
            "budgets": [0, PAPER_BUDGET],
        },
    })


def serve_scenario(seed):
    """One unbudgeted Greedy/EBA grid point (ci_smoke's first) with a
    400-user pool for the generate path."""
    return _document({
        "name": "serve-stream",
        "description": "ga-serve closed-loop stream",
        "workload": {"base_jobs": 360, "repetitions": 2, "users": 400,
                     "span_days": 2.0, "seed": _uint32(seed, "serve-trace")},
        "options": {"policy": "Greedy", "pricing": "EBA"},
    })


def _compute_intensity(rng):
    """sample_app_profile's bimodal mix: compute-bound, memory-bound and a
    balanced middle."""
    mode = rng.random()
    if mode < 0.40:
        return rng.uniform(0.75, 1.0)
    if mode < 0.75:
        return rng.uniform(0.0, 0.25)
    return rng.uniform(0.25, 0.75)


def _job_shape(rng):
    """One job drawn as ga-serve's own `generate` draws it
    (ServeSession::generate_job in src/service/session.cpp): a fresh app
    profile from the trace model, then the job's runtime, power and counters
    from that profile."""
    cores = rng.choices(TRACE_CORES, weights=TRACE_CORE_WEIGHTS)[0]
    median_s = min(rng.lognormvariate(math.log(TRACE_RUNTIME_MEDIAN_S),
                                      TRACE_RUNTIME_SIGMA),
                   TRACE_RUNTIME_CAP_S)
    sigma = rng.uniform(0.05, 0.30)
    intensity = _compute_intensity(rng)
    return {
        "cores": cores,
        "runtime_ic_s": round(rng.lognormvariate(math.log(median_s), sigma),
                              3),
        "power_ic_w": round(cores * (10.0 + 20.0 * intensity), 3),
        "gips": round(0.5 + 3.5 * intensity, 4),
        "llc_mps": round(4.0 - 3.5 * intensity, 4),
    }


def serve_requests(seed, requests=SERVE_REQUESTS):
    """The request lines of one closed-loop session, and how many jobs they
    submit. After creating the accounts, requests rotate through six
    submit_jobs (one explicit job, or every tenth a multi-job `generate`), then
    quote, balance, charge and stats; a final stats and shutdown close the
    stream. Every request is expected to succeed."""
    rng = random.Random(f"serve-requests:{seed}")
    lines = []

    def add(body):
        request = {"id": len(lines) + 1}
        request.update(body)
        lines.append(json.dumps(request, separators=(",", ":")))

    for account in range(SERVE_ACCOUNTS):
        add({"type": "create_account", "user": "b%d" % account,
             "budget": 1e15})
    clock = 0.0
    jobs = 0
    submits = 0
    for i in range(requests):
        slot = i % 10
        user = "b%d" % rng.randrange(SERVE_ACCOUNTS)
        if slot < 6:
            submits += 1
            clock = round(clock + rng.uniform(0.0, 2 * SERVE_SUBMIT_SPACING_S),
                          3)
            if submits % SERVE_GENERATE_EVERY == 0:
                add({"type": "submit_jobs",
                     "generate": {"count": SERVE_GENERATE_COUNT,
                                  "start_s": clock, "spacing_s": 1}})
                clock += SERVE_GENERATE_COUNT - 1
                jobs += SERVE_GENERATE_COUNT
            else:
                job = {"user": user if submits % 2 else "anon%d" % i}
                job.update(_job_shape(rng))
                job["submit_s"] = clock
                add({"type": "submit_jobs", "jobs": [job]})
                jobs += 1
        elif slot == 6:
            quote = {"type": "quote", "user": user}
            quote.update(_job_shape(rng))
            add(quote)
        elif slot == 7:
            add({"type": "balance", "user": user})
        elif slot == 8:
            shape = _job_shape(rng)
            add({"type": "charge", "user": user,
                 "machine": rng.choice(SERVE_MACHINES),
                 "duration_s": shape["runtime_ic_s"],
                 "energy_j": round(shape["runtime_ic_s"] *
                                   shape["power_ic_w"], 1),
                 "cores": shape["cores"]})
        else:
            add({"type": "stats"})
    add({"type": "stats"})
    add({"type": "shutdown"})
    return lines, jobs
