#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Covers seeded input generation, the order-statistic helpers, a short run of
every workload (untraced and traced), and ga-lint over the benchmark's C++
source. The smoke runs build into .bench_build/ like run.py does.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import quantiles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class GenerationTest(unittest.TestCase):
    GENERATORS = {
        "sim_small": workloads.sim_small_scenario,
        "sim_paper": workloads.sim_paper_scenario,
        "serve_scenario": workloads.serve_scenario,
        "serve_requests": lambda seed: "\n".join(
            workloads.serve_requests(seed, requests=500)[0]),
    }

    def test_same_seed_same_bytes(self):
        for name, generate in self.GENERATORS.items():
            with self.subTest(name):
                self.assertEqual(generate(7), generate(7))

    def test_other_seed_other_bytes(self):
        for name, generate in self.GENERATORS.items():
            with self.subTest(name):
                self.assertNotEqual(generate(7), generate(8))

    def test_sim_small_is_ci_smoke_at_its_seed(self):
        ci_smoke = json.loads((run.ROOT / "examples" / "scenarios" /
                               "ci_smoke.json").read_text())
        generated = json.loads(
            workloads.sim_small_scenario(workloads.CI_SMOKE_SEED))
        for key in ("name", "workload", "grid"):
            self.assertEqual(generated[key], ci_smoke[key])

    def test_serve_stream_job_count(self):
        lines, jobs = workloads.serve_requests(3, requests=100)
        self.assertEqual(len(lines), workloads.SERVE_ACCOUNTS + 100 + 2)
        sent = 0
        for line in lines:
            request = json.loads(line)
            if request["type"] == "submit_jobs":
                sent += (request["generate"]["count"] if "generate" in request
                         else len(request["jobs"]))
        self.assertEqual(sent, jobs)
        self.assertEqual(json.loads(lines[-1])["type"], "shutdown")


class QuantilesTest(unittest.TestCase):
    def test_spread(self):
        # Quartiles 2.75 and 8.25 (exclusive method), median 5.5.
        self.assertAlmostEqual(
            quantiles.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 5.5 / 5.5)
        # Quartiles 1.75 and 9.25, median 5.5.
        self.assertAlmostEqual(quantiles.spread([10, 1, 4, 7]), 7.5 / 5.5)
        self.assertEqual(quantiles.spread([2.0] * 10), 0.0)

    def test_percentile_interpolates(self):
        values = list(range(1, 101))  # 1..100
        self.assertAlmostEqual(quantiles.percentile(values, 1), 1.99)
        self.assertAlmostEqual(quantiles.percentile(values, 50), 50.5)
        self.assertAlmostEqual(quantiles.percentile(values, 99), 99.01)
        self.assertAlmostEqual(quantiles.percentile([10, 0], 25), 2.5)
        self.assertAlmostEqual(quantiles.percentile([3, 1, 2], 50), 2)


def bench(workload, trace, seed=5):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, seed=5):
        config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        result = bench(workload, trace, seed)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = config["per_layer" if trace else "end_to_end"]
        names = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(names))
        for name, value in result["metrics"].items():
            self.assertEqual(value["unit"], names[name], name)
        if not trace:
            for name, value in result["metrics"].items():
                self.assertGreater(value["value"], 0, name)
        return result["metrics"]

    def test_sim_small_at_the_golden_seed(self):
        self.check("sim_small", 0, seed=workloads.CI_SMOKE_SEED)

    def test_sim_small_traced(self):
        metrics = self.check("sim_small", 1)
        self.assertEqual(metrics["workload.jobs"]["value"], 720)
        self.assertEqual(metrics["kernels.points"]["value"], 14)

    def test_sim_paper(self):
        self.check("sim_paper", 0)

    def test_sim_paper_traced(self):
        metrics = self.check("sim_paper", 1)
        self.assertLess(metrics["sim.admitted_frac"]["value"], 1.0)

    def test_serve_stream(self):
        self.check("serve_stream", 0)

    def test_serve_stream_traced(self):
        metrics = self.check("serve_stream", 1)
        self.assertGreater(metrics["service.queued_end"]["value"], 10_000)


class LintTest(unittest.TestCase):
    def test_ga_lint_finds_nothing(self):
        run.build()
        subprocess.run(["cmake", "--build", str(run.BUILD_DIR), "--target",
                        "ga-lint"], check=True, capture_output=True)
        lint = subprocess.run(
            [str(run.BUILD_DIR / "ga" / "tools" / "ga-lint"), str(HERE)],
            capture_output=True, text=True)
        self.assertEqual(lint.returncode, 0, lint.stdout + lint.stderr)


if __name__ == "__main__":
    unittest.main()
