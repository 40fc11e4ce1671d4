"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that the output checker flags wrong results, that per-layer
counts repeat exactly between two traced runs, that no wrapper survives
tracing, and that the benchmark refuses a directory without the source.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import scipy.optimize  # noqa: E402

import riskspace as rs  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import OUT  # noqa: E402


def small_batch(seed: int, workdir: str) -> list[workloads.Op]:
    """A few quick operations from every in-process layer."""
    ladder = workloads.build("exact-ladder", seed, workdir)
    lp = workloads.build("small-lp-batch", seed, workdir)
    landscape = workloads.build("landscape-enum", seed, workdir)

    def pick(ops, *prefixes):
        return [next(op for op in ops if op.name.startswith(p)) for p in prefixes]

    return (pick(ladder, "exact 2x2", "exact 3x3 2x3")
            + pick(lp, "lp_risk_distance", "fallback", "convergence")
            + pick(landscape, "connected path-path", "connected gap", "reeb_graph"))


class Checker(unittest.TestCase):
    def setUp(self):
        OUT.mkdir(parents=True, exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=OUT)
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def test_exact_output_passes_then_perturbed_value_and_status_fail(self):
        op = workloads.build("exact-ladder", 3, self.workdir)[0]
        result = op.run()
        self.assertEqual(op.check(result), [])
        self.assertTrue(op.check(dataclasses.replace(result, value=result.value + 1e-6)))
        self.assertTrue(op.check(dataclasses.replace(result, status="upper_bound")))

    def test_lp_trace_rise_is_flagged(self):
        self.assertEqual(workloads._trace_problems([3.0, 2.0, 2.0, 5.0, 4.0, 4.0]), [])
        self.assertTrue(workloads._trace_problems([3.0, 2.0, 2.5, 1.0]))

    def test_cli_checker_flags_exit_codes_and_values(self):
        ops = workloads.build("cli-nolp", 3, self.workdir, in_process=True)
        by_name = {}
        for op in ops:
            by_name.setdefault(op.name.split()[0], op)
        sample = by_name["sample"]
        code, out, err = sample.run()
        self.assertEqual(sample.check((code, out, err)), [])
        self.assertTrue(sample.check((2, out, err)))
        data = json.loads(out)
        data["problem"]["eta"][0][0] += 1e-6
        self.assertTrue(sample.check((0, json.dumps(data), err)))
        invalid = ops[-1]
        code, out, err = invalid.run()
        self.assertEqual(code, 1)
        self.assertEqual(invalid.check((code, out, err)), [])
        self.assertTrue(invalid.check((0, out, err)))
        self.assertTrue(invalid.check((1, out, err.replace('"loss"', '"eta"'))))


class Tracing(unittest.TestCase):
    def setUp(self):
        OUT.mkdir(parents=True, exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=OUT)
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def traced_counts(self) -> dict:
        tracer = tracing.Tracer()
        ops = small_batch(5, self.workdir)
        with tracer.active():
            for op in ops:
                op.run()
        metrics = tracing.layer_metrics(tracer.spans)
        return {key: metrics[key] for key in tracing.COUNTS}

    def test_counts_repeat_between_two_traced_runs(self):
        first, second = self.traced_counts(), self.traced_counts()
        self.assertEqual(first, second)
        for key in ("lp.calls", "distance.exact_lp_calls",
                    "landscape.connectivity_checks", "empirical.convergence_exact_calls"):
            self.assertGreater(first[key], 0, key)

    def test_every_binding_is_wrapped_then_restored(self):
        originals = (scipy.optimize.linprog, rs.risk_distance_exact,
                     rs.distance._minimax_coupling_lp)
        tracer = tracing.Tracer()
        with tracer.active():
            for binding in (rs.transport.linprog, rs.distance.linprog,
                            rs.risk_distance_exact, rs.distance.risk_distance_exact,
                            rs.landscape._minimax_coupling_lp, rs.solve_ot_exact,
                            rs.distance.solve_ot_exact):
                self.assertTrue(hasattr(binding, "perfbench_span"), binding)
        self.assertEqual(tracing.leftover_wrappers(), [])
        self.assertIs(rs.distance.linprog, originals[0])
        self.assertIs(rs.transport.linprog, originals[0])
        self.assertIs(rs.risk_distance_exact, originals[1])
        self.assertIs(rs.landscape._minimax_coupling_lp, originals[2])

    def test_wrappers_are_removed_when_a_call_raises(self):
        tracer = tracing.Tracer()
        with self.assertRaises(rs.CapacityError):
            with tracer.active():
                p = gen.random_problem(gen.rng_for(0, 9), 2, 2, 4)
                rs.risk_distance_exact(p, p, fallback=False)
        self.assertEqual(tracing.leftover_wrappers(), [])
        self.assertEqual(len(tracer.spans), 1)


class Generator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a = gen.balanced_pair(gen.rng_for(4, 1), 3, 3, 2, 3)
        b = gen.balanced_pair(gen.rng_for(4, 1), 3, 3, 2, 3)
        c = gen.balanced_pair(gen.rng_for(5, 1), 3, 3, 2, 3)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_balanced_pairs_prune_no_pattern(self):
        # 6 pair bounds plus one LP for each of the 24 pattern unions
        for seed in (4, 5):
            p, q = gen.balanced_pair(gen.rng_for(seed, 1), 3, 3, 2, 3)
            tracer = tracing.Tracer()
            with tracer.active():
                rs.risk_distance_exact(p, q)
            self.assertEqual(tracing.layer_metrics(tracer.spans)["distance.exact_lp_calls"],
                             30)


class Boundary(unittest.TestCase):
    def test_refuses_a_directory_without_the_source(self):
        OUT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "exact-ladder",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
