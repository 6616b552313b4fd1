"""Tests of the benchmark itself (a few seconds on 2 cores).

    python3 perfbench/selftest.py

Kept out of the repository's pytest run on purpose: the traced synth-ppf
samples take most of the time.
"""

import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import dense  # noqa: E402
import run  # noqa: E402
from shims import layer_metrics  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_spec(self):
        for seed in (1, 2, 97):
            self.assertEqual(dense.dense_text(dense.dense_cubes(seed)),
                             dense.dense_text(dense.dense_cubes(seed)))

    def test_seeds_differ(self):
        texts = {dense.dense_text(dense.dense_cubes(seed)) for seed in range(1, 6)}
        self.assertEqual(len(texts), 5)

    def test_cubes_have_disjoint_supports(self):
        for seed in range(1, 20):
            for f in dense.dense_cubes(seed):
                supports = [set(c) for c in f]
                self.assertEqual(sorted(len(s) for s in supports), [1, 1, 2])
                self.assertEqual(set().union(*supports), set(dense.VARIABLES))


def _cover_text(f) -> str:
    return " \\/ ".join(" /\\ ".join(f"{v} = {k}" for v, k in c.items()) for c in f)


class GuardCheckTest(unittest.TestCase):
    def test_accepts_the_cube_union_in_any_form(self):
        f = dense.dense_cubes(3)[0]
        self.assertTrue(dense.guard_matches(_cover_text(f), f))
        self.assertTrue(dense.guard_matches("(" + _cover_text(reversed(f)) + ")", f))

    def test_rejects_one_changed_literal(self):
        for seed in (1, 2, 3):
            for f in dense.dense_cubes(seed):
                for ci, cube in enumerate(f):
                    for var, value in cube.items():
                        changed = [dict(c) for c in f]
                        changed[ci][var] = value % 3 + 1
                        with self.subTest(seed=seed, cube=ci, var=var):
                            self.assertFalse(dense.guard_matches(_cover_text(changed), f))

    def test_counts_literals(self):
        _, literals = dense.parse_guard("TPM = 2 /\\ (MS_1 = 1 \\/ MS_1 = 2) \\/ true")
        self.assertEqual(literals, 3)


class ReferenceTest(unittest.TestCase):
    def test_reference_does_the_same_work_every_run(self):
        workdir = run.HERE / ".work" / "selftest-reference"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            records = [run.reference_seconds(workdir) for _ in range(2)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertEqual(records[0]["size"], records[1]["size"])
        for record in records:
            self.assertGreater(record["wall_s"], 0)
            self.assertGreater(record["cpu_s"], 0)


class ShimTest(unittest.TestCase):
    """One untraced and one traced synth-ppf sample."""

    @classmethod
    def setUpClass(cls):
        cls.workdir = run.HERE / ".work" / "selftest"
        shutil.rmtree(cls.workdir, ignore_errors=True)
        cls.workdir.mkdir(parents=True)
        work = run.prepare("synth-ppf", 1, cls.workdir)
        env = run.child_env(1)
        cls.outputs = []
        cls.samples = []
        for traced in (False, True):
            sample = run.run_sample(work, cls.workdir, env, traced, run.SAMPLE_LIMIT_S)
            cls.samples.append(sample)
            cls.outputs.append((cls.workdir / "stdout.txt").read_text())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def test_samples_pass_the_reference(self):
        for sample in self.samples:
            self.assertIsNone(sample.error)

    def test_traced_output_is_identical(self):
        self.assertEqual(self.outputs[0], self.outputs[1])

    def test_four_explore_calls_half_redundant(self):
        traced = self.samples[1].record
        metrics = layer_metrics(traced["spans"], traced["verdict_s"])
        self.assertEqual(metrics["statespace.explore_calls"], 4)
        self.assertEqual(metrics["statespace.states"], 768)
        self.assertEqual(metrics["statespace.redundant_states"], 384)
        self.assertEqual(metrics["relations.pbis_calls"], 1)
        self.assertEqual(metrics["synthesis.minimize_calls"], 5)

    def test_self_times_add_up(self):
        traced = self.samples[1].record
        metrics = layer_metrics(traced["spans"], traced["verdict_s"])
        own = sum(v for k, v in metrics.items() if k.endswith("_s")
                  and not k.endswith("_per_s") and k != "statespace.redundant_s")
        self.assertAlmostEqual(own, traced["verdict_s"], delta=1e-6)


if __name__ == "__main__":
    unittest.main()
