#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout::

    python3 perfbench/selftest.py

They check that the benchmark fails when it should: an injected protocol
bug counts as a failed op, a wrong pinned digest fails the run, a wrapped
callable that never fires or a count that does not repeat is reported,
and a directory without the sources is refused. They also check that the
module -> layer table covers every ``repro`` module the workloads import.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets up sys.path for src/)
import layers  # noqa: E402
import workloads as wl  # noqa: E402

#: Imports every module one op of each workload touches, then lists them.
_IMPORT_PROBE = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import workloads as wl
runner = wl.make_runner()
for name in wl.WORKLOAD_NAMES:
    inputs = wl.build_inputs(name, 1)
    result = wl.op_function(name)(runner, inputs[0])
    assert not result.failed, name
print(json.dumps(sorted(m for m in sys.modules
                        if m == "repro" or m.startswith("repro."))))
"""


class LayerTable(unittest.TestCase):

    def test_table_covers_every_module_the_workloads_import(self) -> None:
        probe = _IMPORT_PROBE.format(src=os.path.abspath("src"), here=HERE)
        done = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, timeout=300,
                              env=run.child_env())
        self.assertEqual(done.returncode, 0, done.stderr)
        modules = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertIn("repro.herd.engine", modules)
        unmapped = [m for m in modules if layers.layer_of(m) is None]
        self.assertEqual(unmapped, [])
        for module in modules:
            self.assertIn(layers.layer_of(module), layers.LAYERS, module)

    def test_each_wrapped_callable_sits_in_its_buckets_layer(self) -> None:
        for wrap in layers.WRAPS:
            _, _, raw = layers.resolve(wrap)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            where = f"{fn.__module__}.{fn.__qualname__}"
            self.assertEqual(layers.layer_of(where),
                             layers.BUCKETS[wrap.bucket], where)

    def test_silent_wrappers_are_reported(self) -> None:
        tracer = layers.Tracer()
        silent = tracer.silent("fuzz_checked")
        self.assertIn("repro.oracle.base:SessionOracleSuite.verify", silent)
        self.assertNotIn("repro.herd.engine:HerdSimulation.__init__", silent)

    def test_install_restores_every_attribute(self) -> None:
        before = [layers.resolve(wrap)[2] for wrap in layers.WRAPS]
        tracer = layers.Tracer()
        tracer.install()
        tracer.uninstall()
        after = [layers.resolve(wrap)[2] for wrap in layers.WRAPS]
        self.assertTrue(all(a is b for a, b in zip(before, after)))


class Inputs(unittest.TestCase):

    def test_tree_variant_matches_the_scaling_generator(self) -> None:
        from repro.experiments.scaling import tree_scaling_scenario

        first = tree_scaling_scenario(300, seed=1)
        for seed in (2, 99):
            self.assertEqual(wl.tree_variant(first, seed),
                             tree_scaling_scenario(300, seed=seed))


class Failures(unittest.TestCase):

    def test_injected_holddown_bug_counts_as_failed(self) -> None:
        cases = wl.build_inputs("fuzz_checked", run.load_pins()["default_seed"])
        runner = wl.make_runner()
        op = wl.op_function("fuzz_checked")
        clean = [op(runner, case) for case in cases[:60]]
        broken = [op(runner, dict(case, inject="no-holddown"))
                  for case in cases[:60]]
        self.assertFalse(any(result.failed for result in clean))
        self.assertTrue(any(result.failed for result in broken))

    def test_wrong_pinned_digest_fails_the_run(self) -> None:
        pins = run.load_pins()
        seed = pins["default_seed"]
        pinned = pins["workloads"]["fuzz_checked"]["digest"]
        good = run.run_timed("fuzz_checked", seed, 0.0, pinned)
        self.assertTrue(good["correct"])
        wrong = run.run_timed("fuzz_checked", seed, 0.0, "0" * 64)
        self.assertFalse(wrong["correct"])
        self.assertEqual(wrong["failed"], 0)

    def test_count_mismatch_is_nondeterminism(self) -> None:
        first = {key: 10 for key in run.EXACT_COUNTS}
        second = dict(first, **{"sim.trace.records": 11})
        self.assertEqual(run.count_mismatches(first, first), [])
        [problem] = run.count_mismatches(first, second)
        self.assertIn("nondeterminism: sim.trace.records", problem)

    def test_traced_run_repeats_its_counts(self) -> None:
        result = run.run_traced("fuzz_checked", 3, ops=40)
        self.assertTrue(result["correct"])
        metrics = result["metrics"]
        wall = metrics["traced_wall_s"]["value"]
        total = sum(metrics[bucket]["value"] for bucket in layers.BUCKETS)
        self.assertAlmostEqual(total + metrics["unattributed_s"]["value"],
                               wall, delta=1e-6 * wall)
        self.assertGreater(metrics["oracle.checks"]["value"], 0)
        self.assertEqual(metrics["herd.construct_s"]["value"], 0.0)

    def test_refuses_a_directory_without_sources(self) -> None:
        bare = os.path.join(run.OUT_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "tree_fresh", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
                env=run.child_env())
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
