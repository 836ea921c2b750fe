"""Self-tests of the benchmark's own machinery.

    PYTHONPATH=src python3 bench/selftest.py

Covers the tail-percentile rule, self time with overlapping children on
other threads, the output checks (a perturbed gain cell, a bound violation,
a changed table) and the digest comparison.  One ``beamshadow run`` is made,
so the suite takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import tempfile
import threading
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
TMP_ROOT = Path(__file__).resolve().parent.parent / ".bench_tmp"

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TailPercentileRule(unittest.TestCase):
    def test_ladder(self):
        expected = {1: 50.0, 19: 50.0, 20: 50.0, 39: 50.0, 40: 75.0, 99: 75.0,
                    100: 90.0, 200: 95.0, 1000: 99.0, 10_000: 99.9}  # fmt: skip
        for n, p in expected.items():
            self.assertEqual(run.tail_percentile(n), p, n)

    def test_at_least_ten_samples_beyond(self):
        for n in range(20, 400, 7):
            values = list(np.random.default_rng(n).permutation(n) + 1.0)
            p = run.tail_percentile(n)
            beyond = sum(v > run.quantile(values, p) for v in values)
            self.assertGreaterEqual(beyond, 10, (n, p))

    def test_quantile_matches_numpy(self):
        values = list(np.random.default_rng(3).random(37))
        for p in (50.0, 75.0, 90.0, 99.9):
            self.assertAlmostEqual(run.quantile(values, p), float(np.percentile(values, p)))


def _span(id, start, end, parent, thread=1, name="x"):
    return tracing.Span(id, name, start, end, parent, thread)


class SelfTime(unittest.TestCase):
    def test_overlapping_children_on_other_threads(self):
        spans = [
            _span(0, 0.0, 10.0, None),
            _span(1, 1.0, 6.0, 0, thread=2),
            _span(2, 2.0, 8.0, 0, thread=3),  # overlaps span 1
            _span(3, 2.0, 3.0, 1, thread=2),
        ]
        selfs = tracing.self_times(spans)
        self.assertEqual(selfs, {0: 3.0, 1: 4.0, 2: 6.0, 3: 1.0})
        acc = tracing.accounting(spans, op_s=10.5)
        self.assertEqual(acc["self_sum_s"], 14.0)
        self.assertEqual(acc["concurrent_excess_s"], 4.0)
        self.assertEqual(acc["unspanned_s"], 0.5)
        self.assertEqual(acc["residual_s"], 0.0)

    def test_union_length(self):
        self.assertEqual(tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]), 4.0)
        self.assertEqual(tracing.union_length([]), 0.0)

    def test_pool_spans_are_parented_to_the_submitting_span(self):
        tracer = tracing.Tracer()
        barrier = threading.Barrier(2)

        def leaf(_):
            barrier.wait(timeout=10)  # both leaves run at once

        wrapped_leaf = tracing._wrap(tracer, "leaf", leaf)

        def root():
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(wrapped_leaf, range(2)))

        tracing._wrap(tracer, "root", root)()
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        (root_span,) = by_name["root"]
        leaves = by_name["leaf"]
        self.assertEqual([s.parent for s in leaves], [root_span.id] * 2)
        self.assertEqual(len({s.thread for s in leaves}), 2)
        selfs = tracing.self_times(tracer.spans)
        covered = tracing.union_length((s.start, s.end) for s in leaves)
        self.assertAlmostEqual(selfs[root_span.id], root_span.duration - covered)
        self.assertGreater(selfs[root_span.id], 0.0)


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import beamshadow.cli as cli

        TMP_ROOT.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=TMP_ROOT)
        cls.out = Path(cls.tmp.name) / "run"
        cls.seed = 5
        cls.workload = workloads.RunDefault()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(cls.workload.argv(cls.seed, cls.out, None)) == 0

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def _edit_map(self, scenario, scheme, cell, value_fn):
        path = self.out / scenario / f"gain_map_{scheme}.csv"
        original = path.read_text()
        lines = original.splitlines(keepends=True)
        row = 1 + cell[0] * self.workload.grid.n_phi + cell[1]
        head, value = lines[row].rstrip("\n").rsplit(",", 1)
        lines[row] = f"{head},{value_fn(float(value))!r}\n"
        path.write_text("".join(lines))
        self.addCleanup(path.write_text, original)

    def _problems(self):
        return self.workload.check(self.seed, self.out, None)

    def test_unperturbed_output_passes(self):
        self.assertEqual(self._problems(), [])

    def test_one_ulp_on_a_sampled_cell_is_flagged(self):
        scenario, cells = next(iter(self.workload.sample_cells(self.seed).items()))
        self._edit_map(scenario, "enh_phase_b2", cells[0], lambda v: math.nextafter(v, -math.inf))
        problems = self._problems()
        self.assertTrue(any("enh-phase B=2 differs from naive" in p for p in problems), problems)

    def test_scheme_above_mrc_is_flagged(self):
        scenario = next(iter(self.workload.config.scenarios))
        self._edit_map(scenario, "directional", (3, 4), lambda v: v + 50.0)
        self.assertTrue(any("directional exceeds MRC" in p for p in self._problems()))

    def test_more_bits_losing_is_flagged(self):
        scenario = next(iter(self.workload.config.scenarios))
        self._edit_map(scenario, "enh_phase_amp_b3", (7, 9), lambda v: v - 1.0)
        self.assertTrue(any("enh_phase_amp B=3 below B=2" in p for p in self._problems()))

    def test_digest_mismatch_is_flagged(self):
        good = workloads.tree_digest(self.out)
        self.assertEqual(workloads.check_output(self.workload, self.seed, self.out, None, good), [])
        problems = workloads.check_output(self.workload, self.seed, self.out, None, "0" * 64)
        self.assertEqual(problems, ["output tree digest differs from digests.json"])
        path = self.out / "report.json"
        original = path.read_bytes()
        self.addCleanup(path.write_bytes, original)
        path.write_bytes(original + b" ")
        self.assertNotEqual(workloads.tree_digest(self.out), good)

    def test_recorded_digest_lookup(self):
        table = Path(self.tmp.name) / "digests.json"
        table.write_text('{"run-default": {"5": "abc"}}')
        self.assertEqual(workloads.recorded_digest("run-default", 5, table), "abc")
        self.assertIsNone(workloads.recorded_digest("run-default", 6, table))
        self.assertIsNone(workloads.recorded_digest("run-default", 5, table.with_name("none")))


class TheoremCheck(unittest.TestCase):
    def _write(self, tmp, margin_of):
        w = workloads.TheoremAudit()
        rows = ["trial,B,var_blockage,lower_bound,delta_achieved,margin"]
        for r in range(w.work_per_op):
            t, b = divmod(r, len(workloads.THEOREM_B))
            m = margin_of(r)
            rows.append(f"{t},{workloads.THEOREM_B[b]},0.1,0.5,{0.5 + m!r},{m!r}")
        (Path(tmp) / "trials.csv").write_text("\n".join(rows) + "\n")
        return w.check(0, Path(tmp), None)

    def test_violation_is_flagged(self):
        TMP_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
            self.assertEqual(self._write(tmp, lambda r: 0.25), [])
            self.assertEqual(self._write(tmp, lambda r: -0.25 if r == 17 else 0.25),
                             ["1 bound violations"])  # fmt: skip


class MetricsTables(unittest.TestCase):
    def test_changed_table_is_flagged(self):
        TMP_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
            inputs, out = Path(tmp) / "inputs", Path(tmp) / "out"
            (inputs / "expected").mkdir(parents=True)
            out.mkdir()
            for d in (inputs / "expected", out):
                (d / "coverage.csv").write_text("antenna\n0\n")
            w = workloads.Metrics1Deg()
            self.assertEqual(w.check(0, out, inputs), [])
            (out / "coverage.csv").write_text("antenna\n1\n")
            self.assertEqual(w.check(0, out, inputs), ["coverage.csv differs from the recompute"])


if __name__ == "__main__":
    unittest.main()
