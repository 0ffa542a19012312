"""Self-tests of the benchmark's own logic.

Run from the checkout root: ``python3 perfbench/selftest.py``.  They
check the metric names, that a reference mismatch counts as a failed
operation, that thin percentiles are withheld, and that ``run.py``
refuses to run without the program's source.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.sanitize_environment()
sys.path.insert(0, str(common.SRC))

import campaigns  # noqa: E402
import layers  # noqa: E402
import store_mixed  # noqa: E402

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _empty_trace() -> dict:
    return {
        "totals": {},
        "counters": {},
        "parent_self_s": {},
        "pools": 0,
        "pool_capacity_s": 0.0,
        "import_s": 0.0,
    }


class MetricNames(unittest.TestCase):
    def test_declared_names_are_well_formed(self):
        names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        self.assertEqual([n for n in names if not METRIC_NAME.fullmatch(n)], [])
        self.assertEqual(len(names), len(set(names)))

    def test_traced_run_reports_exactly_the_declared_layers(self):
        produced = layers.layer_metrics(_empty_trace(), 1, 1.0, 1.0)
        self.assertEqual(list(produced), [m["name"] for m in BENCHMARK["per_layer"]])
        for metric in BENCHMARK["per_layer"]:
            self.assertEqual(produced[metric["name"]][1], metric["unit"], metric["name"])


class Percentiles(unittest.TestCase):
    def test_reported_with_ten_samples_beyond(self):
        self.assertEqual(common.percentile([float(v) for v in range(1000)], 99), 989.0)

    def test_withheld_with_fewer_than_ten_beyond(self):
        self.assertIsNone(common.percentile([float(v) for v in range(999)], 99))
        self.assertIsNone(common.percentile([1.0] * 5000, 99))
        self.assertIsNone(common.percentile([], 50))

    def test_median_like_percentile(self):
        self.assertEqual(common.percentile([float(v) for v in range(1, 101)], 50), 50.0)


class ReferenceMismatch(unittest.TestCase):
    def test_store_digest_mismatch_is_a_failure(self):
        corpus = store_mixed.corpus_for(3, records=4, injections=20)
        queries = store_mixed.tracked_queries()
        with tempfile.TemporaryDirectory() as tmp:
            loop = store_mixed.one_loop(Path(tmp) / "store", corpus, queries)
        good = common.Ledger()
        store_mixed.check_loop(loop, corpus, loop, loop["digest"], good)
        self.assertEqual((good.failed, good.attempted), (0, 3))
        bad = common.Ledger()
        store_mixed.check_loop(loop, corpus, loop, "0" * 64, bad)
        self.assertEqual((bad.failed, bad.attempted), (1, 3))

    def test_golden_mismatch_is_a_failure(self):
        spec = campaigns.WORKLOADS["campaign-uniform"]
        refs = common.load_references()["campaign-uniform"]
        good = common.Ledger()
        campaigns.golden_check(spec, refs, good)
        self.assertEqual(good.failed, 0, good.problems)
        tampered = dict(refs, golden=dict(refs["golden"], total_cycles=1))
        bad = common.Ledger()
        campaigns.golden_check(spec, tampered, bad)
        self.assertEqual((bad.failed, bad.attempted), (1, 1))

    def test_record_id_mismatch_is_a_failure(self):
        spec = campaigns.WORKLOADS["campaign-uniform"]
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = Path(tmp)
            argv = campaigns.command(spec, 7, "selftest", run_dir, 2)
            argv[argv.index("--frames") + 1] = "6"
            child = common.run_child(common.python_argv("-m", "repro.cli", *argv), run_dir / "log")

            def verify(pinned, ledger):
                return campaigns.verify_campaign(
                    spec, child, run_dir, 7, "selftest", 2, pinned, ledger
                )

            good = common.Ledger()
            cid = verify(None, good)
            self.assertIsNotNone(cid, good.problems)
            self.assertEqual(good.failed, 0)
            self.assertEqual(verify(cid, common.Ledger()), cid)
            bad = common.Ledger()
            self.assertIsNone(verify("0" * 16, bad))
            self.assertEqual(bad.failed, 1)

    def test_failures_make_the_result_incorrect(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            common.emit(False, 10, 1, {"cpu_s": (1.5, "s")})
        payload = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(sorted(payload), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual((payload["correct"], payload["failed"]), (False, 1))
        self.assertEqual(payload["metrics"]["cpu_s"], {"value": 1.5, "unit": "s"})


class Refusal(unittest.TestCase):
    def test_refuses_without_program_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(common.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(common.BENCH_DIR, Path(tmp) / "perfbench")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "store-mixed",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
