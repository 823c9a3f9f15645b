"""Tiny self-test of the benchmark itself; needs no running fleet.

    python3 layerbench/selftest.py

Covers the seeded request generation, the metric names and units
against ``BENCHMARK.json``, the ledger arithmetic, and the benchmark
refusing to report when the program is absent.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ledger import (  # noqa: E402
    END_TO_END_UNITS, LAYER_UNITS, LEDGER_PARTS, MINE_PARTS, STAGES,
    dominant, stage_agreement, sum_check, tail,
)
from workloads import WORKLOADS, threshold_for_hits  # noqa: E402

#: sha256 of request 0 under seed 1, per workload.  A change here
#: changes every input the benchmark sends: a new benchmark, not a fix.
PINNED = {
    "rpc_small":
        "708444fd0403dd233bc6eb2cf77ef4997b948afa34abda58899e6ac04b50c9ad",
    "threshold_dense":
        "19f3f6baeb9622fd0ce13c4186b38d0003a42a610fc8606e835aa5a64f3e9eb1",
}


class SeededGeneration(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for workload in WORKLOADS.values():
            for index in (0, 5):
                self.assertEqual(workload.body(3, index),
                                 workload.body(3, index))

    def test_requests_are_pinned(self):
        for name, workload in WORKLOADS.items():
            digest = hashlib.sha256(workload.body(1, 0)).hexdigest()
            self.assertEqual(digest, PINNED[name], name)

    def test_other_seed_changes_symbols_only(self):
        for workload in WORKLOADS.values():
            first, second = workload.request(1, 0), workload.request(2, 0)
            self.assertNotEqual(first["text"], second["text"])
            self.assertEqual(first.keys(), second.keys())
            self.assertEqual(first["problem"], second["problem"])
            for payload in (first, second):
                self.assertEqual(len(payload["text"]), workload.doc_length)

    def test_threshold_targets_the_same_hit_count(self):
        workload = WORKLOADS["threshold_dense"]
        for seed in (1, 2):
            text = workload.request(seed, 0)["text"]
            _, hits = threshold_for_hits(text, workload.target_hits)
            self.assertLess(abs(hits - workload.target_hits),
                            0.02 * workload.target_hits)

    def test_threshold_count_matches_brute_force(self):
        text = "abbabaaabbbbabaabbbaaaaabababbbbbbaaab" * 2
        threshold, hits = threshold_for_hits(text, 100)
        scores = []
        for start in range(len(text)):
            for end in range(start + 1, len(text) + 1):
                length = end - start
                ones = text[start:end].count("b")
                scores.append((2 * ones - length) ** 2 / length)
        self.assertEqual(hits, sum(score > threshold for score in scores))


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_end_to_end_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(declared, END_TO_END_UNITS)

    def test_per_layer_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, LAYER_UNITS)

    def test_workloads_match(self):
        declared = {w["name"]: w["why"] for w in self.spec["workloads"]}
        self.assertEqual(declared, {name: w.why
                                    for name, w in WORKLOADS.items()})

    def test_ledger_parts_are_layer_metrics(self):
        for name in LEDGER_PARTS:
            self.assertIn(name, LAYER_UNITS)
        for stage, names in STAGES.items():
            self.assertIn(f"service.app.stage_{stage}_ms", LAYER_UNITS)
            self.assertTrue(set(names) <= set(LEDGER_PARTS))


class Ledger(unittest.TestCase):
    def _layers(self, part_ms: float) -> dict:
        layers = dict.fromkeys(LAYER_UNITS, 0.0)
        layers.update(dict.fromkeys(LEDGER_PARTS, part_ms))
        layers["service.client.round_trip_ms"] = part_ms * len(LEDGER_PARTS)
        return layers

    def test_parts_sum_to_the_round_trip(self):
        ratio, ok = sum_check(self._layers(2.0))
        self.assertAlmostEqual(ratio, 1.0)
        self.assertTrue(ok)

    def test_a_missing_layer_breaks_the_sum(self):
        layers = self._layers(2.0)
        layers["kernels.mine_batch_ms"] = 0.0
        layers["service.client.round_trip_ms"] += 20.0
        self.assertFalse(sum_check(layers)[1])

    def test_dominant_layer_and_share(self):
        layers = self._layers(1.0)
        layers["kernels.mine_batch_ms"] = 9.0
        name, share = dominant(layers, LEDGER_PARTS)
        self.assertEqual(name, "kernels.mine_batch_ms")
        self.assertAlmostEqual(share, 9.0 / 19.0)

    def test_stage_disagreement_is_flagged(self):
        layers = self._layers(2.0)
        for stage in ("parse", "queue_wait", "finalize", "serialize"):
            layers[f"service.app.stage_{stage}_ms"] = 2.0
        layers["service.app.stage_batch_mine_ms"] = 2.0 * len(MINE_PARTS) + 30
        verdicts = {row[0]: row[3] for row in stage_agreement(layers)}
        self.assertFalse(verdicts.pop("batch_mine"))
        self.assertTrue(all(verdicts.values()))

    def test_tail_keeps_ten_samples_beyond(self):
        value, percentile = tail([float(i) for i in range(1, 41)])
        self.assertEqual((value, percentile), (30.0, 75.0))
        self.assertEqual(tail([1.0, float("inf")] + [2.0] * 20)[0], 2.0)


class MissingProgram(unittest.TestCase):
    def test_no_result_without_the_program(self):
        bare = HERE / ".work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / HERE.name).mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in HERE.glob("*.py"):
                shutil.copy(path, bare / HERE.name)
            out = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload",
                 "rpc_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
