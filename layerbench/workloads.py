"""Seeded request generation for the layer-ledger benchmark.

Each workload is one request class.  Request ``i`` of a run is a pure
function of ``(workload, seed, i)``: it is drawn from its own
``random.Random`` stream (string seeds hash through SHA-512, so the
stream is the same on every Python version), which makes the same seed
give byte-identical requests however many requests a run sends.  A
different seed changes the symbols only: the class, the document
length and the target hit count stay fixed.

Nothing here imports the program under test; the fleet only ever sees
the JSON payloads built below.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass

import numpy as np

__all__ = ["WORKLOADS", "Workload", "threshold_for_hits"]


@dataclass(frozen=True)
class Workload:
    """One request class and the fleet that serves it.

    Every request is one document.  ``fleet`` holds the ``repro-mss``
    arguments beyond ``--port 0`` and ``--alphabet``.  ``placement`` says
    where fleet and client run: ``"shared"`` puts both on one core, which
    suits a chain of hops that run one after another; ``"split"`` gives
    each its own core, so the fleet's clean-up after a large answer does
    not delay the client's decode.
    ``trace_sample`` is how many requests the traced run replays down
    the ladder.
    """

    name: str
    why: str
    command: str
    fleet: tuple[str, ...]
    alphabet: str
    placement: str
    trace_sample: int
    doc_length: int
    problem: str = "mss"
    target_hits: int | None = None

    def request(self, seed: int, index: int) -> dict:
        """The ``POST /mine`` payload of request ``index`` under ``seed``."""
        rng = random.Random(f"{self.name}:{seed}:{index}")
        text = "".join(rng.choices(list(self.alphabet), k=self.doc_length))
        payload: dict = {"problem": self.problem, "text": text}
        if self.problem == "threshold":
            threshold, _ = threshold_for_hits(text, self.target_hits)
            payload["threshold"] = threshold
            payload["limit"] = 1_000_000
        return payload

    def body(self, seed: int, index: int) -> bytes:
        """The request as the bytes a client would post."""
        return json.dumps(self.request(seed, index)).encode("utf-8")


def threshold_for_hits(text: str, target: int) -> tuple[float, int]:
    """A threshold returning about ``target`` substrings of a binary text.

    Under the uniform binary null a substring of length ``l`` holding
    ``y`` ones scores ``X² = (2y - l)² / l``.  All ``n(n+1)/2`` scores
    are computed here, independently of the program.  The threshold
    sits midway between the ``target``-th largest score and its nearer
    distinct neighbour, on whichever side leaves the strict-greater
    count closer to ``target``.  Distinct scores of this form differ by
    at least ``1 / n²``, far above rounding, so the program returns
    exactly the count given back.
    """
    bits = np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord("b")
    prefix = np.concatenate(([0], np.cumsum(bits, dtype=np.int64)))
    starts, ends, lengths = _all_spans(len(text))
    ones = (prefix[ends] - prefix[starts]).astype(np.float64)
    scores = (2.0 * ones - lengths) ** 2 / lengths
    pivot = np.partition(scores, len(scores) - target)[len(scores) - target]
    at_or_above = int(np.count_nonzero(scores >= pivot))
    above = int(np.count_nonzero(scores > pivot))
    if at_or_above - target <= target - above or above == 0:
        below = scores[scores < pivot]
        lower = below.max() if below.size else 0.0
        return float((lower + pivot) / 2.0), at_or_above
    higher = scores[scores > pivot].min()
    return float((pivot + higher) / 2.0), above


@functools.lru_cache(maxsize=4)
def _all_spans(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start, end and length of every substring of a length-``n`` text."""
    starts, ends = np.triu_indices(n + 1, k=1)
    return starts, ends, (ends - starts).astype(np.float64)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="rpc_small",
            why=(
                "one 600-symbol k=4 mss document per request through a "
                "2-shard calibrated route, so every request-path hop shows"
            ),
            command="route",
            # At the default log level each shard writes an access line
            # per request to a stderr pipe that its router never reads
            # (ShardProcess drains stdout to EOF first), so a shard
            # blocks after about 400 requests.  Warning level keeps
            # that pipe quiet until the router drains both streams.
            fleet=("--shards", "2", "--calibrate", "--log-level", "warning"),
            alphabet="abcd",
            placement="shared",
            trace_sample=40,
            doc_length=600,
        ),
        Workload(
            name="threshold_dense",
            why=(
                "one binary document per request with a threshold set for "
                "10^4 hits: result building, serialization and decode dominate"
            ),
            command="serve",
            fleet=(),
            alphabet="ab",
            placement="split",
            trace_sample=8,
            doc_length=1500,
            problem="threshold",
            target_hits=10_000,
        ),
    )
}
