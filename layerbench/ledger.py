"""Span recording and the layer ledger, as pure functions over numbers.

A request's round trip is split into the layers it passes, from client
down to kernel.  The ledger adds the per-layer medians back up and
compares the sum with the measured round trip; a sum off by more than
:data:`SUM_TOLERANCE` means the ladder misses or double-counts a layer.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

__all__ = [
    "END_TO_END_UNITS",
    "LAYER_UNITS",
    "LEDGER_PARTS",
    "MINE_PARTS",
    "STAGES",
    "STAGE_TOLERANCE",
    "SUM_TOLERANCE",
    "SpanRecorder",
    "dominant",
    "stage_agreement",
    "sum_check",
    "tail",
]

#: End-to-end metrics of an untraced run, with their units.
END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "requests_per_s": "1/s",
    "symbols_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of a traced run, with their units, client first.
LAYER_UNITS = {
    "service.client.round_trip_ms": "ms",
    "router.hop_ms": "ms",
    "service.app.http_ms": "ms",
    "service.protocol.parse_ms": "ms",
    "service.batcher.queue_wait_ms": "ms",
    "service.batcher.fill_docs": "count",
    "core.encode_ms": "ms",
    "core.index_ms": "ms",
    "kernels.mine_batch_ms": "ms",
    "kernels.substrings_evaluated": "count",
    "kernels.positions_skipped": "count",
    "kernels.work_ratio": "ratio",
    "engine.jobs.build_ms": "ms",
    "engine.shm.mine_ms": "ms",
    "engine.corpus.finalize_ms": "ms",
    "engine.calibration.simulate_s": "s",
    "service.protocol.serialize_ms": "ms",
    "service.protocol.response_bytes": "bytes",
    "core.substrings_returned": "count",
    "service.client.decode_ms": "ms",
    "service.app.stage_parse_ms": "ms",
    "service.app.stage_queue_wait_ms": "ms",
    "service.app.stage_batch_mine_ms": "ms",
    "service.app.stage_finalize_ms": "ms",
    "service.app.stage_serialize_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Largest relative gap allowed between the sum of the ledger's parts
#: and ``service.client.round_trip_ms``.
SUM_TOLERANCE = 0.10

#: An in-process stage time agrees with its ``/metrics`` stage delta
#: when they differ by at most this share, or by at most
#: :data:`STAGE_FLOOR_MS` (sub-millisecond stages are mostly clock noise).
STAGE_TOLERANCE = 0.25
STAGE_FLOOR_MS = 0.5

#: Ledger leaves above the engine, in blocking order.
_REQUEST_PATH = (
    "router.hop_ms",
    "service.app.http_ms",
    "service.protocol.parse_ms",
    "service.batcher.queue_wait_ms",
)
_AFTER_MINE = (
    "engine.corpus.finalize_ms",
    "service.protocol.serialize_ms",
    "service.client.decode_ms",
)
#: The engine's mine step on a single-process fleet, part by part.
MINE_PARTS = (
    "core.encode_ms",
    "core.index_ms",
    "kernels.mine_batch_ms",
    "engine.jobs.build_ms",
)
#: The leaf layers whose times add up to one client round trip.
LEDGER_PARTS = (*_REQUEST_PATH, *MINE_PARTS, *_AFTER_MINE)

#: In-process layers -> the ``repro_request_stage_seconds`` stage they
#: should agree with.
STAGES = {
    "parse": ("service.protocol.parse_ms",),
    "queue_wait": ("service.batcher.queue_wait_ms",),
    "batch_mine": MINE_PARTS,
    "finalize": ("engine.corpus.finalize_ms",),
    "serialize": ("service.protocol.serialize_ms",),
}


def sum_check(layers: dict[str, float]) -> tuple[float, bool]:
    """``(sum of parts / round trip, within tolerance)``.

    >>> parts = dict.fromkeys(LEDGER_PARTS, 1.0)
    >>> sum_check({**parts, "service.client.round_trip_ms": 11.0})
    (1.0, True)
    """
    total = sum(layers[name] for name in LEDGER_PARTS)
    ratio = total / layers["service.client.round_trip_ms"]
    return ratio, abs(ratio - 1.0) <= SUM_TOLERANCE


def dominant(layers: dict[str, float], names) -> tuple[str, float]:
    """The layer of ``names`` with the most time, and its share of their
    sum (a negative residual counts as zero)."""
    parts = {name: max(0.0, layers[name]) for name in names}
    name = max(parts, key=parts.get)
    return name, parts[name] / sum(parts.values())


def stage_agreement(
    layers: dict[str, float],
) -> list[tuple[str, float, float, bool]]:
    """``(stage, in-process ms, /metrics ms, agree)`` for every stage."""
    rows = []
    for stage, names in STAGES.items():
        local = sum(layers[name] for name in names)
        served = layers[f"service.app.stage_{stage}_ms"]
        gap = abs(local - served)
        rows.append((stage, local, served,
                     gap <= max(STAGE_FLOOR_MS, STAGE_TOLERANCE * served)))
    return rows


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile of the sample with
    at least ten samples beyond it.

    Failed requests enter as ``inf`` and so miss every limit.

    >>> tail([float(i) for i in range(1, 101)])
    (90.0, 90.0)
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class SpanRecorder:
    """Spans recorded around calls into each layer, kept in memory.

    Every span carries the request id it belongs to and its parent's
    name; :meth:`write` dumps them as JSON lines once the run is over.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, request: str, parent: str | None = None):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append({
                "request": request, "name": name, "parent": parent,
                "start": started, "end": time.perf_counter(),
            })

    def ms(self, name: str) -> dict[str, float]:
        """Milliseconds per request spent in spans called ``name``."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span["name"] == name:
                totals[span["request"]] = totals.get(span["request"], 0.0) + (
                    (span["end"] - span["start"]) * 1000.0
                )
        return totals

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
