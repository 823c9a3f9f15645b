"""One benchmark invocation: set-up, closed loop, ladder, answer check.

Imported by ``run.py`` once the checkout's ``src/`` is importable.
"""

from __future__ import annotations

import gc
import math
import os
import time
from statistics import median
from pathlib import Path

from repro.service.client import ServiceClient, ServiceError

from answers import Reference, comparable
from fleet import Fleet, fleet_command, parse_prometheus, vm_hwm_mb
from ladder import run_ladder
from ledger import (
    END_TO_END_UNITS, LAYER_UNITS, LEDGER_PARTS, SUM_TOLERANCE, SpanRecorder,
    dominant, stage_agreement, sum_check, tail,
)

__all__ = ["Run", "end_to_end", "traced"]

#: Fleet set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 7
#: Warm-up requests after the last set-up, before the timed window.
WARMUP = 3
#: Tracing-overhead slices alternate between plain and span-recorded
#: requests every this many seconds (at least), so drift hits both.
OVERHEAD_SLICE_S = 1.0


class Run:
    """One benchmark invocation: fleet, requests, answers and counts."""

    def __init__(self, workload, seed: int, seconds: float, src: Path,
                 work: Path, fleet_cpus: set[int]) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.fleet_cpus = fleet_cpus
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        #: (index, payload, response) of every answer, checked at the end.
        self.answers: list[tuple[int, dict, dict]] = []
        self._requests: dict[int, dict] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        )
        self.fleet: Fleet | None = None

    def request(self, index: int) -> dict:
        if index not in self._requests:
            self._requests[index] = self.workload.request(self.seed, index)
        return self._requests[index]

    def pregenerate(self, first: int, per_request_ms: float) -> None:
        """Generate the requests a window will probably need up front."""
        expected = int(1.5 * self.seconds * 1000.0 / max(per_request_ms, 0.1))
        for index in range(first, first + min(expected, 50_000) + 10):
            self.request(index)

    def send(self, client: ServiceClient,
             index: int) -> tuple[float, dict | None]:
        """Send request ``index``; returns ``(latency_ms, response)``, with
        an infinite latency and no response when the fleet answered an
        error."""
        payload = self.request(index)
        self.attempted += 1
        started = time.perf_counter()
        try:
            response = client.mine(**payload)
        except ServiceError:
            self.failed += 1
            return math.inf, None
        elapsed = (time.perf_counter() - started) * 1000.0
        self.answers.append((index, payload, response))
        # Kept answers would make every later collection rescan them,
        # slowing the client's decode as the window goes on; freezing
        # leaves the collector only the garbage a client really makes.
        gc.freeze()
        return elapsed, response

    def closed_loop(self, client, first: int, seconds: float = math.inf,
                    count: int | None = None, span=None):
        """Send requests ``first, first+1, ...`` back to back for
        ``seconds`` (or ``count`` requests); returns ``(latencies_ms,
        elapsed_s)``.  ``span``, when given, wraps each send in a span."""
        latencies = []
        started = time.perf_counter()
        while (time.perf_counter() - started < seconds
               and (count is None or len(latencies) < count)):
            index = first + len(latencies)
            self.request(index)
            if span is None:
                latencies.append(self.send(client, index)[0])
            else:
                with span("service.client.mine", f"loop-{index}"):
                    latencies.append(self.send(client, index)[0])
        return latencies, time.perf_counter() - started

    def set_up(self, attempt: int) -> tuple[ServiceClient, float]:
        """Spawn a fleet with an empty calibration store; returns the
        client and the seconds from spawn to the first answer."""
        workdir = self.work / f"fleet-{os.getpid()}-{attempt}"
        self.fleet = Fleet(
            fleet_command(self.workload.command, self.workload.alphabet,
                          self.workload.fleet, workdir / "calibration"),
            self.env,
            workdir,
            self.fleet_cpus,
        )
        started = time.perf_counter()
        client = ServiceClient(*self.fleet.start())
        if self.send(client, 0)[0] == math.inf:
            raise RuntimeError("the fleet's first answer was an error")
        return client, time.perf_counter() - started

    def tear_down(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None

    def check_answers(self, reference: Reference) -> set[int]:
        """Check every answer; returns the indexes answered wrongly.

        A request sent several times is answered by the reference once.
        """
        expected: dict[int, dict] = {}
        wrong = set()
        for index, payload, response in self.answers:
            if index not in expected:
                expected[index] = reference.expected(payload)
            if comparable(response) != expected[index]:
                wrong.add(index)
                self.mismatched += 1
        self.failed += self.mismatched
        self.answers.clear()
        return wrong


def fleet_info(client: ServiceClient, command: str) -> dict:
    """Provenance and the engine settings the answer check mirrors."""
    stats = client.stats()
    if command == "route":
        shards = stats["shards"]
        addresses = {name: state["address"]
                     for name, state in stats["router"]["shards"].items()}
    else:
        shards = {"serve": stats}
        addresses = {"serve": "{}:{}".format(*client.address)}
    engines = {name: data["engine"] for name, data in shards.items()}
    first = next(iter(shards.values()))
    return {
        "backend_resolved": {name: engine["backend_resolved"]
                             for name, engine in engines.items()},
        "engine": first["engine"],
        "calibration": first.get("calibration"),
        "addresses": addresses,
    }


def owning_shard(info: dict) -> tuple[str, int]:
    """The shard that has served this workload's requests so far."""
    served = {}
    for address in info["addresses"].values():
        host, _, port = address.rpartition(":")
        with ServiceClient(host, int(port)) as shard:
            samples = parse_prometheus(shard.metrics())
        served[(host, int(port))] = samples.get(
            ("repro_batcher_requests_total", ()), 0.0
        )
    return max(served, key=served.get)


def _warm(run: Run, client) -> float:
    """Send the warm-up requests; their median latency in ms."""
    return median(run.send(client, index)[0]
                  for index in range(1, WARMUP + 1))


def end_to_end(run: Run):
    """The untraced run: repeated set-ups, then the timed closed loop."""
    setups, client = [], None
    try:
        for attempt in range(SETUPS):
            if client is not None:
                client.close()
                run.tear_down()
            client, seconds = run.set_up(attempt)
            setups.append(seconds)
        info = fleet_info(client, run.workload.command)
        run.pregenerate(WARMUP + 1, _warm(run, client))
        latencies, window = run.closed_loop(client, WARMUP + 1, run.seconds)
        peak_rss = vm_hwm_mb(run.fleet.pids())
    finally:
        if client is not None:
            client.close()
        run.tear_down()
    reference = Reference(run.workload.alphabet, info)
    wrong = run.check_answers(reference)
    scored = [
        math.inf if index in wrong else latency
        for index, latency in enumerate(latencies, start=WARMUP + 1)
    ]
    correct = sum(math.isfinite(latency) for latency in scored)
    symbols = correct * run.workload.doc_length
    tail_ms, tail_pct = tail(scored)
    values = {
        # A failed request misses every limit: it counts as the whole
        # window, which keeps both values finite.
        "latency_p50_ms": min(median(scored), window * 1000.0),
        "latency_tail_ms": min(tail_ms, window * 1000.0),
        "requests_per_s": correct / window,
        "symbols_per_s": symbols / window,
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss,
    }
    notes = {
        "timed_requests": len(scored),
        "tail_percentile": round(tail_pct, 2),
        "setups_s": [round(value, 4) for value in setups],
        "mismatched": run.mismatched,
    }
    return _with_units(values, END_TO_END_UNITS), info, notes


def _with_units(values: dict, units: dict) -> dict:
    """``{name: (value, unit)}`` for exactly the declared metrics."""
    if values.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(values.keys() ^ units.keys())} "
                           "are measured but not declared, or the reverse")
    return {name: (values[name], unit) for name, unit in units.items()}


def traced(run: Run):
    """The traced run: overhead slices, then the ladder over a sample."""
    client = None
    spans = SpanRecorder()
    try:
        client, _ = run.set_up(0)
        info = fleet_info(client, run.workload.command)
        warm_ms = _warm(run, client)
        run.pregenerate(WARMUP + 1, warm_ms)
        slice_s = max(OVERHEAD_SLICE_S, 3.0 * warm_ms / 1000.0)
        # Plain and span-recorded slices send the same requests, in
        # alternating order, so only the recording differs between them.
        elapsed = {"plain": 0.0, "traced": 0.0}
        index, deadline = WARMUP + 1, time.perf_counter() + run.seconds
        order = ["traced", "plain"]
        while time.perf_counter() < deadline:
            order.reverse()
            sent = None
            for mode in order:
                latencies, seconds = run.closed_loop(
                    client, index, slice_s if sent is None else math.inf,
                    count=sent, span=spans.span if mode == "traced" else None,
                )
                sent = len(latencies)
                elapsed[mode] += seconds
            index += sent
        shard = (owning_shard(info) if run.workload.command == "route"
                 else client.address)
        reference = Reference(run.workload.alphabet, info)
        layers, ladder = run_ladder(
            run, client.address, shard, reference.model, info
        )
    finally:
        if client is not None:
            client.close()
        run.tear_down()
    run.check_answers(reference)
    # Equal request counts, so the rate ratio is the inverse time ratio.
    layers["trace.overhead_ratio"] = elapsed["plain"] / elapsed["traced"]
    spans.spans.extend(ladder.spans)
    spans.write(run.work / f"spans-{run.workload.name}-{run.seed}.jsonl")
    ratio, sums = sum_check(layers)
    leader, share = dominant(layers, LEDGER_PARTS)
    notes = {
        "ledger_sum_ratio": round(ratio, 4),
        "ledger_sums": sums,
        "ledger_tolerance": SUM_TOLERANCE,
        "dominant_layer": leader,
        "dominant_share": round(share, 4),
        "stages": [
            {"stage": stage, "in_process_ms": round(local, 4),
             "metrics_ms": round(served, 4), "agree": agree}
            for stage, local, served, agree
            in stage_agreement(layers)
        ],
        "mismatched": run.mismatched,
    }
    return _with_units(layers, LAYER_UNITS), info, notes
