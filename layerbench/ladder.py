"""The traced run: replay sample requests down the layer ladder.

Each sample request is sent twice -- through the workload's entry
address and straight to the shard that owns it -- and then replayed
in-process through the public function of every layer below the HTTP
front-end, each call wrapped in a span.  ``/metrics`` is scraped from
the owning shard before and after, so the batcher's queue wait and
batch fill and the service's own stage histograms come from the
program's telemetry, not from the benchmark's clock.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import time
from statistics import median

from repro.core.counts import PrefixCountIndex
from repro.engine.calibration import CalibrationCache
from repro.engine.corpus import CorpusEngine
from repro.engine.executors import SharedMemoryExecutor
from repro.engine.jobs import run_job_batch
from repro.kernels import get_backend, register_backend
from repro.service.client import ServiceClient
from repro.service.protocol import parse_mine_request, response_bytes

from fleet import parse_prometheus
from ledger import STAGES, SpanRecorder

__all__ = ["run_ladder"]

#: Length whose calibration bucket set-up fills cold on a calibrated fleet.
_PROBE_LENGTH = 600
#: Trials and seed of that probe on a fleet that does not calibrate
#: (the ``serve --trials`` / ``--seed`` defaults).
_PROBE_TRIALS, _PROBE_SEED = 100, 0


def _metric_means(before: dict, after: dict, name: str, labels=()) -> float:
    """Mean per observation of a histogram between two scrapes."""
    key_sum, key_count = (f"{name}_sum", labels), (f"{name}_count", labels)
    count = after.get(key_count, 0.0) - before.get(key_count, 0.0)
    if count <= 0:
        raise RuntimeError(f"/metrics shows no {name} observations")
    return (after[key_sum] - before.get(key_sum, 0.0)) / count


class _Recorded:
    """A kernel backend that answers ``mine_batch`` with the answers the
    real kernel just gave, so ``run_job_batch`` can be timed without
    timing the kernel a second time."""

    name = "layerbench-recorded"

    def __init__(self) -> None:
        self.raws: list = []

    def mine_batch(self, indexes, model, spec):
        return self.raws


def _replay(spans, rid, payload, model, serial_engine, shm_engine,
            recorded: _Recorded) -> int:
    """Replay one request through each layer's public function in turn.

    Returns the size of the response body.  Everything the replay built
    is freed when this returns, after the last span has closed.
    """
    body = json.dumps(payload).encode("utf-8")
    with spans.span("service.protocol.parse", rid, "replay"):
        request = parse_mine_request(json.loads(body), model)
    jobs = request.jobs()
    kernel = get_backend(request.spec.backend)
    with spans.span("core.encode", rid, "replay"):
        codes = [model.encode(job.text) for job in jobs]
    with spans.span("core.index", rid, "replay"):
        indexes = [PrefixCountIndex(c, model.k) for c in codes]
    with spans.span("kernels.mine_batch", rid, "replay"):
        recorded.raws = kernel.mine_batch(indexes, model, request.spec)
    spec = dataclasses.replace(request.spec, backend=recorded.name)
    replayed = [dataclasses.replace(job, spec=spec) for job in jobs]
    with spans.span("engine.jobs.run_job_batch", rid, "replay"):
        documents = run_job_batch(replayed)
    with spans.span("engine.shm.mine_documents", rid, "replay"):
        shm_engine.mine_documents(jobs)
    with spans.span("engine.corpus.finalize", rid, "replay"):
        result = serial_engine.finalize(
            jobs, documents, correction=request.correction,
            alpha=request.alpha, batch_docs=serial_engine.batch_docs,
        )
    with spans.span("service.protocol.serialize", rid, "replay"):
        raw = response_bytes(200, result.payload())
    response_body = raw[raw.index(b"\r\n\r\n") + 4:]
    with spans.span("service.client.decode", rid, "replay"):
        json.loads(response_body)
    return len(response_body)


def run_ladder(run, entry, shard, model, info):
    """Replay the run's first ``trace_sample`` requests down the ladder;
    returns ``(layer medians, spans)``.  Answers are left on ``run`` for
    its answer check."""
    workload = run.workload
    spans = SpanRecorder()
    recorded = _Recorded()
    register_backend(recorded, replace=True)
    engine_stats, calibration = info["engine"], info["calibration"]
    trials, seed = ((calibration["trials"], calibration["seed"])
                    if calibration else (_PROBE_TRIALS, _PROBE_SEED))
    serial_engine = CorpusEngine(
        calibration=CalibrationCache(trials, seed) if calibration else None,
        correction=engine_stats["correction"],
        alpha=engine_stats["alpha"],
        batch_docs=engine_stats["batch_docs"],
    )
    shm_engine = CorpusEngine(
        executor=SharedMemoryExecutor(workers=2, persistent=True),
        batch_docs=engine_stats["batch_docs"],
    )
    rids: list[str] = []
    counts: dict[str, list[float]] = {
        "kernels.substrings_evaluated": [],
        "kernels.positions_skipped": [],
        "kernels.work_ratio": [],
        "core.substrings_returned": [],
        "service.protocol.response_bytes": [],
    }
    entry_client = ServiceClient(*entry)
    shard_client = ServiceClient(*shard)
    try:
        # Warm both in-process engines (pool spawn, calibration bucket).
        warm = parse_mine_request(run.request(0), model).jobs()
        serial_engine.run(warm)
        shm_engine.run(warm)
        before = parse_prometheus(shard_client.metrics())
        for index in range(workload.trace_sample):
            # Each step starts with no garbage left by the one before.
            gc.collect()
            rid = f"{workload.name}-{index}"
            payload = run.request(index)
            sends = [("service.client.mine", entry_client),
                     ("service.client.mine_shard", shard_client)]
            # Alternate which send goes first: the second of two equal
            # requests tends to run a little faster, which would bias
            # the router hop either way if the order were fixed.
            for name, client in sends[::1 if index % 2 else -1]:
                with spans.span(name, rid):
                    _, answer = run.send(client, index)
                if answer is None:
                    raise RuntimeError(f"ladder request {index} failed")
            gc.collect()
            with spans.span("replay", rid):
                response_size = _replay(spans, rid, payload, model,
                                        serial_engine, shm_engine, recorded)
            counts["kernels.substrings_evaluated"].append(answer["evaluated"])
            counts["kernels.positions_skipped"].append(answer["skipped"])
            counts["kernels.work_ratio"].extend(
                doc["evaluated"] / doc["n"] ** 1.5 for doc in answer["results"]
            )
            counts["core.substrings_returned"].append(
                sum(len(doc["substrings"]) for doc in answer["results"])
            )
            counts["service.protocol.response_bytes"].append(response_size)
            rids.append(rid)
        after = parse_prometheus(shard_client.metrics())
    finally:
        entry_client.close()
        shard_client.close()
        shm_engine.close()

    ms = {name: spans.ms(name) for name in {s["name"] for s in spans.spans}}
    queue_wait = 1000.0 * _metric_means(
        before, after, "repro_batch_queue_wait_seconds"
    )
    stage_ms = {
        stage: 1000.0 * _metric_means(
            before, after, "repro_request_stage_seconds", (("stage", stage),)
        )
        for stage in STAGES
    }
    # The fleet's mine step: encode, index and build inside
    # run_job_batch, plus the kernel.
    mine_names = ("engine.jobs.run_job_batch", "kernels.mine_batch")
    rows = {rid: {} for rid in rids}
    for rid, row in rows.items():
        row["service.client.round_trip_ms"] = ms["service.client.mine"][rid]
        row["router.hop_ms"] = (ms["service.client.mine"][rid]
                                - ms["service.client.mine_shard"][rid])
        for layer, span in (
            ("service.protocol.parse_ms", "service.protocol.parse"),
            ("core.encode_ms", "core.encode"),
            ("core.index_ms", "core.index"),
            ("kernels.mine_batch_ms", "kernels.mine_batch"),
            ("engine.shm.mine_ms", "engine.shm.mine_documents"),
            ("engine.corpus.finalize_ms", "engine.corpus.finalize"),
            ("service.protocol.serialize_ms", "service.protocol.serialize"),
            ("service.client.decode_ms", "service.client.decode"),
        ):
            row[layer] = ms[span][rid]
        # run_job_batch encodes and indexes again, then builds results
        # around the recorded kernel answers.
        row["engine.jobs.build_ms"] = ms["engine.jobs.run_job_batch"][rid] - (
            row["core.encode_ms"] + row["core.index_ms"]
        )
        below_http = (
            row["service.protocol.parse_ms"] + queue_wait
            + sum(ms[name][rid] for name in mine_names)
            + row["engine.corpus.finalize_ms"]
            + row["service.protocol.serialize_ms"]
            + row["service.client.decode_ms"]
        )
        row["service.app.http_ms"] = (
            ms["service.client.mine_shard"][rid] - below_http
        )
    layers = {name: median(row[name] for row in rows.values())
              for name in rows[rids[0]]}
    layers["service.batcher.queue_wait_ms"] = queue_wait
    layers["service.batcher.fill_docs"] = _metric_means(
        before, after, "repro_batch_fill_docs"
    )
    for stage, value in stage_ms.items():
        layers[f"service.app.stage_{stage}_ms"] = value
    for name, values in counts.items():
        layers[name] = median(values)
    started = time.perf_counter()
    CalibrationCache(trials, seed).distribution_for(model, _PROBE_LENGTH)
    layers["engine.calibration.simulate_s"] = time.perf_counter() - started
    return layers, spans
