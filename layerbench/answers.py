"""Check every fleet answer against an in-process ``CorpusEngine``.

The reference engine is configured from the fleet's own ``GET /stats``:
batch size, correction and alpha, and the calibration cache's trials and
seed when the fleet calibrates.  It mines on the native backend when
that compiles here: the backends are bit-identical by contract, and
native keeps the check far shorter than the timed window.  Responses are
compared with ``payload(include_timing=False)``; only the executor
fields (``executor``, ``workers``) and the calibration summary are left
out, because they describe how the fleet ran, not what it answered.
"""

from __future__ import annotations

from repro.core.model import BernoulliModel
from repro.engine.calibration import CalibrationCache
from repro.engine.corpus import CorpusEngine
from repro.kernels import get_backend
from repro.service.protocol import parse_mine_request

__all__ = ["Reference", "comparable"]

#: Fields that describe the executor or the calibration cache state.
_UNCOMPARED = ("executor", "workers", "calibration")
#: Wall-clock fields a served payload carries and a timing-free one not.
_TIMING = ("elapsed_seconds", "scan_seconds")


def comparable(payload: dict) -> dict:
    """``payload`` without timing, executor or calibration-summary fields."""
    data = {
        key: value for key, value in payload.items()
        if key not in _UNCOMPARED and key not in _TIMING
    }
    data["results"] = [
        {key: value for key, value in doc.items() if key not in _TIMING}
        for doc in payload.get("results", ())
    ]
    return data


class Reference:
    """Answers requests in-process, for comparison with the fleet's."""

    def __init__(self, alphabet: str, info: dict):
        self.model = BernoulliModel.uniform(list(alphabet))
        native = get_backend("native")
        self.backend = "native" if native.resolved_name == "native" else None
        engine_stats, calibration = info["engine"], info["calibration"]
        self.engine = CorpusEngine(
            calibration=(
                CalibrationCache(calibration["trials"], calibration["seed"],
                                 backend=self.backend)
                if calibration else None
            ),
            correction=engine_stats["correction"],
            alpha=engine_stats["alpha"],
            batch_docs=engine_stats["batch_docs"],
        )

    def expected(self, payload: dict) -> dict:
        """The reference answer to one request payload."""
        request = parse_mine_request(
            payload, self.model, default_backend=self.backend
        )
        result = self.engine.run(
            request.jobs(), correction=request.correction, alpha=request.alpha
        )
        return comparable(result.payload(include_timing=False))
