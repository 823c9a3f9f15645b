"""Layer-ledger benchmark of the mining fleet.

Run from the root of a checkout::

    python3 layerbench/run.py --workload rpc_small --seed 1 --seconds 30 --trace 0

It spawns the real ``repro-mss serve`` / ``route`` fleet from the
checkout's ``src/`` and drives it from this one process over one
keep-alive ``ServiceClient`` connection in a closed loop: the next
request goes out when the previous answer is in.  Every answer --
set-up, warm-up, timed and traced -- is checked against an in-process
``CorpusEngine`` once the timed window is over.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer ledger (see ``README.md``).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when any request failed or was
answered wrongly, and when the program is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Working files inside the checkout: fleet stores, native artifacts, spans.
WORK = HERE / ".work"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_digest() -> str:
    """Content hash of the program's sources (a checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"layerbench: no program at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # The fleet inherits this: its native artifact lands in WORK too.
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    WORK.mkdir(exist_ok=True)

    from repro.kernels import get_backend

    from harness import Run, end_to_end, traced
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"layerbench: unknown workload {args.workload!r}; choose "
              f"from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # Compile the native artifact before any timing: users pay that
    # once per host, not per fleet.
    get_backend("native").resolved_name
    cpus = sorted(os.sched_getaffinity(0))
    fleet_cpus, client_cpus = {
        "shared": ({cpus[-1]}, {cpus[-1]}),
        "split": ({cpus[-1]}, {cpus[0]}),
    }[workload.placement]
    os.sched_setaffinity(0, client_cpus)
    run = Run(workload, args.seed, args.seconds, SRC, WORK, fleet_cpus)
    metrics, info, notes = (traced if args.trace else end_to_end)(run)
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "backend_resolved": info["backend_resolved"],
        "cpu_count": os.cpu_count(),
        "fleet_cpus": sorted(fleet_cpus),
        "client_cpus": sorted(client_cpus),
        "commit": _commit(),
        "source_digest": _source_digest(),
    }
    print("provenance " + json.dumps(provenance))
    print("notes " + json.dumps(notes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.4f} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


def _terminate(signum, frame):
    # Unwind through the harness's finally blocks, which stop the fleet.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
