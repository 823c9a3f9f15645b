"""Spawn, measure and stop a ``repro-mss serve`` / ``route`` fleet.

The fleet runs as real processes started with the checkout's ``src/``
on ``PYTHONPATH``, with default flags apart from what the workload
needs.  Every path it writes to (calibration store, native kernel
artifact, banner file) lies under the benchmark's work directory, so
the run touches nothing outside its checkout.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

__all__ = [
    "Fleet", "descendants", "fleet_command", "parse_prometheus", "vm_hwm_mb",
]

_BANNER = re.compile(r"repro-mss (?:serve|route): http://([^:\s]+):(\d+)\s")

#: How long a fleet may take to print its banner or to exit.
_START_TIMEOUT = 60.0
_STOP_TIMEOUT = 30.0


class Fleet:
    """One running fleet: the root ``repro-mss`` process and its tree."""

    def __init__(self, command: list[str], env: dict, workdir: Path,
                 cpus: set[int]) -> None:
        self.command = command
        self.env = env
        self.workdir = workdir
        self.cpus = cpus
        self.process: subprocess.Popen | None = None
        self._banner = workdir / "banner.txt"

    def start(self) -> tuple[str, int]:
        """Spawn the fleet and wait until its banner names the port."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        with open(self._banner, "w") as banner:
            self.process = subprocess.Popen(
                self.command,
                stdout=banner,
                stderr=subprocess.DEVNULL,
                stdin=subprocess.DEVNULL,
                env=self.env,
            )
        # Set before the root has imported anything, let alone spawned
        # its shards or workers, which inherit it.
        os.sched_setaffinity(self.process.pid, self.cpus)
        deadline = time.monotonic() + _START_TIMEOUT
        while time.monotonic() < deadline:
            match = _BANNER.search(self._banner.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"{self.command[3]} exited with code "
                    f"{self.process.returncode} before binding"
                )
            time.sleep(0.002)
        raise RuntimeError(f"{self.command[3]} did not bind within "
                           f"{_START_TIMEOUT:.0f}s")

    def pids(self) -> list[int]:
        """The root process and every live descendant."""
        if self.process is None or self.process.poll() is not None:
            return []
        return [self.process.pid, *descendants(self.process.pid)]

    def stop(self) -> None:
        """SIGTERM the root (it drains its own children), then make sure
        every process of the tree has ended; removes the work directory."""
        if self.process is None:
            return
        tree = self.pids()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(_STOP_TIMEOUT)
        deadline = time.monotonic() + _STOP_TIMEOUT
        for pid in tree[1:]:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.process = None
        shutil.rmtree(self.workdir, ignore_errors=True)


def fleet_command(command: str, alphabet: str, extra: tuple[str, ...],
                  cache_dir: Path) -> list[str]:
    """The argv of one fleet: ``python -m repro.cli <command> ...``."""
    argv = [sys.executable, "-m", "repro.cli", command, "--port", "0",
            "--alphabet", alphabet, *extra]
    if "--calibrate" in extra:
        argv += ["--cache-dir", str(cache_dir)]
    return argv


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


def descendants(root: int) -> list[int]:
    """Every live descendant of ``root`` (children, grandchildren, ...)."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError, IndexError):
            continue
        if fields[0] != "Z":
            parents.setdefault(int(fields[1]), []).append(int(entry))
    found: list[int] = []
    frontier = [root]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def vm_hwm_mb(pids: list[int]) -> float:
    """Peak resident set (``VmHWM``) summed over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total_kb / 1024.0


def parse_prometheus(text: str) -> dict[tuple[str, tuple], float]:
    """Samples of a Prometheus text exposition, keyed by (name, labels).

    >>> parse_prometheus('a_sum{stage="parse"} 0.5\\nb 2\\n')[("b", ())]
    2.0
    """
    samples: dict[tuple[str, tuple], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        pairs = tuple(sorted(re.findall(r'(\w+)="([^"]*)"', labels)))
        samples[(name, pairs)] = float(value)
    return samples
