"""Pieces every workload shares: timed set-up, results, environment facts."""

from __future__ import annotations

import gc
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .spans import SpanLog, Tally

__all__ = ["SETUP_BEFORE", "SETUP_AFTER", "Result", "SetupTimer",
           "env_info", "stop_children"]

#: Set-up runs this many times before the timed phase and this many times
#: after it; ``setup_s`` is the median of all of them.  The host's speed
#: drifts over tens of seconds, so repeats spread over the whole run give
#: a steadier median than the same number back to back.
SETUP_BEFORE = 3
SETUP_AFTER = 4


@dataclass
class Result:
    """What one workload run measured.

    ``e2e`` and ``layers`` hold the contract metrics by name; ``info`` holds
    further named values printed in the table (never in the JSON line).
    """

    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    spans: SpanLog | None = None

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


class SetupTimer:
    """Times repeated set-ups of one workload.

    ``before()`` builds :data:`SETUP_BEFORE` times and returns the last
    result for the timed phase; ``after()`` builds and disposes
    :data:`SETUP_AFTER` more times and returns the median of every repeat.
    Each repeat starts from a collected heap with no earlier result alive.
    """

    def __init__(self, build, dispose):
        self.build = build
        self.dispose = dispose
        self.times: list[float] = []

    def _once(self):
        gc.collect()
        start = time.perf_counter()
        built = self.build()
        self.times.append(time.perf_counter() - start)
        return built

    def before(self):
        for _ in range(SETUP_BEFORE - 1):
            self.dispose(self._once())
        return self._once()

    def after(self) -> float:
        for _ in range(SETUP_AFTER):
            self.dispose(self._once())
        return statistics.median(self.times)


def stop_children() -> None:
    """End every process this run started and wait for each.

    ``multiprocessing`` starts a resource-tracker process the first time a
    named semaphore is made (the dp2 phase's barriers) and leaves it running
    until the parent exits; it would then outlive the run as an orphan.
    Worker processes are joined by ``run_distributed`` itself; any child
    still alive here is terminated and reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to exit


def env_info() -> dict[str, object]:
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        entry = config["Build Dependencies"]["blas"]
        blas = f"{entry['name']} {entry.get('version', '')}".strip()
    except Exception:  # older numpy has no dict mode; the name is optional
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": sys.platform,
    }
