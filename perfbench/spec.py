"""The benchmark's declarations.

``BENCHMARK.json`` at the repository root is the one source of the
workloads and metrics; :func:`load` reads it.  Every run prints every
end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``),
so each metric is defined on every workload.  End-to-end metrics are
generic: each workload fills them from its own unit of work (see
README.md).  A per-layer metric of a layer that a workload does not
exercise reads 0 on that workload.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

__all__ = ["BENCHMARK_JSON", "load", "TAIL_PERCENTILE", "NAME_RE", "UNIT_RE"]

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Tail percentile each workload reports per layer (``training.step_p90_ms``,
#: ``serving.request_p95_ms``, ``streaming.window_p90_ms``).  Each
#: workload's minimum sample count leaves at least ten samples beyond it.
TAIL_PERCENTILE: dict[str, float] = {
    "train-miss": 90.0,      # >= 100 training steps
    "serve-rank": 95.0,      # >= 200 requests
    "stream-drift": 90.0,    # >= 100 windows
}

#: The metric-name and unit grammar ``BENCHMARK.json`` must follow.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path: Path = BENCHMARK_JSON) -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(Path(path).read_text())
