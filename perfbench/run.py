"""Repository benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload train-miss --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed.
``--trace 1`` runs the same workload untraced, then again with span probes,
and reports the per-layer metrics, the tracing overhead between the two,
and writes the spans to ``.bench_out/``.  Every metric is printed by name
and unit; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: spinning BLAS workers would
# compete with the engine, HTTP and training threads for the two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_BACKEND"] = "fused"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import serve, spec, stream, train
    from perfbench.common import env_info, stop_children

    bench = spec.load()
    runners = {"train-miss": train.run, "serve-rank": serve.run_rank,
               "stream-drift": stream.run}
    declared_workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in declared_workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{declared_workloads}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2

    from repro.nn import set_backend
    set_backend("fused")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        result = runners[args.workload](args.seed, args.seconds,
                                        bool(args.trace), work)
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
        tempfile.tempdir = None

    env = env_info()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} backend=fused "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, ok, detail in result.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"  ops: attempted={result.tally.attempted} "
          f"failed={result.tally.failed} {dict(result.tally.failures)}")

    if args.trace:
        declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = {name: result.layers.get(name, result.info.get(name, 0.0))
                  for name in declared}
    else:
        declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {name: result.e2e.get(name, math.nan) for name in declared}
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    shown = dict(values)
    shown.update({k: v for k, v in result.info.items() if k not in shown})
    for name, value in shown.items():
        # A per-rate variant (``<metric>.r1600``) has its metric's unit.
        unit = units.get(name, units.get(name.rpartition(".")[0], ""))
        print(f"  {name:<36} {_fmt(value):>14} {unit}")
    if result.spans is not None:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        count = result.spans.write_jsonl(path)
        print(f"  {count} spans written to {path.relative_to(ROOT)}")

    metrics = {}
    correct = result.correct
    for name, unit in declared.items():
        value = values[name]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            print(f"  metric {name} was not measured", file=sys.stderr)
            value, correct = 0.0, False
        metrics[name] = {"value": float(value), "unit": unit}
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(max(result.tally.attempted, 1)),
                      "failed": int(result.tally.failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
