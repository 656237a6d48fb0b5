"""Benchmark for the rSLPA Spark pipelines: propagation, incremental update,
community detection, and the SLPA baseline.

One run of one workload, in this process::

    python3 perfbench/run.py --workload stream-small --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``). The line before it
starts with ``perfbench-report`` and holds the full record: inputs and their
hashes, deployment settings and versions, every operation's time, the
reference engines' time and any correctness failures.

Every workload, each run in a fresh process, untraced then traced::

    python3 perfbench/run.py --workload all --seed 1

prints every end-to-end metric with its unit, the Fig. 9 ratio
``propagate_s / update_s`` and the tracing overhead (traced minus untraced).
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPORT_PREFIX = "perfbench-report "


def _ensure_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program's sources are missing ({ROOT / 'src' / 'repro'})",
            file=sys.stderr,
        )
        sys.exit(2)
    for p in (str(ROOT), str(ROOT / "src")):
        if p not in sys.path:
            sys.path.insert(0, p)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import session
    from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS, run_workload

    wl = WORKLOADS[workload]
    settings = session.deployment(ROOT)
    spark = session.start_session(settings)
    try:
        record = run_workload(spark, wl, seed, seconds, trace, STARTED)
        record["deployment"] = settings
        record["versions"] = session.versions(spark)
    finally:
        session.stop_session(spark)
    if trace:
        metrics = {k: (v, PER_LAYER[k][0]) for k, v in record["per_layer"].items()}
    else:
        metrics = {k: (v, END_TO_END[k][0]) for k, v in record["e2e"].items()}
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            k: {"value": v, "unit": unit}
            for k, (v, unit) in metrics.items()
            if not math.isnan(v)
        },
    }
    print(REPORT_PREFIX + json.dumps(record, default=str))
    print(json.dumps(result))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process; return its report record."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: {workload} (trace {trace}) exited {proc.returncode}")
    reports = [ln for ln in lines if ln.startswith(REPORT_PREFIX)]
    return json.loads(reports[-1][len(REPORT_PREFIX):])


def run_all(seed: int, seconds: float) -> int:
    from perfbench.workloads import END_TO_END, WORKLOADS

    failed = 0
    for name in WORKLOADS:
        plain = _child(name, seed, seconds, 0)
        traced = _child(name, seed, seconds, 1)
        failed += plain["failed"] + traced["failed"]
        print(f"== {name}  inputs {plain['inputs']}")
        print(
            f"   error_rate {plain['failed']}/{plain['attempted']}"
            f"  reference engines {plain['reference_s']:.2f} s"
            f"  fig9 propagate_s/update_s {plain['fig9_ratio']:.3f}"
        )
        for metric, (unit, better) in END_TO_END.items():
            a, b = plain["e2e"][metric], traced["e2e"][metric]
            print(
                f"   {metric:<14} {a:>12.4f} {unit:<4} ({better} is better)"
                f"  tracing overhead {b - a:+.4f} {unit}"
            )
        for k, v in traced["per_layer"].items():
            print(f"   {k:<48} {v:.6g}")
        for k, v in traced["outcomes"].items():
            print(f"   {k:<48} {v:.6g}  (outcome, not a metric)")
        print(f"   missing spans: {traced['missing_spans'] or 'none'}; "
              f"lazy calls in caller self_s: {', '.join(traced['lazy_in_caller_self'])}; "
              "span job attribution is checked as part of error_rate")
        for err in plain["errors"] + traced["errors"]:
            print(f"   FAILED {err}")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _ensure_program()
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
