"""The repository's benchmark: one workload, one seed, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload figures --seed 2002 --seconds 30 --trace 0

Every pass runs in a fresh ``worker.py`` process, one at a time, so each
pays the library import and input generation, as a user's run does, and
reports its own peak memory.

``--trace 0`` repeats timed passes until ``--seconds`` have elapsed (at
least one), then adds set-up-only processes until set-up was measured
``SETUP_SAMPLES`` times, and reports the medians of the end-to-end
metrics.  Times are in reference seconds: host wall time rescaled by the
speed probe of ``probe.py``.  ``--trace 1`` runs one timed and one traced
pass and reports the per-layer metrics of the traced pass plus the
tracing overhead (traced minus untraced time).

The last line of standard output is the JSON result; the lines before it
print each metric with its unit, the raw host times, ``failed_frac`` and
the machine stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"

#: Set-up is measured at least this many times per run (median reported).
SETUP_SAMPLES = 7
#: A run must end within this many seconds; each worker gets what is left.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "deliveries_per_s": "1/s",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(workload: str, seed: int, mode: str, deadline: float) -> Dict[str, Any]:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("run budget exhausted")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--out", str(OUT),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} pass exceeded the run budget") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed_run(workload: str, seed: int, seconds: float, deadline: float):
    passes: List[Dict[str, Any]] = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(_worker(workload, seed, "timed", deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(workload, seed, "setup", deadline)["setup_s"])
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "deliveries_per_s": statistics.median(
            p["deliveries"] / p["wall_s"] for p in passes
        ),
    }
    metrics = {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in values.items()
    }
    return passes, metrics


def _traced_run(workload: str, seed: int, deadline: float, units: Dict[str, str]):
    untraced = _worker(workload, seed, "timed", deadline)
    traced = _worker(workload, seed, "traced", deadline)
    values = dict(traced["per_layer"])
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return [untraced, traced], metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            passes, metrics = _traced_run(args.workload, args.seed, deadline, units)
        else:
            passes, metrics = _timed_run(args.workload, args.seed, args.seconds, deadline)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"platform={platform.platform()}"
    )
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        for name in ("raw_wall_s", "raw_setup_s"):
            raw = statistics.median(p[name] for p in passes)
            print(f"{name + ' (host clock, median)':40s} {raw:>16.6g} s")
    print(f"{'failed_frac':40s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} checks, {len(passes)} passes)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
