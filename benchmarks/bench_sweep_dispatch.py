"""Dispatch-backend benchmark: the workload behind
``BENCH_sweep_dispatch.json``.

The Figure 4 grid (the paper's producer/consumer sweep, shortened trace)
is run serially, then through every dispatch backend — ``local-pool``
with the historical ``chunksize=1`` and with the adaptive ``"auto"``
chunking, ``subprocess`` workers, and the ``ssh`` backend (against a
local shim client when no sshd answers on localhost, recorded as
``mode``).  Every dispatched run must reproduce the serial aggregate
byte-for-byte; wall-clock speedups are recorded alongside the machine's
CPU count so the committed snapshot stays honest on single-core boxes.

The Figure 4 cells are milliseconds each, so those rows measure
*dispatch overhead*, not speedup.  The speedup gate runs on a separate
sleep-bound grid (``measure_concurrency``): sleeping cells overlap on
any machine — including single-core CI boxes — so the ≥ 1.7× two-worker
bar is machine-independent.

Emit/update the committed snapshot with::

    PYTHONPATH=src python benchmarks/bench_sweep_dispatch.py --emit
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import stat
import subprocess
import tempfile
import time

from repro.analysis.experiments import figure_4_sweep
from repro.sweep import (
    LocalPoolDispatch,
    RunOptions,
    SshDispatch,
    SubprocessDispatch,
)
from repro.workload import portable_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_FILE = REPO_ROOT / "BENCH_sweep_dispatch.json"
SCHEMA_VERSION = 1

#: Grid shape: 3 rates × {reliable, semantic} = 6 cells, 1 replicate each.
RATES = [80, 40, 20]
TRACE_ROUNDS = 1500
WORKERS = 2

SHIM = """#!/bin/sh
# Fake ssh client: drop client options and the host argument, run the
# remote command locally — exercises the ssh backend without an sshd.
while [ $# -gt 0 ]; do
  case "$1" in
    -o) shift 2 ;;
    -*) shift ;;
    *) break ;;
  esac
done
shift  # the host
exec /bin/sh -c "$*"
"""


def ssh_localhost_works() -> bool:
    try:
        return (
            subprocess.run(
                ["ssh", "-o", "BatchMode=yes", "-o", "ConnectTimeout=2",
                 "localhost", "true"],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=10,
            ).returncode
            == 0
        )
    except (OSError, subprocess.TimeoutExpired):
        return False


def _timed(trace, dispatch=None):
    start = time.perf_counter()
    result = figure_4_sweep(
        trace, rates=RATES, run=RunOptions(dispatch=dispatch)
    )
    return time.perf_counter() - start, result.to_json()


def measure() -> dict:
    trace = portable_workload("game", rounds=TRACE_ROUNDS)
    serial_s, serial_json = _timed(trace)

    backends = {}

    def run_backend(name, backend, **extra):
        wall, out = _timed(trace, dispatch=backend)
        entry = {
            "wall_s": round(wall, 6),
            "speedup": round(serial_s / wall, 2) if wall else float("inf"),
            "byte_identical": out == serial_json,
        }
        stats = backend.stats.to_dict() if backend.stats else {}
        for key in ("dispatched", "stolen", "reissued", "duplicates",
                    "chunksize", "window"):
            if key in stats:
                entry[key] = stats[key]
        entry.update(extra)
        backends[name] = entry

    run_backend(
        "local-pool-chunk1", LocalPoolDispatch(workers=WORKERS, chunksize=1)
    )
    run_backend(
        "local-pool", LocalPoolDispatch(workers=WORKERS, chunksize="auto")
    )
    run_backend("subprocess", SubprocessDispatch(workers=WORKERS))

    if ssh_localhost_works():
        run_backend(
            "ssh", SshDispatch(hosts={"localhost": WORKERS}), mode="real"
        )
    else:
        with tempfile.TemporaryDirectory() as tmp:
            shim = pathlib.Path(tmp) / "ssh"
            shim.write_text(SHIM)
            shim.chmod(shim.stat().st_mode | stat.S_IXUSR)
            run_backend(
                "ssh",
                SshDispatch(hosts={"localhost": WORKERS}, ssh=str(shim)),
                mode="shim",
            )

    return {
        "cpus": os.cpu_count() or 1,
        "workers": WORKERS,
        "serial_s": round(serial_s, 6),
        "n_runs": len(RATES) * 2,
        "backends": backends,
        "concurrency": measure_concurrency(),
    }


#: Sleep-bound speedup grid: 30 cells × 0.5 s ≈ 15 s serial, so two
#: workers clear 1.7× even after ~1 s of worker startup.
SLEEP_CELLS = 30
SLEEP_S = 0.5


def measure_concurrency() -> dict:
    """Serial vs two subprocess workers on a sleep-bound grid."""
    from repro.sweep import Sweep
    from repro.sweep.cells import sleepy_cell

    sweep = Sweep(base={"sleep_s": SLEEP_S}).axis(
        "x", list(range(SLEEP_CELLS))
    )
    start = time.perf_counter()
    serial = sweep.run(sleepy_cell)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    dispatched = sweep.run(
        sleepy_cell, dispatch=SubprocessDispatch(workers=WORKERS)
    )
    dispatched_s = time.perf_counter() - start
    return {
        "cells": SLEEP_CELLS,
        "sleep_s": SLEEP_S,
        "serial_s": round(serial_s, 6),
        "subprocess_s": round(dispatched_s, 6),
        "speedup": round(serial_s / dispatched_s, 2) if dispatched_s else 0.0,
        "byte_identical": serial.to_json() == dispatched.to_json(),
    }


def emit(result: dict) -> None:
    payload = {
        "schema": SCHEMA_VERSION,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "grid": {"rates": RATES, "trace_rounds": TRACE_ROUNDS},
        "current": result,
    }
    BENCH_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BENCH_FILE}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--emit", action="store_true", help="update BENCH_sweep_dispatch.json"
    )
    args = parser.parse_args()
    result = measure()
    print(f"cpus={result['cpus']} serial={result['serial_s']:.2f}s")
    for name, entry in result["backends"].items():
        print(
            f"{name:>18}: {entry['wall_s']:.2f}s "
            f"({entry['speedup']}x, byte_identical={entry['byte_identical']})"
        )
    conc = result["concurrency"]
    print(
        f"       concurrency: {conc['serial_s']:.2f}s serial vs "
        f"{conc['subprocess_s']:.2f}s with {WORKERS} workers "
        f"({conc['speedup']}x)"
    )
    if args.emit:
        emit(result)


if __name__ == "__main__":
    main()
