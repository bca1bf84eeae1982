"""Cold-vs-warm sweep-cache benchmark: the workload behind
``BENCH_sweep_cache.json``.

One measurement, two passes: the Figure 4 grid (the paper's
producer/consumer sweep, on a shortened trace) is run cold into an empty
cache, then warm against the shards the cold pass wrote.  The warm pass
must hit on every (cell, replicate), produce byte-identical aggregated
JSON, and be measurably faster — the properties CI's warm-cache lane
asserts on the live ``examples/sweep_grid.py`` run, measured here under
controlled timing.

Emit/update the committed snapshot with::

    PYTHONPATH=src python benchmarks/bench_sweep_cache.py --emit
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import tempfile
import time

from repro import workloads
from repro.analysis.experiments import figure_4_sweep
from repro.sweep import RunOptions, SweepCache
from repro.sweep.cache import cache_stats

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_FILE = REPO_ROOT / "BENCH_sweep_cache.json"
SCHEMA_VERSION = 1

#: Grid shape: 3 rates × {reliable, semantic} = 6 cells, 1 replicate each.
RATES = [80, 40, 20]
TRACE_ROUNDS = 1500


def measure() -> dict:
    """Run the grid cold then warm in a throwaway cache directory."""
    trace = workloads.create("game", rounds=TRACE_ROUNDS)
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = pathlib.Path(tmp) / "cache"

        start = time.perf_counter()
        cold = figure_4_sweep(
            trace, rates=RATES, run=RunOptions(cache=SweepCache(cache_dir))
        )
        cold_s = time.perf_counter() - start
        after_cold = cache_stats(cache_dir)["counters"]

        start = time.perf_counter()
        warm = figure_4_sweep(
            trace, rates=RATES, run=RunOptions(cache=SweepCache(cache_dir))
        )
        warm_s = time.perf_counter() - start
        counters = cache_stats(cache_dir)["counters"]

    # Counters are cumulative across both passes; the warm pass is the
    # delta against the post-cold snapshot (the CLI's --since, inlined).
    warm_hits = counters["hits"] - after_cold["hits"]
    warm_lookups = warm_hits + counters["misses"] - after_cold["misses"]
    return {
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 2) if warm_s else float("inf"),
        "n_runs": cold.n_runs,
        "warm_hit_rate": warm_hits / warm_lookups if warm_lookups else 0.0,
        "byte_identical": cold.to_json() == warm.to_json(),
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
        "--emit", action="store_true", help="update BENCH_sweep_cache.json"
    )
    args = parser.parse_args()
    result = measure()
    for key, value in sorted(result.items()):
        print(f"{key:>16}: {value}")
    if args.emit:
        emit(result)


if __name__ == "__main__":
    main()
