"""Sweep-engine overhead and the parallel figure path.

Two costs matter for the sweep subsystem: the fixed per-cell overhead of
the grid/executor machinery (must be negligible next to a real cell), and
the end-to-end figure path now that every grid experiment routes through
:class:`~repro.sweep.Sweep`.
"""

import os

from conftest import run_once

from repro.analysis.experiments import figure_4a
from repro.sweep import RunOptions, Sweep


def _null_cell(params, seed, context):
    return {"value": params["x"] * 2.0}


def test_bench_sweep_engine_overhead(benchmark):
    """1000 near-empty cells: pure grid + executor + aggregation cost."""
    sweep = Sweep(seeds=1).axis("x", list(range(1000)))

    def run():
        return sweep.run(_null_cell, workers=0)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.n_runs == 1000 and result.ok


def test_bench_figure_4a_sweep_serial(benchmark, paper_trace):
    """The full Figure 4(a) grid through the sweep API, serially."""
    rows = run_once(benchmark, figure_4a, paper_trace, buffer_size=15)
    assert len(rows) == 11


def test_bench_figure_4a_sweep_parallel(benchmark, paper_trace):
    """The same grid with a worker pool sized to the machine."""
    workers = min(4, len(os.sched_getaffinity(0)))
    rows = run_once(
        benchmark,
        figure_4a,
        paper_trace,
        buffer_size=15,
        run=RunOptions(workers=workers),
    )
    assert len(rows) == 11
