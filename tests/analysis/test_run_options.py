"""One ``RunOptions`` reaches the sweep behind every grid entry point.

Each sweep-backed entry point of :mod:`repro.analysis.experiments` takes
``run=RunOptions(...)`` and forwards it to ``Sweep.run``.  Running each
one twice against a fresh cache directory proves the options arrived:
the first call computes its cells, the second computes none and returns
identical rows.
"""

import dataclasses
import inspect

import pytest

import repro.analysis.experiments as exp
from repro.sweep import RunOptions, run_sweep
from repro.sweep.cache import cache_stats
from repro.workload import portable_workload

ENTRY_POINTS = {
    "figure_4_sweep": lambda trace, run: exp.figure_4_sweep(
        trace, rates=(80, 30), run=run
    ).to_json(),
    "figure_4a": lambda trace, run: exp.figure_4a(
        trace, rates=(80, 30), run=run
    ),
    "figure_4b": lambda trace, run: exp.figure_4b(
        trace, rates=(80, 30), run=run
    ),
    "figure_5a": lambda trace, run: exp.figure_5a(
        trace, buffers=(4,), run=run
    ),
    "figure_5b": lambda trace, run: exp.figure_5b(
        trace, buffers=(4,), probes=2, run=run
    ),
    "view_change_latency_table": lambda trace, run: (
        exp.view_change_latency_table(trace, load_time=2.0, run=run)
    ),
    "churn_table": lambda trace, run: exp.churn_table(
        periods=(1.0,), losses=(0.0,), run=run
    ),
    "ablation_k": lambda trace, run: exp.ablation_k(trace, ks=(2,), run=run),
    "ablation_representation": lambda trace, run: (
        exp.ablation_representation(trace, run=run)
    ),
    "ablation_players": lambda trace, run: exp.ablation_players(
        players=(2,), rounds=300, run=run
    ),
}


@pytest.fixture(scope="module")
def trace():
    """Long enough for Figure 5(b)'s 20 s probe warmup, short enough to
    be cheap."""
    return portable_workload("game", rounds=1000)


def test_fields_are_run_sweep_keywords():
    names = [f.name for f in dataclasses.fields(RunOptions)]
    assert names == ["workers", "cache", "dispatch", "dispatch_params"]
    assert set(names) <= set(inspect.signature(run_sweep).parameters)
    assert RunOptions(workers=2).kwargs() == {
        "workers": 2, "cache": None, "dispatch": None, "dispatch_params": None,
    }


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_cache_option_reaches_the_sweep(name, trace, tmp_path):
    params = set(inspect.signature(getattr(exp, name)).parameters)
    assert "run" in params
    assert not {"workers", "cache", "dispatch", "dispatch_params"} & params

    cache = str(tmp_path / "cache")
    run = RunOptions(cache=cache)
    call = ENTRY_POINTS[name]
    cold = call(trace, run)
    misses = cache_stats(cache)["counters"]["misses"]
    assert misses > 0
    warm = call(trace, run)
    assert warm == cold
    assert cache_stats(cache)["counters"]["misses"] == misses
