"""The three benchmark workloads: inputs from a seed, one pass, output checks.

Each workload is a closed loop: one process makes its calls back to back,
with no thread or worker pool, and every call uses the library defaults
(no ``engine=``, ``workers=``, ``cache=`` or ``dispatch=``), so later
changes to those knobs need no benchmark edit.

* ``figures`` -- every entry point of the paper's evaluation on the
  calibrated game trace, cut to the rounds that hold its first
  ``FIGURES_MESSAGES`` messages, threading one report builder that is
  written at the end.  Slow-receiver model: kernel, throughput model,
  purge index.
* ``view_change`` -- the full stack: the view-change latency table on the
  same trace, then the partition-churn table (consensus, flush, fault
  plans, spec checking, rate-limited consumers).
* ``storm`` -- a broadcast storm on a prepared group stack: every member
  multicasts twice with a per-sender tag, so the second round obsoletes
  the first.  Multicast fan-out: network, queues, SVS reception.

``generate(workload, seed)`` builds the inputs (the program receives
only those), ``run(workload, inputs, out_dir)`` is the timed pass, and
``checks(...)`` turns its outputs into (name, ok) pairs.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from typing import Any, Callable, Dict, List, Tuple

#: Seed whose outputs are recorded in ``reference.json`` (the seed of
#: ``repro.analysis.experiments.default_trace()``).
REFERENCE_SEED = 2002
#: Held-out seed on which a change confirms a claim it tuned elsewhere.
HELDOUT_SEED = 7331
REFERENCE_FILE = pathlib.Path(__file__).resolve().parent / "reference.json"

FIGURE_ENTRY_POINTS = (
    "workload_stats",
    "figure_3a",
    "figure_3b",
    "figure_4a",
    "figure_4b",
    "figure_5a",
    "figure_5b",
    "ablation_k",
    "ablation_representation",
    "ablation_players",
)
VIEW_CHANGE_ENTRY_POINTS = ("view_change_latency_table", "churn_table")
ENTRY_POINTS = FIGURE_ENTRY_POINTS + VIEW_CHANGE_ENTRY_POINTS

#: Messages in the ``figures`` trace.  The slow-receiver work is
#: proportional to the message count, and a fixed number of rounds holds
#: from 3,100 to 4,100 messages depending on the seed (+-13% at 2,500
#: rounds); cutting at a message count keeps every seed's work within a
#: few %.  The full 11,696-round trace makes a 30-45 s pass, too long to
#: repeat in a run.
FIGURES_MESSAGES = 5000

#: Storm shape: group size, multicast rounds, drain period and horizon
#: (simulated seconds).  400 members x 2 rounds is 319,200 deliveries.
STORM_N = 400
STORM_ROUNDS = 2
STORM_DRAIN_PERIOD = 0.05
STORM_UNTIL = 1.0

Check = Tuple[str, bool]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def _game_trace(seed: int) -> Dict[str, Any]:
    from repro.workload import portable_workload

    return {"seed": seed, "trace": portable_workload("game", seed=seed)}


def _figures_trace(seed: int) -> Dict[str, Any]:
    """The seeded trace up to the round holding its ``FIGURES_MESSAGES``-th
    message (a shorter trace of the same seed is an exact prefix)."""
    from repro.workload import portable_workload

    full = portable_workload("game", seed=seed)
    rounds = full.messages[FIGURES_MESSAGES - 1].round + 1
    return {"seed": seed, "trace": portable_workload("game", seed=seed, rounds=rounds)}


def _storm_inputs(seed: int) -> Dict[str, Any]:
    """Send schedule: round r of sender s goes out at ``0.01 r`` plus a
    seeded jitter of up to 5 ms; both rounds carry tag ``s``."""
    rng = random.Random(seed)
    sends = [
        (0.01 * r + rng.uniform(0.0, 0.005), s, f"m{r}:{s}", s)
        for r in range(STORM_ROUNDS)
        for s in range(STORM_N)
    ]
    return {"seed": seed, "sends": sends}


SETUP: Dict[str, Callable[[int], Dict[str, Any]]] = {
    "figures": _figures_trace,
    "view_change": _game_trace,
    "storm": _storm_inputs,
}


def import_library() -> None:
    """Import what the passes call (part of set-up time)."""
    import repro  # noqa: F401
    import repro.analysis.experiments  # noqa: F401
    import repro.report  # noqa: F401


def generate(workload: str, seed: int) -> Dict[str, Any]:
    """The workload's inputs for ``seed``."""
    return SETUP[workload](seed)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


def _call_all(calls: List[Tuple[str, Callable[[], Any]]]) -> Dict[str, Any]:
    """Run each entry point; a raising one is recorded as ``None`` (its
    row checks then fail) and the pass goes on."""
    import sys
    import traceback

    rows: Dict[str, Any] = {}
    for name, call in calls:
        try:
            rows[name] = call()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rows[name] = None
    return rows


def _run_figures(inputs: Dict[str, Any], out_dir) -> Dict[str, Any]:
    import repro.analysis.experiments as exp
    from repro.report import ReportBuilder

    trace = inputs["trace"]
    report = ReportBuilder(
        "Semantically Reliable Multicast - benchmark figures",
        subtitle=f"game trace seed {inputs['seed']}",
    )
    calls = [
        (name, lambda name=name: getattr(exp, name)(trace, report=report))
        for name in FIGURE_ENTRY_POINTS
        if name != "ablation_players"
    ]
    calls.append(("ablation_players", lambda: exp.ablation_players(report=report)))
    rows = _call_all(calls)
    report.write(out_dir / "figures-report")
    return {"rows": rows}


def _run_view_change(inputs: Dict[str, Any], out_dir) -> Dict[str, Any]:
    import repro.analysis.experiments as exp

    trace = inputs["trace"]
    return {
        "rows": _call_all(
            [
                (
                    "view_change_latency_table",
                    lambda: exp.view_change_latency_table(trace=trace),
                ),
                ("churn_table", exp.churn_table),
            ]
        )
    }


def _run_storm(inputs: Dict[str, Any], out_dir) -> Dict[str, Any]:
    from repro import RunContext, StackConfig

    config = StackConfig(
        n=STORM_N, seed=inputs["seed"], consensus="oracle", record_history=False
    )
    stack = RunContext.prepare("item-tagging", config).stack()
    sim = stack.sim
    for at, sender, payload, tag in inputs["sends"]:
        sim.schedule_at(at, stack[sender].multicast, payload, tag)
    t = STORM_DRAIN_PERIOD
    while t < STORM_UNTIL:
        sim.schedule_at(t, stack.drain_all)
        t += STORM_DRAIN_PERIOD
    sim.run(until=STORM_UNTIL)
    stack.drain_all()
    network = stack.network
    procs = [stack[pid] for pid in stack.members]
    return {
        "counters": {
            "sent": network.messages_sent,
            "delivered": network.messages_delivered,
            "dropped": network.messages_dropped,
            "appended": sum(p.to_deliver.stats.appended for p in procs),
            "popped": sum(p.to_deliver.stats.popped for p in procs),
            "purged": sum(p.to_deliver.stats.purged for p in procs),
            "pending": sum(p.pending for p in procs),
        },
        "per_process": [
            (
                p.pending,
                p.to_deliver.stats.appended,
                p.to_deliver.stats.popped,
                p.to_deliver.stats.purged,
            )
            for p in procs
        ],
    }


RUN: Dict[str, Callable[..., Dict[str, Any]]] = {
    "figures": _run_figures,
    "view_change": _run_view_change,
    "storm": _run_storm,
}


def run(workload: str, inputs: Dict[str, Any], out_dir) -> Dict[str, Any]:
    """One timed pass over the workload's inputs."""
    return RUN[workload](inputs, out_dir)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def canonical(value: Any) -> Any:
    """JSON shape of an output (tuples become lists)."""
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    return value


def _same(a: Any, b: Any) -> bool:
    """Equality that treats NaN as equal to NaN."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def reference_outputs(workload: str, outputs: Dict[str, Any]) -> Dict[str, Any]:
    """The part of a pass's outputs recorded in ``reference.json``."""
    if workload == "storm":
        return {"counters": canonical(outputs["counters"])}
    return {"rows": canonical(outputs["rows"])}


def _reference_checks(recorded: Dict[str, Any], got: Dict[str, Any]) -> List[Check]:
    checks: List[Check] = []
    if "counters" in recorded:
        for key, want in recorded["counters"].items():
            checks.append(
                (f"reference counter {key}", got["counters"].get(key) == want)
            )
        return checks
    for name, want_rows in recorded["rows"].items():
        got_rows = got["rows"].get(name)
        for i, want in enumerate(want_rows):
            ok = got_rows is not None and i < len(got_rows)
            checks.append((f"reference {name} row {i}", ok and _same(got_rows[i], want)))
        if got_rows is not None and len(got_rows) > len(want_rows):
            checks.append((f"reference {name} row count", False))
    return checks


def _row_counts(rows: Dict[str, Any], expected: Dict[str, int]) -> List[Check]:
    return [
        (
            f"{name} returned {count} rows",
            rows.get(name) is not None and len(rows[name]) == count,
        )
        for name, count in expected.items()
    ]


def _figure_invariants(rows: Dict[str, Any]) -> List[Check]:
    checks = _row_counts(
        rows,
        {
            "workload_stats": 5,
            "figure_3a": 50,
            "figure_3b": 20,
            "figure_4a": 11,
            "figure_4b": 11,
            "figure_5a": 7,
            "figure_5b": 7,
            "ablation_k": 7,
            "ablation_representation": 3,
            "ablation_players": 4,
        },
    )
    idle = rows.get("figure_4a") or []
    checks.append(
        (
            "figure_4a idle % within [0, 100]",
            bool(idle) and all(0.0 <= v <= 100.0 for r in idle for v in r[1:]),
        )
    )
    thresholds = rows.get("figure_5a") or []
    checks.append(
        (
            "figure_5a thresholds within [1, 200]",
            bool(thresholds)
            and all(1 <= v <= 200 for r in thresholds for v in r[1:]),
        )
    )
    return checks


def _view_change_invariants(rows: Dict[str, Any]) -> List[Check]:
    # A churn cell whose run violates the executable spec raises, and the
    # entry point with it; four rows mean all eight cells passed.
    return _row_counts(rows, {"view_change_latency_table": 2, "churn_table": 4})


def _storm_invariants(outputs: Dict[str, Any]) -> List[Check]:
    c = outputs["counters"]
    expected = STORM_N * (STORM_N - 1) * STORM_ROUNDS
    checks = [
        ("storm sent == delivered", c["sent"] == c["delivered"]),
        ("storm delivered every fan-out", c["delivered"] == expected),
        ("storm dropped == 0", c["dropped"] == 0),
    ]
    for pid, (pending, appended, popped, purged) in enumerate(
        outputs["per_process"]
    ):
        checks.append((f"storm process {pid} pending == 0", pending == 0))
        checks.append(
            (
                f"storm process {pid} popped + purged == appended",
                popped + purged == appended,
            )
        )
    return checks


INVARIANTS: Dict[str, Callable[[Dict[str, Any]], List[Check]]] = {
    "figures": lambda out: _figure_invariants(out["rows"]),
    "view_change": lambda out: _view_change_invariants(out["rows"]),
    "storm": _storm_invariants,
}


def checks(workload: str, seed: int, outputs: Dict[str, Any]) -> List[Check]:
    """Seed-independent invariants, plus the outputs recorded in
    ``reference.json`` on the reference seed."""
    out = INVARIANTS[workload](outputs)
    if seed == REFERENCE_SEED:
        recorded = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
        out += _reference_checks(
            recorded[workload], canonical(reference_outputs(workload, outputs))
        )
    return out


def deliveries(workload: str, outputs: Dict[str, Any], census) -> int:
    """Messages delivered in the pass: by the simulated network (storm,
    view_change) or by the slow-receiver model's consumer (figures)."""
    if workload == "storm":
        return outputs["counters"]["delivered"]
    if workload == "view_change":
        return census.network_delivered()
    return census.slow_receiver_delivered
