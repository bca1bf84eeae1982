"""Turning result artefacts into report sections.

Three JSON shapes flow out of the repro pipeline and all of them can be
reported on:

* a :class:`~repro.sweep.result.SweepResult` dump (``cells`` + ``axes``)
  — CI tables quote the Student-t intervals (``ci95``), charts come from
  cell coordinates;
* a :class:`~repro.scenario.result.ScenarioResult` dump (``histories`` +
  ``metrics``) — a fault run is exactly this shape, with its violations
  and fault config along for the ride;
* anything else JSON — reported as a flat key/value table so ad-hoc
  artefacts (``BENCH_*.json``) still render.

Cache directories contribute the volatile observability sections from
``cache-stats.json`` and ``dispatch-stats.json``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.report.model import (
    Chart,
    Section,
    StatsSection,
    TableSection,
    fmt_value,
)

__all__ = [
    "cache_sections",
    "classify_payload",
    "golden_delta_table",
    "load_payload",
    "payload_sections",
    "sweep_chart",
    "sweep_ci_table",
]


# ----------------------------------------------------------------------
# Sweep sections
# ----------------------------------------------------------------------


def _cell_label(params: Mapping[str, Any], axes: Sequence[str]) -> str:
    """Compact coordinate label: only swept axes, in axis order."""
    shown = [f"{name}={fmt_value(params.get(name))}" for name in axes]
    return ", ".join(shown) if shown else "(single cell)"


def sweep_ci_table(
    sweep: Any, metrics: Optional[Sequence[str]] = None
) -> Tuple[List[str], List[List[str]]]:
    """(header, rows): one row per cell, ``mean ± ci95 (n)`` per metric.

    ``ci95`` is the Student-t 95 % half-width of
    :func:`repro.sweep.result.summarise`.
    """
    axes = list(sweep.axes)
    if metrics is None:
        # Sorted, not insertion order: the framed dispatch backends
        # round-trip cell metrics through sort_keys JSON, so insertion
        # order differs between a serial and a subprocess run of the same
        # sweep — and the markdown must be byte-identical across both.
        names = set()
        for cell in sweep.cells:
            names.update(cell.metric_names())
        metrics = sorted(names)
    header = ["cell"] + [f"{m} (±95% t)" for m in metrics]
    rows: List[List[str]] = []
    for cell in sweep.cells:
        row = [_cell_label(cell.params, axes)]
        for metric in metrics:
            try:
                stats = cell.stats(metric)
            except KeyError:
                row.append("—")
                continue
            if stats.n > 1:
                row.append(
                    f"{fmt_value(stats.mean)} ± {fmt_value(stats.ci95)} "
                    f"(n={stats.n})"
                )
            else:
                row.append(f"{fmt_value(stats.mean)} (n=1)")
        rows.append(row)
    return header, rows


def sweep_chart(
    sweep: Any,
    x: str,
    series: str,
    metric: str,
    title: str = "",
) -> Optional[Chart]:
    """A figure-style line chart: one line per ``series`` value, mean of
    ``metric`` against the ``x`` cell coordinate."""
    series_values = sweep.axes.get(series)
    x_values = sweep.axes.get(x)
    if not series_values or not x_values:
        return None
    lines: List[Tuple[str, List[Tuple[float, float]]]] = []
    for sval in series_values:
        points: List[Tuple[float, float]] = []
        for xval in x_values:
            try:
                cell = sweep.select(**{x: xval, series: sval})
                y = cell.value(metric)
            except KeyError:
                continue
            points.append((float(xval), float(y)))
        label = _series_label(series, sval)
        lines.append((label, points))
    return Chart(
        title=title or metric,
        series=lines,
        x_label=x,
        y_label=metric,
    )


def _series_label(axis: str, value: Any) -> str:
    """Protocol-aware series names: the paper's reliable-vs-semantic."""
    if axis == "semantic" and isinstance(value, bool):
        return "semantic" if value else "reliable"
    return f"{axis}={fmt_value(value)}"


# ----------------------------------------------------------------------
# Payload classification (the `python -m repro.report render` path)
# ----------------------------------------------------------------------


def load_payload(path: Any) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def classify_payload(payload: Mapping[str, Any]) -> str:
    """``"sweep"`` / ``"scenario"`` / ``"json"`` by structural shape."""
    if isinstance(payload.get("cells"), list) and "axes" in payload:
        return "sweep"
    if "histories" in payload and "metrics" in payload:
        return "scenario"
    return "json"


def payload_sections(name: str, payload: Mapping[str, Any]) -> List[Section]:
    """Sections for one loaded artefact, dispatched on its shape."""
    kind = classify_payload(payload)
    if kind == "sweep":
        return _sweep_payload_sections(name, payload)
    if kind == "scenario":
        return _scenario_sections(name, payload)
    return [_generic_json_section(name, payload)]


def _sweep_payload_sections(
    name: str, payload: Mapping[str, Any]
) -> List[Section]:
    from repro.report.model import ViolationsSection
    from repro.sweep.result import SweepResult

    sweep = SweepResult.from_dict(dict(payload))
    header, rows = sweep_ci_table(sweep)
    axes = {k: len(v) for k, v in sweep.axes.items()}
    notes = (
        f"{len(sweep.cells)} cells × {sweep.seeds} replicates "
        f"(axes: {', '.join(f'{k}[{n}]' for k, n in axes.items()) or 'none'};"
        f" base seed {sweep.base_seed})"
    )
    sections: List[Section] = [
        TableSection(
            heading=f"{name} — per-cell statistics",
            header=header,
            rows=rows,
            notes=notes,
        )
    ]
    sections.append(
        ViolationsSection(
            heading=f"{name} — spec violations",
            violations=list(sweep.violations),
        )
    )
    return sections


def _scenario_sections(
    name: str, payload: Mapping[str, Any]
) -> List[Section]:
    from repro.report.model import ViolationsSection
    from repro.sweep.executor import flatten_metrics

    config = payload.get("config") or {}
    pairs = [
        ("seed", payload.get("seed")),
        ("processes", payload.get("n")),
        ("duration (s)", payload.get("duration")),
    ]
    for key in sorted(config):
        value = config[key]
        if isinstance(value, (str, int, float, bool)) or value is None:
            pairs.append((f"config.{key}", value))
    sections: List[Section] = [
        TableSection(
            heading=f"{name} — run configuration",
            header=["field", "value"],
            rows=[[str(k), fmt_value(v)] for k, v in pairs],
        )
    ]
    metrics = flatten_metrics(payload.get("metrics") or {})
    if metrics:
        sections.append(
            TableSection(
                heading=f"{name} — metrics",
                header=["metric", "value"],
                rows=[[k, fmt_value(v)] for k, v in sorted(metrics.items())],
            )
        )
    histories = payload.get("histories") or {}
    if histories:
        sections.append(
            TableSection(
                heading=f"{name} — delivery histories",
                header=["process", "deliveries"],
                rows=[
                    [pid, fmt_value(len(events))]
                    for pid, events in sorted(histories.items())
                ],
            )
        )
    violations = payload.get("violations")
    sections.append(
        ViolationsSection(
            heading=f"{name} — spec violations",
            violations=list(violations or []),
            checked=violations is not None,
        )
    )
    return sections


def _generic_json_section(
    name: str, payload: Mapping[str, Any]
) -> TableSection:
    rows = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (dict, list)):
            rows.append([key, f"<{type(value).__name__}[{len(value)}]>"])
        else:
            rows.append([key, fmt_value(value)])
    return TableSection(
        heading=f"{name} — document",
        header=["field", "value"],
        rows=rows,
    )


# ----------------------------------------------------------------------
# Golden-fixture deltas
# ----------------------------------------------------------------------


def golden_delta_table(
    header: Sequence[str],
    golden_rows: Sequence[Sequence[Any]],
    measured_rows: Sequence[Sequence[Any]],
) -> Tuple[List[str], List[List[str]], bool]:
    """(header, rows, identical): measured vs golden with per-column Δ.

    Rows are aligned positionally (figure tables are ordered by their x
    coordinate).  Numeric cells report ``measured (Δ=…)`` when they
    drifted; non-numeric cells just flag inequality.
    """
    out_header = [str(h) for h in header] + ["vs golden"]
    out_rows: List[List[str]] = []
    identical = True
    count = max(len(golden_rows), len(measured_rows))
    for i in range(count):
        golden = list(golden_rows[i]) if i < len(golden_rows) else None
        measured = list(measured_rows[i]) if i < len(measured_rows) else None
        if golden is None or measured is None:
            identical = False
            row = [fmt_value(v) for v in (measured or golden or [])]
            row += [""] * (len(out_header) - 1 - len(row))
            row.append("missing row" if measured is None else "extra row")
            out_rows.append(row)
            continue
        cells: List[str] = []
        drift: List[str] = []
        for j, m in enumerate(measured):
            g = golden[j] if j < len(golden) else None
            cells.append(fmt_value(m))
            if isinstance(m, (int, float)) and isinstance(g, (int, float)):
                if float(m) != float(g):
                    identical = False
                    drift.append(
                        f"{header[j] if j < len(header) else j}: "
                        f"Δ={fmt_value(float(m) - float(g))}"
                    )
            elif m != g:
                identical = False
                drift.append(f"{header[j] if j < len(header) else j}: ≠")
        cells.append("; ".join(drift) if drift else "=")
        out_rows.append(cells)
    return out_header, out_rows, identical


# ----------------------------------------------------------------------
# Cache-dir observability (volatile sections)
# ----------------------------------------------------------------------


def cache_sections(path: Any) -> List[Section]:
    """Volatile sections for one cache dir: shard inventory + recorded
    hit/miss counters, then per-backend dispatch aggregates and the last
    run's per-worker table (the ``repro-sweep stats`` data, in report
    form)."""
    from repro.sweep.cache import cache_stats
    from repro.sweep.dispatch import load_dispatch_stats

    root = pathlib.Path(path)
    sections: List[Section] = []
    stats = cache_stats(root)
    counters = stats["counters"]
    rate = stats["hit_rate"]
    sections.append(
        StatsSection(
            heading="Sweep cache",
            pairs=[
                ("directory", str(root)),
                ("shards", fmt_value(stats["shards"])),
                ("bytes", fmt_value(stats["bytes"])),
                ("stale shards", fmt_value(stats["stale_shards"])),
                ("recorded runs", fmt_value(counters["runs"])),
                ("hits", fmt_value(counters["hits"])),
                ("misses", fmt_value(counters["misses"])),
                ("stores", fmt_value(counters["stores"])),
                ("corrupt", fmt_value(counters["corrupt"])),
                ("hit rate", f"{rate:.1%}" if rate is not None else "n/a"),
            ],
        )
    )
    runs = load_dispatch_stats(root).get("runs", [])
    if runs:
        by_backend: Dict[str, Dict[str, Any]] = {}
        for run in runs:
            agg = by_backend.setdefault(
                str(run.get("backend", "?")),
                {"runs": 0, "dispatched": 0, "stolen": 0, "reissued": 0,
                 "duplicates": 0, "wall_s": 0.0},
            )
            agg["runs"] += 1
            for key in ("dispatched", "stolen", "reissued", "duplicates"):
                agg[key] += int(run.get(key, 0))
            agg["wall_s"] += float(run.get("wall_s", 0.0))
        table = TableSection(
            heading="Dispatch backends",
            header=["backend", "runs", "dispatched", "stolen", "re-issued",
                    "duplicates", "wall (s)"],
            rows=[
                [
                    backend,
                    fmt_value(agg["runs"]),
                    fmt_value(agg["dispatched"]),
                    fmt_value(agg["stolen"]),
                    fmt_value(agg["reissued"]),
                    fmt_value(agg["duplicates"]),
                    f"{agg['wall_s']:.2f}",
                ]
                for backend, agg in sorted(by_backend.items())
            ],
        )
        last = runs[-1]
        pairs = [
            ("last backend", str(last.get("backend", "?"))),
            ("last wall (s)", f"{float(last.get('wall_s', 0.0)):.2f}"),
            ("cells total", fmt_value(last.get("cells_total", 0))),
            ("cells cached", fmt_value(last.get("cells_cached", 0))),
        ]
        section = StatsSection(
            heading="Dispatch stats", pairs=pairs, table=table
        )
        sections.append(section)
        per_worker = last.get("per_worker") or {}
        if per_worker:
            sections.append(
                StatsSection(
                    heading="Last dispatch — per worker",
                    pairs=[],
                    table=TableSection(
                        heading="per worker",
                        header=["worker", "cells", "busy (s)", "wall (s)",
                                "crashed"],
                        rows=[
                            [
                                label,
                                fmt_value(w.get("cells", 0)),
                                f"{float(w.get('busy_s', 0.0)):.2f}",
                                f"{float(w.get('wall_s', 0.0)):.2f}",
                                "yes" if w.get("crashed") else "no",
                            ]
                            for label, w in sorted(per_worker.items())
                        ],
                    ),
                )
            )
    return sections
