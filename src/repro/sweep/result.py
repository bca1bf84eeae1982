"""Aggregated sweep results with a stable JSON form.

:class:`SweepResult` mirrors :class:`~repro.scenario.result.ScenarioResult`
one level up: where a scenario result captures one run, a sweep result
captures a whole grid — per-cell parameter coordinates, every replicate's
flattened scalar metrics (plus any invariant violations), and mean /
standard deviation / 95 % confidence interval per metric.  ``to_json`` /
``from_json`` round-trip losslessly so sweeps can be archived next to
``BENCH_*.json`` artefacts and diffed across refactors.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "SCHEMA_VERSION",
    "CellRun",
    "CellResult",
    "SweepResult",
    "MetricStats",
    "summarise",
    "t_critical",
]

SCHEMA_VERSION = 1

#: Two-sided 95 % Student-t critical values by degrees of freedom.  At the
#: 3–5 replicates a sweep typically runs, the normal z=1.96 understates the
#: interval badly (df=2 needs 4.303, more than double); scipy is not a
#: dependency, so the standard table is inlined.  Entries above df=30 step
#: down through the usual printed rows and converge on z at infinity.
_T_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
    40: 2.021, 60: 2.000, 120: 1.980,
}

#: Large-sample limit: the normal z value.
_Z_95 = 1.96


def t_critical(df: int) -> float:
    """Two-sided 95 % Student-t critical value for ``df`` degrees of freedom.

    Exact table value for df ≤ 30; between tabulated rows (31–120) the
    value of the *largest tabulated df not exceeding* the request is used —
    rounding df down makes the interval conservative (never narrower than
    the true t interval).  Beyond 120 the normal limit 1.96 applies.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1: {df}")
    if df in _T_95:
        return _T_95[df]
    if df > 120:
        return _Z_95
    return _T_95[max(d for d in _T_95 if d <= df)]


@dataclass
class MetricStats:
    """Mean/CI summary of one metric across a cell's replicates.

    ``ci95`` is the 95 % half-width using the Student-t critical value at
    n-1 degrees of freedom — correct at the 3–5 replicates sweeps
    typically run, where the normal z=1.96 would understate it.
    """

    mean: float
    std: float
    ci95: float
    n: int
    min: float
    max: float


def summarise(values: List[float]) -> MetricStats:
    """Sample statistics with the Student-t 95 % interval."""
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        std = math.sqrt(variance)
        ci95 = t_critical(n - 1) * std / math.sqrt(n)
    else:
        std = 0.0
        ci95 = 0.0
    return MetricStats(
        mean=mean, std=std, ci95=ci95, n=n, min=min(values), max=max(values)
    )


_MISSING = object()


def _lookup(params: Mapping[str, Any], key: str) -> Any:
    """A parameter by flat key, falling back to dotted-path descent."""
    if key in params:
        return params[key]
    current: Any = params
    for part in key.split("."):
        if not isinstance(current, Mapping) or part not in current:
            return _MISSING
        current = current[part]
    return current


@dataclass
class CellRun:
    """One replicate of one cell."""

    replicate: int
    seed: int
    metrics: Dict[str, float]
    violations: List[str] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None
    """Full result payload (e.g. a ScenarioResult dict) when the sweep ran
    with ``keep_results=True``; None otherwise."""

    def to_dict(self) -> Dict[str, Any]:
        """The run as a JSON-encodable dict — the shard payload format of
        :mod:`repro.sweep.cache` and the per-run shape inside
        :meth:`SweepResult.to_dict`."""
        return {
            "replicate": self.replicate,
            "seed": self.seed,
            "metrics": self.metrics,
            "violations": self.violations,
            "result": self.result,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellRun":
        return cls(
            replicate=data["replicate"],
            seed=data["seed"],
            metrics=data["metrics"],
            violations=data.get("violations", []),
            result=data.get("result"),
        )


@dataclass
class CellResult:
    """One grid cell: parameters plus every replicate run."""

    params: Dict[str, Any]
    runs: List[CellRun]

    @property
    def ok(self) -> bool:
        return not any(run.violations for run in self.runs)

    @property
    def violations(self) -> List[str]:
        return [v for run in self.runs for v in run.violations]

    def metric_names(self) -> List[str]:
        names: List[str] = []
        for run in self.runs:
            for name in run.metrics:
                if name not in names:
                    names.append(name)
        return names

    def stats(self, metric: str) -> MetricStats:
        values = [
            run.metrics[metric] for run in self.runs if metric in run.metrics
        ]
        if not values:
            known = ", ".join(self.metric_names()) or "<none>"
            raise KeyError(f"no metric {metric!r} in cell (known: {known})")
        return summarise(values)

    def value(self, metric: str) -> float:
        """Mean of ``metric`` across replicates."""
        return self.stats(metric).mean

    def matches(self, coords: Mapping[str, Any]) -> bool:
        """True when every coordinate equals the cell's parameter.

        Dotted coordinates descend into nested parameters, mirroring how
        dotted axes are expanded by the grid: a cell swept with
        ``axis("latency_params.mean", ...)`` is addressed as
        ``select(**{"latency_params.mean": 0.002})``.
        """
        return all(
            _lookup(self.params, key) == value for key, value in coords.items()
        )


@dataclass
class SweepResult:
    """Everything one sweep produced."""

    base: Dict[str, Any]
    axes: Dict[str, List[Any]]
    seeds: int
    base_seed: int
    cells: List[CellResult]
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True when no replicate of any cell recorded a violation."""
        return all(cell.ok for cell in self.cells)

    @property
    def violations(self) -> List[str]:
        return [v for cell in self.cells for v in cell.violations]

    @property
    def n_runs(self) -> int:
        return sum(len(cell.runs) for cell in self.cells)

    def select(self, **coords: Any) -> CellResult:
        """The unique cell whose parameters match every given coordinate."""
        matching = [cell for cell in self.cells if cell.matches(coords)]
        if not matching:
            raise KeyError(f"no cell matches {coords!r}")
        if len(matching) > 1:
            raise KeyError(
                f"{len(matching)} cells match {coords!r}; add coordinates"
            )
        return matching[0]

    def column(self, metric: str, **coords: Any) -> List[Any]:
        """``(params, mean)`` pairs of one metric over matching cells."""
        return [
            (cell.params, cell.value(metric))
            for cell in self.cells
            if cell.matches(coords)
        ]

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        for cell, raw in zip(self.cells, data["cells"]):
            raw["stats"] = {
                name: asdict(cell.stats(name)) for name in cell.metric_names()
            }
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepResult":
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported SweepResult schema version: {version}")
        cells = [
            CellResult(
                params=raw["params"],
                runs=[CellRun.from_dict(run) for run in raw["runs"]],
            )
            for raw in data["cells"]
        ]
        return cls(
            base=data["base"],
            axes=data["axes"],
            seeds=data["seeds"],
            base_seed=data["base_seed"],
            cells=cells,
            schema_version=version,
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        return cls.from_dict(json.loads(text))

    @classmethod
    def read_json(cls, path: str) -> "SweepResult":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
