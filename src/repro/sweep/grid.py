"""Declarative parameter grids over experiment cells.

A :class:`Sweep` is the cartesian product of named axes laid over a dict of
fixed base parameters — the shape behind every figure of the paper's
evaluation (load × latency × buffer-size grids).  It owns nothing about
*how* a cell runs; it enumerates cells in a deterministic order and derives
one deterministic seed per (cell, replicate) pair, so the same sweep
produces byte-identical results whether executed serially or farmed out to
a process pool (see :mod:`repro.sweep.executor`).

Axis names may be dotted paths (``"latency_params.mean"``): the path is
expanded into nested dicts when the cell parameters are materialised, which
makes any nested builder parameter sweepable without special cases.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = ["Sweep", "SweepError", "canonical_params", "derive_seed"]


class SweepError(ValueError):
    """An inconsistent or invalid sweep specification."""


def canonical_params(params: Mapping[str, Any]) -> str:
    """A canonical JSON encoding of cell parameters.

    Stable across processes, platforms and axis declaration order — the
    substrate of :func:`derive_seed` and of cell identity in results.
    Values must be JSON-encodable; anything else (objects, traces) belongs
    in the executor's ``context``, not in the grid.
    """
    try:
        return json.dumps(params, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise SweepError(
            f"cell parameters must be JSON-encodable for deterministic "
            f"seed derivation (pass runtime objects via context=): {exc}"
        ) from None


def derive_seed(base_seed: int, params: Mapping[str, Any], replicate: int) -> int:
    """Deterministic per-run seed from (base seed, cell identity, replicate).

    Hash-based rather than counter-based so the seed of a cell does not
    depend on its position in the grid: adding an axis value or reordering
    axes never silently reseeds unrelated cells.
    """
    material = f"{base_seed}|{canonical_params(params)}|{replicate}"
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


def _deep_set(target: Dict[str, Any], path: str, value: Any) -> None:
    """Set ``a.b.c`` into nested dicts, copying intermediate levels so the
    base mapping shared across cells is never mutated."""
    keys = path.split(".")
    for key in keys[:-1]:
        existing = target.get(key)
        if existing is None:
            existing = {}
        elif isinstance(existing, dict):
            existing = dict(existing)
        else:
            raise SweepError(
                f"axis {path!r} descends through non-dict parameter {key!r}"
            )
        target[key] = existing
        target = existing
    target[keys[-1]] = value


class Sweep:
    """A grid of experiment cells: fixed ``base`` parameters × named axes.

    ::

        sweep = (
            Sweep(base={"buffer_size": 15}, seeds=3)
            .axis("consumer_rate", [20, 40, 80])
            .axis("semantic", [False, True])
        )
        result = sweep.run(cell_fn, workers=4, context=trace)

    ``seeds`` is the number of replicates per cell; each replicate receives
    its own seed from :func:`derive_seed`.  Cells are enumerated in the
    cartesian-product order of axis declaration.
    """

    def __init__(
        self,
        base: Optional[Mapping[str, Any]] = None,
        axes: Optional[Mapping[str, Sequence[Any]]] = None,
        seeds: int = 1,
        base_seed: int = 0,
    ) -> None:
        if seeds < 1:
            raise SweepError(f"seeds must be at least 1: {seeds}")
        self.base: Dict[str, Any] = dict(base or {})
        self.seeds = seeds
        self.base_seed = base_seed
        self.axes: Dict[str, List[Any]] = {}
        for name, values in (axes or {}).items():
            self.axis(name, values)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def axis(self, name: str, values: Iterable[Any]) -> "Sweep":
        """Add an axis; ``name`` may be a dotted path into nested params."""
        if not name or not isinstance(name, str):
            raise SweepError(f"invalid axis name: {name!r}")
        if name in self.axes:
            raise SweepError(f"duplicate axis: {name!r}")
        materialised = list(values)
        if not materialised:
            raise SweepError(f"axis {name!r} has no values")
        canonical_params({"values": materialised})  # fail fast on objects
        self.axes[name] = materialised
        return self

    def fixed(self, **params: Any) -> "Sweep":
        """Merge fixed parameters shared by every cell."""
        self.base.update(params)
        return self

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    @property
    def n_runs(self) -> int:
        return self.n_cells * self.seeds

    def cells(self) -> List[Dict[str, Any]]:
        """Every cell's materialised parameters, in deterministic order.

        Dotted axis names are expanded into nested dicts here; plain names
        simply override base keys.
        """
        names = list(self.axes)
        combos = itertools.product(*(self.axes[name] for name in names))
        out: List[Dict[str, Any]] = []
        for combo in combos:
            params = dict(self.base)
            for name, value in zip(names, combo):
                if "." in name:
                    _deep_set(params, name, value)
                else:
                    params[name] = value
            out.append(params)
        return out

    def coordinates(self) -> List[Dict[str, Any]]:
        """Axis values only (no base merge), one dict per cell — the
        cell's position in the grid, aligned with :meth:`cells`."""
        names = list(self.axes)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self.axes[name] for name in names))
        ]

    def seeds_for(self, params: Mapping[str, Any]) -> List[int]:
        """The replicate seeds of one cell."""
        return [
            derive_seed(self.base_seed, params, replicate)
            for replicate in range(self.seeds)
        ]

    def dirty_cells(self, cache, runner, context=None):
        """Partition the grid into (cached, dirty) cell-parameter lists.

        A cell is *cached* when every one of its replicates has a valid
        shard in ``cache`` (a :class:`~repro.sweep.cache.SweepCache` or a
        directory path) under the current code fingerprint, ``runner``
        and ``context``; otherwise it is *dirty* and a
        :func:`~repro.sweep.executor.run_sweep` call would recompute at
        least one of its replicates.  Probing does not perturb the
        cache's hit/miss counters.
        """
        from repro.sweep.cache import SweepCache, context_token

        if not isinstance(cache, SweepCache):
            cache = SweepCache(cache)
        ctx_tok = context_token(context)
        cached: List[Dict[str, Any]] = []
        dirty: List[Dict[str, Any]] = []
        for params in self.cells():
            complete = all(
                cache.contains(runner, params, replicate, seed, ctx_tok)
                for replicate, seed in enumerate(self.seeds_for(params))
            )
            (cached if complete else dirty).append(params)
        return cached, dirty

    # ------------------------------------------------------------------
    # Execution (delegates to the executor module)
    # ------------------------------------------------------------------

    def run(self, runner, **kwargs):
        """Execute every (cell, replicate) with ``runner`` and aggregate.

        See :func:`repro.sweep.executor.run_sweep` for the keyword options
        (``workers``, ``context``, ``on_violation``, ``keep_results``,
        ``progress``, ``cache``, ``chunksize``, ``dispatch``,
        ``dispatch_params``).
        """
        from repro.sweep.executor import run_sweep

        return run_sweep(self, runner, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        axes = ", ".join(f"{k}×{len(v)}" for k, v in self.axes.items())
        return (
            f"Sweep({axes or 'no axes'}, seeds={self.seeds}, "
            f"cells={self.n_cells})"
        )
