"""Pluggable dispatch backends: how a sweep's cells reach their workers.

The executor (:func:`repro.sweep.executor.run_sweep`) decides *what* runs
— cache misses, in grid order — and a **dispatch backend** decides
*where*.  Backends register on :data:`repro.registry.dispatch_backends`
exactly like latency models and transports::

    run_sweep(sweep, runner, dispatch="subprocess", workers=2)
    run_sweep(sweep, runner, dispatch="ssh",
              dispatch_params={"hostfile": "hosts.txt"})

Built-in backends:

``local-pool``
    Today's :mod:`multiprocessing` pool behind the new seam —
    byte-identical to the historical ``workers>=2`` path, now with an
    adaptive ``chunksize`` instead of the hard-coded ``1``.
``subprocess``
    Worker OS processes started as ``python -m repro.sweep.worker``,
    speaking newline-delimited JSON job/result frames over pipes —
    exactly the framing a remote host sees.
``ssh``
    The same worker protocol over ``ssh <host> python -m
    repro.sweep.worker``; peers come from a hostfile or dict with
    per-host worker counts.

Scheduling in the framed backends is cache-aware (the executor dispatches
only misses), streaming (each completed ``CellRun`` is merged into the
parent-side cache as it arrives), and straggler-resistant: the per-worker
in-flight window adapts to observed per-cell runtime, tail cells are
re-issued to idle workers, and results dedup first-wins on
(cell, replicate, seed) — safe because same-seed runs are byte-identical
by the determinism contract.  A worker that dies mid-sweep has its
in-flight cells re-queued, never lost.
"""

from __future__ import annotations

import inspect
import json
import multiprocessing
import os
import pathlib
import selectors
import shlex
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.registry import RegistryError, dispatch_backends
from repro.sweep.executor import (
    SweepCellError,
    _init_worker,
    _run_task,
    _Task,
)
from repro.sweep.grid import SweepError
from repro.sweep.result import CellRun

__all__ = [
    "DispatchBackend",
    "DispatchError",
    "DispatchJob",
    "DispatchStats",
    "LocalPoolDispatch",
    "SubprocessDispatch",
    "SshDispatch",
    "auto_chunksize",
    "context_spec",
    "parse_hostfile",
    "resolve_backend",
    "runner_path",
    "record_dispatch",
    "load_dispatch_stats",
    "DISPATCH_STATS_FILE",
]


class DispatchError(SweepError):
    """A dispatch backend failed outside any single cell (worker loss, ...)."""


# ----------------------------------------------------------------------
# Job description and run statistics
# ----------------------------------------------------------------------


@dataclass
class DispatchJob:
    """Everything a backend needs to run one sweep's pending cells.

    ``emit(index, cell_index, run)`` is called in the parent exactly once
    per task, as results arrive — the executor's cache-merge / invariant
    hook.  Task order inside ``tasks`` is grid order; backends may
    complete them in any order.
    """

    tasks: List[_Task]
    runner: Callable[..., Any]
    context: Any
    keep_results: bool
    emit: Callable[[int, int, CellRun], None]


@dataclass
class DispatchStats:
    """What a backend did, for ``repro-sweep stats`` post-mortems."""

    backend: str
    workers: int
    dispatched: int = 0  #: job frames issued, speculative copies included
    completed: int = 0  #: first-wins results recorded
    stolen: int = 0  #: speculative re-issues of tail cells to idle workers
    reissued: int = 0  #: unfinished cells lost to a worker crash (redone)
    duplicates: int = 0  #: late copies discarded by first-result-wins
    wall_s: float = 0.0
    chunksize: Optional[int] = None  #: local-pool only
    window: Optional[int] = None  #: framed backends: final adaptive window
    per_worker: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "backend": self.backend,
            "workers": self.workers,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "stolen": self.stolen,
            "reissued": self.reissued,
            "duplicates": self.duplicates,
            "wall_s": round(self.wall_s, 6),
        }
        if self.chunksize is not None:
            out["chunksize"] = self.chunksize
        if self.window is not None:
            out["window"] = self.window
        if self.per_worker:
            out["per_worker"] = self.per_worker
        return out


class DispatchBackend:
    """Base class: run a :class:`DispatchJob`, record :class:`DispatchStats`."""

    name = "base"

    def __init__(self) -> None:
        self.stats: Optional[DispatchStats] = None

    def execute(self, job: DispatchJob) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


# ----------------------------------------------------------------------
# Portable runner / context descriptions for framed backends
# ----------------------------------------------------------------------


def runner_path(runner: Callable[..., Any]) -> str:
    """``"module:qualname"`` of a runner, validated importable for workers."""
    module = getattr(runner, "__module__", None)
    qualname = getattr(runner, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname or "<lambda>" in qualname:
        raise SweepError(
            f"runner {runner!r} is not importable (module-level functions "
            f"only); dispatch workers re-import runners by dotted path"
        )
    return f"{module}:{qualname}"


def context_spec(context: Any) -> Optional[Dict[str, Any]]:
    """The wire description a worker uses to rebuild ``context`` locally.

    Objects may advertise their own spec through a ``worker_recipe()``
    method (a :class:`~repro.workload.trace.Trace` built by a registered
    workload does); otherwise any JSON-encodable context travels verbatim
    as ``{"kind": "json"}``.  Anything else is rejected up front with a
    :class:`~repro.sweep.grid.SweepError` naming the fix.
    """
    if context is None:
        return None
    recipe = getattr(context, "worker_recipe", None)
    if callable(recipe):
        spec = recipe()
        if spec is not None:
            return spec
    try:
        encoded = json.dumps(context)
    except (TypeError, ValueError):
        raise SweepError(
            f"context {type(context).__name__} is not portable to dispatch "
            f"workers: give it a worker_recipe() returning a context spec "
            f"(see repro.sweep.worker), or pass a JSON-encodable context"
        ) from None
    return {"kind": "json", "data": json.loads(encoded)}


def auto_chunksize(n_tasks: int, workers: int) -> int:
    """Pool chunk size aiming at ~4 chunks per worker, clamped to [1, 32].

    Small enough that a straggler chunk cannot hold more than a quarter
    of one worker's share, large enough that per-chunk IPC stops
    dominating micro-cells (the historical ``chunksize=1`` cost one pickle
    round trip per cell).
    """
    if n_tasks <= 0 or workers <= 0:
        return 1
    return max(1, min(32, n_tasks // (workers * 4) or 1))


# ----------------------------------------------------------------------
# local-pool: the historical multiprocessing path behind the seam
# ----------------------------------------------------------------------


@dispatch_backends.register("local-pool", aliases=("pool", "multiprocessing"))
class LocalPoolDispatch(DispatchBackend):
    """Fan cells out to a :mod:`multiprocessing` pool on this host.

    ``chunksize=None``/``"auto"`` sizes chunks from the task count via
    :func:`auto_chunksize`; an integer pins it (``1`` reproduces the
    historical scheduling exactly).  Output is byte-identical either way
    — results are reassembled in grid order.
    """

    name = "local-pool"

    def __init__(
        self,
        workers: Optional[int] = None,
        chunksize: Union[int, str, None] = None,
    ) -> None:
        super().__init__()
        self.workers = max(1, int(workers) if workers else 2)
        self.chunksize = chunksize

    def execute(self, job: DispatchJob) -> None:
        chunk = self.chunksize
        if chunk is None or chunk == "auto":
            chunk = auto_chunksize(len(job.tasks), self.workers)
        chunk = max(1, int(chunk))
        stats = DispatchStats(
            backend=self.name, workers=self.workers, chunksize=chunk
        )
        self.stats = stats
        started = time.perf_counter()
        with multiprocessing.get_context().Pool(
            processes=self.workers,
            initializer=_init_worker,
            initargs=(job.runner, job.context, job.keep_results),
        ) as pool:
            try:
                for index, cell_index, run in pool.imap_unordered(
                    _run_task, job.tasks, chunksize=chunk
                ):
                    stats.completed += 1
                    job.emit(index, cell_index, run)
            except Exception:
                pool.terminate()
                raise
            finally:
                stats.dispatched = len(job.tasks)
                stats.wall_s = time.perf_counter() - started


# ----------------------------------------------------------------------
# Framed backends: the repro.sweep.worker protocol over pipes / ssh
# ----------------------------------------------------------------------


class _Worker:
    """Parent-side handle on one framed worker process."""

    __slots__ = (
        "label", "proc", "buf", "inflight", "ready", "closing",
        "started", "ended", "crashed", "cells", "busy_s", "dead",
    )

    def __init__(self, label: str, proc: subprocess.Popen) -> None:
        self.label = label
        self.proc = proc
        self.buf = b""
        self.inflight: Set[int] = set()
        self.ready = False
        self.closing = False
        self.started = time.perf_counter()
        self.ended: Optional[float] = None
        self.crashed = False
        self.cells = 0
        self.busy_s = 0.0
        self.dead = False


class FramedDispatch(DispatchBackend):
    """Shared engine for backends that speak the NDJSON worker protocol.

    Subclasses provide :meth:`_worker_specs` — the argv (and env) of each
    worker process — and this class runs the scheduling loop: adaptive
    per-worker in-flight windows sized from an EMA of observed per-cell
    runtime (``pipeline_budget`` seconds of work in flight per worker),
    work stealing for tail cells (at most ``max_copies`` concurrent
    copies of a cell), first-result-wins dedup, and crash re-queue.
    """

    name = "framed"

    #: In-flight work (seconds, per worker) the adaptive window targets.
    pipeline_budget = 0.05
    #: Hard cap on the in-flight window.
    max_window = 16

    def __init__(self, max_copies: int = 2) -> None:
        super().__init__()
        self.workers = 0
        self.max_copies = max(1, int(max_copies))

    def _worker_specs(
        self,
    ) -> List[Tuple[str, List[str], Optional[Dict[str, str]]]]:
        raise NotImplementedError  # pragma: no cover - abstract

    # -- frame I/O ------------------------------------------------------

    def _send(self, worker: _Worker, frame: Mapping[str, Any]) -> bool:
        try:
            assert worker.proc.stdin is not None
            worker.proc.stdin.write(
                (json.dumps(frame, sort_keys=True) + "\n").encode("utf-8")
            )
            worker.proc.stdin.flush()
            return True
        except (BrokenPipeError, OSError):
            return False

    # -- the scheduling loop -------------------------------------------

    def execute(self, job: DispatchJob) -> None:
        # Imported lazily so ``python -m repro.sweep.worker`` does not see
        # the worker module pre-imported by the package (runpy warning).
        from repro.sweep.worker import PROTOCOL

        stats = DispatchStats(backend=self.name, workers=0)
        self.stats = stats
        if not job.tasks:
            return
        hello = {
            "type": "hello",
            "protocol": PROTOCOL,
            "runner": runner_path(job.runner),
            "context": context_spec(job.context),
            "keep_results": job.keep_results,
        }
        tasks_by_id: Dict[int, _Task] = {t[0]: t for t in job.tasks}
        unfinished: Set[int] = set(tasks_by_id)
        pending: deque = deque(sorted(tasks_by_id))
        assigned: Dict[int, Set[str]] = {tid: set() for tid in tasks_by_id}

        specs = self._worker_specs()
        if not specs:
            raise DispatchError(f"{self.name} backend has no workers configured")
        stats.workers = self.workers = len(specs)

        started = time.perf_counter()
        ema: Optional[float] = None
        window = 2
        sel = selectors.DefaultSelector()
        workers: List[_Worker] = []

        def mark_dead(w: _Worker) -> None:
            if w.dead:
                return
            w.dead = True
            w.ended = time.perf_counter()
            try:
                sel.unregister(w.proc.stdout)
            except (KeyError, ValueError):
                pass
            if not w.closing:
                w.crashed = True
                for tid in w.inflight:
                    assigned[tid].discard(w.label)
                    if tid in unfinished:
                        # The crashed copy's work must be redone; requeue
                        # unless a stolen copy is already running elsewhere.
                        stats.reissued += 1
                        if not assigned[tid]:
                            pending.appendleft(tid)
            w.inflight.clear()

        def next_task(w: _Worker) -> Optional[int]:
            while pending:
                tid = pending.popleft()
                if tid in unfinished:
                    return tid
            # Queue drained: steal a tail cell another worker is still
            # chewing on (bounded copies; first result wins).
            candidates = [
                tid
                for tid in unfinished
                if w.label not in assigned[tid]
                and len(assigned[tid]) < self.max_copies
            ]
            if not candidates:
                return None
            tid = min(candidates, key=lambda t: (len(assigned[t]), t))
            stats.stolen += 1
            return tid

        def issue(w: _Worker) -> None:
            while w.ready and not w.closing and len(w.inflight) < window:
                tid = next_task(w)
                if tid is None:
                    return
                _, _, params, replicate, seed = tasks_by_id[tid]
                ok = self._send(w, {
                    "type": "job", "id": tid, "params": params,
                    "replicate": replicate, "seed": seed,
                })
                if not ok:
                    pending.appendleft(tid)
                    mark_dead(w)
                    return
                assigned[tid].add(w.label)
                w.inflight.add(tid)
                stats.dispatched += 1

        def handle(w: _Worker, frame: Mapping[str, Any]) -> None:
            nonlocal ema, window
            ftype = frame.get("type")
            if ftype == "ready":
                w.ready = True
                return
            if ftype == "result":
                tid = frame["id"]
                w.inflight.discard(tid)
                elapsed = float(frame.get("elapsed") or 0.0)
                ema = elapsed if ema is None else 0.7 * ema + 0.3 * elapsed
                window = max(
                    1,
                    min(self.max_window,
                        int(self.pipeline_budget / max(ema, 1e-9))),
                )
                if tid not in unfinished:
                    stats.duplicates += 1
                    return
                unfinished.discard(tid)
                w.cells += 1
                w.busy_s += elapsed
                stats.completed += 1
                index, cell_index, _, _, _ = tasks_by_id[tid]
                job.emit(index, cell_index, CellRun.from_dict(frame["run"]))
                return
            if ftype == "error":
                tid = frame.get("id")
                w.inflight.discard(tid)
                if tid in unfinished:
                    raise SweepCellError(
                        str(frame.get("error")),
                        params=frame.get("params"),
                        replicate=frame.get("replicate"),
                        seed=frame.get("seed"),
                    )
                return
            if ftype == "fatal":
                raise DispatchError(
                    f"worker {w.label} failed: {frame.get('error')}"
                )
            raise DispatchError(
                f"worker {w.label} sent unknown frame type {ftype!r}"
            )

        def drain(w: _Worker) -> None:
            assert w.proc.stdout is not None
            try:
                chunk = w.proc.stdout.read1(65536)
            except (OSError, ValueError):
                chunk = b""
            if not chunk:
                mark_dead(w)
                return
            w.buf += chunk
            while b"\n" in w.buf:
                line, w.buf = w.buf.split(b"\n", 1)
                if line.strip():
                    handle(w, json.loads(line))

        try:
            for label, argv, env in specs:
                proc = subprocess.Popen(
                    argv,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    env=env,
                )
                w = _Worker(label, proc)
                workers.append(w)
                sel.register(proc.stdout, selectors.EVENT_READ, w)
                if not self._send(w, hello):
                    mark_dead(w)

            while unfinished:
                live = [w for w in workers if not w.dead]
                if not live:
                    raise DispatchError(
                        f"{self.name}: all {len(workers)} workers exited "
                        f"with {len(unfinished)} cells unfinished"
                    )
                for w in live:
                    issue(w)
                for key, _ in sel.select(timeout=0.05):
                    drain(key.data)
                for w in workers:
                    if not w.dead and w.proc.poll() is not None:
                        drain(w)  # pick up any final buffered frames
                        mark_dead(w)

            # Orderly shutdown: duplicates still in flight are abandoned.
            for w in workers:
                if not w.dead:
                    w.closing = True
                    self._send(w, {"type": "shutdown"})
                    try:
                        assert w.proc.stdin is not None
                        w.proc.stdin.close()
                    except OSError:
                        pass
            for w in workers:
                if w.proc.poll() is None:
                    try:
                        w.proc.wait(timeout=5)
                    except subprocess.TimeoutExpired:
                        w.proc.kill()
                        w.proc.wait()
                if w.ended is None:
                    w.ended = time.perf_counter()
        finally:
            for w in workers:
                if w.proc.poll() is None:
                    w.proc.kill()
                    w.proc.wait()
                for stream in (w.proc.stdin, w.proc.stdout):
                    if stream is not None:
                        try:
                            stream.close()
                        except OSError:
                            pass
            sel.close()
            stats.wall_s = time.perf_counter() - started
            stats.window = window
            end = time.perf_counter()
            stats.per_worker = {
                w.label: {
                    "cells": w.cells,
                    "busy_s": round(w.busy_s, 6),
                    "wall_s": round((w.ended or end) - w.started, 6),
                    "crashed": w.crashed,
                }
                for w in workers
            }


def _repro_src_root() -> str:
    import repro

    return str(pathlib.Path(repro.__file__).resolve().parents[1])


@dispatch_backends.register("subprocess", aliases=("worker",))
class SubprocessDispatch(FramedDispatch):
    """Framed workers as local OS processes: ``python -m repro.sweep.worker``.

    The same frames a remote host would see, minus the network — the
    reference implementation (and CI stand-in) for multi-host dispatch.
    """

    name = "subprocess"

    def __init__(
        self,
        workers: Optional[int] = None,
        python: Optional[str] = None,
        max_copies: int = 2,
    ) -> None:
        super().__init__(max_copies=max_copies)
        self.n_workers = max(1, int(workers) if workers else 2)
        self.python = python or sys.executable

    def _worker_specs(self):
        env = dict(os.environ)
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = _repro_src_root() + (
            os.pathsep + extra if extra else ""
        )
        argv = [self.python, "-u", "-m", "repro.sweep.worker"]
        return [(f"local/{i}", list(argv), env) for i in range(self.n_workers)]


def parse_hostfile(path: Union[str, pathlib.Path]) -> Dict[str, int]:
    """``host [workers]`` per line; ``#`` comments; returns ordered counts."""
    hosts: Dict[str, int] = {}
    for lineno, raw in enumerate(
        pathlib.Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) > 2:
            raise SweepError(
                f"{path}:{lineno}: expected 'host [workers]', got {raw!r}"
            )
        count = 1
        if len(parts) == 2:
            try:
                count = int(parts[1])
            except ValueError:
                raise SweepError(
                    f"{path}:{lineno}: worker count must be an integer, "
                    f"got {parts[1]!r}"
                ) from None
            if count < 1:
                raise SweepError(
                    f"{path}:{lineno}: worker count must be >= 1, got {count}"
                )
        hosts[parts[0]] = hosts.get(parts[0], 0) + count
    if not hosts:
        raise SweepError(f"hostfile {path} names no hosts")
    return hosts


@dispatch_backends.register("ssh")
class SshDispatch(FramedDispatch):
    """Framed workers over ``ssh <host> python -m repro.sweep.worker``.

    ``hosts`` is a mapping ``{host: workers}`` (or a sequence of host
    names, one worker each); ``hostfile`` reads the same from a file.
    ``pythonpath`` / ``cwd`` locate the package on the remote side and
    default to this checkout's ``src`` root — correct for
    ssh-to-localhost, override for real remote hosts.  ``ssh`` names the
    client binary (tests substitute a shim) and ``ssh_args`` extends the
    default non-interactive ``-o BatchMode=yes``.
    """

    name = "ssh"

    def __init__(
        self,
        hosts: Union[Mapping[str, int], Sequence[str], None] = None,
        hostfile: Union[str, pathlib.Path, None] = None,
        python: str = "python3",
        pythonpath: Optional[str] = None,
        cwd: Optional[str] = None,
        ssh: str = "ssh",
        ssh_args: Sequence[str] = ("-o", "BatchMode=yes"),
        max_copies: int = 2,
    ) -> None:
        super().__init__(max_copies=max_copies)
        if hosts is None and hostfile is None:
            raise SweepError("ssh dispatch needs hosts= or hostfile=")
        if hostfile is not None:
            counts = parse_hostfile(hostfile)
            if hosts is not None:
                raise SweepError("pass hosts= or hostfile=, not both")
        elif isinstance(hosts, Mapping):
            counts = {str(h): int(n) for h, n in hosts.items()}
        else:
            counts = {}
            for h in hosts or ():
                counts[str(h)] = counts.get(str(h), 0) + 1
        if not counts or any(n < 1 for n in counts.values()):
            raise SweepError(f"ssh dispatch host counts must be >= 1: {counts!r}")
        self.hosts = counts
        self.python = python
        self.pythonpath = pythonpath if pythonpath is not None else _repro_src_root()
        self.cwd = cwd
        self.ssh = ssh
        self.ssh_args = list(ssh_args)

    def _remote_command(self) -> str:
        parts = []
        if self.cwd:
            parts.append(f"cd {shlex.quote(self.cwd)}")
        run = f"{shlex.quote(self.python)} -u -m repro.sweep.worker"
        if self.pythonpath:
            run = f"PYTHONPATH={shlex.quote(self.pythonpath)} {run}"
        parts.append(run)
        return " && ".join(parts)

    def _worker_specs(self):
        remote = self._remote_command()
        specs = []
        for host, count in self.hosts.items():
            for slot in range(count):
                argv = [self.ssh, *self.ssh_args, host, remote]
                specs.append((f"{host}/{slot}", argv, None))
        return specs


# ----------------------------------------------------------------------
# Resolution from run_sweep(dispatch=...) and the stats trail
# ----------------------------------------------------------------------


def resolve_backend(
    dispatch: Union[str, DispatchBackend],
    workers: Optional[int] = None,
    chunksize: Union[int, str, None] = None,
    params: Optional[Mapping[str, Any]] = None,
) -> DispatchBackend:
    """Turn ``run_sweep``'s ``dispatch=`` argument into a backend instance.

    A backend instance passes through untouched; a registry name is
    instantiated with ``params`` plus whichever of ``workers`` /
    ``chunksize`` its factory signature accepts.
    """
    if isinstance(dispatch, DispatchBackend):
        if params:
            raise SweepError(
                "dispatch_params only applies to a named backend; "
                "configure the instance directly instead"
            )
        return dispatch
    if not isinstance(dispatch, str):
        raise SweepError(
            f"dispatch must be a backend name or DispatchBackend instance, "
            f"got {type(dispatch).__name__}"
        )
    try:
        factory = dispatch_backends.get(dispatch)
    except RegistryError as exc:
        raise SweepError(str(exc)) from None
    kwargs: Dict[str, Any] = dict(params or {})
    try:
        sig = inspect.signature(factory)
        accepted = set(sig.parameters)
        has_var = any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in sig.parameters.values()
        )
    except (TypeError, ValueError):  # pragma: no cover - C factories
        accepted, has_var = set(), True
    for key, value in (("workers", workers), ("chunksize", chunksize)):
        if value is not None and key not in kwargs and (has_var or key in accepted):
            kwargs[key] = value
    return factory(**kwargs)


DISPATCH_STATS_FILE = "dispatch-stats.json"

#: Most recent dispatch records kept per cache directory.
_STATS_KEEP = 50

#: Lockfile serializing the stats trail's read-modify-write.
_STATS_LOCK_FILE = DISPATCH_STATS_FILE + ".lock"

#: Bounded lock acquisition: retries × sleep bounds the wait at ~2 s, and
#: a lock older than this many seconds is considered abandoned (a crashed
#: writer) and broken.
_LOCK_RETRIES = 200
_LOCK_SLEEP_S = 0.01
_LOCK_STALE_S = 10.0


def load_dispatch_stats(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    """The ``dispatch-stats.json`` payload of a cache dir (empty if none)."""
    stats_path = pathlib.Path(path) / DISPATCH_STATS_FILE
    if not stats_path.is_file():
        return {"schema": 1, "runs": []}
    try:
        payload = json.loads(stats_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {"schema": 1, "runs": []}
    if not isinstance(payload, dict) or not isinstance(payload.get("runs"), list):
        return {"schema": 1, "runs": []}
    return payload


class _StatsLock:
    """``O_EXCL`` lockfile with bounded retry and stale-lock breaking.

    ``os.replace`` makes each *write* of the trail atomic, but append is a
    read-modify-write: two concurrent sweeps finishing into one cache dir
    would each read the same trail and the second ``os.replace`` silently
    drops the first's record.  Creating the lockfile with
    ``O_CREAT | O_EXCL`` is atomic on POSIX and NFS alike; a holder that
    died is detected by the lockfile's age and broken so a crashed sweep
    can never wedge the trail.  If the lock cannot be acquired within the
    retry budget the append proceeds unlocked — stats are best-effort and
    must never deadlock a sweep.
    """

    def __init__(self, root: pathlib.Path) -> None:
        self.path = root / _STATS_LOCK_FILE
        self.acquired = False

    def __enter__(self) -> "_StatsLock":
        for _ in range(_LOCK_RETRIES):
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                try:
                    age = time.time() - self.path.stat().st_mtime
                except OSError:
                    continue  # holder released between open and stat
                if age > _LOCK_STALE_S:
                    try:
                        os.unlink(self.path)
                    except OSError:
                        pass
                    continue
                time.sleep(_LOCK_SLEEP_S)
            except OSError:
                return self  # unwritable dir: fall back to unlocked append
            else:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(str(os.getpid()))
                self.acquired = True
                return self
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self.acquired:
            try:
                os.unlink(self.path)
            except OSError:
                pass


def record_dispatch(
    path: Union[str, pathlib.Path], entry: Mapping[str, Any]
) -> None:
    """Append one dispatch record to the cache dir's stats trail.

    The read-modify-write is serialized by an ``O_EXCL`` lockfile (see
    :class:`_StatsLock`), so concurrent sweeps sharing a cache directory
    append rather than overwrite each other; the trail is trimmed to the
    last :data:`_STATS_KEEP` records *after* the merge, and the final
    write is still an atomic ``os.replace``.
    """
    root = pathlib.Path(path)
    root.mkdir(parents=True, exist_ok=True)
    with _StatsLock(root):
        payload = load_dispatch_stats(root)
        payload["schema"] = 1
        payload["runs"] = (payload["runs"] + [dict(entry)])[-_STATS_KEEP:]
        stats_path = root / DISPATCH_STATS_FILE
        fd, tmp = tempfile.mkstemp(dir=root, prefix=".dispatch-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, stats_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
