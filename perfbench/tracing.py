"""Census, spans, call counts and a sampling profiler for one pass.

Everything here patches the library from the benchmark's own files; the
library itself carries no instrumentation.

* :class:`Census` -- constructor and per-run hooks that fire a few hundred
  times per pass at most.  Installed in every pass (timed too), because
  ``deliveries_per_s`` needs the networks a scenario builds internally
  and the slow-receiver runs' delivered counts.
* :class:`Tracer` -- the traced pass only.  Spans (name, start, end,
  parent) around calls into each layer's public functions; call counters
  on the per-message methods below ``Simulator.run``; and a sampling
  profiler for per-module self time, riding on the speed probe's timer.  Wrapping every per-message
  call in a span would swamp the cost, so those layers get counters and
  samples instead.  Spans stay in memory and are written when the pass
  ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List

#: Sampling period of the profiler, in wall seconds.  A wall-clock timer,
#: because the CPU-time timer only fires at the kernel tick (250 Hz here).
SAMPLE_PERIOD = 0.001

#: Source files (relative to the ``repro`` package) per sampled layer.
SELF_TIME_LAYERS = {
    "kernel": ("sim/kernel.py",),
    "network": ("sim/network.py",),
    "queue": ("core/buffers.py",),
    "relation": ("core/obsolescence.py",),
    "svs": ("core/svs.py",),
    "spec": ("core/spec.py",),
    "endpoint": ("gcs/endpoint.py",),
    "consensus": ("consensus/",),
    "fd": ("fd/",),
    "faults": ("faults/",),
    "throughput": ("analysis/throughput.py",),
}


def patch_function(name: str, module_name: str, make_wrapper) -> None:
    """Replace function ``module_name.name`` in every loaded ``repro``
    module that holds it (``from x import f`` copies the reference)."""
    original = getattr(sys.modules[module_name], name)
    wrapper = make_wrapper(original)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def patch_method(cls: type, name: str, make_wrapper) -> None:
    """Replace ``cls.name`` (a plain or class method) with a wrapper."""
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(make_wrapper(raw.__func__)))
    else:
        setattr(cls, name, make_wrapper(raw))


def _class_tree(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _class_tree(sub) if c not in out)
    return out


# ----------------------------------------------------------------------
# Census: cheap hooks used by every pass
# ----------------------------------------------------------------------


class Census:
    """Networks built during the pass, and slow-receiver deliveries."""

    def __init__(self) -> None:
        self.networks: List[Any] = []
        self.slow_receiver_delivered = 0

    def install(self) -> None:
        from repro.sim.network import Network

        networks = self.networks

        def on_network(init):
            @functools.wraps(init)
            def wrapper(self, *args, **kwargs):
                init(self, *args, **kwargs)
                networks.append(self)

            return wrapper

        patch_method(Network, "__init__", on_network)

        def on_run(run):
            @functools.wraps(run)
            def wrapper(*args, **kwargs):
                result = run(*args, **kwargs)
                self.slow_receiver_delivered += result.delivered
                return result

            return wrapper

        patch_function("run_slow_receiver", "repro.analysis.throughput", on_run)

    def network_delivered(self) -> int:
        return sum(n.messages_delivered for n in self.networks)


# ----------------------------------------------------------------------
# Tracer: the traced pass
# ----------------------------------------------------------------------


class Tracer:
    """Spans, call counters, registered counters and profiler samples."""

    def __init__(self, census: Census) -> None:
        self.census = census
        #: [name, start, end, parent index or -1]
        self.spans: List[List[Any]] = []
        self._open: List[int] = []
        self.calls: Counter = Counter()
        self.kernel_events = 0
        self.views_installed = 0
        self.flush_added = 0
        self.queue_stats: List[Any] = []
        self.consumers: List[Any] = []
        self.cells: Counter = Counter()
        self.run_results: List[Any] = []
        self.samples: Counter = Counter()
        self.sampled_cpu_s = 0.0
        self.missing: List[str] = []

    # -- spans ---------------------------------------------------------

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, open_[-1] if open_ else -1]
            spans.append(record)
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_.pop()

        return wrapper

    def counted(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def _try(self, what: str, install: Callable[[], None]) -> None:
        """Install one hook; a hook point the library no longer has is
        reported (its metrics read zero) instead of failing the run."""
        try:
            install()
        except (AttributeError, KeyError) as exc:
            self.missing.append(f"{what}: {exc!r}")

    def install(self) -> None:
        import repro.analysis.experiments as exp
        from repro.consensus.interface import ConsensusInstance
        from repro.core.buffers import DeliveryQueue
        from repro.core.obsolescence import ObsolescenceRelation, PurgeIndex
        from repro.core.svs import SVSProcess
        from repro.gcs.context import RunContext
        from repro.gcs.endpoint import RateLimitedConsumer
        from repro.gcs.stack import GroupStack
        from repro.report import ReportBuilder
        from repro.scenario import Scenario
        from repro.sim.kernel import Simulator
        from repro.sweep import Sweep

        from workloads import ENTRY_POINTS

        for name in ENTRY_POINTS:
            self._try(
                name,
                lambda name=name: patch_function(
                    name, exp.__name__, lambda f, name=name: self.span(f"experiments.{name}", f)
                ),
            )
        for name in ("threshold_rate", "perturbation_tolerance"):
            self._try(
                name,
                lambda name=name: patch_function(
                    name, "repro.analysis.throughput",
                    lambda f, name=name: self.span(name, f),
                ),
            )
        self._try("run_slow_receiver", lambda: patch_function(
            "run_slow_receiver", "repro.analysis.throughput", self._wrap_slow_receiver
        ))
        self._try("to_data_messages", lambda: patch_function(
            "to_data_messages", "repro.workload.trace",
            lambda f: self.span("workload.annotate", f),
        ))
        self._try("check_all", lambda: patch_function(
            "check_all", "repro.core.spec", lambda f: self.counted("spec.check_all", f)
        ))
        for cls, name in (
            (Scenario, "build"),
            (Scenario, "run"),
            (RunContext, "prepare"),
            (GroupStack, "__init__"),
            (ReportBuilder, "write"),
        ):
            label = f"{cls.__name__}.{name}"
            self._try(label, lambda cls=cls, name=name, label=label: patch_method(
                cls, name, lambda f: self.span(label, f)
            ))
        self._try("Sweep.run", lambda: patch_method(Sweep, "run", self._wrap_sweep))
        for cls in _class_tree(Simulator):
            if "run" in cls.__dict__:
                patch_method(cls, "run", self._wrap_sim_run)
            for name in ("schedule", "schedule_at"):
                if name in cls.__dict__:
                    patch_method(cls, name, lambda f: self.counted("kernel.schedule", f))
        for cls in _class_tree(ObsolescenceRelation):
            for name in ("obsoletes", "covers"):
                if name in cls.__dict__:
                    patch_method(cls, name, lambda f: self.counted("relation.linear", f))
        for cls in _class_tree(PurgeIndex):
            for name in ("obsoleted_by", "coverer_of", "add_obsoleted"):
                if name in cls.__dict__:
                    patch_method(cls, name, lambda f: self.counted("relation.probe", f))
            for name in ("add", "discard"):
                if name in cls.__dict__:
                    patch_method(cls, name, lambda f: self.counted("relation.update", f))
        for cls in _class_tree(ConsensusInstance):
            if "propose" in cls.__dict__:
                patch_method(cls, "propose", lambda f: self.counted("consensus.propose", f))
        self._try("SVSProcess._handle_data", lambda: patch_method(
            SVSProcess, "_handle_data", lambda f: self.counted("svs.data", f)
        ))
        self._try("SVSProcess._on_decision", lambda: patch_method(
            SVSProcess, "_on_decision", self._wrap_decision
        ))
        self._try("RateLimitedConsumer._tick", lambda: patch_method(
            RateLimitedConsumer, "_tick", lambda f: self.counted("endpoint.tick", f)
        ))
        self._try("RateLimitedConsumer.__init__", lambda: patch_method(
            RateLimitedConsumer, "__init__", self._registrar(self.consumers, lambda c: c)
        ))
        self._try("DeliveryQueue.__init__", lambda: patch_method(
            DeliveryQueue, "__init__", self._registrar(self.queue_stats, lambda q: q.stats)
        ))

    def _registrar(self, into: List[Any], keep: Callable[[Any], Any]):
        def make(init):
            @functools.wraps(init)
            def wrapper(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                into.append(keep(obj))

            return wrapper

        return make

    def _wrap_slow_receiver(self, fn):
        results = self.run_results
        spanned = self.span("run_slow_receiver", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = spanned(*args, **kwargs)
            results.append((result.offered, result.purged))
            return result

        return wrapper

    def _wrap_sim_run(self, fn):
        spanned = self.span("Simulator.run", fn)

        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            before = sim.events_processed
            try:
                return spanned(sim, *args, **kwargs)
            finally:
                self.kernel_events += sim.events_processed - before

        return wrapper

    def _wrap_decision(self, fn):
        @functools.wraps(fn)
        def wrapper(proc, *args, **kwargs):
            vid, appended = proc.cv.vid, proc.to_deliver.stats.appended
            result = fn(proc, *args, **kwargs)
            if proc.cv.vid != vid:
                # The installation appends the flushed messages, then the
                # VIEW entry.
                self.views_installed += 1
                self.flush_added += proc.to_deliver.stats.appended - appended - 1
            return result

        return wrapper

    def _wrap_sweep(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(sweep, runner, *args, **kwargs):
            cell_span = tracer.span("cell", runner)
            label = f"{runner.__module__}.{runner.__qualname__}"

            def cell(params, seed, context):
                tracer.cells[(label, json.dumps(params, sort_keys=True, default=repr))] += 1
                return cell_span(params, seed, context)

            return tracer.span("Sweep.run", fn)(sweep, cell, *args, **kwargs)

        return wrapper

    # -- sampling profiler -----------------------------------------------

    def _sample(self, frame) -> None:
        if frame is not None:
            self.samples[frame.f_code.co_filename] += 1

    def start_sampling(self, probe) -> None:
        self.sampled_cpu_s = -time.process_time()
        probe.on_tick = self._sample
        probe.start(SAMPLE_PERIOD)

    def stop_sampling(self, probe) -> None:
        probe.on_tick = None
        self.sampled_cpu_s += time.process_time()

    # -- results ---------------------------------------------------------

    def _durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def _total(self, *names: str) -> float:
        return sum(sum(self._durations(name)) for name in names)

    def _self_time(self, name: str, *children: str) -> float:
        """Total time of ``name`` spans minus their direct children named
        ``children``."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == name}
        inner = sum(
            end - start
            for n, start, end, parent in self.spans
            if parent in parents and n in children
        )
        return self._total(name) - inner

    def layer_self_seconds(self) -> Dict[str, float]:
        """CPU time of the pass, split by the share of samples whose
        innermost Python frame was in each layer's files (time in a
        builtin counts for the module that called it)."""
        out = {layer: 0.0 for layer in SELF_TIME_LAYERS}
        total = sum(self.samples.values())
        if not total:
            return out
        per_sample = self.sampled_cpu_s / total
        for filename, count in self.samples.items():
            path = filename.replace("\\", "/")
            marker = path.rfind("/repro/")
            if marker < 0:
                continue
            rel = path[marker + len("/repro/"):]
            for layer, prefixes in SELF_TIME_LAYERS.items():
                if rel.startswith(prefixes):
                    out[layer] += count * per_sample
        return out

    def metrics(self) -> Dict[str, float]:
        from workloads import ENTRY_POINTS

        c = self.calls
        self_s = self.layer_self_seconds()
        networks = self.census.networks
        stats = self.queue_stats
        run_ms = [1000.0 * d for d in self._durations("run_slow_receiver")]
        ticks = c["endpoint.tick"]
        polls = sum(consumer.consumed for consumer in self.consumers)
        m: Dict[str, float] = {
            "kernel.self_s": self_s["kernel"],
            "kernel.events": self.kernel_events,
            "kernel.schedule_calls": c["kernel.schedule"],
            "network.self_s": self_s["network"],
            "network.sent": sum(n.messages_sent for n in networks),
            "network.delivered": sum(n.messages_delivered for n in networks),
            "network.dropped": sum(n.messages_dropped for n in networks),
            "queue.self_s": self_s["queue"],
            "queue.appended": sum(s.appended for s in stats),
            "queue.purged": sum(s.purged for s in stats),
            "queue.popped": sum(s.popped for s in stats),
            "queue.rejected": sum(s.rejected for s in stats),
            "relation.self_s": self_s["relation"],
            "relation.linear_calls": c["relation.linear"],
            "relation.index_probes": c["relation.probe"],
            "relation.index_updates": c["relation.update"],
            "svs.self_s": self_s["svs"],
            "svs.data_handled": c["svs.data"],
            "svs.views_installed": self.views_installed,
            "svs.flush_added": self.flush_added,
            "spec.self_s": self_s["spec"],
            "spec.runs_checked": c["spec.check_all"],
            "endpoint.self_s": self_s["endpoint"],
            "endpoint.ticks": ticks,
            "endpoint.polls": polls,
            "endpoint.useful_ratio": polls / ticks if ticks else 0.0,
            "stack.build_s": self._total("RunContext.prepare", "GroupStack.__init__"),
            "consensus.self_s": self_s["consensus"],
            "consensus.proposals": c["consensus.propose"],
            "fd.self_s": self_s["fd"],
            "faults.self_s": self_s["faults"],
            "throughput.self_s": self_s["throughput"],
            "throughput.runs": len(run_ms),
            "throughput.run_p50_ms": statistics.median(run_ms) if run_ms else 0.0,
            "throughput.run_p95_ms": (
                statistics.quantiles(run_ms, n=20)[18] if len(run_ms) > 1 else 0.0
            ),
            "throughput.offered": sum(r[0] for r in self.run_results),
            "throughput.purged": sum(r[1] for r in self.run_results),
        }
        for name in ENTRY_POINTS:
            m[f"experiments.{name}_s"] = self._total(f"experiments.{name}")
        m["experiments.repeated_cells"] = sum(n - 1 for n in self.cells.values())
        m["workload.annotate_s"] = self._total("workload.annotate")
        m["workload.annotations"] = len(self._durations("workload.annotate"))
        m["scenario.build_s"] = self._total("Scenario.build")
        m["scenario.run_s"] = self._self_time("Scenario.run", "Scenario.build")
        m["sweep.self_s"] = self._self_time("Sweep.run", "cell")
        m["sweep.cells"] = len(self._durations("cell"))
        m["report.render_s"] = self._total("ReportBuilder.write")
        return m

    def write_spans(self, path, pass_id: str) -> None:
        records = [
            {"id": i, "name": n, "start": s, "end": e, "parent": None if p < 0 else p}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"pass": pass_id, "spans": records}), encoding="utf-8")
