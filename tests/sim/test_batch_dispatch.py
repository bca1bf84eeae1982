"""Property tests for kernel dispatch order and the batched fan-out.

``tests/sim/test_kernel_diff.py`` pins whole protocol stacks against
frozen fingerprints; this suite attacks the same claims at the component
level, where the failure modes are nameable:

* **kernel dispatch order** — random schedule/cancel interleavings
  (same-instant events, same-slot late arrivals, overflow horizons,
  mid-slot ``run(until=...)`` pauses) must produce the exact callback
  trace of a reference kernel that keeps one global heap ordered by
  ``(time, seq)``;
* **lazy cancellation** — cancelling entries that already sit in the
  sorted slot being drained must skip them;
* **per-edge RNG streams** — latency draws consume each edge stream in
  the same order whatever the refill batch size;
* **fault latching** — random multicast/cut/heal/loss/crash interleavings
  must leave the batching :class:`Network` byte-identical (traces,
  counters, per-channel stats) to the same network driven per send, i.e.
  the one-way latch and its FIFO-clamp backfill lose nothing.

The shared-stream contract between the simulated and wall-clock
substrates (``rng(name)``) is pinned here too.
"""

from heapq import heappop, heappush

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import EventHandle, Simulator, derive_stream_seed
from repro.sim.network import ConstantLatency, Network, UniformLatency
from repro.sim.process import SimProcess


# ----------------------------------------------------------------------
# Kernel dispatch order under random schedule/cancel interleavings
# ----------------------------------------------------------------------


class _HeapKernel:
    """Reference kernel: one global heap ordered by ``(time, seq)``.

    Mirrors the :class:`Simulator` surface the programs below use, with
    the same lazy cancellation (a cancelled head is pruned when it
    surfaces), so even ``pending_events`` must agree.
    """

    def __init__(self, seed=0):
        self.now = 0.0
        self.events_processed = 0
        self._heap = []
        self._seq = 0

    @property
    def pending_events(self):
        return len(self._heap)

    def schedule(self, delay, callback, *args):
        entry = EventHandle((self.now + delay, self._seq, callback, args, False))
        self._seq += 1
        heappush(self._heap, entry)
        return entry

    def _fire(self, entry):
        self.now = entry[0]
        self.events_processed += 1
        entry[2](*entry[3])

    def step(self):
        heap = self._heap
        while heap and heap[0][4]:
            heappop(heap)
        if not heap:
            return False
        self._fire(heappop(heap))
        return True

    def run(self, until=None, max_events=None):
        heap = self._heap
        executed = 0
        while heap:
            if heap[0][4]:
                heappop(heap)
                continue
            if until is not None and heap[0][0] > until:
                break
            if max_events is not None and executed >= max_events:
                break
            executed += 1
            self._fire(heappop(heap))
        if until is not None and self.now < until:
            self.now = until


#: Delays chosen to land same-instant (0.0), inside the current 8 ms slot,
#: exactly on slot boundaries, a few slots out, and past the 4096-slot
#: horizon (forcing the overflow re-bucketing path).
_DELAYS = [0.0, 1e-4, 0.004, 0.0079, 0.008, 0.05, 1.0, 40.0]

_EVENT = st.tuples(
    st.sampled_from(_DELAYS),
    st.lists(  # children spawned when the event fires
        st.tuples(
            st.sampled_from(_DELAYS),
            st.integers(min_value=0, max_value=2),  # respawn count
        ),
        max_size=3,
    ),
    st.one_of(st.none(), st.integers(min_value=0, max_value=255)),  # cancel
)

PROGRAMS = st.lists(_EVENT, min_size=1, max_size=16)

RUN_MODES = st.sampled_from(["run", "step", "until", "max_events"])


def _execute(sim_cls, program, mode):
    """Run one schedule/cancel program; return everything observable.

    Every event appends ``(now, tag)`` to the trace, may cancel one
    earlier handle (index taken modulo the handle count, so both kernels
    resolve it identically as long as their orders agree — which is the
    assertion), and spawns its children; a child with a respawn budget
    re-schedules itself, so same-instant chains recurse through the
    drain-time late-arrival path.
    """
    sim = sim_cls(seed=7)
    trace = []
    handles = []
    snapshots = []

    def fire(tag, children, cancel):
        trace.append((sim.now, tag))
        if cancel is not None and handles:
            handles[cancel % len(handles)].cancel()
        for j, (delay, respawn) in enumerate(children):
            handles.append(
                sim.schedule(delay, respawn_fire, (tag, j), delay, respawn)
            )

    def respawn_fire(tag, delay, respawn):
        trace.append((sim.now, tag))
        if respawn:
            handles.append(
                sim.schedule(delay, respawn_fire, (tag, "r", respawn), delay,
                             respawn - 1)
            )

    for i, (delay, children, cancel) in enumerate(program):
        handles.append(sim.schedule(delay, fire, i, children, cancel))

    if mode == "run":
        sim.run()
    elif mode == "step":
        while sim.step():
            pass
    elif mode == "until":
        # Pause mid-stream (possibly mid-slot), snapshot, then drain.
        sim.run(until=0.006)
        snapshots.append((len(trace), sim.now, sim.pending_events,
                          sim.events_processed))
        sim.run(until=0.9)
        snapshots.append((len(trace), sim.now, sim.pending_events))
        sim.run()
    else:  # max_events
        sim.run(max_events=3)
        snapshots.append((len(trace), sim.now, sim.events_processed))
        sim.run()

    return {
        "trace": trace,
        "snapshots": snapshots,
        "now": sim.now,
        "events_processed": sim.events_processed,
        "pending": sim.pending_events,
    }


class TestDispatchOrderEquivalence:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=PROGRAMS, mode=RUN_MODES)
    def test_random_interleavings_trace_identical(self, program, mode):
        assert _execute(Simulator, program, mode) == \
            _execute(_HeapKernel, program, mode)

    def test_event_cancels_later_same_slot_event(self):
        """A firing event cancels a sibling already inside the sorted
        slot being drained — it must be skipped at its position."""
        sim = Simulator()
        out = []
        victim = sim.schedule(0.002, out.append, "victim")
        sim.schedule(0.001, lambda: (out.append("killer"), victim.cancel()))
        sim.schedule(0.003, out.append, "after")
        sim.run()
        assert (out, sim.events_processed) == (["killer", "after"], 2)

    def test_late_arrival_merges_into_draining_slot(self):
        """An event scheduled *during* the drain, at a time inside the
        slot already loaded, must run in this pass, ordered against the
        remaining slot entries."""
        sim = Simulator()
        out = []

        def first():
            out.append("first")
            # Lands between "first" (0.001) and "third" (0.004), in the
            # slot currently being drained.
            sim.schedule(0.002, out.append, "late")
            # Same instant as "third" but scheduled later: runs after it.
            sim.schedule_at(0.004, out.append, "late-tie")

        sim.schedule(0.001, first)
        sim.schedule(0.004, out.append, "third")
        sim.run()
        assert out == ["first", "late", "third", "late-tie"]


# ----------------------------------------------------------------------
# Shared stream contract: Simulator / WallClock
# ----------------------------------------------------------------------


class TestStreamRngContract:
    def test_derive_stream_seed_pinned(self):
        """Literal pins: the SHA-256 derivation is part of the on-disk
        reproducibility contract (golden fixtures bake these streams)."""
        assert derive_stream_seed(0, "default") == 1112831937369694780
        assert derive_stream_seed(42, "network.0.1") == 12248474279277685243
        assert derive_stream_seed(2002, "consumer.3") == 12967646813682972167

    def test_simulator_and_wallclock_share_streams(self):
        """``rng(name)`` answers identically on the discrete-event kernel
        and the live wall clock — one implementation, one stream per
        (seed, name), whatever the substrate."""
        from repro.transport.clock import WallClock

        for seed in (0, 99):
            sim = Simulator(seed=seed)
            clock = WallClock(seed=seed)
            for name in ("default", "network.0.1", "faults.2.3", "jitter"):
                assert [sim.rng(name).random() for _ in range(16)] == \
                    [clock.rng(name).random() for _ in range(16)]

    def test_streams_are_memoized_and_independent(self):
        sim = Simulator(seed=5)
        first = sim.rng("a")
        first.random()
        # Same object back, with its consumed position.
        assert sim.rng("a") is first
        # A sibling stream is unperturbed by draws on "a".
        fresh = Simulator(seed=5)
        assert sim.rng("b").random() == fresh.rng("b").random()


# ----------------------------------------------------------------------
# Per-edge latency draws
# ----------------------------------------------------------------------


class _Recorder(SimProcess):
    """Process that logs every delivery with its exact timestamp."""

    def __init__(self, pid, sim, network):
        super().__init__(pid, sim, network)
        self.log = []

    def on_message(self, sender, payload):
        self.log.append((self.sim.now, sender, payload))


class _LargeRefillNetwork(Network):
    DRAW_BATCH = 1024


def _drain_network(net_cls):
    """1500+ sends per hot edge under uniform latency, refilled 64 or
    1024 draws at a time; per-edge stream order makes the delivery times
    identical."""
    sim = Simulator(seed=5)
    net = net_cls(sim, UniformLatency(sim, 0.0005, 0.0015))
    procs = [_Recorder(pid, sim, net) for pid in range(3)]
    for i in range(1500):
        sim.schedule_at(i * 0.0001, net.send, 0, 1, i)
        if i % 7 == 0:  # interleaved traffic on a second edge
            sim.schedule_at(i * 0.0001, net.send, 2, 1, ("b", i))
    sim.run()
    return (
        [p.log for p in procs],
        net.messages_sent,
        net.messages_delivered,
        repr(net.channel_stats(0, 1)),
        repr(net.channel_stats(2, 1)),
    )


class TestBatchedLatencyDraws:
    def test_draw_order_invariant_under_batch_size(self):
        assert _drain_network(Network) == _drain_network(_LargeRefillNetwork)


# ----------------------------------------------------------------------
# Fault interleavings: batched fan-out ≡ per-send delivery
# ----------------------------------------------------------------------


class _PerSendLatency(ConstantLatency):
    """The same constant delay, but not exactly :class:`ConstantLatency`:
    the network's exact-type check sends every fan-out down the per-send
    path, which makes it the in-process reference for batching."""


_N = 4

_FAULT_OP = st.one_of(
    st.tuples(st.just("mcast"), st.integers(0, _N - 1)),
    st.tuples(st.just("cut"), st.integers(0, _N - 1), st.integers(0, _N - 1)),
    st.tuples(st.just("heal"), st.integers(0, _N - 1), st.integers(0, _N - 1)),
    st.tuples(st.just("loss"), st.integers(0, _N - 1), st.integers(0, _N - 1),
              st.sampled_from([0.0, 0.3, 1.0])),
    st.tuples(st.just("crash"), st.integers(0, _N - 1)),
)

_FAULT_SCRIPT = st.lists(
    st.tuples(st.sampled_from([0.0, 0.001, 0.0035]), _FAULT_OP),
    min_size=1,
    max_size=12,
)


def _run_fault_script(latency_cls, script):
    """Execute the timed op script; return every observable the batched
    and per-send paths could disagree on."""
    sim = Simulator(seed=13)
    net = Network(sim, latency_cls(0.001))
    procs = [_Recorder(pid, sim, net) for pid in range(_N)]

    def apply(op):
        kind = op[0]
        if kind == "mcast":
            src = op[1]
            dsts = [d for d in range(_N) if d != src]
            procs[src].send_multicast(dsts, f"m@{sim.now:.4f}",
                                      token=(src, 0))
        elif kind == "cut":
            net.cut(op[1], op[2])
        elif kind == "heal":
            net.heal(op[1], op[2])
        elif kind == "loss":
            net.set_link_fault(src=op[1], dst=op[2], loss=op[3])
        else:  # crash
            procs[op[1]].crash()

    at = 0.0
    for gap, op in script:
        at += gap  # gap 0.0 keeps ops (and fan-outs) at the same instant
        sim.schedule_at(at, apply, op)
    sim.run()
    return {
        "logs": [p.log for p in procs],
        "sent": net.messages_sent,
        "delivered": net.messages_delivered,
        "dropped": net.messages_dropped,
        "stats": {
            (s, d): repr(net.channel_stats(s, d))
            for s in range(_N) for d in range(_N) if s != d
        },
    }


class TestFaultLatchEquivalence:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(script=_FAULT_SCRIPT)
    def test_interleaved_faults_byte_identical(self, script):
        """Whatever the cut/loss/crash timing — before, between, or at
        the same instant as fan-outs — the batching network tells the
        same story as per-send delivery: traces, counters and
        per-channel stats."""
        assert _run_fault_script(ConstantLatency, script) == \
            _run_fault_script(_PerSendLatency, script)

    def test_latch_backfills_fifo_clamp(self):
        """Latching mid-stream reconstructs the per-channel FIFO clamp
        from the last batched fan-out, so post-latch deliveries can never
        be scheduled before pre-latch ones."""
        script = [
            (0.0, ("mcast", 0)),       # batched fan-out at t=0
            (0.0, ("cut", 2, 3)),      # latch at the same instant
            (0.0, ("mcast", 0)),       # now on the per-send path
            (0.001, ("mcast", 1)),
        ]
        a = _run_fault_script(_PerSendLatency, script)
        b = _run_fault_script(ConstantLatency, script)
        assert a == b
        # Delivery timestamps per process are non-decreasing (FIFO held).
        for log in b["logs"]:
            times = [t for t, _, _ in log]
            assert times == sorted(times)

    def test_pristine_fanout_is_one_event_until_latched(self):
        """The mechanism itself: a pristine constant-latency fan-out is
        one kernel event; the reference subclass and any fault-injection
        call fall back to one event per destination."""
        def pending_after_fanout(latency, fault=None):
            sim = Simulator()
            net = Network(sim, latency)
            procs = [_Recorder(pid, sim, net) for pid in range(_N)]
            if fault is not None:
                fault(net)
            procs[0].send_multicast([1, 2, 3], "m")
            return sim.pending_events

        assert pending_after_fanout(ConstantLatency(0.001)) == 1
        assert pending_after_fanout(_PerSendLatency(0.001)) == 3
        for fault in (
            lambda net: net.cut(2, 3),
            lambda net: net.partition({2}, {3}),
            lambda net: net.set_drop_filter(None),
            lambda net: net.set_delay_filter(None),
            lambda net: net.set_link_fault(loss=0.0),
        ):
            assert pending_after_fanout(ConstantLatency(0.001), fault) == 3
