"""Frozen proof for the rate-limited consumer's pop instants.

``RateLimitedConsumer`` drains a member's delivery queue at a fixed
service rate.  Every run that builds one must serialize to exactly the
bytes the always-ticking service loop produced: histories, metrics and
view-change timings all depend on the instant each entry leaves the
queue.  Those bytes were frozen as sha256 fingerprints in
``tests/fixtures/golden_consumer_park.json`` from the ticking loop, for
the consumer paths no other fixture pins:

* **view-change latency** — ``view_change_latency_table`` on a
  test-scale trace (10,000 msg/s consumers beside a 25 msg/s slow one),
  plus the full per-protocol ``ViewChangeLatencyResult`` behind its rows;
* **crash and rejoin** — consumers whose member crashes and rejoins,
  with outages longer than a service interval (the loop dies and
  ``restart()`` revives it) and shorter ones (the loop survives), some
  on exact tick instants;
* **perturbation** — ``perturb()`` windows pausing and resuming
  consumers, again including windows that start or end on a tick.

The fixture is never regenerated: a mismatch means the consumer changed
observable behaviour.

The second half is a differential property test.  The consumer parks on
an empty queue and is woken by the next append (or by a crash); the
always-ticking loop it replaced survives here as ``TickingConsumer``, the
reference.  Hypothesis scripts append instants (including instants that
land exactly on a would-be tick), pause/resume windows, crash/recover
windows followed by ``restart()``, and starts on an empty queue; both
consumers must pop the same entries at the same instants, end with the
same ``consumed`` and agree on whether the loop is dead.

Tie rule pinned here: every scripted event is scheduled before the run,
so at an instant shared with a would-be tick the scripted event runs
first.  The ticking loop therefore pops an entry appended exactly on a
tick instant at that instant, dies on a crash at that instant and
survives a recovery at that instant; the parked consumer matches
because its wake-up tick is scheduled during the waking event, which
puts it after that event at the same instant.
"""

import hashlib
import json
import math
import pathlib
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.message import DataMessage, MessageId, ViewDelivery
from repro.core.obsolescence import ItemTagging
from repro.gcs.endpoint import GroupEndpoint, RateLimitedConsumer, _catch_up
from repro.gcs.stack import GroupStack, StackConfig
from repro.scenario import Scenario

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
FROZEN = json.loads((FIXTURES / "golden_consumer_park.json").read_text())


def _digest(obj):
    canonical = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _fingerprint(result):
    """sha256 of the canonical JSON of one ScenarioResult."""
    return _digest(result.to_dict())


# ----------------------------------------------------------------------
# Scenario shapes (the fixture stores their explicit configurations)
# ----------------------------------------------------------------------


def build_crash_rejoin(config):
    spec = (
        Scenario()
        .group(
            n=config["n"],
            relation=config["relation"],
            consensus="oracle",
            seed=config["seed"],
        )
        .workload("game", players=config["n"], rounds=config["rounds"])
        .consumers(rate=config["rate"])
        .histories()
        .collect("throughput", "purges", "network", "view_changes")
    )
    if config["slow_rate"] is not None:
        spec.consumers(rate=config["slow_rate"], pids=[config["pid"]])
    spec.crash(config["pid"], at=config["crash_at"])
    spec.recover(config["pid"], at=config["recover_at"])
    return spec


def build_perturb(config):
    spec = (
        Scenario()
        .group(
            n=config["n"],
            relation=config["relation"],
            consensus="oracle",
            seed=config["seed"],
        )
        .workload("game", players=config["n"], rounds=config["rounds"])
        .consumers(rate=config["rate"])
        .histories()
        .collect("throughput", "purges", "network", "queue_depth")
    )
    for pid, at, duration in config["windows"]:
        spec.perturb(pid, at=at, duration=duration)
    return spec


def view_change_digest(spec):
    """Fingerprint of the view-change table rows and the full measurement
    behind each row, on the fixture's test-scale trace."""
    import repro.analysis.experiments as exp
    from repro.analysis.viewchange import measure_view_change_latency
    from repro.workload.game import GameConfig, generate_game_trace

    trace = generate_game_trace(
        GameConfig(rounds=spec["trace"]["rounds"], seed=spec["trace"]["seed"])
    )
    rows = exp.view_change_latency_table(
        trace=trace, slow_rate=spec["slow_rate"], load_time=spec["load_time"]
    )
    results = [
        asdict(
            measure_view_change_latency(
                trace,
                semantic=semantic,
                slow_rate=spec["slow_rate"],
                load_time=spec["load_time"],
            )
        )
        for semantic in (False, True)
    ]
    return _digest({"rows": [list(row) for row in rows], "results": results})


# ----------------------------------------------------------------------
# Frozen fingerprints
# ----------------------------------------------------------------------


def test_view_change_latency_matches_frozen():
    spec = FROZEN["view_change_latency"]
    assert view_change_digest(spec) == spec["sha256"]


@pytest.mark.parametrize(
    "run", FROZEN["crash_rejoin"]["runs"],
    ids=[f"crash{i:02d}" for i in range(len(FROZEN["crash_rejoin"]["runs"]))],
)
def test_crash_rejoin_matches_frozen(run):
    result = build_crash_rejoin(run["config"]).run(FROZEN["crash_rejoin"]["until"])
    assert result.ok
    assert _fingerprint(result) == run["sha256"]


@pytest.mark.parametrize(
    "run", FROZEN["perturb"]["runs"],
    ids=[f"perturb{i:02d}" for i in range(len(FROZEN["perturb"]["runs"]))],
)
def test_perturb_matches_frozen(run):
    result = build_perturb(run["config"]).run(FROZEN["perturb"]["until"])
    assert result.ok
    assert _fingerprint(result) == run["sha256"]


# ----------------------------------------------------------------------
# Differential property: parked consumer ≡ always-ticking reference
# ----------------------------------------------------------------------


class TickingConsumer:
    """The always-ticking service loop: one tick every ``1/rate`` seconds
    for as long as the process lives, popping when the queue is non-empty
    and the consumer is not paused."""

    def __init__(self, sim, endpoint, rate):
        self.sim = sim
        self.endpoint = endpoint
        self.rate = rate
        self.paused = False
        self.consumed = 0
        self._started = False
        self._dead = False

    @property
    def service_time(self):
        return 1.0 / self.rate

    def start(self):
        if self._started:
            return
        self._started = True
        self.sim.schedule(self.service_time, self._tick)

    def pause(self):
        self.paused = True

    def resume(self):
        self.paused = False

    def restart(self):
        if not self._started or not self._dead or self.endpoint.process.crashed:
            return
        self._dead = False
        self.sim.schedule(self.service_time, self._tick)

    def _tick(self):
        if self.endpoint.process.crashed:
            self._dead = True
            return
        if not self.paused and self.endpoint.pending:
            self.endpoint.poll()
            self.consumed += 1
        self.sim.schedule(self.service_time, self._tick)


HORIZON = 3.0
RATES = (4.0, 8.0, 10.0, 3.0, 256.0, 1000.0 / 7.0, 2000.0)
APPENDS = ("append", "try_append", "append_purge")


def tick_chain(start_at, step, until):
    """The instants the ticking loop started at ``start_at`` visits."""
    out = []
    t = start_at + step
    while t <= until:
        out.append(t)
        t += step
    return out


@st.composite
def scripts(draw):
    rate = draw(st.sampled_from(RATES))
    step = 1.0 / rate
    start_at = draw(st.sampled_from([0.0, 0.125, 0.3, 7 * step]))
    chain = tick_chain(start_at, step, HORIZON)
    instant = st.one_of(
        st.floats(0.0, HORIZON, allow_nan=False),
        st.sampled_from(chain) if chain else st.just(HORIZON),
    )
    window = st.tuples(instant, instant).map(sorted)
    return {
        "rate": rate,
        "start_at": start_at,
        "drain_first": draw(st.booleans()),
        "appends": draw(
            st.lists(
                st.tuples(instant, st.sampled_from(APPENDS), st.integers(0, 3)),
                max_size=40,
            )
        ),
        "pauses": draw(st.lists(window, max_size=3)),
        "outages": draw(st.lists(window, max_size=2)),
    }


def run_script(consumer_cls, script):
    """Run one script against one consumer; return its observable trace."""
    stack = GroupStack(ItemTagging(), StackConfig(n=1, consensus="oracle"))
    sim = stack.sim
    proc = stack[0]
    endpoint = GroupEndpoint(proc)
    if script["drain_first"]:
        endpoint.poll_all()  # start on an empty queue
    pops = []
    endpoint.on_data = lambda m: pops.append((sim.now, "data", m.sn))
    endpoint.on_view = lambda v: pops.append((sim.now, "view", v.vid))
    consumer = consumer_cls(sim, endpoint, script["rate"])
    ticks = []
    tick = consumer._tick

    def counted_tick():
        ticks.append(sim.now)
        tick()

    consumer._tick = counted_tick

    def add(sn, method, tag):
        msg = DataMessage(MessageId(0, sn), proc.cv.vid, None, tag)
        getattr(proc.to_deliver, method)(msg)

    def recover():
        if proc.crashed:
            proc.recover()
            consumer.restart()

    events = [(script["start_at"], consumer.start, ())]
    for sn, (at, method, tag) in enumerate(script["appends"]):
        events.append((at, add, (sn, method, tag)))
    for a, b in script["pauses"]:
        events.append((a, consumer.pause, ()))
        events.append((b, consumer.resume, ()))
    for a, b in script["outages"]:
        events.append((a, proc.crash, ()))
        events.append((b, recover, ()))
    events.sort(key=lambda e: e[0])
    for at, callback, args in events:
        sim.schedule_at(at, callback, *args)
    sim.run(until=HORIZON)
    return {
        "pops": pops,
        "consumed": consumer.consumed,
        "dead": consumer._dead,
        "ticks": len(ticks),
    }


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scripts())
def test_parked_consumer_matches_ticking_reference(script):
    parked = run_script(RateLimitedConsumer, script)
    ticking = run_script(TickingConsumer, script)
    assert parked["pops"] == ticking["pops"]
    assert parked["consumed"] == ticking["consumed"]
    assert parked["dead"] == ticking["dead"]
    assert parked["ticks"] <= ticking["ticks"]


def test_exact_tick_instant_append_pops_on_that_tick():
    """An append scheduled ahead of the run on a would-be tick instant is
    popped at that very instant by both consumers (the tie rule)."""
    step = 1.0 / 8.0
    chain = tick_chain(0.0, step, HORIZON)
    script = {
        "rate": 8.0, "start_at": 0.0, "drain_first": True,
        "appends": [(chain[5], "append", 0), (chain[9], "append_purge", 1)],
        "pauses": [], "outages": [],
    }
    for cls in (RateLimitedConsumer, TickingConsumer):
        pops = run_script(cls, script)["pops"]
        assert pops == [(chain[5], "data", 0), (chain[9], "data", 1)]


def test_idle_consumer_parks():
    """Over 3 s at 2000 msg/s, a consumer started on an empty queue runs
    three ticks: the first parks it, and the append at 2.5 s wakes it for
    one tick that pops and one that parks again."""
    script = {
        "rate": 2000.0, "start_at": 0.0, "drain_first": True,
        "appends": [(2.5, "try_append", 0)], "pauses": [], "outages": [],
    }
    parked = run_script(RateLimitedConsumer, script)
    ticking = run_script(TickingConsumer, script)
    assert parked["pops"] == ticking["pops"]
    assert ticking["ticks"] == 5999
    assert parked["ticks"] == 3


def reference_catch_up(t, step, now):
    while t < now:
        t += step
    return t


@st.composite
def chains(draw):
    """A parked instant, a service time and a wake-up instant; the steps
    include exact binary fractions, 1/rate values of the scenarios, and
    steps exactly halfway between multiples of the first binade's ulp
    (where round-half-to-even depends on the running value)."""
    t = draw(st.floats(1e-3, 300.0))
    step = draw(
        st.one_of(
            st.sampled_from([1e-4, 1e-3, 0.1, 1.0 / 3.0, 1.0 / 7.0, 2.0 ** -8, 0.04]),
            st.floats(1e-4, 1.0),
            st.integers(1, 2 ** 20).map(lambda m: (m + 0.5) * math.ulp(t)),
        )
    )
    step = min(step, t)
    now = t + draw(st.floats(0.0, 5_000.0)) * step
    return t, step, now


@settings(max_examples=400, deadline=None)
@given(chains())
def test_catch_up_is_bit_identical_to_the_loop(chain):
    t, step, now = chain
    assert _catch_up(t, step, now) == reference_catch_up(t, step, now)


@pytest.mark.parametrize("t, step, now", [
    (0.0001, 0.0001, 90.0),            # a fast consumer idle all run long
    (0.9999, 0.0001, 1.0),             # lands exactly on a binade edge
    (1.0, 2.0 ** -8, 1.0),             # already there
    (0.5 - 2.0 ** -20, 2.0 ** -22, 0.5 + 2.0 ** -19),
    # One jump past the binade top would land on a tie of the coarser grid
    # that the plain addition (step a quarter-ulp above d) rounds upward.
    (0.5 + 2.0 ** -53, 2.0 ** -10 + 2.0 ** -55, 2.0),
    (3.0, 0.1, 1e3),
])
def test_catch_up_edges(t, step, now):
    assert _catch_up(t, step, now) == reference_catch_up(t, step, now)
