"""Machine-independent gate: idle rate-limited consumers cost no events.

The §5.4 view-change table runs 10,000 msg/s consumers over a 60 s
drain window.  A consumer that ticked on an empty queue spent hundreds
of kernel events per unit of real work there (network deliveries plus
queue pops); a parked consumer runs only the ticks that pop and the one
tick per burst that finds the queue empty and parks.  The gate
bounds kernel events by a small constant times that work, so a polling
loop cannot come back unnoticed — on any machine, since every count is
deterministic.
"""

from repro.analysis.experiments import view_change_latency_table
from repro.core.buffers import DeliveryQueue
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.workload.game import GameConfig, generate_game_trace

#: Kernel events allowed per (network delivery + queue pop).  Parked
#: consumers measure 4.5 here (16,957 events for 3,747 units of work),
#: most of it the oracle failure detector's fixed 10 ms scan (12,400
#: events over the two 62 s runs); the always-ticking loop measured 666.
#: One extra consumer polling at 50 msg/s would already break the bound.
MAX_EVENTS_PER_UNIT_OF_WORK = 6.0


def _register(monkeypatch, cls, into):
    init = cls.__init__

    def wrapped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        into.append(self)

    monkeypatch.setattr(cls, "__init__", wrapped)


def test_view_change_events_scale_with_work_not_time(monkeypatch):
    sims, networks, queues = [], [], []
    _register(monkeypatch, Simulator, sims)
    _register(monkeypatch, Network, networks)
    _register(monkeypatch, DeliveryQueue, queues)

    trace = generate_game_trace(GameConfig(rounds=300, seed=2002))
    rows = view_change_latency_table(trace=trace, load_time=2.0)
    assert [row[0] for row in rows] == ["reliable", "semantic"]

    events = sum(sim.events_processed for sim in sims)
    work = sum(net.messages_delivered for net in networks) + sum(
        queue.stats.popped for queue in queues
    )
    assert work > 0
    assert events <= MAX_EVENTS_PER_UNIT_OF_WORK * work, (events, work)
