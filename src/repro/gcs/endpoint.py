"""Application-facing group endpoint and rate-limited consumer.

:class:`GroupEndpoint` wraps one :class:`~repro.core.svs.SVSProcess` behind
the interface applications actually want:

* ``multicast`` that transparently queues messages while the group is
  blocked in a view change and re-sends them in the next view (the raw t2
  guard simply refuses during the change);
* callbacks for data, views and exclusion instead of manual queue polling;
* ``leave()`` / ``expel()`` membership operations (both are just t4
  triggers with the right ``leave`` set — Section 3.2 lists voluntary
  leaves and failure suspicions among the view-change causes).

:class:`RateLimitedConsumer` models the paper's receiving application: a
server draining the delivery queue at a fixed rate (messages per second),
pausable to inject the performance perturbations of Section 5.
"""

from __future__ import annotations

from math import frexp, ldexp, ulp
from typing import Any, Callable, List, Optional, Tuple

from repro.core.message import DataMessage, View, ViewDelivery
from repro.core.svs import SVSProcess
from repro.sim.kernel import Simulator

__all__ = ["GroupEndpoint", "RateLimitedConsumer"]


class GroupEndpoint:
    """Convenience facade over one SVS group member."""

    def __init__(self, process: SVSProcess) -> None:
        self.process = process
        self._outbox: List[Tuple[Any, Any]] = []
        self.on_data: Optional[Callable[[DataMessage], None]] = None
        self.on_view: Optional[Callable[[View], None]] = None
        self.on_excluded: Optional[Callable[[View], None]] = None

        previous_install = process.listeners.on_install
        previous_exclude = process.listeners.on_exclude

        def install_hook(pid: int, view: View) -> None:
            if previous_install is not None:
                previous_install(pid, view)
            self._flush_outbox()

        def exclude_hook(pid: int, view: View) -> None:
            if previous_exclude is not None:
                previous_exclude(pid, view)
            if self.on_excluded is not None:
                self.on_excluded(view)

        process.listeners.on_install = install_hook
        process.listeners.on_exclude = exclude_hook

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def multicast(self, payload: Any, annotation: Any = None) -> bool:
        """Multicast now, or park the message until the view change ends.

        Returns True if the message went out immediately, False if parked.
        Parked messages are re-sent (in order) right after the next view
        installation — they then carry the new view's tag, which is the
        correct semantics: a message queued during a change is logically
        sent in the next configuration.
        """
        msg = self.process.multicast(payload, annotation)
        if msg is not None:
            return True
        if self.process.excluded or self.process.crashed:
            return False
        self._outbox.append((payload, annotation))
        return False

    def _flush_outbox(self) -> None:
        parked, self._outbox = self._outbox, []
        for payload, annotation in parked:
            msg = self.process.multicast(payload, annotation)
            if msg is None:
                # Blocked again already; keep the remainder parked.
                self._outbox.append((payload, annotation))

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def poll(self) -> Optional[Any]:
        """Deliver one entry, dispatching to callbacks; returns the entry."""
        entry = self.process.deliver()
        if entry is None:
            return None
        if isinstance(entry, ViewDelivery):
            if self.on_view is not None:
                self.on_view(entry.view)
        else:
            if self.on_data is not None:
                self.on_data(entry)
        return entry

    def poll_all(self) -> int:
        """Deliver everything currently queued; returns the count."""
        count = 0
        while self.process.pending:
            self.poll()
            count += 1
        return count

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def leave(self) -> None:
        """Voluntarily leave the group at the next view change."""
        self.process.trigger_view_change(leave=(self.process.pid,))

    def expel(self, *pids: int) -> None:
        """Trigger a view change removing the given members."""
        self.process.trigger_view_change(leave=pids)

    def reconfigure(self) -> None:
        """Trigger a view change with no explicit removals (suspected and
        unresponsive members drop out via the t7 guard)."""
        self.process.trigger_view_change()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def view(self) -> View:
        return self.process.cv

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def pending(self) -> int:
        return self.process.pending


class RateLimitedConsumer:
    """Drains an endpoint's queue at a fixed service rate.

    Models "the time it takes for the slower process to consume each
    message" (Section 5.3): one message every ``1/rate`` seconds while the
    queue is non-empty.  ``pause()``/``resume()`` implement the transient
    performance perturbations of Figure 5(b) (what a
    :class:`~repro.faults.Perturb` event drives).

    The service loop is event-driven but keeps the pop instants of a loop
    that ticks every ``1/rate`` seconds forever:

    * **Park.**  A tick that finds the queue empty does not re-arm; it
      records ``now + service_time``, the instant its next tick would
      have had.  (A paused consumer with a non-empty queue keeps ticking.)
    * **Wake.**  The queue calls :meth:`_wake` when an append makes it
      non-empty (:attr:`~repro.core.buffers.DeliveryQueue.wake`).  The
      parked instant advances by the same float additions the ticking
      loop would have made (``t += service_time`` while ``t < now``), and
      one tick is scheduled there.  When that instant equals the append's,
      the tick runs after the appending event.
    * **Crash.**  A crash wakes a parked consumer the same way, so the
      loop still dies exactly when a would-be tick falls inside the
      outage, and :meth:`restart` revives it as before.  A rejoin's fresh
      queue inherits the hook.

    One consumer per queue: :meth:`start` claims the queue's hook.
    """

    def __init__(
        self,
        sim: Simulator,
        endpoint: GroupEndpoint,
        rate: float,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate}")
        self.sim = sim
        self.endpoint = endpoint
        self.rate = rate
        self.paused = False
        self.consumed = 0
        self._started = False
        self._dead = False
        # Instant of the next would-be tick while parked, else None.
        self._parked_at: Optional[float] = None

    @property
    def service_time(self) -> float:
        return 1.0 / self.rate

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.endpoint.process.to_deliver.wake = self._wake
        self.sim.schedule(self.service_time, self._tick)

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False

    def restart(self) -> None:
        """Re-arm the service loop after the underlying process recovered.

        The loop dies silently when it observes a crash; a rejoin (see
        :meth:`repro.gcs.stack.GroupStack.rejoin`) revives the process but
        not the consumer — the fault installer calls this afterwards.
        No-op while the loop is still alive (ticking or parked) or never
        started.
        """
        if not self._started or not self._dead or self.endpoint.process.crashed:
            return
        self._dead = False
        self.sim.schedule(self.service_time, self._tick)

    def _tick(self) -> None:
        if self.endpoint.process.crashed:
            self._dead = True
            return
        if not self.endpoint.pending:
            self._parked_at = self.sim.now + self.service_time
            return
        if not self.paused:
            self.endpoint.poll()
            self.consumed += 1
        self.sim.schedule(self.service_time, self._tick)

    def _wake(self) -> None:
        t = self._parked_at
        if t is None:
            return
        self._parked_at = None
        now = self.sim.now
        t = _catch_up(t, self.service_time, now)
        # Parking needs a tick at or after one service time, so now >= t/2
        # and ``t - now`` is exact (Sterbenz): the kernel schedules at
        # exactly t.  A live clock (repro.transport), whose now moves
        # between reads, schedules relative to its own now instead of
        # rejecting an instant that has just slipped into the past.
        self.sim.schedule(t - now, self._tick)


def _catch_up(t: float, step: float, now: float) -> float:
    """Bit for bit ``while t < now: t += step; return t``, without taking
    every step.

    Within one binade ``[2**(e-1), 2**e)`` every float is a multiple of
    the same ulp ``u``, so ``t + step`` rounds to ``t + d`` for a fixed
    ``d`` — unless ``step`` sits exactly halfway between multiples of
    ``u``, where round-half-to-even depends on ``t``; those binades are
    walked step by step.  A jump of ``k`` steps stays strictly below the
    binade's top, so every crossing into a coarser binade is a plain
    addition.
    """
    while t < now:
        d = (t + step) - t  # exact when step <= t (Sterbenz)
        u = ulp(t)
        if step > t or d == 0.0 or 2.0 * abs(step - d) == u:
            t += step
            continue
        # In units of u every quantity below is an exact integer.
        top = ldexp(1.0, frexp(t)[1])  # the next binade starts here
        a, b = int(t / u), int(d / u)
        k = min((int(top / u) - 1 - a) // b, -((a - int(now / u)) // b))
        t = t + k * d if k > 0 else t + step
    return t
