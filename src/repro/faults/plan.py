"""Declarative fault plans: typed, validated, simulator-scheduled events.

A :class:`FaultPlan` is an ordered collection of fault and membership
events — :class:`Crash`, :class:`Recover`, :class:`Partition`,
:class:`Heal`, :class:`LinkFault`, :class:`Perturb`, :class:`ViewChange` —
that is validated up front and installed onto a
:class:`~repro.gcs.stack.GroupStack` in one call.  Besides crash-stop
failures and the paper's transient perturbations it models the
environment misbehaviour the paper argues about: symmetric network
partitions, per-edge probabilistic loss/duplication/reordering, and
crash-recover churn with state transfer.

Determinism contract
--------------------

Every probabilistic draw a plan causes comes from a dedicated
``faults.<src>.<dst>`` child RNG stream of the simulator seed (see
:meth:`repro.sim.network.Network.set_link_fault`), derived by SHA-256
exactly like every other stream — so a run under any fault plan is
byte-reproducible from its seed, and adding a fault never perturbs the
latency or workload streams.

Events serialize to plain dicts (:meth:`FaultPlan.to_dicts` /
:meth:`FaultPlan.from_dicts`), which is what makes fault plans sweepable:
a sweep cell carries the dict form, and axes can address into it with
dotted paths (``"faults.params.loss"``).

Validation happens in two stages: event constructors reject malformed
fields (negative or NaN times, rates outside ``[0, 1]``), and
:meth:`FaultPlan.install` rejects unknown process ids, perturbations
without a pausable target, and double installation — all with
:class:`FaultPlanError` (a :class:`ValueError`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.core.message import DataMessage, Envelope
from repro.sim.failure import check_time
from repro.sim.network import LinkFaultPolicy

__all__ = [
    "FaultPlanError",
    "FaultEvent",
    "Crash",
    "Recover",
    "Partition",
    "Heal",
    "LinkFault",
    "Perturb",
    "ViewChange",
    "FaultPlan",
    "data_messages_only",
]


class FaultPlanError(ValueError):
    """An invalid fault plan: bad event fields, unknown pids, double install."""


def _check_time(value: Any, what: str) -> None:
    check_time(value, what, FaultPlanError)


def _check_pid(value: Any, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FaultPlanError(f"{what} must be a non-negative int pid: {value!r}")


def data_messages_only(payload: Any) -> bool:
    """Payload filter: true only for SVS data traffic.

    Pass as a :class:`LinkFault`'s scope (``data_only=True``) to degrade
    the data plane while keeping control traffic (INIT/PRED/WELCOME,
    consensus, failure detection) reliable — the regime where SVS's own
    repair machinery, not retransmission, must absorb the losses.
    """
    return isinstance(payload, Envelope) and isinstance(payload.body, DataMessage)


@dataclass(frozen=True)
class FaultEvent:
    """Base of every plan event: something that happens at time ``at``."""

    at: float

    def __post_init__(self) -> None:
        _check_time(self.at, f"{type(self).__name__}.at")

    #: Tag used by the dict round trip; set per subclass.
    kind = "event"

    def referenced_pids(self) -> Tuple[int, ...]:
        return ()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out


@dataclass(frozen=True)
class Crash(FaultEvent):
    """Crash-stop ``pid`` at time ``at`` (Section 3.1 of the paper)."""

    pid: int = 0
    kind = "crash"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_pid(self.pid, "Crash.pid")

    def referenced_pids(self) -> Tuple[int, ...]:
        return (self.pid,)


@dataclass(frozen=True)
class Recover(FaultEvent):
    """Revive ``pid`` and rejoin it through the GCS stack.

    ``via`` optionally pins the sponsoring member; ``retry`` is the rejoin
    watchdog period (see :meth:`repro.gcs.stack.GroupStack.rejoin`) —
    ``None`` attempts the join exactly once.
    """

    pid: int = 0
    via: Optional[int] = None
    retry: Optional[float] = 0.5
    kind = "recover"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_pid(self.pid, "Recover.pid")
        if self.via is not None:
            _check_pid(self.via, "Recover.via")
        if self.retry is not None:
            _check_time(self.retry, "Recover.retry")
            if self.retry == 0:
                raise FaultPlanError("Recover.retry must be positive or None")

    def referenced_pids(self) -> Tuple[int, ...]:
        return (self.pid,) if self.via is None else (self.pid, self.via)


def _normalise_sides(sides: Any, what: str) -> Tuple[Tuple[int, ...], ...]:
    if not isinstance(sides, (list, tuple)) or not sides:
        raise FaultPlanError(f"{what} needs at least one side: {sides!r}")
    out: List[Tuple[int, ...]] = []
    seen: set = set()
    for side in sides:
        if not isinstance(side, (list, tuple)) or not side:
            raise FaultPlanError(f"{what} sides must be non-empty lists: {side!r}")
        for pid in side:
            _check_pid(pid, f"{what} member")
            if pid in seen:
                raise FaultPlanError(f"{what} sides overlap on pid {pid}")
            seen.add(pid)
        out.append(tuple(side))
    return tuple(out)


@dataclass(frozen=True)
class Partition(FaultEvent):
    """Symmetrically cut every link crossing the given sides at ``at``.

    ``sides`` is a sequence of disjoint pid groups.  With a single side,
    the complement (every other stack member) forms the second side at
    install time — convenient for "isolate process 4" profiles that do not
    want to spell out the group size.
    """

    sides: Tuple[Tuple[int, ...], ...] = ()
    kind = "partition"

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self, "sides", _normalise_sides(self.sides, "Partition")
        )

    def referenced_pids(self) -> Tuple[int, ...]:
        return tuple(pid for side in self.sides for pid in side)


@dataclass(frozen=True)
class Heal(FaultEvent):
    """Undo partitions at ``at``: the named ``sides``, or every cut link
    (including manual :meth:`~repro.sim.network.Network.cut` calls) when
    ``sides`` is ``None``."""

    sides: Optional[Tuple[Tuple[int, ...], ...]] = None
    kind = "heal"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sides is not None:
            object.__setattr__(
                self, "sides", _normalise_sides(self.sides, "Heal")
            )

    def referenced_pids(self) -> Tuple[int, ...]:
        if self.sides is None:
            return ()
        return tuple(pid for side in self.sides for pid in side)


@dataclass(frozen=True)
class LinkFault(FaultEvent):
    """Install probabilistic loss/duplication/reordering at ``at``.

    ``src``/``dst`` scope the policy exactly as
    :meth:`~repro.sim.network.Network.set_link_fault`: both ``None`` —
    every edge; one given — that end wildcarded; both given — one directed
    edge.  ``data_only=True`` restricts the faults to SVS data messages,
    keeping the control plane reliable.  Installing all-zero rates later
    on the same scope switches the faults off again.
    """

    src: Optional[int] = None
    dst: Optional[int] = None
    loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_spread: float = 0.004
    data_only: bool = False
    kind = "link-fault"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.src is not None:
            _check_pid(self.src, "LinkFault.src")
        if self.dst is not None:
            _check_pid(self.dst, "LinkFault.dst")
        # Rates and spread are validated by the policy the network will
        # build from this event — constructing one here reuses exactly the
        # checks that would otherwise fire mid-run at the event's time.
        try:
            LinkFaultPolicy(
                loss=self.loss,
                duplicate=self.duplicate,
                reorder=self.reorder,
                reorder_spread=self.reorder_spread,
            )
        except ValueError as exc:
            raise FaultPlanError(f"LinkFault: {exc}") from None

    def referenced_pids(self) -> Tuple[int, ...]:
        return tuple(p for p in (self.src, self.dst) if p is not None)


@dataclass(frozen=True)
class Perturb(FaultEvent):
    """Stall ``pid``'s consumer for ``[at, at + duration)`` — the paper's
    transient performance perturbation (Section 2)."""

    pid: int = 0
    duration: float = 0.0
    kind = "perturb"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_pid(self.pid, "Perturb.pid")
        _check_time(self.duration, "Perturb.duration")
        if self.duration == 0:
            raise FaultPlanError("Perturb.duration must be positive")

    def referenced_pids(self) -> Tuple[int, ...]:
        return (self.pid,)


@dataclass(frozen=True)
class ViewChange(FaultEvent):
    """Have ``pid`` trigger a view change at ``at`` (membership event, not
    a fault — included so churn profiles can pair heals with explicit
    reconfigurations)."""

    pid: int = 0
    leave: Tuple[int, ...] = ()
    kind = "view-change"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_pid(self.pid, "ViewChange.pid")
        for pid in self.leave:
            _check_pid(pid, "ViewChange.leave member")
        object.__setattr__(self, "leave", tuple(self.leave))

    def referenced_pids(self) -> Tuple[int, ...]:
        return (self.pid, *self.leave)


_EVENT_TYPES: Dict[str, Type[FaultEvent]] = {
    cls.kind: cls
    for cls in (Crash, Recover, Partition, Heal, LinkFault, Perturb, ViewChange)
}


class _NestedPause:
    """Reference-counted pause/resume of one consumer: overlapping
    :class:`Perturb` windows stall it once, from the first pause to the
    last resume."""

    __slots__ = ("target", "depth")

    def __init__(self, target: Any) -> None:
        self.target = target
        self.depth = 0

    def pause(self) -> None:
        self.depth += 1
        if self.depth == 1:
            self.target.pause()

    def resume(self) -> None:
        self.depth -= 1
        if self.depth == 0:
            self.target.resume()


class FaultPlan:
    """An immutable, validated sequence of fault events.

    Build one from events, combine with ``+``, install once onto a stack::

        plan = FaultPlan([
            Partition(at=2.0, sides=[(0, 1, 2), (3, 4)]),
            LinkFault(at=0.0, loss=0.05, data_only=True),
            Heal(at=4.0),
            Crash(at=6.0, pid=4),
            Recover(at=8.0, pid=4),
        ])
        plan.install(stack, consumers=consumers)

    The Scenario builder does all of this behind
    :meth:`~repro.scenario.Scenario.faults`.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        materialised = tuple(events)
        for event in materialised:
            if not isinstance(event, FaultEvent):
                raise FaultPlanError(
                    f"fault plans hold FaultEvent instances, got "
                    f"{type(event).__name__}: {event!r}"
                )
        self.events: Tuple[FaultEvent, ...] = materialised
        self._installed = False

    # ------------------------------------------------------------------
    # Composition and introspection
    # ------------------------------------------------------------------

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return FaultPlan(self.events + other.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def referenced_pids(self) -> Tuple[int, ...]:
        """Every pid any event names, sorted and deduplicated."""
        return tuple(
            sorted({pid for e in self.events for pid in e.referenced_pids()})
        )

    def perturbed_pids(self) -> Tuple[int, ...]:
        return tuple(
            sorted({e.pid for e in self.events if isinstance(e, Perturb)})
        )

    @property
    def installed(self) -> bool:
        return self._installed

    # ------------------------------------------------------------------
    # Dict round trip (the sweepable form)
    # ------------------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [event.to_dict() for event in self.events]

    @classmethod
    def from_dicts(cls, dicts: Sequence[Mapping[str, Any]]) -> "FaultPlan":
        events: List[FaultEvent] = []
        for entry in dicts:
            if not isinstance(entry, Mapping):
                raise FaultPlanError(f"fault event dict expected: {entry!r}")
            data = dict(entry)
            kind = data.pop("kind", None)
            event_type = _EVENT_TYPES.get(kind)
            if event_type is None:
                known = ", ".join(sorted(_EVENT_TYPES))
                raise FaultPlanError(
                    f"unknown fault event kind: {kind!r} (known: {known})"
                )
            known_fields = {f.name for f in fields(event_type)}
            unknown = set(data) - known_fields
            if unknown:
                raise FaultPlanError(
                    f"unknown fields for {kind!r} event: "
                    f"{', '.join(sorted(map(repr, unknown)))}"
                )
            # JSON turns tuples into lists; normalisation happens in the
            # event constructors.
            events.append(event_type(**data))
        return cls(events)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(
        self,
        stack: Any,
        consumers: Optional[Mapping[int, Any]] = None,
    ) -> None:
        """Schedule every event on ``stack``'s simulator.

        ``consumers`` maps pid → pausable consumer and is required iff the
        plan contains :class:`Perturb` events.  Raises
        :class:`FaultPlanError` on unknown pids or a second installation.
        """
        if self._installed:
            raise FaultPlanError("fault plan already installed")
        members = set(stack.members)
        for pid in self.referenced_pids():
            if pid not in members:
                raise FaultPlanError(
                    f"fault plan names unknown process {pid} "
                    f"(members: {sorted(members)})"
                )
        for event in self.events:
            # Single-side partitions/heals cut against the complement; the
            # membership is static, so reject a side that covers the whole
            # group here rather than mid-run at fire time.
            sides = getattr(event, "sides", None)
            if sides is not None and len(sides) == 1 and set(sides[0]) >= members:
                raise FaultPlanError(
                    f"{event.kind} side {sorted(sides[0])} covers the whole "
                    f"group; nothing to cut"
                )
        perturbed = self.perturbed_pids()
        if perturbed and consumers is None:
            raise FaultPlanError(
                "plan contains Perturb events but no consumers were given"
            )
        for pid in perturbed:
            if pid not in (consumers or {}):
                raise FaultPlanError(
                    f"Perturb(pid={pid}) requires a pausable consumer on "
                    f"that process"
                )
        self._installed = True
        sim = stack.sim

        # Perturbations first, pids sorted, and per pid a pause at the
        # start and a resume at the end of each window in event order —
        # the scheduling order the golden fixtures pin.
        by_pid: Dict[int, List[Perturb]] = {}
        for event in self.events:
            if isinstance(event, Perturb):
                by_pid.setdefault(event.pid, []).append(event)
        for pid in sorted(by_pid):
            stall = _NestedPause(consumers[pid])
            for event in by_pid[pid]:
                sim.schedule_at(event.at, stall.pause)
                sim.schedule_at(event.at + event.duration, stall.resume)

        for event in self.events:
            if isinstance(event, Perturb):
                continue
            if isinstance(event, Crash):
                sim.schedule_at(event.at, stack.processes[event.pid].crash)
            elif isinstance(event, Recover):
                sim.schedule_at(
                    event.at, self._do_recover, stack, consumers, event
                )
            elif isinstance(event, Partition):
                sim.schedule_at(event.at, self._do_partition, stack, event)
            elif isinstance(event, Heal):
                sim.schedule_at(event.at, self._do_heal, stack, event)
            elif isinstance(event, LinkFault):
                sim.schedule_at(event.at, self._do_link_fault, stack, event)
            elif isinstance(event, ViewChange):
                sim.schedule_at(
                    event.at,
                    stack.processes[event.pid].trigger_view_change,
                    tuple(event.leave),
                )
            else:  # pragma: no cover - new event types must be wired here
                raise FaultPlanError(f"unhandled event type: {event!r}")

    # ------------------------------------------------------------------
    # Event executors (run at simulated time)
    # ------------------------------------------------------------------

    @staticmethod
    def _sides_at_install(stack: Any, sides: Tuple[Tuple[int, ...], ...]):
        if len(sides) == 1:
            # The complement is non-empty: install() rejected whole-group
            # sides against the (static) membership up front.
            named = set(sides[0])
            return (sides[0], tuple(p for p in stack.members if p not in named))
        return sides

    def _do_partition(self, stack: Any, event: Partition) -> None:
        sides = self._sides_at_install(stack, event.sides)
        for i, side_a in enumerate(sides):
            for side_b in sides[i + 1:]:
                stack.network.partition(set(side_a), set(side_b))

    def _do_heal(self, stack: Any, event: Heal) -> None:
        if event.sides is None:
            stack.network.heal_all()
            return
        sides = self._sides_at_install(stack, event.sides)
        for i, side_a in enumerate(sides):
            for side_b in sides[i + 1:]:
                for a in side_a:
                    for b in side_b:
                        stack.network.heal(a, b)

    @staticmethod
    def _do_link_fault(stack: Any, event: LinkFault) -> None:
        stack.network.set_link_fault(
            event.src,
            event.dst,
            loss=event.loss,
            duplicate=event.duplicate,
            reorder=event.reorder,
            reorder_spread=event.reorder_spread,
            filter=data_messages_only if event.data_only else None,
        )

    @staticmethod
    def _do_recover(
        stack: Any, consumers: Optional[Mapping[int, Any]], event: Recover
    ) -> None:
        stack.rejoin(event.pid, via=event.via, retry=event.retry)
        consumer = (consumers or {}).get(event.pid)
        if consumer is not None:
            restart = getattr(consumer, "restart", None)
            if restart is not None:
                restart()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds: Dict[str, int] = {}
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        summary = ", ".join(f"{k}×{n}" for k, n in sorted(kinds.items()))
        return f"FaultPlan({summary or 'empty'})"
