"""Purgeable FIFO delivery queues and bounded protocol buffers.

The protocol of Figure 1 keeps two ordered message sets per process —
``to-deliver`` and ``delivered`` — and applies the ``purge`` function to
``to-deliver`` whenever new information arrives.  :class:`DeliveryQueue`
implements that structure: a FIFO queue of data and view messages with
semantic purging against a configured
:class:`~repro.core.obsolescence.ObsolescenceRelation`.

Purge semantics (Figure 1)::

    while ∃ m=[DATA,v,d], m'=[DATA,v',d'] ∈ S : (v = v') ∧ (m ≺ m')
        do remove(S, m)

For a transitive relation the fixpoint equals a single simultaneous pass:
remove every message dominated by some member of the *original* set (any
dominator removed in the loop is itself dominated by a surviving maximal
element that, by transitivity, also dominates the removed message).  We
implement the single pass because it is deterministic; for non-transitive
relations (over-truncated enumerations) the fixpoint loop would be
order-dependent, which is exactly the hazard documented in
:mod:`repro.core.obsolescence`.

View messages (:class:`~repro.core.message.ViewDelivery`) are never purged
and never dominate anything; only DATA messages *tagged with the same view*
participate in purging, as in the paper.

Kernel v2 changed the queue's two hot paths:

* **Indexed purging** — when the relation provides an obsolescence index
  (:meth:`~repro.core.obsolescence.ObsolescenceRelation.make_index`),
  purge victims resolve by per-key lookup instead of a linear
  ``obsoletes`` scan.  Relations without an index — and queues built with
  ``use_index=False`` — fall back to the naive scan, which remains the
  behavioural reference (``tests/core/test_purge_index.py`` asserts the
  two paths decide identically).
* **Lazy removal** — purged entries are tombstoned (their ids join
  ``_doomed``) and reclaimed when the head passes them or on periodic
  compaction, so purging one message out of an n-message backlog is O(1)
  amortised instead of an O(n) rebuild.  All observable state (length,
  iteration, ``contains_mid``, stats) reflects live entries only.

``purge``/``purge_by`` return the removed messages sorted by
``(sender, sn)`` — identical to arrival order for the per-sender FIFO
streams the protocol produces.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Set, Union

from repro.core.message import DataMessage, MessageId, ViewDelivery
from repro.core.obsolescence import ObsolescenceRelation

__all__ = ["QueueFullError", "DeliveryQueue", "QueueStats"]

QueueEntry = Union[DataMessage, ViewDelivery]


class QueueFullError(RuntimeError):
    """Raised by :meth:`DeliveryQueue.append` when a bounded queue is full."""


class QueueStats:
    """Lifetime counters for one queue (used by experiments and tests)."""

    __slots__ = ("appended", "purged", "popped", "rejected", "max_len")

    def __init__(self) -> None:
        self.appended = 0
        self.purged = 0
        self.popped = 0
        self.rejected = 0
        self.max_len = 0

    def purge_ratio(self) -> float:
        """Fraction of appended data messages later removed by purging."""
        if self.appended == 0:
            return 0.0
        return self.purged / self.appended

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QueueStats(appended={self.appended}, purged={self.purged}, "
            f"popped={self.popped}, rejected={self.rejected}, max={self.max_len})"
        )


class DeliveryQueue:
    """FIFO queue with semantic purging and optional capacity bound.

    ``capacity=None`` gives the unbounded queue used by the raw protocol;
    the throughput model and the GCS layer use bounded queues, where
    exhaustion triggers flow control (Section 5.3: "when its delivery queue
    fills up, a node ceases to accept further messages").
    """

    __slots__ = (
        "relation", "capacity", "_items", "_mids", "_doomed", "_size",
        "_index", "_inert", "_live_index", "stats", "wake",
    )

    def __init__(
        self,
        relation: ObsolescenceRelation,
        capacity: Optional[int] = None,
        use_index: bool = True,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None: {capacity}")
        self.relation = relation
        self.capacity = capacity
        # ``_items`` is physical storage and may contain tombstoned
        # entries (ids in ``_doomed``); ``_size`` counts live entries.
        self._items: List[QueueEntry] = []
        self._doomed: Set[MessageId] = set()
        self._size = 0
        self._mids: Set[MessageId] = set()
        # ``use_index=False`` forces the naive purge scans — the reference
        # path the property tests compare the index against.  An *inert*
        # index (empty relation) short-circuits purging altogether.
        self._index = relation.make_index() if use_index else None
        self._inert = self._index is not None and self._index.inert
        # The index consulted on the hot path: None both for "no index"
        # (naive fallback) and "inert" (purging impossible); ``_inert``
        # disambiguates the two.
        self._live_index = None if self._inert else self._index
        self.stats = QueueStats()
        #: Called with no arguments whenever an append turns the queue
        #: from empty to non-empty — the wake-up of a parked
        #: :class:`~repro.gcs.endpoint.RateLimitedConsumer`.
        self.wake: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Basic container behaviour (live entries only)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[QueueEntry]:
        if not self._doomed:
            return iter(self._items)
        doomed = self._doomed
        return iter(
            [
                m
                for m in self._items
                if not (isinstance(m, DataMessage) and m.mid in doomed)
            ]
        )

    def __bool__(self) -> bool:
        return self._size > 0

    def contains_mid(self, mid: MessageId) -> bool:
        return mid in self._mids

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and self._size >= self.capacity

    @property
    def free_space(self) -> Optional[int]:
        if self.capacity is None:
            return None
        return self.capacity - self._size

    def data_messages(self) -> List[DataMessage]:
        return [m for m in self if isinstance(m, DataMessage)]

    def data_in_view(self, view_id: int) -> List[DataMessage]:
        return [
            m
            for m in self
            if isinstance(m, DataMessage) and m.view_id == view_id
        ]

    def peek(self) -> Optional[QueueEntry]:
        if not self._size:
            return None
        if self._doomed:
            self._reclaim_head()
        return self._items[0]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def append(self, msg: QueueEntry) -> None:
        """Append to the tail; raises :class:`QueueFullError` when bounded
        and full.  Does not purge — callers follow Figure 1 and invoke
        :meth:`purge` (or use :meth:`try_append`)."""
        if self.capacity is not None and self._size >= self.capacity:
            self.stats.rejected += 1
            raise QueueFullError(f"queue at capacity {self.capacity}")
        if isinstance(msg, DataMessage):
            if self._doomed and msg.mid in self._doomed:
                # Re-accepting a previously purged id (possible via the
                # installation flush): drop its tombstone first so the
                # fresh entry is not mistaken for it.
                self._compact()
            self._mids.add(msg.mid)
            if self._live_index is not None:
                self._live_index.add(msg)
        self._items.append(msg)
        self._size += 1
        stats = self.stats
        stats.appended += 1
        if self._size > stats.max_len:
            stats.max_len = self._size
        if self._size == 1 and self.wake is not None:
            self.wake()

    def try_append(self, msg: QueueEntry) -> bool:
        """Purge-then-append for bounded queues.

        A new data message may free its own slot by making queued messages
        obsolete — the mechanism by which a *full* buffer keeps absorbing
        traffic under SVS.  Returns False (leaving the queue unchanged
        except for the purge) when no space can be found.
        """
        stats = self.stats
        if isinstance(msg, DataMessage):
            # Purge inline (mirrors purge_by): this is the per-offered-
            # message hot path of the throughput model and the protocol.
            index = self._live_index
            if index is not None:
                candidates = index.obsoleted_by(msg)
                if candidates:
                    self._remove_msgs(candidates, exclude=msg.mid)
            elif not self._inert:
                self.purge_by(msg)
            if self.capacity is not None and self._size >= self.capacity:
                stats.rejected += 1
                return False
            if self._doomed and msg.mid in self._doomed:
                self._compact()
            self._items.append(msg)
            self._mids.add(msg.mid)
            if index is not None:
                index.add(msg)
        else:
            if self.capacity is not None and self._size >= self.capacity:
                stats.rejected += 1
                return False
            self._items.append(msg)
        self._size += 1
        stats.appended += 1
        if self._size > stats.max_len:
            stats.max_len = self._size
        if self._size == 1 and self.wake is not None:
            self.wake()
        return True

    def append_purge(self, msg: DataMessage) -> List[DataMessage]:
        """Fused :meth:`append` + :meth:`purge_by` of one data message.

        Exactly equivalent to the two calls in sequence (the t3 receive
        path of Figure 1), but resolves the purge candidates and the
        index insertion in a single bucket interaction via
        :meth:`PurgeIndex.add_obsoleted
        <repro.core.obsolescence.PurgeIndex.add_obsoleted>`.  Returns the
        purged messages, sorted like :meth:`purge_by`.
        """
        index = self._live_index
        if index is None:
            # Naive-scan or inert queue: nothing to fuse.
            self.append(msg)
            return self.purge_by(msg)
        if self.capacity is not None and self._size >= self.capacity:
            self.stats.rejected += 1
            raise QueueFullError(f"queue at capacity {self.capacity}")
        if self._doomed and msg.mid in self._doomed:
            self._compact()
        self._mids.add(msg.mid)
        candidates = index.add_obsoleted(msg)
        self._items.append(msg)
        self._size += 1
        stats = self.stats
        stats.appended += 1
        if self._size > stats.max_len:
            stats.max_len = self._size
        if self._size == 1 and self.wake is not None:
            self.wake()
        if not candidates:
            return []
        return self._remove_msgs(candidates, exclude=msg.mid)

    def pop(self) -> QueueEntry:
        """Remove and return the head (Figure 1 t1: removeFirst)."""
        if not self._size:
            raise IndexError("pop from empty DeliveryQueue")
        if self._doomed:
            self._reclaim_head()
        msg = self._items.pop(0)
        if isinstance(msg, DataMessage):
            self._mids.discard(msg.mid)
            if self._live_index is not None:
                self._live_index.discard(msg)
        self._size -= 1
        self.stats.popped += 1
        return msg

    # ------------------------------------------------------------------
    # Purging
    # ------------------------------------------------------------------

    def purge(self) -> List[DataMessage]:
        """Remove every same-view data message dominated by a queued one.

        Returns the purged messages sorted by ``(sender, sn)`` (useful
        for accounting and tests).
        """
        if self._inert:
            return []
        data = self.data_messages()
        if len(data) < 2:
            return []
        if self._live_index is not None:
            victims: List[DataMessage] = []
            for new in data:
                for old in self._live_index.obsoleted_by(new):
                    if old.mid != new.mid:
                        victims.append(old)
            if not victims:
                return []
            return self._remove_msgs(victims)
        removed = [
            old
            for old in data
            if any(
                new.view_id == old.view_id and self.relation.obsoletes(new, old)
                for new in data
                if new.mid != old.mid
            )
        ]
        if not removed:
            return []
        return self._remove_msgs(removed)

    def purge_by(self, new: DataMessage) -> List[DataMessage]:
        """Remove queued same-view data messages that ``new`` makes obsolete.

        ``new`` need not be in the queue — this is the fast path used when
        a single message arrives (appending it and running the full
        :meth:`purge` is equivalent for transitive relations but O(n²)).
        With an index the victims are resolved by per-key lookup; the
        linear scan below is the fallback (and reference) path.
        """
        if self._inert:
            return []
        if self._live_index is not None:
            candidates = self._live_index.obsoleted_by(new)
            if not candidates:
                return []
            return self._remove_msgs(candidates, exclude=new.mid)
        removed = [
            old
            for old in self
            if isinstance(old, DataMessage)
            and old.view_id == new.view_id
            and old.mid != new.mid
            and self.relation.obsoletes(new, old)
        ]
        if not removed:
            return []
        return self._remove_msgs(removed)

    def covered(self, msg: DataMessage) -> bool:
        """True iff some queued message m' satisfies ``msg ⊑ m'``.

        This is the Figure 1 t3 acceptance test (applied alongside the
        delivered log by the protocol).
        """
        if msg.mid in self._mids:
            return True
        if self._inert:
            return False
        if self._live_index is not None:
            return self._live_index.coverer_of(msg)
        return any(
            isinstance(other, DataMessage) and self.relation.covers(other, msg)
            for other in self
        )

    # ------------------------------------------------------------------
    # Tombstoned removal
    # ------------------------------------------------------------------

    def _remove_msgs(
        self,
        victims: Iterable[DataMessage],
        exclude: Optional[MessageId] = None,
    ) -> List[DataMessage]:
        """Tombstone ``victims`` (live queued messages); return them sorted
        by ``(sender, sn)``, deduplicated."""
        doomed = self._doomed
        mids = self._mids
        index = self._live_index
        removed: List[DataMessage] = []
        for m in victims:
            mid = m.mid
            if mid == exclude or mid in doomed:
                continue
            doomed.add(mid)
            mids.discard(mid)
            if index is not None:
                index.discard(m)
            removed.append(m)
        if not removed:
            return []
        self._size -= len(removed)
        self.stats.purged += len(removed)
        removed.sort(key=_mid_of)
        # Amortised compaction: never let tombstones dominate storage.
        if len(self._items) > 2 * self._size + 16:
            self._compact()
        return removed

    def _reclaim_head(self) -> None:
        """Physically drop tombstoned entries sitting at the head."""
        items = self._items
        doomed = self._doomed
        while items:
            head = items[0]
            if isinstance(head, DataMessage) and head.mid in doomed:
                doomed.remove(head.mid)
                items.pop(0)
            else:
                break

    def _compact(self) -> None:
        """Physically remove every tombstoned entry."""
        doomed = self._doomed
        if not doomed:
            return
        self._items = [
            m
            for m in self._items
            if not (isinstance(m, DataMessage) and m.mid in doomed)
        ]
        doomed.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "∞" if self.capacity is None else str(self.capacity)
        return f"DeliveryQueue(len={self._size}/{cap})"


def _mid_of(msg: DataMessage) -> MessageId:
    return msg.mid
