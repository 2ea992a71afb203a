"""Per-rank mailboxes with MPI matching semantics.

Every rank owns one :class:`Mailbox`.  Senders deposit messages directly
into the destination's mailbox (eager/buffered protocol: a send never
blocks).  Receivers match ``(source, tag)`` honouring ``ANY_SOURCE`` /
``ANY_TAG`` wildcards and FIFO ordering per (source, tag) pair — the
MPI non-overtaking rule.  Messages are kept in send order (ranks run one
at a time under the job's baton), so the earliest match is the first.

A receive, probe or waitany that finds nothing parks its rank on the
:class:`~repro.mpi.baton.Baton` with a
:class:`~repro.mpi.waitgraph.RecvWait`; the baton wakes it when a
matching message has arrived, or to unwind with
:class:`~repro.mpi.errors.MpiShutdown` once the job is stopping.  A poll
(``Iprobe``, ``Request.test``) never parks: an empty one hands the baton
on so other ranks can make progress.

Two optional collaborators plug in here (both ``None`` in plain runs):

* a match policy (:class:`~repro.schedules.ScheduleController`) —
  consuming waits on ``ANY_SOURCE`` become decision points, and the
  policy picks the match and the level it may be taken at;
* a :class:`~repro.faults.injector.FaultInjector` — ``deposit`` routes
  through its send hook (delay/drop/corrupt), and both sides count as
  MPI calls for the crash/jitter fault models.
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Sequence

from .baton import RUNNABLE, Baton
from .errors import MpiShutdown
from .status import ANY_SOURCE, ANY_TAG, Message, Status
from .waitgraph import RecvWait, Spec


def matches(m: Message, source: int, tag: int,
            tag_range: Optional[tuple[int, int]] = None) -> bool:
    """Does ``m`` match the receive pattern?  ``tag_range=(lo, hi)``
    implements a communicator-scoped ANY_TAG (``lo <= tag < hi``)."""
    if source != ANY_SOURCE and m.source != source:
        return False
    if tag != ANY_TAG:
        return m.tag == tag
    return tag_range is None or tag_range[0] <= m.tag < tag_range[1]


class Mailbox:
    """Unbounded mailbox for one receiving rank."""

    def __init__(self, owner_rank: int, stop_event: threading.Event,
                 baton: Optional[Baton] = None,
                 injector: Optional[Any] = None,
                 policy: Optional[Any] = None):
        self.owner_rank = owner_rank
        self._stop = stop_event
        #: without a baton (a standalone mailbox) nothing can arrive while
        #: the caller waits, so every receive is a poll
        self._baton = baton
        self._injector = injector
        self._policy = policy
        self._lock = threading.Lock()
        self.messages: list[Message] = []

    def deposit(self, source: int, tag: int, payload: Any) -> None:
        """Called from the *sender's* thread: enqueue the message."""
        if self._injector is not None:
            payload, deliver = self._injector.on_send(
                source, self.owner_rank, tag, payload)
            if not deliver:
                return
        with self._lock:
            self.messages.append(Message(source=source, tag=tag,
                                         payload=payload))

    def _match_index(self, source: int, tag: int,
                     tag_range: Optional[tuple[int, int]] = None) -> Optional[int]:
        """Index of the earliest matching message."""
        for i, m in enumerate(self.messages):
            if matches(m, source, tag, tag_range):
                return i
        return None

    def wait_match(self, specs: Sequence[Spec], op: str, consume: bool = True,
                   poll: bool = False) -> tuple[int, Optional[tuple[int, int]]]:
        """Hold until one of ``specs`` can match.

        Returns ``(k, pin)``: the index of the first spec that matches
        and, at a schedule decision point, the ``(source, tag)`` pair the
        controller chose (``None`` otherwise).  Consuming waits whose
        specs are all ``ANY_SOURCE`` are decision points when a match
        policy is attached.  ``poll=True`` never parks: an empty poll
        hands the baton on once and raises :class:`TimeoutError`.
        """
        rank = self.owner_rank
        policy = (self._policy if consume and not poll
                  and all(s[0] == ANY_SOURCE for s in specs) else None)
        level, wait = RUNNABLE, None
        while True:
            with self._lock:
                if policy is not None:
                    cands = policy.candidates(self.messages, specs)
                    pin = policy.decide(rank, cands, level)
                    if pin is not None:
                        return cands[pin][1], pin
                else:
                    for k, spec in enumerate(specs):
                        if self._match_index(*spec) is not None:
                            return k, None
            if self._stop.is_set():
                raise MpiShutdown(f"rank {rank} interrupted in {op}")
            if poll or self._baton is None:
                if self._baton is not None:
                    self._baton.poll(rank)
                raise TimeoutError("no matching message")
            if wait is None:
                wait = RecvWait(rank=rank, op=op, specs=tuple(specs))
                if policy is not None:
                    def ready() -> int:
                        return policy.level(
                            rank, policy.candidates(self.messages, specs))
                else:
                    def ready() -> int:
                        return int(any(self._match_index(*s) is not None
                                       for s in specs))
            level = self._baton.block(rank, wait, ready)

    def receive(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
                timeout: Optional[float] = None,
                tag_range: Optional[tuple[int, int]] = None) -> tuple[Any, Status]:
        """Wait for a matching message and consume it; return (payload, status).

        ``timeout=None`` waits until a match or job shutdown.  Any finite
        timeout makes the receive a poll (``Request.test``): nothing can
        arrive while the caller holds the baton, so it raises
        :class:`TimeoutError` at once when nothing matches.
        """
        if self._injector is not None:
            self._injector.on_call(self.owner_rank)
        spec = (source, tag, tag_range)
        _, pin = self.wait_match([spec], "Recv", poll=timeout is not None)
        with self._lock:
            idx = (self._match_index(pin[0], pin[1]) if pin is not None
                   else self._match_index(*spec))
            msg = self.messages.pop(idx)
        return msg.payload, Status(source=msg.source, tag=msg.tag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              tag_range: Optional[tuple[int, int]] = None) -> Optional[Status]:
        """Non-destructive match test (``MPI_Iprobe`` analog); an empty
        probe hands the baton on."""
        with self._lock:
            idx = self._match_index(source, tag, tag_range)
            m = self.messages[idx] if idx is not None else None
        if m is None:
            if self._baton is not None:
                self._baton.poll(self.owner_rank)
            return None
        return Status(source=m.source, tag=m.tag)

    def pending_count(self) -> int:
        with self._lock:
            return len(self.messages)
