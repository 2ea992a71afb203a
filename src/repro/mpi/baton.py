"""Run-to-block scheduling of rank threads: the baton.

Exactly one rank thread of a job runs at a time: the one holding the
baton.  A rank hands the baton on only inside an MPI call that must
wait (receive, probe, waitany, a collective rendezvous) or that polls
without success (test, iprobe), and when its entry returns.  The next
holder is always the lowest-numbered runnable rank.  Python's GIL
already serialises these threads, so no parallelism is lost, and the
whole job becomes a pure function of the program, its inputs and the
match decisions taken.

Two facts follow exactly, with no timing involved:

* **quiesce** — no rank runnable, some unfinished.  Every unfinished
  rank is parked at a known MPI call and nothing changes until one of
  them acts.  The schedule controller takes its wildcard decisions
  here; with no decision pending, the job is a proven deadlock and
  ``on_quiesce`` is told which wait each rank is parked in.
* **abort point** — a crash stops the job while every other rank is
  parked, so where each one unwinds depends only on the program.

A parked rank's ``ready()`` callable is re-evaluated at every hand-off
and returns its wake level (lowest level wins, then lowest rank):

====  ==============================================================
0     blocked
1     runnable: its wait is satisfied (every parked rank, once the
      job is stopping)
2     a free wildcard decision with candidates: taken only at quiesce
3     a prescribed decision whose match never came (divergence)
4     polling (failed test/iprobe): runs when nothing else can;
      pollers rotate so two spinning ranks cannot starve a third
====  ==============================================================

An uninstrumented compute loop cannot be pre-empted.  The job's
watchdog stays as the backstop: on expiry :meth:`Baton.abandon` lets
every parked thread run freely and unwind.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

BLOCKED, RUNNABLE, FREE_DECISION, DIVERGENCE, POLLING = range(5)

_POLL = object()   # parked state of a rank whose poll came back empty
_DONE = object()   # the rank's entry returned


class Baton:
    """Hands one job's single execution right from rank to rank."""

    def __init__(self, size: int, stop_event: threading.Event,
                 on_quiesce: Callable[[dict[int, Any]], None]):
        self._size = size
        self._stop = stop_event
        self._on_quiesce = on_quiesce
        self._mutex = threading.Lock()
        #: a rank thread runs only after acquiring its gate; rank 0 holds
        #: the baton first
        self._gates = [threading.Lock() for _ in range(size)]
        for gate in self._gates[1:]:
            gate.acquire()
        #: per rank: None (running or ready to), ``(wait, ready)``,
        #: _POLL or _DONE
        self._parked: list[Any] = [None] * size
        #: the level each rank was last woken at
        self._level = [RUNNABLE] * size
        self._free = False

    def enter(self, rank: int) -> None:
        """First call on a rank thread: wait until the rank holds the baton."""
        if not self._free:
            self._gates[rank].acquire()

    def block(self, rank: int, wait: Any, ready: Callable[[], int]) -> int:
        """Park in ``wait`` until ``ready()`` wins a hand-off; returns the
        level the rank was woken at.  ``wait`` describes the call for the
        deadlock diagnosis."""
        return self._hand_off(rank, (wait, ready))

    def poll(self, rank: int) -> None:
        """A poll came back empty: let every other runnable rank go first."""
        self._hand_off(rank, _POLL)

    def finish(self, rank: int) -> None:
        """The rank's entry returned: pass the baton on for good."""
        self._hand_off(rank, _DONE)

    def abandon(self) -> None:
        """Stop scheduling: release every parked thread to run freely.

        The watchdog's last resort when the holder cannot be pre-empted;
        the job is stopping, so released ranks only unwind."""
        with self._mutex:
            self._free = True
            for gate in self._gates:
                if gate.locked():
                    gate.release()

    # ------------------------------------------------------------------
    def _hand_off(self, me: int, state: Any) -> int:
        with self._mutex:
            if self._free:
                return RUNNABLE
            self._parked[me] = state
            nxt = self._pick(me)
            if nxt is None and any(p is not _DONE for p in self._parked):
                self._on_quiesce({r: p[0] for r, p in enumerate(self._parked)
                                  if isinstance(p, tuple)})
                nxt = self._pick(me)
            if nxt is not None:
                self._parked[nxt] = None
                if nxt == me:
                    return self._level[me]
                self._gates[nxt].release()
        if state is not _DONE:
            # park until a later hand-off picks this rank, or abandon()
            self._gates[me].acquire()
        return self._level[me]

    def _pick(self, me: int) -> Optional[int]:
        """The next holder: lowest level, then lowest rank (pollers in
        turn after ``me``); ``None`` when no rank can run."""
        stopping = self._stop.is_set()
        best, best_key = None, None
        for r, p in enumerate(self._parked):
            if p is _DONE:
                continue
            if p is None or stopping:
                level = RUNNABLE
            elif p is _POLL:
                level = POLLING
            else:
                level = p[1]()
            if level == RUNNABLE:
                best, best_key = r, (RUNNABLE, r)
                break
            if level:
                key = (level, (r - me - 1) % self._size
                       if level == POLLING else r)
                if best_key is None or key < best_key:
                    best, best_key = r, key
        if best is not None:
            self._level[best] = best_key[0]
        return best
