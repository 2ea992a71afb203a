"""Rendezvous engine for collective operations.

Each communicator numbers its collective calls with a per-rank local
sequence counter; because SPMD programs must call collectives in the same
order on every member rank, call *k* on one rank pairs with call *k* on
all the others.  A :class:`Rendezvous` collects one contribution per
member, and the last arriver runs the combining function once; everyone
then reads the published result.

This centralizes barrier/bcast/reduce/gather/scatter/alltoall logic: each
collective is just a combine function over the gathered contributions.

Ranks that arrive before the last one park on the job's baton with a
:class:`~repro.mpi.waitgraph.CollectiveWait`, so the deadlock diagnosis
can see which members are still missing; an attached fault injector
gets a hook per collective entry (call accounting, delay, crash).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from .baton import Baton
from .errors import MpiInternalError, MpiShutdown
from .waitgraph import CollectiveWait


class Rendezvous:
    """One collective-operation instance awaiting ``size`` contributions."""

    def __init__(self, size: int, op_name: str):
        self.size = size
        self.op_name = op_name
        self._lock = threading.Lock()
        self._contribs: dict[int, Any] = {}
        self.result: Any = None
        self.ready = False

    def arrived(self) -> set[int]:
        with self._lock:
            return set(self._contribs)

    def arrive(self, local_rank: int, contribution: Any,
               combine: Callable[[dict[int, Any]], Any],
               op_name: str) -> None:
        """Deposit this rank's contribution; the last arriver combines.

        ``combine`` maps {local_rank: contribution} to the shared result.
        The result is shared: per-rank slicing (scatter, gather-to-root)
        happens in the caller.
        """
        with self._lock:
            if op_name != self.op_name:
                raise MpiInternalError(
                    f"collective mismatch: rank {local_rank} called {op_name} "
                    f"but the in-flight operation is {self.op_name}")
            if local_rank in self._contribs:
                raise MpiInternalError(
                    f"rank {local_rank} arrived twice at {self.op_name}")
            self._contribs[local_rank] = contribution
            if len(self._contribs) == self.size:
                self.result = combine(self._contribs)
                self.ready = True


class CollectiveEngine:
    """Creates/locates rendezvous instances keyed by (comm id, call seq)."""

    def __init__(self, stop_event: threading.Event, baton: Baton,
                 injector: Optional[Any] = None):
        self._stop = stop_event
        self._baton = baton
        self._injector = injector
        self._lock = threading.Lock()
        self._inflight: dict[tuple[int, int], Rendezvous] = {}

    def run(self, comm_id: int, seq: int, size: int, local_rank: int,
            contribution: Any, combine: Callable[[dict[int, Any]], Any],
            op_name: str, global_rank: int,
            group: tuple[int, ...]) -> Any:
        if self._injector is not None:
            self._injector.on_collective(global_rank, op_name)
        key = (comm_id, seq)
        with self._lock:
            rv = self._inflight.get(key)
            if rv is None:
                rv = Rendezvous(size, op_name)
                self._inflight[key] = rv
        rv.arrive(local_rank, contribution, combine, op_name)
        if not rv.ready:
            wait = CollectiveWait(rank=global_rank, op_name=op_name,
                                  rendezvous=rv, group=group)
            while not rv.ready:
                if self._stop.is_set():
                    raise MpiShutdown(
                        f"rank {local_rank} interrupted in {op_name}")
                self._baton.block(global_rank, wait,
                                  lambda: int(rv.ready))
        # the instance is complete once ready: the first reader retires it
        # (keys are monotonically increasing sequence numbers, never reused)
        with self._lock:
            self._inflight.pop(key, None)
        return rv.result
