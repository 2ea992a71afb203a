"""Communicators for the virtual MPI runtime.

A :class:`Communicator` is a *per-rank* view onto a group of global ranks:
each member rank holds its own ``Communicator`` object sharing a common
``comm_id`` and group.  Point-to-point operations translate local ranks to
global ranks and use the job's mailboxes; collectives go through the
shared :class:`~repro.mpi.collectives.CollectiveEngine`.

Supported surface (what the paper's targets need):

* ``Get_rank`` / ``Get_size``
* ``Send`` / ``Recv`` / ``Sendrecv`` / ``Isend`` / ``Irecv`` / ``Iprobe``
* ``Barrier``, ``Bcast``, ``Reduce``, ``Allreduce``, ``Scan``,
  ``Gather``, ``Allgather``, ``Scatter``, ``Alltoall``
* ``Split`` (→ new communicators; the basis for COMPI's `rc` marking)
* ``Dup``, ``Abort``
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Optional, TYPE_CHECKING

from .datatypes import ReduceOp, copy_payload, reduce_pair
from .errors import MpiInvalidRank
from .status import ANY_SOURCE, ANY_TAG, Request, Status

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Job

_comm_ids = itertools.count(1)


class Communicator:
    """One rank's handle on a communicator."""

    def __init__(self, job: "Job", comm_id: int, group: tuple[int, ...],
                 my_global_rank: int, name: str = "comm"):
        self.job = job
        self.comm_id = comm_id
        #: global ranks of the members, ordered by local rank
        self.group = group
        self.name = name
        self._global_rank = my_global_rank
        self._rank = group.index(my_global_rank)
        self._coll_seq = 0  # this rank's local collective-call counter

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return len(self.group)

    @property
    def is_world(self) -> bool:
        return self.comm_id == 0

    def local_to_global(self, local_rank: int) -> int:
        if not (0 <= local_rank < len(self.group)):
            raise MpiInvalidRank(local_rank, len(self.group))
        return self.group[local_rank]

    def global_to_local(self, global_rank: int) -> int:
        try:
            return self.group.index(global_rank)
        except ValueError:
            raise MpiInvalidRank(global_rank, len(self.group)) from None

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def _tag_key(self, tag: int) -> int:
        """Namespace tags per communicator so comms don't cross-match."""
        if tag in (ANY_TAG,):
            return tag
        return (self.comm_id << 20) | (tag & 0xFFFFF)

    def _tag_range(self) -> tuple[int, int]:
        """Key range covering every tag of this communicator (for ANY_TAG)."""
        return (self.comm_id << 20, (self.comm_id + 1) << 20)

    def _spec(self, source: int, tag: int) -> tuple:
        """Local ``(source, tag)`` → the mailbox's receive pattern."""
        gsource = source if source == ANY_SOURCE else self.local_to_global(source)
        if tag == ANY_TAG:
            return (gsource, ANY_TAG, self._tag_range())
        return (gsource, self._tag_key(tag), None)

    def _status(self, st: Status) -> Status:
        return Status(source=self.global_to_local(st.source), tag=st.tag & 0xFFFFF)

    def Send(self, payload: Any, dest: int, tag: int = 0) -> None:
        gdest = self.local_to_global(dest)
        self.job.mailboxes[gdest].deposit(
            source=self._global_rank, tag=self._tag_key(tag),
            payload=copy_payload(payload))

    def Recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> tuple[Any, Status]:
        gsource, ktag, trange = self._spec(source, tag)
        payload, st = self.job.mailboxes[self._global_rank].receive(
            source=gsource, tag=ktag, tag_range=trange)
        return payload, self._status(st)

    def Sendrecv(self, payload: Any, dest: int, sendtag: int = 0,
                 source: int = ANY_SOURCE, recvtag: int = ANY_TAG) -> tuple[Any, Status]:
        self.Send(payload, dest, sendtag)
        return self.Recv(source, recvtag)

    def Isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        self.Send(payload, dest, tag)  # buffered send: completes immediately
        return Request(payload=None, status=None)

    def Irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        spec = self._spec(source, tag)
        mbox = self.job.mailboxes[self._global_rank]

        def completer(timeout: Optional[float],
                      pin: Optional[tuple[int, int]] = None) -> tuple[Any, Status]:
            # a pin is the concrete match a schedule decision chose; a
            # concrete (source, tag) receive is deterministic (FIFO)
            source, tag, trange = spec if pin is None else (*pin, None)
            payload, st = mbox.receive(source=source, tag=tag,
                                       timeout=timeout, tag_range=trange)
            return payload, self._status(st)

        req = Request(completer=completer)
        req.recv = (mbox, spec)
        return req

    def Probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Blocking probe: wait until a matching message is available,
        without consuming it (``MPI_Probe``)."""
        spec = self._spec(source, tag)
        mbox = self.job.mailboxes[self._global_rank]
        mbox.wait_match([spec], "Probe", consume=False)
        return self._status(mbox.probe(*spec))

    def Iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        st = self.job.mailboxes[self._global_rank].probe(*self._spec(source, tag))
        return None if st is None else self._status(st)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _collective(self, contribution: Any, combine, op_name: str) -> Any:
        seq = self._coll_seq
        self._coll_seq += 1
        return self.job.collectives.run(
            comm_id=self.comm_id, seq=seq, size=len(self.group),
            local_rank=self._rank, contribution=contribution,
            combine=combine, op_name=op_name,
            global_rank=self._global_rank, group=self.group)

    def Barrier(self) -> None:
        self._collective(None, lambda contribs: None, "Barrier")

    def Bcast(self, payload: Any, root: int = 0) -> Any:
        self.local_to_global(root)  # validate
        result = self._collective(
            copy_payload(payload) if self._rank == root else None,
            lambda contribs: contribs[root], "Bcast")
        return copy_payload(result)

    def Reduce(self, payload: Any, op: ReduceOp, root: int = 0) -> Any:
        """Returns the reduced value on ``root``; ``None`` elsewhere."""
        self.local_to_global(root)

        def combine(contribs: dict[int, Any]) -> Any:
            acc = contribs[0]
            for r in range(1, len(self.group)):
                acc = reduce_pair(op, acc, contribs[r])
            return acc

        result = self._collective(copy_payload(payload), combine, f"Reduce[{op.name}]")
        return copy_payload(result) if self._rank == root else None

    def Allreduce(self, payload: Any, op: ReduceOp) -> Any:
        def combine(contribs: dict[int, Any]) -> Any:
            acc = contribs[0]
            for r in range(1, len(self.group)):
                acc = reduce_pair(op, acc, contribs[r])
            return acc

        result = self._collective(copy_payload(payload), combine,
                                  f"Allreduce[{op.name}]")
        return copy_payload(result)

    def Scan(self, payload: Any, op: ReduceOp) -> Any:
        """Inclusive prefix reduction."""

        def combine(contribs: dict[int, Any]) -> list[Any]:
            out = [contribs[0]]
            for r in range(1, len(self.group)):
                out.append(reduce_pair(op, out[-1], contribs[r]))
            return out

        result = self._collective(copy_payload(payload), combine, f"Scan[{op.name}]")
        return copy_payload(result[self._rank])

    def Gather(self, payload: Any, root: int = 0) -> Optional[list[Any]]:
        self.local_to_global(root)
        result = self._collective(
            copy_payload(payload),
            lambda contribs: [contribs[r] for r in range(len(self.group))],
            "Gather")
        return copy_payload(result) if self._rank == root else None

    def Allgather(self, payload: Any) -> list[Any]:
        result = self._collective(
            copy_payload(payload),
            lambda contribs: [contribs[r] for r in range(len(self.group))],
            "Allgather")
        return copy_payload(result)

    def Scatter(self, payloads: Optional[list[Any]], root: int = 0) -> Any:
        self.local_to_global(root)
        if self._rank == root:
            if payloads is None or len(payloads) != len(self.group):
                raise MpiInvalidRank(len(payloads or []), len(self.group))
            contribution = copy_payload(list(payloads))
        else:
            contribution = None
        result = self._collective(contribution,
                                  lambda contribs: contribs[root], "Scatter")
        return copy_payload(result[self._rank])

    def Gatherv(self, payload: Any, root: int = 0) -> Optional[list[Any]]:
        """Variable-size gather: contributions may differ per rank (the
        count/displacement bookkeeping of ``MPI_Gatherv`` collapses to
        list concatenation at this abstraction level)."""
        return self.Gather(payload, root=root)

    def Scatterv(self, payloads: Optional[list[Any]], root: int = 0) -> Any:
        """Variable-size scatter — element *i* of ``payloads`` (any sizes)
        goes to local rank *i*."""
        return self.Scatter(payloads, root=root)

    def Reduce_scatter(self, payloads: list[Any], op: ReduceOp) -> Any:
        """``MPI_Reduce_scatter_block`` analog: elementwise-reduce the
        rank-indexed lists, then each rank keeps its own slot."""
        if len(payloads) != len(self.group):
            raise MpiInvalidRank(len(payloads), len(self.group))

        def combine(contribs: dict[int, Any]) -> list[Any]:
            n = len(self.group)
            out = []
            for slot in range(n):
                acc = contribs[0][slot]
                for r in range(1, n):
                    acc = reduce_pair(op, acc, contribs[r][slot])
                out.append(acc)
            return out

        result = self._collective(copy_payload(list(payloads)), combine,
                                  f"Reduce_scatter[{op.name}]")
        return copy_payload(result[self._rank])

    def Exscan(self, payload: Any, op: ReduceOp) -> Any:
        """Exclusive prefix reduction (rank 0 receives ``None``)."""

        def combine(contribs: dict[int, Any]) -> list[Any]:
            out: list[Any] = [None]
            acc = contribs[0]
            for r in range(1, len(self.group)):
                out.append(acc)
                acc = reduce_pair(op, acc, contribs[r])
            return out

        result = self._collective(copy_payload(payload), combine,
                                  f"Exscan[{op.name}]")
        return copy_payload(result[self._rank])

    def Alltoall(self, payloads: list[Any]) -> list[Any]:
        if len(payloads) != len(self.group):
            raise MpiInvalidRank(len(payloads), len(self.group))

        def combine(contribs: dict[int, Any]) -> dict[int, list[Any]]:
            n = len(self.group)
            return {r: [contribs[s][r] for s in range(n)] for r in range(n)}

        result = self._collective(copy_payload(list(payloads)), combine, "Alltoall")
        return copy_payload(result[self._rank])

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------
    def Split(self, color: int, key: int = 0, name: str = "split") -> Optional["Communicator"]:
        """``MPI_Comm_split``: all members call; returns each rank's new
        communicator (or ``None`` for ``color < 0``, the UNDEFINED analog).

        A shared ``comm_id`` per colour group is allotted by the combine
        step so that every member of a group agrees on it.
        """
        def combine(contribs: dict[int, Any]) -> dict[int, tuple[int, tuple[int, ...]]]:
            groups: dict[int, list[tuple[int, int, int]]] = {}
            for local_rank, (c, k) in contribs.items():
                if c is None or c < 0:
                    continue
                groups.setdefault(c, []).append((k, local_rank, self.group[local_rank]))
            out: dict[int, tuple[int, tuple[int, ...]]] = {}
            for c in sorted(groups):
                members = sorted(groups[c])  # order by key, then old rank
                cid = next(_comm_ids)
                g = tuple(grank for (_k, _lr, grank) in members)
                for (_k, local_rank, _grank) in members:
                    out[local_rank] = (cid, g)
            return out

        result = self._collective((int(color), int(key)), combine, "Split")
        if self._rank not in result:
            return None
        cid, group = result[self._rank]
        return Communicator(self.job, cid, group, self._global_rank,
                            name=f"{name}#{cid}")

    def Dup(self) -> "Communicator":
        result = self._collective(None, lambda c: next(_comm_ids), "Dup")
        return Communicator(self.job, result, self.group, self._global_rank,
                            name=f"{self.name}.dup")

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    def Abort(self, errorcode: int = 1) -> None:
        self.job.abort(errorcode, origin=self._global_rank)
