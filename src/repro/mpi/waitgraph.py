"""Wait descriptions and the deadlock diagnosis.

The watchdog timeout can only say "the job did not finish in time" — it
cannot tell an infinite compute loop from a genuine communication
deadlock.  This module closes that gap the way MPISE's scheduler does.
Every MPI call that must wait parks its rank on the job's
:class:`~repro.mpi.baton.Baton` with a description of *what it waits
for*: a :class:`RecvWait` (receive, probe, waitany) or a
:class:`CollectiveWait`.  When no rank can run and some are unfinished
— exact quiesce, a fact the baton knows at the moment it happens —
:func:`detect_deadlock` turns those descriptions into a diagnosis with
the rank cycle (e.g. ``0→1→0``) for the bug report.

Sends never block (eager/buffered protocol), so at quiesce no pending
message or completed rendezvous can wake anyone: the job is deadlocked
whether or not a cycle exists (a rank waiting on an already-terminated
peer is an *orphan wait*, equally permanent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .status import ANY_SOURCE

#: one receive pattern: (global source or ANY_SOURCE, keyed tag or
#: ANY_TAG, communicator tag range for ANY_TAG or None)
Spec = tuple[int, int, Optional[tuple[int, int]]]


@dataclass(frozen=True)
class RecvWait:
    """A rank parked until a message matches one of ``specs``."""

    rank: int
    op: str                                  # "Recv", "Probe" or "Waitany"
    specs: tuple[Spec, ...]

    def describe(self) -> str:
        return f"{self.op}(" + " | ".join(
            f"source={'ANY_SOURCE' if s == ANY_SOURCE else s}, tag={t}"
            for s, t, _ in self.specs) + ")"

    def targets(self, live: set[int]) -> set[int]:
        if any(s == ANY_SOURCE for s, _, _ in self.specs):
            return live - {self.rank}
        return {s for s, _, _ in self.specs}


@dataclass(frozen=True)
class CollectiveWait:
    """A rank parked in a collective rendezvous."""

    rank: int
    op_name: str
    rendezvous: Any                          # collectives.Rendezvous
    group: tuple[int, ...]                   # local rank -> global rank

    def describe(self) -> str:
        return f"collective {self.op_name}"

    def targets(self, live: set[int]) -> set[int]:
        arrived = self.rendezvous.arrived()
        return {g for lr, g in enumerate(self.group) if lr not in arrived}


@dataclass(frozen=True)
class DeadlockInfo:
    """Diagnosis of a detected communication deadlock."""

    #: rank cycle including the closing repeat, e.g. ``(0, 1, 0)``;
    #: ``None`` when the deadlock is an orphan wait (no cycle exists,
    #: e.g. a rank receiving from a peer that already terminated)
    cycle: Optional[tuple[int, ...]]
    #: per-rank description of what each blocked rank was waiting for
    waits: dict[int, str] = field(default_factory=dict)

    def describe(self) -> str:
        if self.cycle:
            return "cycle " + "→".join(str(r) for r in self.cycle)
        blocked = ", ".join(f"rank {r}: {w}" for r, w in sorted(self.waits.items()))
        return f"orphan wait ({blocked})"


def find_cycle(edges: dict[int, set[int]]) -> Optional[list[int]]:
    """Find any directed cycle; returns it closed (``[0, 1, 0]``) or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in edges}
    parent: dict[int, int] = {}

    for start in sorted(edges):
        if color[start] != WHITE:
            continue
        stack: list[tuple[int, iter]] = [(start, iter(sorted(edges[start])))]
        color[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in edges:
                    continue
                if color[nxt] == GREY:
                    # unwind the grey chain from `node` back to `nxt`
                    cycle = [node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    cycle.append(cycle[0])
                    return cycle
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, iter(sorted(edges[nxt]))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def detect_deadlock(waits: dict[int, Any]) -> DeadlockInfo:
    """Diagnose a quiesced job: ``waits`` maps every unfinished rank to
    the wait it is parked in, none of which can be satisfied."""
    live = set(waits)
    edges = {r: w.targets(live) & live for r, w in waits.items()}
    cycle = find_cycle(edges)
    return DeadlockInfo(cycle=tuple(cycle) if cycle else None,
                        waits={r: w.describe() for r, w in waits.items()})
