"""Match-policy controllers: deterministic wildcard-receive scheduling.

Lazy matching, as in MPISE: receives with a concrete source are matched
eagerly (per-sender FIFO makes them deterministic — the non-overtaking
rule), and only ``ANY_SOURCE`` receives (and ``waitany`` over wildcard
``Irecv`` s) become *decision points*.  At a decision point the
controller either applies a **prescription** (replaying a recorded
schedule, or forcing a DFS prefix plus one flipped choice) or makes a
**free** decision.

Ranks run one at a time under the job's baton (:mod:`repro.mpi.baton`),
which wakes a parked receive at the level :meth:`ScheduleController.level`
gives it:

* a prescribed match that is pending is taken as soon as the rank runs
  (level 1, like any satisfied wait);
* a free decision is taken only at **quiesce** — no rank can run, so no
  message is in flight and none can be produced until someone acts —
  and among ranks parked at free decisions the lowest rank decides
  first (level 2);
* a prescription whose match never became pending, once even the free
  deciders have moved (level 3), means the program diverged from the
  recorded run: the canonical choice replaces it and ``divergences``
  counts it.

At quiesce the candidate set is maximal and a pure function of the
program, its inputs, and the decisions taken so far — so the canonical
choice (minimum ``(source, tag)`` pair, then the earliest send within
that pair) reproduces bit-for-bit, and every alternative the
``ScheduleTree`` later forces is a message that provably *was* pending.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..mpi.baton import BLOCKED, DIVERGENCE, FREE_DECISION, RUNNABLE
from ..mpi.channel import matches
from .schedule import (Decision, canonical_decisions, encode_schedule,
                       normalize_prescription, schedule_entries)


class ScheduleController:
    """Injectable match policy for one job execution."""

    def __init__(self, prescription: Sequence = ()):
        self._prescription = {(r, i): (s, t)
                              for (r, i, s, t)
                              in normalize_prescription(prescription)}
        self._counters: dict[int, int] = {}       # rank -> next decision index
        self._decisions: list[Decision] = []
        self.divergences = 0

    # -- results --------------------------------------------------------
    def decisions(self) -> tuple[Decision, ...]:
        return canonical_decisions(self._decisions)

    def decision_records(self) -> tuple[tuple, ...]:
        return tuple(d.record() for d in self.decisions())

    def schedule_id(self) -> str:
        return encode_schedule(schedule_entries(self.decisions()))

    # -- decision-point protocol ---------------------------------------
    @staticmethod
    def candidates(messages: Sequence, specs: Sequence) -> dict:
        """Matchable ``(source, tag) -> (message index, spec index)``.

        Each pair maps to its earliest send (which preserves the
        per-sender FIFO rule whatever pair is chosen) and to the first
        spec — the first ``waitany`` request — it matches.
        """
        best: dict[tuple[int, int], tuple[int, int]] = {}
        for i, m in enumerate(messages):
            key = (m.source, m.tag)
            if key in best:
                continue
            for k, spec in enumerate(specs):
                if matches(m, *spec):
                    best[key] = (i, k)
                    break
        return best

    def _forced(self, rank: int) -> Optional[tuple[int, int]]:
        return self._prescription.get((rank, self._counters.get(rank, 0)))

    def level(self, rank: int, cands: dict) -> int:
        """The baton level at which ``rank`` may decide over ``cands``."""
        if not cands:
            return BLOCKED
        forced = self._forced(rank)
        if forced is None:
            return FREE_DECISION
        return RUNNABLE if forced in cands else DIVERGENCE

    def decide(self, rank: int, cands: dict,
               level: int) -> Optional[tuple[int, int]]:
        """Commit a match if ``rank`` may decide now: it was woken at
        ``level`` (``RUNNABLE`` when it was not parked).  Returns the
        chosen ``(source, tag)``, or ``None`` to keep waiting."""
        mine = self.level(rank, cands)
        if mine == BLOCKED or mine > level:
            return None
        forced = self._forced(rank)
        choice = forced if mine == RUNNABLE else min(cands)
        if mine == DIVERGENCE:
            self.divergences += 1
        index = self._counters.get(rank, 0)
        self._counters[rank] = index + 1
        self._decisions.append(Decision(
            rank=rank, index=index, source=choice[0], tag=choice[1],
            candidates=tuple(sorted(cands)), forced=forced is not None,
            fallback=mine == DIVERGENCE))
        return choice


class ReplayController(ScheduleController):
    """A controller whose prescription is a *complete* recorded schedule.

    Mechanically identical to :class:`ScheduleController` — every
    decision site is found in the prescription, so the run re-pins the
    recorded interleaving end to end; ``divergences`` staying 0 is the
    signal that the replay was exact.
    """
