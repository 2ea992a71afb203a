"""The fault injector: executes one :class:`FaultPlan` against one job.

Determinism is the design constraint.  Every decision is drawn from a
*per-rank* pseudo-random stream seeded by ``(plan.seed, rank)``, and
each stream is only ever consumed from that rank's own thread in the
rank's program order — so the sequence of injected faults is a pure
function of the plan, immune to thread scheduling.

Hook points (wired into the substrate, all no-ops without an injector):

* ``Mailbox.deposit``   → :meth:`FaultInjector.on_send` (delay, drop,
  corrupt; counts as an MPI call of the *sender*)
* ``Mailbox.receive``   → :meth:`FaultInjector.on_call`
* ``CollectiveEngine.run`` → :meth:`on_call` + :meth:`on_collective`

The solver-timeout fault is not drawn here: the engine's
``Scheduler._solver_timed_out`` draws it from its own
``solver_fault_rng`` stream, once per iteration.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Optional

from .plan import (FAULT_CORRUPT, FAULT_CRASH, FAULT_DELAY, FAULT_DROP,
                   FAULT_JITTER, FaultPlan)


class InjectedFault(Exception):
    """A deterministic, injector-originated failure (rank crash model)."""

    def __init__(self, kind: str, rank: int, detail: str = ""):
        self.kind = kind
        self.rank = rank
        super().__init__(f"injected {kind} on rank {rank}"
                         + (f": {detail}" if detail else ""))


def _corrupt(payload: Any, rng: random.Random) -> Any:
    """Deterministically mutate a payload (bit-flip analog)."""
    flip = rng.randrange(1, 256)
    if isinstance(payload, bool):
        return not payload
    if isinstance(payload, int):
        return payload ^ flip
    if isinstance(payload, float):
        return payload * 2.0 + flip
    if isinstance(payload, str):
        return payload + "\x00corrupt"
    if isinstance(payload, list) and payload:
        out = list(payload)
        out[0] = _corrupt(out[0], rng)
        return out
    if isinstance(payload, tuple) and payload:
        return tuple(_corrupt(list(payload), rng))
    return ("corrupted", flip)


class FaultInjector:
    """Per-job executor of one fault plan.

    Create a fresh injector per job: MPI-call counters start at zero and
    the per-rank streams rewind, which is what makes a re-run under the
    same plan identical.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()          # guards lazy stream creation
        self._rngs: dict[int, random.Random] = {}
        self._calls: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _rng(self, rank: int) -> random.Random:
        rng = self._rngs.get(rank)
        if rng is None:
            with self._lock:
                rng = self._rngs.get(rank)
                if rng is None:
                    rng = random.Random((self.plan.seed * 2_654_435_761
                                         + rank * 97) & 0x7FFFFFFF)
                    self._rngs[rank] = rng
        return rng

    def _fire(self, kind: str, rank: int) -> Optional[random.Random]:
        """The rank's stream when spec ``kind`` applies and fires, else None.

        Always consumes one draw when the spec applies, so firing or not
        does not desynchronize the stream.
        """
        spec = self.plan.spec_for(kind)
        if spec is None or not spec.matches(rank):
            return None
        rng = self._rng(rank)
        return rng if rng.random() < spec.probability else None

    # ------------------------------------------------------------------
    # hook points
    # ------------------------------------------------------------------
    def on_call(self, rank: int) -> None:
        """One MPI call on ``rank``: crash-at-Nth-call and jitter."""
        count = self._calls.get(rank, 0) + 1
        self._calls[rank] = count
        crash = self.plan.spec_for(FAULT_CRASH)
        if crash is not None and crash.matches(rank) and count == crash.nth_call:
            raise InjectedFault(FAULT_CRASH, rank,
                                f"at MPI call #{count}")
        rng = self._fire(FAULT_JITTER, rank)
        if rng is not None:
            spec = self.plan.spec_for(FAULT_JITTER)
            time.sleep(rng.random() * spec.magnitude)

    def on_send(self, source: int, dest: int, tag: int,
                payload: Any) -> tuple[Any, bool]:
        """Sender-side message fault: returns ``(payload, deliver)``."""
        self.on_call(source)
        rng = self._fire(FAULT_DELAY, source)
        if rng is not None:
            time.sleep(self.plan.spec_for(FAULT_DELAY).magnitude)
        if self._fire(FAULT_DROP, source) is not None:
            return payload, False
        rng = self._fire(FAULT_CORRUPT, source)
        if rng is not None:
            return _corrupt(payload, rng), True
        return payload, True

    def on_collective(self, rank: int, op_name: str) -> None:
        """Collective entry on ``rank``: call accounting plus delay."""
        self.on_call(rank)
        rng = self._fire(FAULT_DELAY, rank)
        if rng is not None:
            time.sleep(self.plan.spec_for(FAULT_DELAY).magnitude)

    # ------------------------------------------------------------------
    def calls_made(self, rank: int) -> int:
        return self._calls.get(rank, 0)
