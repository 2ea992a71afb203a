"""Fault plans: seeded, serializable descriptions of injected faults.

Fault streams are indexed by the campaign's global run number: each
executed test advances the per-rank RNG streams, so reproducing a fault
schedule requires executing tests in exactly the committed order — which
the engine's one-run-per-iteration loop does, keeping injected campaigns
bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Iterable, Optional, Sequence

#: a message send is delayed before delivery
FAULT_DELAY = "delay"
#: a message send is silently discarded
FAULT_DROP = "drop"
#: a message payload is mutated in flight
FAULT_CORRUPT = "corrupt"
#: a rank raises :class:`~repro.faults.injector.InjectedFault` at its
#: Nth MPI call (the crash-failure model)
FAULT_CRASH = "crash"
#: a rank sleeps a little at every MPI call (straggler model)
FAULT_JITTER = "jitter"
#: the concolic driver's constraint solve "times out" for an iteration
FAULT_SOLVER_TIMEOUT = "solver-timeout"

ALL_FAULT_KINDS = (FAULT_DELAY, FAULT_DROP, FAULT_CORRUPT, FAULT_CRASH,
                   FAULT_JITTER, FAULT_SOLVER_TIMEOUT)


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    ``rank`` scopes the fault: the acting rank for crash/jitter, the
    *sending* rank for message faults; ``-1`` means every rank.
    ``probability`` is the per-opportunity firing chance (ignored by
    ``crash``, which fires exactly once at ``nth_call``).
    """

    kind: str
    rank: int = -1
    probability: float = 0.25
    nth_call: int = 5          # crash only: 1-based MPI-call index
    magnitude: float = 0.002   # delay/jitter sleep, seconds

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {ALL_FAULT_KINDS}")

    def matches(self, rank: int) -> bool:
        return self.rank < 0 or self.rank == rank

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        return cls(**d)


#: defaults used when a plan is built from bare kind names (CLI `--faults`)
_DEFAULT_SPECS = {
    FAULT_DELAY: FaultSpec(FAULT_DELAY, probability=0.25, magnitude=0.002),
    FAULT_DROP: FaultSpec(FAULT_DROP, probability=0.1),
    FAULT_CORRUPT: FaultSpec(FAULT_CORRUPT, probability=0.1),
    FAULT_CRASH: FaultSpec(FAULT_CRASH, rank=0, nth_call=5),
    FAULT_JITTER: FaultSpec(FAULT_JITTER, probability=0.5, magnitude=0.001),
    FAULT_SOLVER_TIMEOUT: FaultSpec(FAULT_SOLVER_TIMEOUT, probability=0.2),
}


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the faults to inject under it.

    The plan is pure data: it can ride inside a config snapshot, a
    campaign log, or a CLI flag, and two injectors built from equal
    plans behave identically.
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def from_names(cls, names: Iterable[str], seed: int = 0) -> "FaultPlan":
        """Build a plan from kind names with per-kind default parameters."""
        cleaned = [n.strip() for n in names if n.strip()]
        unknown = [n for n in cleaned if n not in _DEFAULT_SPECS]
        if unknown:
            raise ValueError(f"unknown fault kind(s) {unknown}; "
                             f"choose from {ALL_FAULT_KINDS}")
        return cls(seed=seed, specs=tuple(_DEFAULT_SPECS[n] for n in cleaned))

    def derive(self, salt: int) -> "FaultPlan":
        """Reseeded copy — one sub-plan per campaign iteration, so faults
        vary across iterations but are a pure function of (seed, salt)."""
        return replace(self, seed=(self.seed * 1_000_003 + salt) % (2 ** 31))

    def kinds(self) -> tuple[str, ...]:
        return tuple(s.kind for s in self.specs)

    def has(self, kind: str) -> bool:
        return any(s.kind == kind for s in self.specs)

    def spec_for(self, kind: str) -> Optional[FaultSpec]:
        for s in self.specs:
            if s.kind == kind:
                return s
        return None

    def to_dict(self) -> dict:
        return {"seed": self.seed, "specs": [s.to_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        return cls(seed=int(d.get("seed", 0)),
                   specs=tuple(FaultSpec.from_dict(s)
                               for s in d.get("specs", ())))

    @staticmethod
    def matrix(seed: int = 0,
               kinds: Optional[Sequence[str]] = None) -> list["FaultPlan"]:
        """One single-fault plan per kind — the reproducibility matrix."""
        return [FaultPlan(seed=seed, specs=(_DEFAULT_SPECS[k],))
                for k in (kinds or ALL_FAULT_KINDS)]
