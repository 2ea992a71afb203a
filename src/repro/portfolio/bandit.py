"""Deterministic UCB1 bandit over strategy arms.

Budget allocation follows the classic UCB1 recipe (Auer et al. 2002):
pick the arm maximising ``mean_reward + c * sqrt(ln T / n_i)``.  The
reward of one pull is the *coverage gain per cost unit* of the iteration
that arm produced; means are normalised by the current **best arm mean**,
so the most productive arm always scores exploit 1.0 and the rest score
their productivity relative to it.  (Normalising by the best single-pull
reward instead — the obvious choice — turns out to squash every mean
toward zero after one lucky high-gain pull, leaving the exploration term
to allocate near-uniformly; relative means keep the exploit signal alive
at any reward scale, so one exploration constant works across targets.)

Two deliberate deviations keep campaigns replayable:

* **No wall-clock.**  The cost of a pull is the deterministic proxy
  computed by :func:`repro.portfolio.scheduler.iteration_cost` (trace
  event count), never measured seconds — measured time would make the
  arm sequence depend on machine load and break the engine's
  same-seed ≡ same-campaign and ``--resume`` ≡ uninterrupted invariants.
  Measured solver seconds are still *recorded* per arm, as telemetry.
* **Seeded tie-breaks.**  Ties are broken by a dedicated, picklable
  ``random.Random`` stream seeded from the campaign seed, so two runs
  of the same campaign pick the same arms and the whole bandit state
  survives a checkpoint bit-for-bit.
"""

from __future__ import annotations

import math
import random

#: scores within this of the maximum count as tied (floating-point guard)
_TIE_EPS = 1e-12


class UcbBandit:
    """UCB1 allocator over a fixed, ordered set of arms."""

    def __init__(self, arms, exploration: float = 0.5, seed: int = 0):
        names = tuple(arms)
        if not names:
            raise ValueError("bandit needs at least one arm")
        self.arm_names = names
        self.exploration = float(exploration)
        n = len(names)
        self.pulls = [0] * n
        self.gain = [0.0] * n   # cumulative coverage gained
        self.cost = [0.0] * n   # cumulative deterministic cost units
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------
    def update(self, arm: int, gain: float, cost: float) -> None:
        """Credit one committed iteration to ``arm``."""
        cost = max(float(cost), 1e-9)
        self.pulls[arm] += 1
        self.gain[arm] += float(gain)
        self.cost[arm] += cost

    def mean(self, arm: int) -> float:
        """Long-run coverage per cost unit for ``arm`` (0 if unpulled)."""
        if self.cost[arm] <= 0:
            return 0.0
        return self.gain[arm] / self.cost[arm]

    def scores(self) -> list[float]:
        """Current UCB score per arm (``inf`` for unpulled arms)."""
        total = sum(self.pulls)
        best_mean = max((self.mean(i) for i in range(len(self.arm_names))
                         if self.pulls[i]), default=0.0)
        out: list[float] = []
        for i in range(len(self.arm_names)):
            if self.pulls[i] == 0:
                out.append(math.inf)
                continue
            exploit = self.mean(i) / best_mean if best_mean > 0 else 0.0
            explore = self.exploration * math.sqrt(
                math.log(total + 1) / self.pulls[i])
            out.append(exploit + explore)
        return out

    def select(self) -> int:
        """Index of the arm to pull next.

        Bootstrap phase: unpulled arms go first, in declaration order —
        every arm gets one iteration before scores mean anything.
        """
        for i, p in enumerate(self.pulls):
            if p == 0:
                return i
        scores = self.scores()
        best = max(scores)
        tied = [i for i, s in enumerate(scores) if s >= best - _TIE_EPS]
        if len(tied) == 1:
            return tied[0]
        return tied[self.rng.randrange(len(tied))]

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "arm_names": self.arm_names,
            "exploration": self.exploration,
            "pulls": list(self.pulls),
            "gain": list(self.gain),
            "cost": list(self.cost),
            "rng": self.rng,  # random.Random pickles with full stream state
        }

    def load_state(self, state: dict) -> None:
        if tuple(state["arm_names"]) != self.arm_names:
            raise ValueError(
                f"checkpoint portfolio {state['arm_names']} does not match "
                f"configured arms {self.arm_names}")
        self.exploration = state["exploration"]
        self.pulls = list(state["pulls"])
        self.gain = list(state["gain"])
        self.cost = list(state["cost"])
        self.rng = state["rng"]
