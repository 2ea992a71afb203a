"""PortfolioScheduler: N arm-schedulers multiplexed into one pipeline.

The staged engine (:mod:`repro.engine`) talks to *a* scheduler through a
narrow surface — ``pending``, ``strategy``, ``session``, ``observe``,
``advance``, ``resume_candidate`` and the ``state_dict``/``load_state``
checkpoint pair.  This module generalises the single-strategy
:class:`~repro.engine.scheduler.Scheduler` to a **portfolio**: each arm
keeps its own full ``Scheduler`` (strategy, campaign RNG, pending
candidate), but all arms share

* one :class:`~repro.search.base.ExecutionTree` (the frontier),
* one :class:`~repro.solver.incremental.SolveSession` (solver + stem
  frame — safe to share because the per-solve seeded RNG makes solving
  order-independent),
* one caps dict (input caps harvested from traces), and
* the engine's one coverage map / collector.

Commit-order attribution: every candidate leaving this scheduler is
tagged with its arm's name, the collector copies the tag onto the
committed iteration record, and the bandit is credited strictly in
commit order — so the arm sequence is a pure function of the campaign
seed and the committed stream, never of wall-clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..concolic.coverage import CoverageMap
from ..concolic.trace import TraceResult
from ..engine.scheduler import Candidate, Scheduler
from ..search.base import ExecutionTree
from .arms import build_arm_strategy, parse_portfolio
from .bandit import UcbBandit

#: trace events per cost unit: a path twice as long to execute and solve
#: costs about twice as much budget (deterministic wall-clock proxy)
_EVENTS_PER_COST_UNIT = 256.0


def iteration_cost(trace: Optional[TraceResult]) -> float:
    """Deterministic cost of one committed iteration.

    The bandit optimises coverage gain *per second*, but measured
    seconds would break replayability (see :mod:`.bandit`).  The trace
    event count is the deterministic stand-in: it dominates both
    execution time (events executed) and solver time (constraints
    recorded), and is identical across hosts and resumes.  Errored
    runs (no trace) cost the baseline 1.0.
    """
    if trace is None:
        return 1.0
    return 1.0 + trace.event_count / _EVENTS_PER_COST_UNIT


@dataclass
class ArmStats:
    """Per-arm telemetry, updated at commit time.

    ``cost`` is deterministic budget units (what the bandit sees);
    ``solver_time``/``solver_solves`` are measured deltas of the shared
    session's committed-stream stats — telemetry only, never fed back
    into allocation.
    """

    name: str
    pulls: int = 0
    coverage_gained: int = 0
    cost: float = 0.0
    solver_time: float = 0.0
    solver_solves: int = 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "pulls": self.pulls,
            "coverage_gained": self.coverage_gained,
            "cost": round(self.cost, 4),
            "solver_time": round(self.solver_time, 6),
            "solver_solves": self.solver_solves,
        }


@dataclass
class ArmState:
    """One portfolio arm: its scheduler plus its telemetry."""

    name: str
    scheduler: Scheduler
    stats: ArmStats = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.stats is None:
            self.stats = ArmStats(name=self.name)


class PortfolioScheduler:
    """Multiplex N arm-schedulers; duck-types the engine's Scheduler."""

    def __init__(self, config, arms: list[tuple[str, Scheduler]],
                 bandit: UcbBandit, session):
        if not arms:
            raise ValueError("portfolio needs at least one arm")
        self.config = config
        self.bandit = bandit
        self.session = session
        self.arms = [ArmState(name=n, scheduler=s) for n, s in arms]
        # one caps dict shared by every arm (assignment, not copy)
        shared_caps: dict[str, int] = {}
        for a in self.arms:
            a.scheduler.caps = shared_caps
        self._last_covered = 0
        self.active = self.bandit.select()
        for a in self.arms:
            a.scheduler.pending.arm = a.name

    # ------------------------------------------------------------------
    # engine surface: the active arm's pending candidate and strategy
    # ------------------------------------------------------------------
    @property
    def _active_arm(self) -> ArmState:
        return self.arms[self.active]

    @property
    def pending(self) -> Candidate:
        return self._active_arm.scheduler.pending

    @pending.setter
    def pending(self, value: Candidate) -> None:
        value.arm = self._active_arm.name
        self._active_arm.scheduler.pending = value

    @property
    def strategy(self):
        return self._active_arm.scheduler.strategy

    # ------------------------------------------------------------------
    # pipeline stages (commit order only)
    # ------------------------------------------------------------------
    def observe(self, expect, trace: Optional[TraceResult]) -> None:
        """Fold a committed execution into the *owning* arm's state.

        The active arm runs the full observation (caps harvest,
        divergence check, shared-tree insert); sibling arms only learn
        the path length (:meth:`SearchStrategy.note_foreign_execution`)
        — the tree insert already reached them through sharing.
        """
        self._active_arm.scheduler.observe(expect, trace)
        if trace is None:
            return
        for i, arm in enumerate(self.arms):
            if i != self.active:
                arm.scheduler.strategy.note_foreign_execution(trace.path)

    def advance(self, tc, trace: Optional[TraceResult],
                error_kind: Optional[str], coverage: CoverageMap,
                iteration: int) -> Candidate:
        """Commit one iteration: credit the bandit, maybe switch arms.

        The *reward* is the coverage this committed iteration gained
        (delta of the shared map) per deterministic cost unit.  The
        active arm derives its own next candidate first — keeping its
        RNG/solver stream identical to a single-strategy campaign — and
        only then does the bandit pick which arm's pending candidate
        the engine runs next.
        """
        arm = self._active_arm
        gained = coverage.covered_branches - self._last_covered
        self._last_covered = coverage.covered_branches
        cost = iteration_cost(trace)
        stats = self.session.stats
        solves0, time0 = stats.solves, stats.solve_time
        nxt = arm.scheduler.advance(tc, trace, error_kind, coverage,
                                    iteration)
        nxt.arm = arm.name
        arm.scheduler.pending = nxt
        arm.stats.pulls += 1
        arm.stats.coverage_gained += gained
        arm.stats.cost += cost
        arm.stats.solver_solves += stats.solves - solves0
        arm.stats.solver_time += stats.solve_time - time0
        self.bandit.update(self.active, gained, cost)
        self.active = self.bandit.select()
        return self._active_arm.scheduler.pending

    def resume_candidate(self) -> Candidate:
        cand = self._active_arm.scheduler.resume_candidate()
        cand.arm = self._active_arm.name
        return cand

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def portfolio_snapshot(self) -> dict:
        """JSON-ready per-arm telemetry (report / JSONL log / result)."""
        total_pulls = sum(a.stats.pulls for a in self.arms)
        scores = self.bandit.scores()
        rows = []
        for i, a in enumerate(self.arms):
            row = a.stats.as_dict()
            row["share"] = round(a.stats.pulls / total_pulls, 4) \
                if total_pulls else 0.0
            row["restarts"] = a.scheduler.restarts
            row["ucb_score"] = (None if math.isinf(scores[i])
                                else round(scores[i], 4))
            rows.append(row)
        return {
            "arms": rows,
            "active": self._active_arm.name,
            "exploration": self.bandit.exploration,
        }

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything resume needs to restore arm state bit-for-bit.

        Each arm contributes its scheduler's own state.  The checkpoint
        pickles them in one call, so pickle preserves the identity of
        what the arms share: the restored strategies still point at one
        execution tree, and the arms at one caps dict.
        """
        return {
            "active": self.active,
            "last_covered": self._last_covered,
            "bandit": self.bandit.state_dict(),
            "arms": [{"name": a.name, "scheduler": a.scheduler.state_dict(),
                      "stats": a.stats} for a in self.arms],
        }

    def load_state(self, state: dict, program) -> None:
        """Restore :meth:`state_dict`, re-attaching the static data of
        the live ``program`` that checkpoints leave out."""
        names = [entry["name"] for entry in state["arms"]]
        ours = [a.name for a in self.arms]
        if names != ours:
            raise ValueError(
                f"checkpoint portfolio arms {names} do not match "
                f"configured arms {ours}")
        self.bandit.load_state(state["bandit"])
        self.active = state["active"]
        self._last_covered = state["last_covered"]
        for arm, entry in zip(self.arms, state["arms"]):
            arm.scheduler.load_state(entry["scheduler"], program)
            arm.stats = entry["stats"]


def build_portfolio_scheduler(config, specs, program, session,
                              initial_setup, fault_plan=None
                              ) -> PortfolioScheduler:
    """Wire up arms, shared tree, and bandit from ``config.portfolio``.

    Seed derivation keeps arm streams disjoint and stable: arm *i* gets
    strategy-RNG salt ``300 + i`` and campaign-RNG salt ``400 + i``; the
    bandit's tie-break stream gets salt ``7``.  (A single-strategy
    campaign uses salts 1–3, so portfolio and classic campaigns never
    share streams.)
    """
    names = parse_portfolio(config.portfolio)
    tree = ExecutionTree()
    arms: list[tuple[str, Scheduler]] = []
    for i, name in enumerate(names):
        strategy = build_arm_strategy(
            name, config, program,
            rng=np.random.default_rng(config.rng_seed(300 + i)), tree=tree)
        sched = Scheduler(
            config=config, specs=specs, strategy=strategy, session=session,
            rng=np.random.default_rng(config.rng_seed(400 + i)),
            initial_setup=initial_setup, fault_plan=fault_plan)
        arms.append((name, sched))
    bandit = UcbBandit(names, exploration=config.portfolio_exploration,
                       seed=config.rng_seed(7))
    return PortfolioScheduler(config, arms, bandit, session)
