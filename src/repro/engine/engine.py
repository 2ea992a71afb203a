"""The staged campaign engine: scheduler → executor → collector.

One engine step executes the scheduler's pending candidate
(:func:`~repro.engine.executor.execute`) and commits the outcome: the
collector folds it into coverage, bugs, the iteration record and the
log; the scheduler folds it into caps, divergence and the execution
tree, then derives the next pending candidate; the engine then writes
the checkpoint, one dict of every stage's ``state_dict``.  That is
COMPI's serial loop (run, collect the path, negate one branch, solve,
repeat); parallelism lives in the fleet, which runs independent seeds
and strategy arms as separate shards.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Optional

from ..core import persist
from ..core.compi import CampaignResult
from ..core.config import CompiConfig
from ..core.runner import TestRunner
from ..instrument.loader import InstrumentedProgram
from .collector import Collector
from .executor import execute
from .scheduler import Candidate, Scheduler


def _scheduler_layout(arms: list) -> str:
    return (f"a portfolio scheduler (arms {', '.join(arms)})" if arms
            else "a single-strategy scheduler")


class CampaignEngine:
    """Drives one campaign through the three pluggable stages."""

    def __init__(self, program: InstrumentedProgram, config: CompiConfig,
                 scheduler: Scheduler, collector: Collector,
                 runner: TestRunner, supervisor: Any):
        self.program = program
        self.config = config
        self.scheduler = scheduler
        self.collector = collector
        self.runner = runner
        #: a :class:`~repro.supervise.sandbox.CampaignSupervisor` routes
        #: sandboxed and quarantined runs
        self.supervisor = supervisor
        self.iteration = 0
        #: campaign wall-time accumulated by previous (resumed) sessions
        self.elapsed_prior = 0.0

    # ------------------------------------------------------------------
    def run(self, iterations: Optional[int] = None,
            time_budget: Optional[float] = None,
            log: Optional[Any] = None) -> CampaignResult:
        """Run until the iteration count or wall-clock budget is spent."""
        if iterations is None and time_budget is None:
            raise ValueError("give an iteration or time budget")
        start = time.monotonic() - self.elapsed_prior
        col = self.collector
        col.log = log
        if log is not None and self.iteration == 0:
            log.write_meta(self.program.name, self.config,
                           self.program.registry.total_branches)
        done = 0

        def budget_left() -> bool:
            if iterations is not None and done >= iterations:
                return False
            if (time_budget is not None
                    and time.monotonic() - start >= time_budget):
                return False
            return True

        while budget_left():
            cand = self.scheduler.pending
            outcome = execute(self.runner, cand.testcase, self.supervisor)
            self._commit(cand, outcome, start)
            done += 1

        result = CampaignResult(
            program_name=self.program.name,
            coverage=col.coverage,
            total_branches=self.program.registry.total_branches,
            branches_per_function=self.program.registry.branches_per_function(),
            bugs=col.bugs,
            iterations=col.records,
            wall_time=time.monotonic() - start,
            divergences=self.scheduler.strategy.tree.divergences,
            stragglers=sum(r.stragglers for r in col.records),
            degraded_iterations=sum(1 for r in col.records if r.degraded),
            retries=sum(r.retries for r in col.records),
            # snapshot: the report must not alias the live session counters
            solver=self.scheduler.session.stats.snapshot(),
            supervision=self._supervision_snapshot(),
            portfolio=self._portfolio_snapshot(),
            schedules=self._schedules_snapshot(),
        )
        if log is not None:
            log.write_solver(result.solver)
            log.write_supervision(result.supervision)
            if result.portfolio is not None:
                log.write_portfolio(result.portfolio)
            log.write_coverage(result)
            log.sync()
        return result

    def _portfolio_snapshot(self) -> Optional[dict]:
        """Per-arm telemetry when the scheduler is a portfolio (duck-typed
        so the engine never imports :mod:`repro.portfolio`)."""
        snap = getattr(self.scheduler, "portfolio_snapshot", None)
        return snap() if snap is not None else None

    def _schedules_snapshot(self) -> Optional[dict]:
        """Schedule-space exploration telemetry (None outside
        ``--explore-schedules``; duck-typed for portfolio schedulers)."""
        explorer = getattr(self.scheduler, "schedules", None)
        return explorer.telemetry() if explorer is not None else None

    def _supervision_snapshot(self) -> dict:
        """Supervision + triage telemetry for the final report."""
        triage = self.collector.triage
        return {**self.supervisor.stats_snapshot().as_dict(),
                "unique_signatures": len(triage.seen),
                "minimized_crashes": triage.minimized,
                "minimize_probes": triage.probes_spent}

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _write_checkpoint(self, log: Any, elapsed: float) -> None:
        """Refresh ``log``'s sidecar with every stage's state.

        One ``write_checkpoint`` call pickles the whole dict, so what
        the stages share stays shared on resume: the portfolio arms'
        execution tree and caps dict.
        """
        col = self.collector
        persist.write_checkpoint(log.path, {
            "format": persist.CHECKPOINT_FORMAT,
            "program": self.program.name,
            "config": dataclasses.asdict(self.config),
            # the log bytes this checkpoint covers (see reconcile_log)
            "log_offset": log.offset,
            "elapsed": elapsed,
            "state": {
                "engine": {"iteration": self.iteration},
                "scheduler": self.scheduler.state_dict(),
                "session": self.scheduler.session.state_dict(),
                "collector": col.state_dict(),
                "runner": self.runner.state_dict(),
                "supervisor": self.supervisor.state_dict(),
                "triage": col.triage.state_dict(),
            },
        })

    def restore(self, checkpoint: dict) -> None:
        """Load a checkpoint :meth:`_write_checkpoint` wrote into every
        stage; the next :meth:`run` continues bit-for-bit.

        Raises ``ValueError`` when the checkpoint's scheduler layout
        (single strategy or portfolio) is not the configured one."""
        state = checkpoint["state"]
        saved = [arm["name"] for arm in state["scheduler"].get("arms", ())]
        ours = [arm.name for arm in getattr(self.scheduler, "arms", ())]
        if bool(saved) != bool(ours):
            raise ValueError(
                f"checkpoint holds {_scheduler_layout(saved)} state, but "
                f"the resume config asks for {_scheduler_layout(ours)}")
        self.iteration = state["engine"]["iteration"]
        self.elapsed_prior = checkpoint["elapsed"]
        self.scheduler.load_state(state["scheduler"], self.program)
        self.scheduler.session.load_state(state["session"])
        self.collector.load_state(state["collector"])
        self.runner.load_state(state["runner"])
        self.supervisor.load_state(state["supervisor"])
        self.collector.triage.load_state(state["triage"])

    # ------------------------------------------------------------------
    def _commit(self, cand: Candidate, outcome, start: float) -> None:
        """Fold one executed candidate into every stage, in serial order."""
        sched, col = self.scheduler, self.collector
        new_branches, bug = col.absorb(cand, outcome, self.iteration)
        sched.observe(cand.expect, outcome.trace)
        # schedule-space frontier: committed decisions feed the tree
        # *before* advance(), so the alternatives a run discovered are
        # drainable on the very next iteration (duck-typed: portfolio
        # schedulers without the hook simply skip schedule exploration)
        note_schedule = getattr(sched, "note_schedule", None)
        if note_schedule is not None:
            note_schedule(cand.testcase, outcome)
        nxt = sched.advance(cand.testcase, outcome.trace,
                            outcome.error.kind if outcome.error else None,
                            col.coverage, self.iteration)
        sched.pending = nxt
        it_rec = col.build_record(
            cand, outcome, self.iteration,
            elapsed=time.monotonic() - start,
            negated_site=nxt.testcase.negated_site)
        self.iteration += 1
        col.record(it_rec, new_branches, bug)
        if col.log is not None and col.log.resumable:
            self._write_checkpoint(col.log, it_rec.elapsed)
