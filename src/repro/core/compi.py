"""COMPI: the iterative concolic testing loop (§II-A work flow).

One campaign = one instrumented target + one configuration.  Each
iteration:

1. launch the target with the current test case — ``nprocs`` ranks, the
   focus rank heavy, the rest light (two-way instrumentation, MPMD
   launch);
2. merge branch coverage from **all** ranks; classify and log any error
   with its error-inducing inputs;
3. hand the focus path to the search strategy, which picks a constraint
   to negate;
4. solve the negated prefix + inherent MPI constraints + caps
   incrementally; derive the next inputs, the next process count (``sw``)
   and the next focus (most-up-to-date rank value, local ranks translated
   through the runtime mapping table);
5. repeat until the iteration/time budget runs out.

When an execution yields no usable path (e.g. a bug fires before any
symbolic branch) COMPI restarts from fresh random inputs, as the paper
describes doing for SUSY-HMC's early bugs.

:class:`Compi` builds the campaign and hands it to the staged engine
(:mod:`repro.engine` — scheduler / executor / collector), which runs
the loop and owns its state.  The campaign dataclasses (bug and
iteration records, the result) live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from ..concolic.coverage import CoverageMap
from ..instrument.loader import InstrumentedProgram
from ..search.base import SearchStrategy
from ..search.dfs import TwoPhaseDFS
from ..solver.incremental import SolverStats, SolveSession
from ..solver.search import Solver
from .config import CompiConfig
from .conflicts import TestSetup
from .runner import TestRunner
from .testcase import InputSpec, TestCase, specs_from_module


@dataclass
class BugRecord:
    """One logged error-inducing input (§V: COMPI logs these for analysis)."""

    kind: str
    message: str
    global_rank: int
    testcase: TestCase
    iteration: int
    location: str = ""   # crash site "file:line:function" when known
    #: triage crash signature "{kind}@{location}#{hash}" (see
    #: repro.supervise.triage); "" for records predating triage
    signature: str = ""
    #: canonical message-schedule ID of the run that hit the bug
    #: ("" when the run made no wildcard match decisions or predates
    #: schedule exploration) — replaying the testcase pinned to this
    #: schedule reproduces the interleaving (see repro.schedules)
    schedule: str = ""
    #: for deadlocks: the per-rank pending-operation list at detection,
    #: as ``((rank, "op"), ...)`` sorted by rank
    pending_ops: tuple = ()

    @property
    def dedup_key(self) -> tuple[str, str]:
        return (self.kind, self.location or self.message[:120])


@dataclass
class IterationRecord:
    """Per-iteration telemetry (feeds every figure/table reproduction)."""

    iteration: int
    origin: str
    nprocs: int
    focus: int
    path_len: int               # constraint set size this execution
    event_count: int
    covered_after: int
    error_kind: Optional[str]
    wall_time: float
    elapsed: float              # campaign time at end of iteration
    negated_site: Optional[int] = None
    focus_log_size: int = 0
    nonfocus_log_avg: float = 0.0
    #: daemon threads abandoned by this execution (pure-compute hangs)
    stragglers: int = 0
    #: the focus trace harvest failed; this was a coverage-only iteration
    degraded: bool = False
    #: transient-error retries it took to complete this iteration
    retries: int = 0
    #: the swallowed harvest exception behind ``degraded``, when any
    #: ("ExcType: message @ file:line:function")
    harvest_error: str = ""
    #: portfolio arm that produced this iteration, attributed in commit
    #: order ("" for single-strategy campaigns and pre-portfolio records)
    arm: str = ""
    #: canonical message-schedule ID observed by this execution ("" when
    #: no wildcard match decisions were made or the record predates
    #: schedule exploration)
    schedule: str = ""


@dataclass
class CampaignResult:
    """Outcome of a whole testing campaign."""

    program_name: str
    coverage: CoverageMap
    total_branches: int
    branches_per_function: dict[int, int]
    bugs: list[BugRecord]
    iterations: list[IterationRecord]
    wall_time: float
    divergences: int = 0
    #: accumulated abandoned hang threads across the campaign
    stragglers: int = 0
    #: iterations that ran coverage-only (trace harvest failed)
    degraded_iterations: int = 0
    #: total transient-error retries spent across the campaign
    retries: int = 0
    #: cumulative solver telemetry for the committed solve stream
    #: (None for campaigns predating solver telemetry)
    solver: Optional[SolverStats] = None
    #: supervision/triage telemetry dict — worker kills, sandboxed runs,
    #: quarantine counts, unique crash signatures (None for campaigns
    #: predating the supervision subsystem)
    supervision: Optional[dict] = None
    #: per-arm portfolio telemetry — pulls, budget share, coverage
    #: gained, solver time, current UCB score (None for single-strategy
    #: campaigns and campaigns predating the portfolio subsystem)
    portfolio: Optional[dict] = None
    #: schedule-space exploration telemetry — schedules explored,
    #: frontier size, decision nodes, replay divergences (None outside
    #: ``--explore-schedules`` and for campaigns predating it)
    schedules: Optional[dict] = None

    @property
    def covered(self) -> int:
        return self.coverage.covered_branches

    @property
    def reachable_branches(self) -> int:
        return self.coverage.reachable_branches(self.branches_per_function)

    @property
    def coverage_rate(self) -> float:
        """Coverage over the *reachable* estimate, as in Tables V/VI."""
        reach = self.reachable_branches
        return self.coverage.rate(reach) if reach else 0.0

    def unique_bugs(self) -> list[BugRecord]:
        seen: set = set()
        out: list[BugRecord] = []
        for b in self.bugs:
            if b.dedup_key not in seen:
                seen.add(b.dedup_key)
                out.append(b)
        return out

    def constraint_set_sizes(self) -> list[int]:
        """One entry per iteration — the Fig. 9 distribution."""
        return [r.path_len for r in self.iterations]

    def coverage_timeline(self) -> list[tuple[float, int]]:
        return [(r.elapsed, r.covered_after) for r in self.iterations]


class Compi:
    """The testing tool: drives iterative concolic testing of one target.

    Builds the staged engine's stages — the **scheduler** (search
    strategy + incremental solve session), the **executor** (one
    in-process run, or a sandboxed one under supervision) and the
    **collector** (coverage, bugs, records, the log) — and runs or
    resumes the campaign.  Campaign state lives in the stage that owns
    it (``engine.iteration``, ``scheduler.pending``,
    ``collector.coverage``, ...).
    """

    def __init__(self, program: InstrumentedProgram,
                 config: Optional[CompiConfig] = None,
                 strategy: Optional[SearchStrategy] = None,
                 specs: Optional[dict[str, InputSpec]] = None):
        from ..engine import (CampaignEngine, Collector,
                              Scheduler)  # compi ↔ engine cycle
        from ..supervise import CampaignSupervisor, CrashTriage
        self.program = program
        self.config = config or CompiConfig()
        cfg = self.config
        self.specs = specs or specs_from_module(program.modules[program.entry_module])
        solver = Solver(rng=np.random.default_rng(cfg.rng_seed(2)),
                        node_limit=cfg.solver_node_limit)
        self.runner = TestRunner(program, cfg)
        initial = TestSetup(nprocs=min(cfg.init_nprocs, cfg.nprocs_cap),
                            focus=cfg.init_focus)
        session = SolveSession(solver)
        if cfg.portfolio:
            if strategy is not None:
                raise ValueError(
                    "pass either an explicit strategy or config.portfolio, "
                    "not both — a portfolio builds its own arm strategies")
            if cfg.explore_schedules:
                raise ValueError(
                    "config.portfolio and config.explore_schedules are "
                    "mutually exclusive: the schedule frontier lives on "
                    "the single-strategy scheduler (run schedule "
                    "exploration as its own campaign/fleet arm)")
            from ..portfolio import build_portfolio_scheduler
            self.scheduler = build_portfolio_scheduler(
                cfg, self.specs, program, session, initial,
                fault_plan=self.runner.fault_plan)
        else:
            strategy = strategy or TwoPhaseDFS(
                observe_iterations=cfg.observe_iterations,
                fixed_bound=cfg.fixed_depth_bound, slack=cfg.bound_slack,
                rng=np.random.default_rng(cfg.rng_seed(3)))
            self.scheduler = Scheduler(
                config=cfg, specs=self.specs, strategy=strategy,
                session=session,
                rng=np.random.default_rng(cfg.rng_seed(1)),
                initial_setup=initial, fault_plan=self.runner.fault_plan)
        self.supervisor = CampaignSupervisor(cfg, self.runner)
        self.triage = CrashTriage(self.runner, self.specs, cfg, program.name)
        self.collector = Collector(self.supervisor, self.triage)
        self.engine = CampaignEngine(program, cfg, self.scheduler,
                                     self.collector, self.runner,
                                     self.supervisor)

    def run(self, iterations: Optional[int] = None,
            time_budget: Optional[float] = None,
            log: Optional[Any] = None) -> CampaignResult:
        """Run until the iteration count or wall-clock budget is spent.

        ``log``, when given, is an *entered* :class:`~repro.core.persist.
        CampaignLog`: every iteration streams its record, coverage delta
        and any bug to the log as it completes, and a pickle checkpoint
        sidecar is refreshed so a killed campaign can be resumed with
        :meth:`resume`.  ``time_budget`` counts total campaign time,
        including time spent by the sessions a resumed campaign continues.
        """
        return self.engine.run(iterations=iterations,
                               time_budget=time_budget, log=log)

    def close(self) -> None:
        """End the campaign.  Runs hold no resources between iterations,
        so there is nothing to release; kept so ``with Compi(...)`` and
        explicit ``close()`` calls stay valid."""

    def __enter__(self) -> "Compi":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @classmethod
    def resume(cls, program: InstrumentedProgram,
               log_path: Union[str, Path],
               config: Optional[CompiConfig] = None,
               specs: Optional[dict[str, InputSpec]] = None) -> "Compi":
        """Rebuild a campaign from its log, ready to continue where it died.

        Prefers the pickle checkpoint sidecar (exact state: search tree,
        solver, RNG streams — the continuation is byte-for-byte the run
        the uninterrupted campaign would have produced); the log is first
        cut back to the bytes that checkpoint covers.  Without a usable
        checkpoint (absent, unreadable, or of another format) it degrades
        to the JSONL log alone: coverage, bugs, iteration count and
        elapsed time are restored, but the search restarts from fresh
        random inputs.
        """
        from .persist import load_campaign, resume_checkpoint
        checkpoint = resume_checkpoint(log_path)
        if checkpoint is not None:
            self = cls(program,
                       config or CompiConfig.from_dict(checkpoint["config"]),
                       specs=specs)
            self.engine.restore(checkpoint)
            return self
        data = load_campaign(log_path)
        if config is None and data["meta"] is not None:
            config = CompiConfig.from_dict(data["meta"]["config"])
        self = cls(program, config, specs=specs)
        col = self.collector
        for site, outcome in data["cov_branches"]:
            col.coverage.add_branch(site, outcome)
        col.bugs = data["bugs"]
        col.records = data["iterations"]
        # quarantine records are part of the log stream, so even the
        # degraded resume keeps honoring them; replaying the logged bug
        # signatures stops triage from re-minimizing known crashes
        from ..supervise import QuarantineEntry
        self.supervisor.load_entries(
            [QuarantineEntry.from_dict(d) for d in data["quarantine"]])
        for bug in col.bugs:
            if bug.signature:
                self.triage.seen[bug.signature] = (
                    self.triage.seen.get(bug.signature, 0) + 1)
        if col.records:
            self.engine.iteration = max(r.iteration for r in col.records) + 1
            self.engine.elapsed_prior = max(r.elapsed for r in col.records)
        # The in-flight test case is unrecoverable from JSONL.  Synthesize
        # a fresh continuation ("resume" origin) — NOT a restart: nothing
        # has executed since the log's last record, so the restart counter
        # and the infeasible verdicts must stay untouched.
        self.scheduler.pending = self.scheduler.resume_candidate()
        return self
