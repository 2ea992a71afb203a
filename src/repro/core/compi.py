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

:class:`Compi` is a façade: the loop itself lives in the staged engine
(:mod:`repro.engine` — scheduler / executor / collector).  The campaign
dataclasses stay in this module so existing pickled checkpoints keep
loading.
"""

from __future__ import annotations

import dataclasses
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

    A façade over the staged engine: the **scheduler** (search strategy +
    incremental solve session), the **executor** (one in-process run,
    or a sandboxed one under supervision) and the **collector**
    (coverage, bugs, records, persistence).  Attribute access mirrors
    the classic monolithic loop so embedding code, checkpoints and tests
    written against it keep working unchanged.
    """

    def __init__(self, program: InstrumentedProgram,
                 config: Optional[CompiConfig] = None,
                 strategy: Optional[SearchStrategy] = None,
                 specs: Optional[dict[str, InputSpec]] = None):
        from ..engine import (CampaignEngine, Collector,
                              Scheduler)  # façade ↔ engine cycle
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
        self._initial_setup = initial
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
        self.collector = Collector(checkpoint=self._write_checkpoint,
                                   supervisor=self.supervisor,
                                   triage=self.triage)
        self.engine = CampaignEngine(program, cfg, self.scheduler,
                                     self.collector, self.runner,
                                     supervisor=self.supervisor)

    # ------------------------------------------------------------------
    # classic-loop attribute surface (delegation into the stages)
    # ------------------------------------------------------------------
    @property
    def rng(self) -> np.random.Generator:
        return self.scheduler.rng

    @rng.setter
    def rng(self, value: np.random.Generator) -> None:
        self.scheduler.rng = value

    @property
    def solver(self) -> Solver:
        return self.scheduler.session.solver

    @solver.setter
    def solver(self, value: Solver) -> None:
        self.scheduler.session.solver = value

    @property
    def solver_stats(self) -> SolverStats:
        return self.scheduler.session.stats

    @solver_stats.setter
    def solver_stats(self, value: SolverStats) -> None:
        self.scheduler.session.stats = value

    @property
    def strategy(self) -> SearchStrategy:
        return self.scheduler.strategy

    @strategy.setter
    def strategy(self, value: SearchStrategy) -> None:
        self.scheduler.strategy = value

    @property
    def coverage(self) -> CoverageMap:
        return self.collector.coverage

    @coverage.setter
    def coverage(self, value: CoverageMap) -> None:
        self.collector.coverage = value

    @property
    def bugs(self) -> list:
        return self.collector.bugs

    @bugs.setter
    def bugs(self, value: list) -> None:
        self.collector.bugs = value

    @property
    def records(self) -> list:
        return self.collector.records

    @records.setter
    def records(self, value: list) -> None:
        self.collector.records = value

    @property
    def _caps(self) -> dict[str, int]:
        return self.scheduler.caps

    @_caps.setter
    def _caps(self, value: dict[str, int]) -> None:
        self.scheduler.caps = value

    @property
    def _iteration(self) -> int:
        return self.engine.iteration

    @_iteration.setter
    def _iteration(self, value: int) -> None:
        self.engine.iteration = value

    @property
    def _restarts(self) -> int:
        return self.scheduler.restarts

    @_restarts.setter
    def _restarts(self, value: int) -> None:
        self.scheduler.restarts = value

    @property
    def _elapsed_prior(self) -> float:
        return self.engine.elapsed_prior

    @_elapsed_prior.setter
    def _elapsed_prior(self, value: float) -> None:
        self.engine.elapsed_prior = value

    @property
    def _next(self) -> TestCase:
        return self.scheduler.pending.testcase

    @_next.setter
    def _next(self, value: TestCase) -> None:
        self.scheduler.pending.testcase = value

    @property
    def _expect(self) -> Optional[tuple[list, int]]:
        return self.scheduler.pending.expect

    @_expect.setter
    def _expect(self, value: Optional[tuple[list, int]]) -> None:
        self.scheduler.pending.expect = value

    @property
    def _solver_fault_rng(self):
        return self.scheduler.solver_fault_rng

    @_solver_fault_rng.setter
    def _solver_fault_rng(self, value) -> None:
        self.scheduler.solver_fault_rng = value

    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # crash-safe resume
    # ------------------------------------------------------------------
    def _write_checkpoint(self, log_path: Union[str, Path],
                          elapsed: float) -> None:
        from .persist import write_checkpoint  # local: persist imports us
        # portfolio campaigns checkpoint all arms (strategies, RNGs,
        # pendings, bandit) in one sub-dict; the legacy flat keys below
        # then describe the *active* arm, keeping old tooling readable
        portfolio_state = (self.scheduler.state_dict()
                           if hasattr(self.scheduler, "state_dict") else None)
        write_checkpoint(log_path, {
            "portfolio": portfolio_state,
            "program": self.program.name,
            "config": dataclasses.asdict(self.config),
            "iteration": self._iteration,
            "restarts": self._restarts,
            "elapsed": elapsed,
            "coverage": self.coverage,
            "bugs": self.bugs,
            "records": self.records,
            "caps": self._caps,
            "rng": self.rng,
            "solver": self.solver,
            "solver_stats": self.solver_stats,
            "strategy": self.strategy,
            "next": self._next,
            "expect": self._expect,
            "runner_ewma": self.runner._ewma,
            "runner_runs": self.runner._runs,
            "solver_fault_rng": self._solver_fault_rng,
            # supervision: quarantine/kill state and the crash signatures
            # that already have reproducer artifacts
            "supervisor": self.supervisor.state_dict(),
            "triage_seen": self.triage.state_dict(),
            # schedule-space frontier (trees + pending prescriptions) so
            # --resume continues the interleaving search bit-for-bit
            "schedules": (self.scheduler.schedules.state_dict()
                          if getattr(self.scheduler, "schedules", None)
                          is not None else None),
        })

    @classmethod
    def resume(cls, program: InstrumentedProgram,
               log_path: Union[str, Path],
               config: Optional[CompiConfig] = None,
               specs: Optional[dict[str, InputSpec]] = None) -> "Compi":
        """Rebuild a campaign from its log, ready to continue where it died.

        Prefers the pickle checkpoint sidecar (exact state: search tree,
        solver, RNG streams — the continuation is byte-for-byte the run
        the uninterrupted campaign would have produced).  Without one it
        degrades to the JSONL log alone: coverage, bugs, iteration count
        and elapsed time are restored, but the search restarts from fresh
        random inputs.
        """
        from .persist import load_campaign, load_checkpoint
        state = load_checkpoint(log_path)
        if state is not None:
            cfg = config or CompiConfig.from_dict(state["config"])
            # ``state.get``: pre-portfolio checkpoints simply lack the key
            portfolio_state = state.get("portfolio")
            if portfolio_state is None and cfg.portfolio:
                # a pre-portfolio (or single-strategy) checkpoint has no
                # arm state to restore — resume it as the single-strategy
                # campaign it was, whatever the requested config says
                cfg = dataclasses.replace(cfg, portfolio=())
            self = cls(program, cfg, specs=specs)
            self.coverage = state["coverage"]
            self.bugs = state["bugs"]
            self.records = state["records"]
            self.solver = state["solver"]
            # older checkpoints may lack the stats, and may carry the
            # state of the retired counterexample cache, which is ignored
            if "solver_stats" in state:
                self.solver_stats = state["solver_stats"]
            if portfolio_state is not None:
                # restores every arm (strategies + shared tree, RNGs,
                # pendings, telemetry) and the bandit, bit-for-bit
                self.scheduler.load_state(portfolio_state)
            else:
                self._caps = state["caps"]
                self.rng = state["rng"]
                self.strategy = state["strategy"]
                self._next = state["next"]
                self._expect = state["expect"]
                self._restarts = state["restarts"]
            self._iteration = state["iteration"]
            self._elapsed_prior = state["elapsed"]
            self.runner._ewma = state["runner_ewma"]
            self.runner._runs = state["runner_runs"]
            self._solver_fault_rng = state["solver_fault_rng"]
            # pre-supervision checkpoints simply have nothing to restore
            self.supervisor.load_state(state.get("supervisor", {}))
            self.triage.load_state(state.get("triage_seen", {}))
            # ``state.get``: pre-schedule checkpoints lack the key
            sched_state = state.get("schedules")
            if (sched_state is not None
                    and getattr(self.scheduler, "schedules", None)
                    is not None):
                self.scheduler.schedules.load_state(sched_state)
            return self
        # degraded path: JSONL only (e.g. the checkpoint was lost or is
        # from an incompatible version)
        data = load_campaign(log_path)
        if config is None and data["meta"] is not None:
            config = CompiConfig.from_dict(data["meta"]["config"])
        self = cls(program, config, specs=specs)
        for site, outcome in data["cov_branches"]:
            self.coverage.add_branch(site, outcome)
        self.bugs = data["bugs"]
        self.records = data["iterations"]
        # quarantine records are part of the log stream, so even the
        # degraded resume keeps honoring them; replaying the logged bug
        # signatures stops triage from re-minimizing known crashes
        from ..supervise import QuarantineEntry
        self.supervisor.load_entries(
            [QuarantineEntry.from_dict(d) for d in data["quarantine"]])
        for bug in self.bugs:
            if bug.signature:
                self.triage.seen[bug.signature] = (
                    self.triage.seen.get(bug.signature, 0) + 1)
        if self.records:
            self._iteration = max(r.iteration for r in self.records) + 1
            self._elapsed_prior = max(r.elapsed for r in self.records)
        # The in-flight test case is unrecoverable from JSONL.  Synthesize
        # a fresh continuation ("resume" origin) — NOT a restart: nothing
        # has executed since the log's last record, so the restart counter
        # and the infeasible verdicts must stay untouched.
        self.scheduler.pending = self.scheduler.resume_candidate()
        return self
