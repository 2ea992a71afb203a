"""Scheduler stage: search strategy + incremental solver → candidates.

The scheduler owns everything that decides *what to run next*: the
search strategy and its execution tree, the campaign RNG, the solve
session, discovered input caps, the restart counter, and the pending
(next serial) candidate.  :meth:`Scheduler.advance` derives that
candidate from the committed execution — exactly what the classic
loop's ``_derive_next`` would run next, with identical state mutation
(infeasible marks, restart draws, solver-fault draws, RNG stream).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..concolic.coverage import CoverageMap
from ..concolic.trace import TraceResult
from ..core.config import CompiConfig
from ..core.conflicts import TestSetup, resolve_setup
from ..core.semantics import (capping_constraints, clamp_to_caps,
                              mpi_semantic_constraints, solver_domains)
from ..core.testcase import InputSpec, TestCase, random_testcase
from ..faults import FAULT_SOLVER_TIMEOUT
from ..schedules import ScheduleExplorer
from ..search.base import SearchStrategy, StrategyContext
from ..solver.incremental import SolveSession

@dataclass
class Candidate:
    """One schedulable test case.

    ``expect`` is the divergence-detection expectation — the (path,
    position) whose flip this candidate should realise — consumed by
    :meth:`Scheduler.observe` when the candidate's execution commits.

    ``arm`` names the portfolio arm whose strategy produced this
    candidate ("" for single-strategy campaigns); the collector copies
    it onto the committed iteration record, giving every iteration its
    commit-order arm attribution.
    """

    testcase: TestCase
    expect: Optional[tuple[list, int]] = None
    arm: str = ""


class Scheduler:
    """Proposes candidate test cases; owns search + solving state."""

    def __init__(self, config: CompiConfig, specs: dict[str, InputSpec],
                 strategy: SearchStrategy, session: SolveSession,
                 rng: np.random.Generator, initial_setup: TestSetup,
                 fault_plan=None):
        self.config = config
        self.specs = specs
        self.strategy = strategy
        self.session = session
        self.rng = rng
        self.initial_setup = initial_setup
        self.caps: dict[str, int] = {}
        self.restarts = 0
        # solver-timeout fault: a dedicated picklable stream, seeded the
        # same way the injector seeds its pseudo-rank -2 stream
        self._solver_fault_spec = (fault_plan.spec_for(FAULT_SOLVER_TIMEOUT)
                                   if fault_plan is not None else None)
        self.solver_fault_rng: Optional[random.Random] = None
        if self._solver_fault_spec is not None:
            self.solver_fault_rng = random.Random(
                (fault_plan.seed * 2_654_435_761 - 2 * 97) & 0x7FFFFFFF)
        #: schedule-space frontier (None unless ``explore_schedules``):
        #: alternatives discovered by committed runs, drained depth-first
        #: ahead of input-space derivation
        self.schedules: Optional[ScheduleExplorer] = (
            ScheduleExplorer(config.schedule_budget, config.schedule_depth)
            if config.explore_schedules else None)
        #: the next serial candidate (what a checkpoint must capture)
        self.pending = Candidate(
            random_testcase(self.specs, initial_setup, self.rng))

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything resume needs to continue the search bit-for-bit
        (the solve session is checkpointed on its own: portfolio arms
        share it)."""
        return {
            "caps": self.caps,
            "rng": self.rng,
            "strategy": self.strategy,
            "pending": self.pending,
            "restarts": self.restarts,
            "solver_fault_rng": self.solver_fault_rng,
            "schedules": (self.schedules.state_dict()
                          if self.schedules is not None else None),
        }

    def load_state(self, state: dict, program) -> None:
        """Restore :meth:`state_dict`, re-attaching the static data of
        the live ``program`` that checkpoints leave out."""
        self.caps = state["caps"]
        self.rng = state["rng"]
        self.strategy = state["strategy"]
        self.strategy.attach(program)
        self.pending = state["pending"]
        self.restarts = state["restarts"]
        self.solver_fault_rng = state["solver_fault_rng"]
        if self.schedules is not None:
            self.schedules.load_state(state["schedules"])

    # ------------------------------------------------------------------
    # observation: fold one committed execution into search state
    # ------------------------------------------------------------------
    def observe(self, expect: Optional[tuple[list, int]],
                trace: Optional[TraceResult]) -> None:
        """Record a committed execution: caps, divergence, tree insert."""
        if trace is None:
            return
        for var in trace.vars:
            if var.kind == "input" and var.cap is not None:
                self.caps[var.name] = var.cap
        self._check_divergence(expect, trace)
        self.strategy.register_execution(trace.path)

    def note_schedule(self, testcase: TestCase, outcome) -> None:
        """Fold one committed execution's match decisions into the
        schedule frontier (no-op outside ``--explore-schedules``)."""
        if self.schedules is None:
            return
        self.schedules.note(testcase, outcome.schedule_decisions,
                            divergences=outcome.schedule_divergences)

    def _check_divergence(self, expect: Optional[tuple[list, int]],
                          trace: TraceResult) -> None:
        """Did the last negation actually flip the predicted branch?

        CREST calls a mismatch a *divergence*.  We mark the attempted
        flip as tried (infeasible-for-now) so the systematic strategies
        move on — without this, negating a reduction-collapsed loop-exit
        constraint reproduces an identical-looking path forever.
        """
        if expect is None:
            return
        if not self.config.divergence_detection:
            return
        old_path, pos = expect
        actual = trace.path
        flipped = (
            len(actual) > pos
            and all(a.site == e.site and a.outcome == e.outcome
                    for a, e in zip(actual[:pos], old_path[:pos]))
            and actual[pos].site == old_path[pos].site
            and actual[pos].outcome == (not old_path[pos].outcome)
        )
        if not flipped:
            self.strategy.tree.note_divergence()
            self.strategy.mark_infeasible(old_path, pos)

    # ------------------------------------------------------------------
    # serial derivation (exact classic-loop semantics)
    # ------------------------------------------------------------------
    def advance(self, tc: TestCase, trace: Optional[TraceResult],
                error_kind: Optional[str], coverage: CoverageMap,
                iteration: int) -> Candidate:
        """The next serial candidate after ``tc`` executed with ``trace``.

        Mutates scheduler state exactly as the classic loop would:
        infeasible marks for rejected positions, restart bookkeeping,
        one solver-fault draw, RNG draws for restart inputs.
        """
        cfg = self.config
        # one fault draw per iteration, before any data-dependent exit,
        # so the stream position is a pure function of the iteration count
        solver_fault = self._solver_timed_out()
        # drain the schedule frontier ahead of input-space derivation:
        # scheduled candidates replay known inputs under a forced match
        # prefix and consume no RNG/solver state, so interleaving them
        # keeps every stream position a pure function of commit order
        if self.schedules is not None:
            scheduled = self.schedules.next_testcase()
            if scheduled is not None:
                return Candidate(scheduled)
        if trace is None or not trace.path:
            return self._restart_candidate()
        if solver_fault:
            # the "solver timed out" failure mode: no negation this
            # iteration; fall back to a restart exactly as if every
            # candidate had come back infeasible
            return self._restart_candidate()
        if (error_kind is not None
                and len(trace.path) <= cfg.trivial_path_threshold):
            # early crash before meaningful symbolic work: redo with
            # random inputs (the paper's SUSY-HMC workflow)
            return self._restart_candidate()

        path = trace.path
        semantics, caps_cons, domains = self._solve_context(trace)
        # install (or reuse) the trace's invariant stem once, then solve
        # every negation through its prefix ladder
        frame = self.session.stem(semantics + caps_cons)
        ctx = StrategyContext(path=path, coverage=coverage,
                              iteration=iteration)
        for pos in self.strategy.propose(ctx):
            built = self._solve_position(tc, trace, pos, domains, frame)
            if built is None:
                self.strategy.mark_infeasible(path, pos)
                continue
            return built
        return self._restart_candidate()

    # ------------------------------------------------------------------
    def _solve_context(self, trace: TraceResult):
        cfg = self.config
        semantics = mpi_semantic_constraints(trace, cfg)
        caps_cons = capping_constraints(trace)
        bounds = {n: (s.lo, s.hi) for n, s in self.specs.items()}
        domains = solver_domains(trace, cfg, input_bounds=bounds)
        return semantics, caps_cons, domains

    def _solve_position(self, tc: TestCase, trace: TraceResult, pos: int,
                        domains, frame) -> Optional[Candidate]:
        """Solve one negation; build its candidate (None = infeasible).

        The query is ``frame.raw`` (the invariant MPI semantics + caps)
        followed by the position-dependent path prefix, solved through
        :meth:`~repro.solver.incremental.SolveSession.solve_at` and the
        frame's prefix ladder.
        """
        path = trace.path
        prefix = [pe.constraint for pe in path[:pos]]
        negated = path[pos].constraint.negated()
        res = self.session.solve_at(frame, prefix, negated, domains,
                               previous=dict(trace.values))
        if res is None:
            return None
        new_inputs = {name: int(res.assignment[vid])
                      for name, vid in trace.input_vids.items()}
        inputs = clamp_to_caps({**tc.inputs, **new_inputs}, self.caps)
        setup = resolve_setup(trace, res.assignment, res.changed,
                              tc.setup, self.config)
        return Candidate(
            TestCase(inputs=inputs, setup=setup, origin="negation",
                     negated_site=path[pos].site),
            expect=(path, pos))

    def _restart_candidate(self) -> Candidate:
        # concolic-simplification verdicts are stale after a restart
        self.strategy.tree.clear_infeasible()
        self.restarts += 1
        if self.config.restart_with_defaults and self.restarts % 2 == 1:
            inputs = {n: s.default for n, s in self.specs.items()}
            return Candidate(TestCase(inputs=inputs,
                                      setup=self.initial_setup,
                                      origin="restart"))
        return Candidate(random_testcase(self.specs, self.initial_setup,
                                         self.rng, caps=self.caps,
                                         origin="restart"))

    def resume_candidate(self) -> Candidate:
        """Continuation test case for a JSONL-only (degraded) resume.

        Unlike a restart this does **not** bump the restart counter or
        clear infeasible verdicts — nothing has executed yet, the
        campaign is merely picking up where the log left off.
        """
        return Candidate(random_testcase(self.specs, self.initial_setup,
                                         self.rng, caps=self.caps,
                                         origin="resume"))

    def _solver_timed_out(self) -> bool:
        """Simulated solver timeout (fault injection), one draw per call."""
        if self.solver_fault_rng is None:
            return False
        return (self.solver_fault_rng.random()
                < self._solver_fault_spec.probability)
