"""Incremental solving: dependency slicing + keep-old-values semantics.

The paper (§III-C) leans on two properties of the underlying incremental
solver:

1. only the *negated constraint and the constraints dependent upon it*
   (transitively, through shared variables) are re-solved;
2. variables outside that slice keep their previous values, so a value
   that **changed** is "more up-to-date" than one that stayed — the signal
   used to resolve rank conflicts.

:func:`dependent_slice` computes the transitive variable-sharing closure;
:func:`solve_incremental` solves the slice and merges the result over the
previous model, reporting exactly which variables changed.
:class:`SolveSession` keeps one solver, the stem frame and the
cumulative :class:`SolverStats` across a campaign's solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Optional

from ..concolic.expr import Constraint
from .intervals import Box
from .search import Problem, Solver, SolveStats
from .simplify import simplify


def dependent_slice(constraints: list[Constraint],
                    seed_vars: frozenset[int]) -> tuple[list[Constraint], frozenset[int]]:
    """All constraints transitively sharing a variable with ``seed_vars``.

    Returns (sliced constraints, the closed variable set).
    """
    vars_closed = set(seed_vars)
    picked = [False] * len(constraints)
    # hoist the per-constraint variable sets out of the fixpoint loop:
    # each pass used to recompute frozensets for every unpicked
    # constraint, which dominated slicing time on long prefixes
    cvars = [c.vars() for c in constraints]
    changed = True
    while changed:
        changed = False
        for i, cv in enumerate(cvars):
            if picked[i]:
                continue
            if cv and not cv.isdisjoint(vars_closed):
                picked[i] = True
                new = cv - vars_closed
                if new:
                    vars_closed |= new
                changed = True
    return [c for i, c in enumerate(constraints) if picked[i]], frozenset(vars_closed)


@dataclass
class IncrementalResult:
    """Outcome of one incremental solve."""

    assignment: dict[int, int]          # full model (slice ∪ kept old values)
    changed: set[int] = field(default_factory=set)  # vids whose value moved
    slice_size: int = 0


@dataclass
class SolverStats:
    """Cumulative statistics of one solve session.

    :attr:`Solver.stats` holds only the last call's counters (the node
    budget needs per-call counts); this is the campaign-lifetime view
    the report surfaces.  The counters are deterministic functions of
    the committed query stream.  The latency fields are wall-clock
    telemetry for the report and the benchmarks, and steer nothing.
    """

    #: total incremental solve requests
    solves: int = 0
    #: solves that returned a model
    sat_solves: int = 0
    #: solves that returned UNSAT / gave up
    unsat_solves: int = 0
    #: cumulative backtracking nodes
    nodes: int = 0
    #: cumulative propagation passes
    propagations: int = 0
    #: solves that hit the node budget
    exhaustions: int = 0
    #: cumulative dependency-slice sizes (constraints per request)
    slice_constraints: int = 0
    #: largest dependency slice seen
    max_slice: int = 0
    #: wall-clock spent inside solve requests, seconds
    solve_time: float = 0.0
    #: EWMA of per-request latency, seconds
    latency_ewma: float = 0.0
    #: EWMA smoothing factor
    latency_alpha: float = 0.2

    def note_solve(self, solver_stats: SolveStats, sat: bool,
                   slice_size: int, latency: float) -> None:
        """Fold one solve's per-call counters and latency in."""
        self.solves += 1
        if sat:
            self.sat_solves += 1
        else:
            self.unsat_solves += 1
        self.nodes += solver_stats.nodes
        self.propagations += solver_stats.propagations
        if solver_stats.exhausted:
            self.exhaustions += 1
        self.slice_constraints += slice_size
        self.max_slice = max(self.max_slice, slice_size)
        self.solve_time += latency
        if self.latency_ewma == 0.0:
            self.latency_ewma = latency
        else:
            a = self.latency_alpha
            self.latency_ewma = a * latency + (1 - a) * self.latency_ewma

    # perfbench/run.py's ``solver.cache_hit_rate`` is the only reader of
    # these two: the counterexample cache they counted was removed, so
    # they always read 0
    @property
    def cache_hits(self) -> int:
        return 0

    @property
    def unsat_hits(self) -> int:
        return 0

    @property
    def avg_slice(self) -> float:
        return self.slice_constraints / self.solves if self.solves else 0.0

    def snapshot(self) -> "SolverStats":
        """A detached copy (reports must not alias live counters)."""
        return SolverStats(**{f.name: getattr(self, f.name)
                              for f in fields(self)})

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["avg_slice"] = round(self.avg_slice, 2)
        return out


def solve_incremental(constraints: list[Constraint], negated: Constraint,
                      domains: Box, previous: dict[int, int],
                      solver: Optional[Solver] = None,
                      simplifier=None,
                      stats: Optional[SolverStats] = None,
                      ) -> Optional[IncrementalResult]:
    """Solve ``constraints ∧ negated`` incrementally against ``previous``.

    ``constraints`` is the retained context (path prefix + MPI semantic
    constraints + caps); ``negated`` is the flipped branch constraint.
    Only the dependency slice around ``negated`` is actually solved;
    every other variable keeps its previous value.  Returns ``None`` when
    the slice is UNSAT (or the solver gave up).

    ``simplifier`` replaces :func:`simplify` — :meth:`SolveSession.solve_at`
    passes a pass-through for a context its stem ladder already
    simplified (results are identical either way); ``stats`` accumulates
    session telemetry.
    """
    solver = solver or Solver()
    t0 = time.perf_counter()
    context = (simplifier or simplify)(list(constraints)) + [negated]
    sliced, closed_vars = dependent_slice(context, negated.vars())
    slice_domains: Box = {}
    for v in closed_vars:
        if v not in domains:
            raise KeyError(f"variable v{v} has no domain")
        slice_domains[v] = domains[v]
    slice_prev = {v: previous[v] for v in closed_vars if v in previous}
    model = solver.solve(Problem(constraints=sliced, domains=slice_domains,
                                 previous=slice_prev))
    if stats is not None:
        stats.note_solve(solver.stats, model is not None, len(sliced),
                         time.perf_counter() - t0)
    if model is None:
        return None
    assignment = dict(previous)
    assignment.update(model)
    changed = {v for v, val in model.items() if previous.get(v) != val}
    return IncrementalResult(assignment=assignment, changed=changed,
                             slice_size=len(sliced))


def _identity(constraints: list[Constraint]) -> list[Constraint]:
    """Pass-through simplifier for pre-simplified contexts.

    :meth:`SolveSession.solve_at` hands :func:`solve_incremental` a
    context that is already ``simplify(stem + prefix)`` (maintained by
    the stem frame's ladder); because :func:`simplify` is idempotent,
    skipping the redundant pass yields the exact same constraint list —
    hence identical slices."""
    return constraints


class _StemFrame:
    """A session's invariant stem plus its simplified path-prefix ladder.

    ``raw`` is the stem as the scheduler built it (MPI semantic
    constraints + discovered caps — everything invariant across the
    negations of one trace).  ``ladder[k]`` caches
    ``simplify(raw + path[:k])`` for the longest path the frame has
    seen; consecutive negations of one trace differ only in prefix
    length, so each extends the ladder by at most a few constraints
    instead of re-simplifying the whole context.  That is sound because
    :func:`simplify` is compositional over extension:
    ``simplify(simplify(A) + B) == simplify(A + B)`` — the survivors of
    ``A`` carry exactly the per-key tightest constants and the
    first-appearance order a joint pass would compute.

    Ladder entries are pure functions of ``(raw, path[:k])``: mutation
    is cache warming, never semantics.
    """

    __slots__ = ("raw", "_path", "_ladder")

    def __init__(self, stem: list[Constraint]):
        self.raw: tuple[Constraint, ...] = tuple(stem)
        self._path: list[Constraint] = []
        self._ladder: list[list[Constraint]] = [simplify(list(stem))]

    def context_at(self, prefix: list[Constraint]) -> list[Constraint]:
        """``simplify(stem + prefix)``, reusing the longest shared
        prefix with the previous call (bit-for-bit equal to a fresh
        :func:`simplify` of the concatenation)."""
        path, ladder = self._path, self._ladder
        common = 0
        limit = min(len(prefix), len(path))
        while common < limit and prefix[common] == path[common]:
            common += 1
        del path[common:]
        del ladder[common + 1:]
        for c in prefix[common:]:
            ladder.append(simplify(ladder[-1] + [c]))
            path.append(c)
        return list(ladder[len(prefix)])


class SolveSession:
    """A sequence of incremental solves over one (stateful) solver.

    The session owns the solver, the stem frame, and the cumulative
    :class:`SolverStats` that the campaign report surfaces.  The engine
    scheduler funnels every committed negation through one long-lived
    session.

    **Persistent incremental solving**: the scheduler installs each
    trace's invariant stem (MPI semantics + caps) once with
    :meth:`stem` and solves every negation through :meth:`solve_at`,
    which extends the frame's prefix ladder incrementally instead of
    re-simplifying the whole context.  :meth:`solve` is the plain
    reference: ``solve_at(frame, prefix, negated, ...)`` produces
    bit-for-bit the results of ``solve(list(frame.raw) + prefix,
    negated, ...)`` — same sliced query, same solver node walk —
    because ladder entries equal a fresh ``simplify`` of the
    concatenation and :func:`simplify` is idempotent.  The frame is a
    pure cache: it is not checkpointed, and a resumed session rebuilds
    it on first use.
    """

    def __init__(self, solver: Optional[Solver] = None,
                 stats: Optional[SolverStats] = None):
        self.solver = solver or Solver()
        self.stats = stats if stats is not None else SolverStats()
        self._frame: Optional[_StemFrame] = None

    def state_dict(self) -> dict:
        """Checkpoint slice: the solver and the cumulative stats (the
        stem frame is a cache and is rebuilt on first use)."""
        return {"solver": self.solver, "stats": self.stats}

    def load_state(self, state: dict) -> None:
        self.solver = state["solver"]
        self.stats = state["stats"]

    def solve(self, constraints: list[Constraint], negated: Constraint,
              domains: Box,
              previous: dict[int, int]) -> Optional[IncrementalResult]:
        return solve_incremental(constraints, negated, domains,
                                 previous=previous, solver=self.solver,
                                 stats=self.stats)

    def stem(self, stem: list[Constraint]) -> _StemFrame:
        """The session's frame for ``stem``: subsequent :meth:`solve_at`
        calls against it solve ``stem + prefix ∧ negated``.

        The scheduler calls this once per trace: when the stem is
        unchanged from the previous trace (the common case — MPI
        semantics and caps rarely move) the existing frame and its warm
        ladder are reused; otherwise the frame is replaced.
        """
        frame = self._frame
        if frame is None or frame.raw != tuple(stem):
            frame = self._frame = _StemFrame(stem)
        return frame

    def solve_at(self, frame: _StemFrame, prefix: list[Constraint],
                 negated: Constraint, domains: Box,
                 previous: dict[int, int]) -> Optional[IncrementalResult]:
        """Solve ``frame.raw + prefix ∧ negated`` via the prefix ladder.

        Bit-for-bit equivalent to :meth:`solve` on the concatenated
        context (see the class docstring for why)."""
        return solve_incremental(frame.context_at(prefix), negated, domains,
                                 previous=previous, solver=self.solver,
                                 simplifier=_identity, stats=self.stats)
