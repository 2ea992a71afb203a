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

Between the slicer and the backtracking solver sits the optional
**counterexample cache** (:mod:`repro.solvercache`): the sliced query is
canonicalized into a renaming/order-invariant key, and a cached SAT
model is replayed (after re-validation through ``check_assignment``) or
a cached UNSAT verdict short-circuits the solve.  See docs/SOLVER.md.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Optional

from ..concolic.expr import Constraint
from ..solvercache import (CacheEntry, SolverStats, canonical_key,
                           canonicalize_model, decanonicalize)
from .intervals import Box, check_assignment
from .search import Problem, Solver
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
    #: the model came from the counterexample cache (telemetry only)
    cached: bool = False


def _slice_query(constraints: list[Constraint], negated: Constraint,
                 domains: Box, previous: dict[int, int],
                 simplifier) -> tuple[list[Constraint], frozenset[int],
                                      Box, dict[int, int]]:
    """Simplify the context, slice around the negation, restrict the
    domains and previous values to the closed variable set."""
    all_constraints = simplifier(list(constraints)) + [negated]
    sliced, closed_vars = dependent_slice(all_constraints, negated.vars())
    slice_domains: Box = {}
    for v in closed_vars:
        if v not in domains:
            raise KeyError(f"variable v{v} has no domain")
        slice_domains[v] = domains[v]
    slice_prev = {v: previous[v] for v in closed_vars if v in previous}
    return sliced, closed_vars, slice_domains, slice_prev


def _valid_model(sliced: list[Constraint], slice_domains: Box,
                 model: dict[int, int]) -> bool:
    """Soundness gate for replayed cache models: full variable cover,
    in-domain values, and every sliced constraint satisfied."""
    if set(model) != set(slice_domains):
        return False
    for v, val in model.items():
        lo, hi = slice_domains[v]
        if not lo <= val <= hi:
            return False
    return check_assignment(sliced, model)


def solve_incremental(constraints: list[Constraint], negated: Constraint,
                      domains: Box, previous: dict[int, int],
                      solver: Optional[Solver] = None,
                      simplifier=None, cache=None,
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
    simplified (results are identical either way); ``cache`` is a counterexample cache (or a
    speculative fork view) consulted before — and fed after — the
    backtracking solve; ``stats`` accumulates session telemetry.
    """
    solver = solver or Solver()
    t0 = time.perf_counter()
    sliced, closed_vars, slice_domains, slice_prev = _slice_query(
        constraints, negated, domains, previous, simplifier or simplify)

    def _result(model: dict[int, int], cached: bool) -> IncrementalResult:
        assignment = dict(previous)
        assignment.update(model)
        changed = {v for v, val in model.items() if previous.get(v) != val}
        return IncrementalResult(assignment=assignment, changed=changed,
                                 slice_size=len(sliced), cached=cached)

    key = order = None
    if cache is not None:
        key, order = canonical_key(sliced, slice_domains, slice_prev)
        entry = cache.get(key)
        if entry is not None:
            if not entry.sat:
                if stats is not None:
                    stats.unsat_hits += 1
                    stats.note_request(len(sliced), time.perf_counter() - t0)
                return None
            model = decanonicalize(entry.model, order)
            if _valid_model(sliced, slice_domains, model):
                if stats is not None:
                    stats.cache_hits += 1
                    stats.note_request(len(sliced), time.perf_counter() - t0)
                return _result(model, cached=True)
            # stale or corrupted entry: fall through to a fresh solve,
            # whose verdict will replace it
            if stats is not None:
                stats.stale_hits += 1

    model = solver.solve(Problem(constraints=sliced, domains=slice_domains,
                                 previous=slice_prev))
    if cache is not None:
        if model is not None:
            cache.put(key, CacheEntry(sat=True,
                                      model=canonicalize_model(model, order)))
            if stats is not None:
                stats.stores += 1
        elif not solver.stats.exhausted:
            # a give-up under the node budget is not a verdict; only
            # completed searches are cached as UNSAT
            cache.put(key, CacheEntry(sat=False))
            if stats is not None:
                stats.stores += 1
    if stats is not None:
        stats.note_fresh_solve(solver.stats, sat=model is not None)
        stats.note_request(len(sliced), time.perf_counter() - t0)
    if model is None:
        return None
    return _result(model, cached=False)


def _identity(constraints: list[Constraint]) -> list[Constraint]:
    """Pass-through simplifier for pre-simplified contexts.

    :meth:`SolveSession.solve_at` hands :func:`solve_incremental` a
    context that is already ``simplify(stem + prefix)`` (maintained by
    the stem frame's ladder); because :func:`simplify` is idempotent,
    skipping the redundant pass yields the exact same constraint list —
    hence identical slices and identical cache keys."""
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
    is cache warming, never semantics, which is why forked sessions may
    share frames with the committed stream.
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

    The session owns the solver, the counterexample cache, the stem
    frame, and the cumulative :class:`SolverStats` that the campaign
    report surfaces.  The engine scheduler funnels every committed
    (serial) negation through one long-lived session, and gives each
    speculative batch a :meth:`fork` — a snapshot solver plus a
    write-buffered cache view, so neither solver state nor cache
    contents (nor LRU recency, nor the disk tier) can be perturbed by
    speculation.  A forked session is reused across the whole batch
    (one snapshot per batch, not per candidate), which is what makes
    k-wide speculation cheap enough to schedule every step.

    **Persistent incremental solving**: the scheduler installs each
    trace's invariant stem (MPI semantics + caps) once with
    :meth:`stem` and solves every negation through :meth:`solve_at`,
    which extends the frame's prefix ladder incrementally instead of
    re-simplifying the whole context.  :meth:`solve` is the plain
    reference: ``solve_at(frame, prefix, negated, ...)`` produces
    bit-for-bit the results of ``solve(list(frame.raw) + prefix,
    negated, ...)`` — same sliced query, same cache keys, same solver
    node walk — because ladder entries equal a fresh ``simplify`` of the
    concatenation and :func:`simplify` is idempotent.  The frame is a
    pure cache: it is not checkpointed, and a resumed session rebuilds
    it on first use.
    """

    def __init__(self, solver: Optional[Solver] = None, cache=None,
                 stats: Optional[SolverStats] = None):
        self.solver = solver or Solver()
        self.cache = cache
        self.stats = stats if stats is not None else SolverStats()
        self.solves = 0
        self._frame: Optional[_StemFrame] = None

    def solve(self, constraints: list[Constraint], negated: Constraint,
              domains: Box,
              previous: dict[int, int]) -> Optional[IncrementalResult]:
        self.solves += 1
        return solve_incremental(constraints, negated, domains,
                                 previous=previous, solver=self.solver,
                                 cache=self.cache, stats=self.stats)

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
        self.solves += 1
        return solve_incremental(frame.context_at(prefix), negated, domains,
                                 previous=previous, solver=self.solver,
                                 simplifier=_identity, cache=self.cache,
                                 stats=self.stats)

    def fork(self) -> "SolveSession":
        """An independent session whose solver state is a snapshot of
        this one — speculation runs here.  The fork reads the shared
        cache but buffers its writes, and keeps throwaway telemetry:
        only the committed stream feeds the campaign report.  The stem
        frame is shared with the parent (ladder entries are pure
        functions of stem + prefix, so cross-warming is sound)."""
        fork_cache = self.cache.fork() if self.cache is not None else None
        forked = SolveSession(copy.deepcopy(self.solver), cache=fork_cache,
                              stats=SolverStats())
        forked._frame = self._frame
        return forked
