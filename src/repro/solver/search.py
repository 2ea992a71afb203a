"""Backtracking integer constraint solver with previous-value preference.

This is the Yices stand-in.  It solves conjunctions of linear integer
constraints (``<=``, ``==``, ``!=`` after normalization) over finite box
domains by backtracking search with forward propagation:

* **variable order** — most-constrained first (smallest current interval);
* **value order** — the variable's *previous* value first, then values
  near interval bounds, zero/±1 neighbours of the previous value, the
  midpoint, and a few seeded random samples.

Trying the previous value first is what gives COMPI the *incremental
solving property* (§III-C): variables keep their old values unless the
negated constraint forces a change, so "the most up-to-date value" —
the variable whose value actually moved — identifies which rank variable
drives the focus change.

The solver is sound for SAT answers (every returned model is checked
against the full constraint set) and incomplete for UNSAT: hitting the
node limit reports ``None`` exactly like a solver timeout, which concolic
drivers already must treat as "couldn't negate this branch".
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from ..concolic.expr import Constraint
from .intervals import Box, check_assignment, is_empty, propagate

DEFAULT_NODE_LIMIT = 20_000


@dataclass
class Problem:
    """One solver call: constraints + domains + previous model."""

    constraints: list[Constraint]
    domains: Box
    previous: dict[int, int] = field(default_factory=dict)

    def normalized_constraints(self) -> list[Constraint]:
        out: list[Constraint] = []
        for c in self.constraints:
            out.extend(c.normalized())
        return out

    def digest(self) -> int:
        """Stable 32-bit fingerprint of the whole problem.

        Seeds the per-solve sampling RNG, making every solve a pure
        function of (problem, solver seed): repeating or skipping a
        query cannot shift the samples any *other* query sees.  Uses
        only content, never ids or hashes subject to per-process
        randomization.
        """
        cons = sorted((c.op, c.lhs.const, tuple(sorted(c.lhs.coeffs.items())))
                      for c in self.normalized_constraints())
        doms = sorted(self.domains.items())
        prev = sorted(self.previous.items())
        return zlib.crc32(repr((cons, doms, prev)).encode())


@dataclass
class SolveStats:
    nodes: int = 0
    propagations: int = 0
    exhausted: bool = False


class Solver:
    """Reusable solver.

    Sampled value candidates draw from a *per-solve* RNG seeded by
    ``(sample_seed, problem digest)``: the model returned for a problem
    is a pure function of the problem and the solver's seed, never of
    which other problems were solved before it.  ``stats`` holds the
    *last* call's counters (the node budget needs per-call counts); the
    session-level cumulative view lives in
    :class:`repro.solver.incremental.SolverStats`.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 node_limit: int = DEFAULT_NODE_LIMIT,
                 sample_seed: Optional[int] = None):
        if sample_seed is None:
            # legacy construction path: derive a stable seed from the
            # supplied generator (one draw, deterministic per seed)
            src = rng or np.random.default_rng(0)
            sample_seed = int(src.integers(0, 2 ** 63))
        self.sample_seed = int(sample_seed)
        self.node_limit = node_limit
        self.stats = SolveStats()
        self._sample_rng = np.random.default_rng(self.sample_seed)

    # ------------------------------------------------------------------
    def solve(self, problem: Problem) -> Optional[dict[int, int]]:
        """Return a satisfying assignment for every domain variable, or
        ``None`` (UNSAT or node limit)."""
        self.stats = SolveStats()
        seed = getattr(self, "sample_seed", 0)  # pre-seed pickles
        self._sample_rng = np.random.default_rng((seed, problem.digest()))
        constraints = problem.normalized_constraints()
        box: Box = dict(problem.domains)
        for c in constraints:
            for v in c.vars():
                if v not in box:
                    raise KeyError(f"constraint variable v{v} has no domain")
        if not propagate(constraints, box):
            return None
        result = self._search(constraints, box, {}, problem.previous)
        if result is None:
            return None
        if not check_assignment(problem.constraints, result):  # paranoia
            return None
        return result

    # ------------------------------------------------------------------
    def _select_var(self, box: Box, assignment: dict[int, int]) -> Optional[int]:
        best, best_width = None, None
        for v, (lo, hi) in box.items():
            if v in assignment:
                continue
            width = hi - lo
            if best_width is None or width < best_width:
                best, best_width = v, width
        return best

    def _candidates(self, v: int, box: Box, previous: Mapping[int, int]) -> list[int]:
        lo, hi = box[v]
        cands: list[int] = []

        def push(x: int) -> None:
            if lo <= x <= hi and x not in cands:
                cands.append(x)

        # Previous value first (the incremental-solving property §III-C);
        # after that, domain *bounds* — an SMT solver handed a freshly
        # negated bound constraint typically returns a boundary model,
        # which is what makes input capping behave as in the paper (§IV-A:
        # generated inputs actually reach the cap).
        if v in previous:
            push(previous[v])
        push(hi)
        push(lo)
        if v in previous:
            push(previous[v] + 1)
            push(previous[v] - 1)
        push(0)
        push(1)
        push((lo + hi) // 2)
        span = hi - lo
        if span > 8:
            for _ in range(4):
                push(int(self._sample_rng.integers(lo, hi + 1)))
        else:
            for x in range(lo, hi + 1):
                push(x)
        return cands

    def _search(self, constraints: list[Constraint], box: Box,
                assignment: dict[int, int],
                previous: Mapping[int, int]) -> Optional[dict[int, int]]:
        # decide any singleton domains first (cheap, no branching)
        for v, (lo, hi) in box.items():
            if v not in assignment and lo == hi:
                assignment[v] = lo

        v = self._select_var(box, assignment)
        if v is None:
            full = dict(assignment)
            return full if check_assignment(constraints, full) else None

        for value in self._candidates(v, box, previous):
            self.stats.nodes += 1
            if self.stats.nodes > self.node_limit:
                self.stats.exhausted = True
                return None
            child_box: Box = dict(box)
            child_box[v] = (value, value)
            self.stats.propagations += 1
            if not propagate(constraints, child_box):
                continue
            if any(is_empty(iv) for iv in child_box.values()):
                continue
            child_assignment = dict(assignment)
            child_assignment[v] = value
            # quick disequality check on fully-assigned constraints
            if not self._partial_ok(constraints, child_assignment):
                continue
            result = self._search(constraints, child_box, child_assignment,
                                  previous)
            if result is not None:
                return result
            if self.stats.exhausted:
                return None
        return None

    @staticmethod
    def _partial_ok(constraints: list[Constraint],
                    assignment: dict[int, int]) -> bool:
        for c in constraints:
            vs = c.vars()
            if vs and vs <= assignment.keys():
                if not c.evaluate(assignment):
                    return False
        return True
