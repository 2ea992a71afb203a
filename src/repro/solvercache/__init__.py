"""Solver acceleration: canonicalizing query cache + solver telemetry.

This package sits between :class:`repro.solver.incremental.SolveSession`
and the backtracking :class:`repro.solver.search.Solver`:

* :mod:`.canonical` — normalizes a sliced query (constraints, domains,
  relevant previous values) into a key invariant under variable
  renaming and constraint order;
* :mod:`.cache` — the counterexample cache: an in-memory LRU of SAT
  models / UNSAT verdicts with an optional JSONL disk tier;
* :mod:`.telemetry` — cumulative solver statistics surfaced in the
  campaign report and the solver-cache benchmark.

See docs/SOLVER.md for the canonicalization algorithm and the tier and
determinism model.
"""

from .cache import DEFAULT_CAPACITY, CacheEntry, CounterexampleCache
from .canonical import canonical_key, canonicalize_model, decanonicalize
from .telemetry import SolverStats

__all__ = [
    "DEFAULT_CAPACITY", "CacheEntry", "CounterexampleCache",
    "SolverStats", "canonical_key",
    "canonicalize_model", "decanonicalize",
]
