"""Linear integer constraint solver (the offline Yices stand-in)."""

from .incremental import (IncrementalResult, SolverStats, SolveSession,
                          dependent_slice, solve_incremental)
from .intervals import INF, Box, check_assignment, propagate
from .search import DEFAULT_NODE_LIMIT, Problem, Solver, SolveStats
from .simplify import simplify

__all__ = [
    "Box", "DEFAULT_NODE_LIMIT", "INF", "IncrementalResult", "Problem",
    "SolveSession", "SolveStats", "Solver", "SolverStats",
    "check_assignment", "dependent_slice", "propagate", "simplify",
    "solve_incremental",
]
