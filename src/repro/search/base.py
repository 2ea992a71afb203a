"""Search strategy framework: execution tree + strategy interface.

The *search strategy* decides which constraint on the last executed path
to negate (and therefore which branch to try to flip) — "the brain" of
COMPI (§V).  CREST ships four: bounded DFS, random branch search, uniform
random search, and CFG-directed search; COMPI picks two-phase
DFS/BoundedDFS because MPI programs front-load a deep *sanity check* that
non-systematic strategies cannot get past (§II-B, Fig. 4).

The :class:`ExecutionTree` persists across iterations and remembers, for
every path prefix, which flip directions were already explored or proved
infeasible, giving DFS its systematic behaviour without re-deriving state
from log files each iteration.

Strategies are also the *arms* of the portfolio meta-scheduler
(:mod:`repro.portfolio`): several strategies can be constructed over one
**shared** :class:`ExecutionTree`, so a flip one arm explored (or proved
infeasible) is never re-derived by a sibling arm.  Arm-local observation
state (``max_path_seen``, strategy RNGs, derived bounds) stays per
strategy; only the frontier is shared.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from ..concolic.coverage import CoverageMap
from ..concolic.trace import PathEntry


class TreeNode:
    """One branch point reached by some execution prefix."""

    __slots__ = ("children", "taken", "infeasible")

    def __init__(self) -> None:
        self.children: dict[bool, TreeNode] = {}
        self.taken: set[bool] = set()       # directions actually executed
        self.infeasible: set[bool] = set()  # directions proven/assumed UNSAT


class ExecutionTree:
    """The explored execution tree over *constrained* branches."""

    def __init__(self) -> None:
        self.root = TreeNode()
        self.paths_inserted = 0
        self.divergences = 0

    def insert(self, path: list[PathEntry]) -> None:
        node = self.root
        for entry in path:
            node.taken.add(entry.outcome)
            node.infeasible.discard(entry.outcome)  # it ran: clearly feasible
            node = node.children.setdefault(entry.outcome, TreeNode())
        self.paths_inserted += 1

    def node_at(self, path: list[PathEntry], depth: int) -> TreeNode:
        """Node reached after following ``path[:depth]``."""
        node = self.root
        for entry in path[:depth]:
            nxt = node.children.get(entry.outcome)
            if nxt is None:  # prefix was never inserted — insert lazily
                nxt = node.children.setdefault(entry.outcome, TreeNode())
            node = nxt
        return node

    def flip_status(self, path: list[PathEntry], position: int) -> str:
        """'unexplored' | 'explored' | 'infeasible' for the flip at
        ``position`` along ``path``."""
        node = self.node_at(path, position)
        flip = not path[position].outcome
        if flip in node.taken:
            return "explored"
        if flip in node.infeasible:
            return "infeasible"
        return "unexplored"

    def mark_infeasible(self, path: list[PathEntry], position: int) -> None:
        node = self.node_at(path, position)
        node.infeasible.add(not path[position].outcome)

    def clear_infeasible(self) -> None:
        """Forget UNSAT verdicts.

        "Infeasible" is relative to the concrete values baked into the
        constraints by concolic simplification (e.g. ``p*q > size`` is
        linear in ``p`` only, with the *current* ``q`` as coefficient).
        After a restart the concrete context changes, so old verdicts may
        no longer hold and every flip deserves a fresh chance.
        """
        stack = [self.root]
        while stack:
            node = stack.pop()
            node.infeasible.clear()
            stack.extend(node.children.values())

    def note_divergence(self) -> None:
        self.divergences += 1


@dataclass
class StrategyContext:
    """Read-only view handed to strategies when proposing a negation."""

    path: list[PathEntry]
    coverage: CoverageMap
    iteration: int


class SearchStrategy(ABC):
    """Interface all strategies implement."""

    name: str = "abstract"

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 tree: Optional[ExecutionTree] = None):
        self.rng = rng or np.random.default_rng(0)
        #: the explored-frontier bookkeeping; pass a shared tree to run
        #: this strategy as one arm of a portfolio over a common frontier
        self.tree = tree if tree is not None else ExecutionTree()
        self.max_path_seen = 0

    # -- lifecycle -------------------------------------------------------
    def register_execution(self, path: list[PathEntry]) -> None:
        """Record a completed execution's constrained path."""
        self.tree.insert(path)
        self.max_path_seen = max(self.max_path_seen, len(path))

    def note_foreign_execution(self, path: list[PathEntry]) -> None:
        """A *sibling arm* committed this path (shared-frontier portfolio).

        The shared tree already absorbed the insert through the committing
        arm's :meth:`register_execution`; only arm-local observation state
        (the maximum path length that feeds two-phase bound derivation)
        needs updating here.  Inserting again would double-count
        ``tree.paths_inserted``."""
        self.max_path_seen = max(self.max_path_seen, len(path))

    @abstractmethod
    def propose(self, ctx: StrategyContext) -> Iterator[int]:
        """Yield path positions to negate, best first.  The driver tries
        them in order; an UNSAT position gets :meth:`mark_infeasible` and
        the next one is pulled."""

    def mark_infeasible(self, path: list[PathEntry], position: int) -> None:
        self.tree.mark_infeasible(path, position)

    def attach(self, program) -> None:
        """Re-attach static data of ``program`` after unpickling: a
        checkpoint leaves out what the live program already holds."""

    @property
    def exhausted(self) -> bool:
        """True when the strategy knows it has nothing left to explore
        (only systematic strategies can ever say so)."""
        return False
