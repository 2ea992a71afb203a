"""CFG-directed search: score negation candidates by static distance to
uncovered branches.

CREST's CFG strategy negates the branch whose flip side is statically
closest (over the control-flow graph) to a still-uncovered branch.  Our
site graph is the preorder chain approximation built by the
instrumenter (see :mod:`repro.instrument.static_info`); candidates are
scored by BFS hop count from the flipped site to the nearest site with an
uncovered direction, ties broken toward deeper path positions and then
randomly.

Like the other non-systematic strategies this fails on sanity-check
ladders (Fig. 4): the nearest uncovered branch is usually an *early*
check's unexplored arm, so the strategy keeps abandoning the deep path.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ..instrument.static_info import INFINITE, SiteGraph, uncovered_sites
from ..instrument.sites import SiteRegistry
from .base import SearchStrategy, StrategyContext


class CfgDirectedSearch(SearchStrategy):
    """Negate the branch statically closest to an uncovered site."""
    name = "CFG"

    def __init__(self, registry: SiteRegistry,
                 rng: Optional[np.random.Generator] = None, tree=None):
        super().__init__(rng, tree=tree)
        self._bind(registry)

    def _bind(self, registry: SiteRegistry) -> None:
        self.registry = registry
        self.graph = SiteGraph(registry)

    def __getstate__(self) -> dict:
        # the registry and its graph are static program data: checkpoints
        # leave them out and resume re-attaches them (see attach)
        state = dict(self.__dict__)
        del state["registry"], state["graph"]
        return state

    def attach(self, program) -> None:
        self._bind(program.registry)

    def propose(self, ctx: StrategyContext) -> Iterator[int]:
        if not ctx.path:
            return
        targets = uncovered_sites(self.registry, ctx.coverage.branches)
        scored: list[tuple[int, int, float]] = []
        for pos, entry in enumerate(ctx.path):
            if self.tree.flip_status(ctx.path, pos) == "infeasible":
                continue
            if entry.site < 0:
                dist = INFINITE  # implicit sites have no static node
            else:
                dist = self.graph.distance_to_any(entry.site, targets)
            scored.append((dist, -pos, float(self.rng.random())))
        scored.sort()
        for dist, neg_pos, _tie in scored:
            yield -neg_pos
