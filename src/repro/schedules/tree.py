"""Schedule tree and DFS frontier over message-interleaving space.

:class:`ScheduleTree` mirrors the role :class:`repro.search.base.ExecutionTree`
plays for the *input* space: it records, per decision prefix, which
choices have been taken or queued, and enumerates the unexplored
alternatives.  A node is one decision prefix; observing an executed
schedule walks the tree along the decisions actually taken and, at each
step, emits a prescription for every candidate ``(source, tag)`` pair
that was matchable there but has not been tried yet — the prefix's
choices plus the one flipped decision, with everything past the flip
left free (the controller decides those canonically, so each
prescription denotes exactly one schedule).

:class:`ScheduleExplorer` owns one tree per distinct input vector
(different inputs give decision sites different meanings, so their
schedule spaces must not be conflated), a LIFO frontier (= DFS order),
and the depth/budget knobs.  Its whole state round-trips through the
campaign checkpoint, which is what makes ``--resume`` continue the
frontier bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Optional

from .schedule import Entry


class _Node:
    """One decision prefix: which follow-up choices exist/are queued."""

    __slots__ = ("children", "explored")

    def __init__(self):
        self.children: dict[tuple, "_Node"] = {}  # (site, choice) -> node
        self.explored: set[tuple[int, int]] = set()  # choices taken/queued

    def count(self) -> int:
        return 1 + sum(c.count() for c in self.children.values())

    def dump(self) -> dict:
        return {"explored": sorted(self.explored),
                "children": [[list(k[0]) + list(k[1]), c.dump()]
                             for k, c in sorted(self.children.items())]}

    @classmethod
    def load(cls, d: dict) -> "_Node":
        node = cls()
        node.explored = {(int(s), int(t)) for s, t in d["explored"]}
        for key, sub in d["children"]:
            r, i, s, t = (int(x) for x in key)
            node.children[((r, i), (s, t))] = cls.load(sub)
        return node


class ScheduleTree:
    """Prefix tree over match decisions for ONE input vector."""

    def __init__(self, depth: int):
        self.depth = max(1, int(depth))
        self.root = _Node()
        self.schedules_seen = 0

    def observe(self, decisions: tuple) -> list[tuple[Entry, ...]]:
        """Walk an executed schedule; return prescriptions for every
        newly discovered alternative, shallowest first.

        ``decisions`` are canonical plain records
        ``(rank, index, source, tag, candidates, forced, fallback)``.
        """
        self.schedules_seen += 1
        fresh: list[tuple[Entry, ...]] = []
        node = self.root
        prefix: list[Entry] = []
        for rec in decisions[:self.depth]:
            rank, index, source, tag = rec[0], rec[1], rec[2], rec[3]
            candidates = tuple(tuple(c) for c in rec[4])
            choice = (source, tag)
            for alt in sorted(candidates):
                if alt == choice or alt in node.explored:
                    continue
                node.explored.add(alt)
                fresh.append(tuple(prefix) +
                             ((rank, index, alt[0], alt[1]),))
            node.explored.add(choice)
            key = ((rank, index), choice)
            child = node.children.get(key)
            if child is None:
                child = _Node()
                node.children[key] = child
            node = child
            prefix.append((rank, index, source, tag))
        return fresh

    def node_count(self) -> int:
        return self.root.count()

    def state_dict(self) -> dict:
        return {"depth": self.depth, "seen": self.schedules_seen,
                "root": self.root.dump()}

    @classmethod
    def from_state(cls, d: dict) -> "ScheduleTree":
        tree = cls(d["depth"])
        tree.schedules_seen = int(d["seen"])
        tree.root = _Node.load(d["root"])
        return tree


class ScheduleExplorer:
    """DFS frontier of unexplored interleavings across a campaign.

    The engine feeds every committed iteration through :meth:`note`;
    the scheduler drains :meth:`next_testcase` before deriving new
    input-space candidates, so discovered interleavings are exhausted
    depth-first (up to ``budget`` scheduled runs, ``depth`` decisions
    per run) while input search continues underneath.
    """

    def __init__(self, budget: int, depth: int):
        self.budget = max(0, int(budget))
        self.depth = max(1, int(depth))
        self._trees: dict[str, ScheduleTree] = {}
        #: LIFO of (base testcase, prescription) — pop order is DFS
        self._stack: list[tuple[Any, tuple[Entry, ...]]] = []
        self.launched = 0
        self.divergences = 0

    # -- feeding --------------------------------------------------------
    @staticmethod
    def _key(testcase: Any) -> str:
        return json.dumps([sorted(testcase.inputs.items()),
                           testcase.setup.nprocs, testcase.setup.focus])

    def note(self, testcase: Any, decisions: tuple,
             divergences: int = 0) -> None:
        """Absorb one executed schedule (any origin, scheduled or not)."""
        self.divergences += int(divergences)
        if not decisions:
            return
        base = replace(testcase, schedule=())
        tree = self._trees.get(self._key(base))
        if tree is None:
            tree = ScheduleTree(self.depth)
            self._trees[self._key(base)] = tree
        for prescription in tree.observe(decisions):
            self._stack.append((base, prescription))

    # -- draining -------------------------------------------------------
    def next_testcase(self) -> Optional[Any]:
        if self.launched >= self.budget or not self._stack:
            return None
        base, prescription = self._stack.pop()
        self.launched += 1
        return replace(base, schedule=prescription, origin="schedule",
                       negated_site=None)

    def frontier_size(self) -> int:
        return len(self._stack)

    def telemetry(self) -> dict:
        return {
            "explored": self.launched,
            "frontier": len(self._stack),
            "trees": len(self._trees),
            "decision_nodes": sum(t.node_count()
                                  for t in self._trees.values()),
            "schedules_seen": sum(t.schedules_seen
                                  for t in self._trees.values()),
            "divergences": self.divergences,
        }

    # -- checkpointing --------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "budget": self.budget,
            "depth": self.depth,
            "launched": self.launched,
            "divergences": self.divergences,
            "stack": [(tc, tuple(p)) for tc, p in self._stack],
            "trees": {k: t.state_dict() for k, t in self._trees.items()},
        }

    def load_state(self, state: dict) -> None:
        self.budget = int(state["budget"])
        self.depth = int(state["depth"])
        self.launched = int(state["launched"])
        self.divergences = int(state["divergences"])
        self._stack = [(tc, tuple(tuple(e) for e in p))
                       for tc, p in state["stack"]]
        self._trees = {k: ScheduleTree.from_state(d)
                       for k, d in state["trees"].items()}
