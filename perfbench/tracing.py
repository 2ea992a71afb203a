"""Spans around calls into each layer's public functions.

The traced pass installs a wrapper on every function in :data:`WRAPPED`
and removes them when the pass ends; the untraced pass never sees them.
A span is ``(id, name, start, end, parent, info)``: ``parent`` is the
id of the span that was open when the call began, and ``info`` is a
small value taken from the call's result (bytes written, sites
instrumented, the shard a lease served).  Spans stay in memory and are
written out once, by :meth:`Tracer.dump`.

Coroutines (the fleet scheduler's lease and spawn calls) interleave on
one event loop, so they take the open span as parent but never become
one themselves.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from typing import Callable, Optional


def _checkpoint_bytes(path, *_args) -> int:
    return path.stat().st_size


def _sites(program, *_args) -> int:
    return program.registry.total_sites


def _run_record(result, *_args):
    rec, retries = result
    return {"margin": rec.timeout_used - rec.wall_time,
            "hang": rec.error is not None and rec.error.kind == "hang",
            "retries": retries}


def _lease_shard(frame, *_args):
    return frame.get("shard") if isinstance(frame, dict) else None


#: (span name, module, attribute, info extractor).  Module attributes
#: are patched where the caller looks them up: ``run_job`` as
#: ``repro.core.runner`` imported it, ``merge_results``/``report_text``
#: as the fleet service calls them.
WRAPPED: tuple = (
    ("instrument", "repro.__main__", "instrument_program", _sites),
    ("runner", "repro.core.runner", "TestRunner.run_with_retries",
     _run_record),
    ("mpi", "repro.core.runner", "run_job", None),
    ("solver", "repro.solver.incremental", "SolveSession.solve_at", None),
    ("solver", "repro.solver.incremental", "SolveSession.solve", None),
    ("engine.advance", "repro.engine.scheduler", "Scheduler.advance", None),
    ("engine.advance", "repro.portfolio.scheduler",
     "PortfolioScheduler.advance", None),
    ("engine.collect", "repro.engine.collector", "Collector.absorb", None),
    ("engine.collect", "repro.engine.collector", "Collector.record", None),
    ("persist.checkpoint", "repro.core.persist", "write_checkpoint",
     _checkpoint_bytes),
    ("triage", "repro.supervise.triage", "CrashTriage.on_bug", None),
    ("fleet.run", "repro.fleet.service", "fleet_run", None),
    ("fleet.merge", "repro.fleet.service", "merge_results", None),
    ("fleet.report", "repro.fleet.service", "report_text", None),
    ("fleet.spawn", "repro.fleet.pool", "WarmPool._spawn", None),
    ("fleet.lease", "repro.fleet.scheduler", "FleetScheduler._await_lease",
     _lease_shard),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "info", "child_s")

    def __init__(self, sid: int, name: str, start: float,
                 parent: Optional[int]):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None
        #: time covered by direct synchronous children
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent)
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        sp = self._open(name)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1].child_s += sp.duration

    def _wrap(self, name: str, fn: Callable, info: Optional[Callable]):
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                sp = self._open(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    sp.end = time.perf_counter()
                if info is not None:
                    sp.info = info(result, *args)
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if info is not None:
                sp.info = info(result, *args)
            return result
        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        for name, module, attr, info in WRAPPED:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original, info))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- queries -----------------------------------------------------------
    def named(self, name: str, within: Optional[set] = None) -> list[Span]:
        """Spans called ``name``, optionally only those below one of the
        span ids in ``within``."""
        if within is None:
            return [s for s in self.spans if s.name == name]
        return [s for s in self.spans
                if s.name == name and self._below(s, within)]

    def _below(self, span: Span, ids: set) -> bool:
        parent = span.parent
        while parent is not None:
            if parent in ids:
                return True
            parent = self.spans[parent].parent
        return False

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def dump(self, path) -> None:
        rows = [{"id": s.id, "name": s.name, "start": s.start,
                 "end": s.end, "parent": s.parent, "info": s.info}
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
