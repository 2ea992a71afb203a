"""Compile and load instrumented target programs.

A *target program* is a package (or single module) of plain Python written
against the virtual-MPI context API.  :func:`instrument_program` performs
the paper's instrumentation phase: every listed module is transformed (see
:mod:`repro.instrument.transform`), compiled, and executed into a fresh
module object registered under a private name, with intra-package imports
rewired so the instrumented unit is closed.

The probes dispatch through the thread-local sink
(:mod:`repro.concolic.context`).  This is how *two-way instrumentation*
runs in one process: the focus rank's thread carries a
:class:`~repro.concolic.trace.HeavySink` (full symbolic execution — the
``ex1`` build), the other ranks carry :class:`~repro.concolic.trace.LightSink`
(coverage-only — the ``ex2`` build).  Both observe identical site IDs
because they share one deterministic instrumentation.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import itertools
import sys
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..concolic.context import tls
from ..concolic.sym import SymBool, SymInt
from ..mpi.errors import MpiShutdown
from .sites import SiteRegistry
from .transform import (BRANCH_PROBE, FUNC_PROBE, ITER_PROBE,
                        instrument_source)

_program_ids = itertools.count()


def make_probes(registry: SiteRegistry) -> dict[str, Callable]:
    """Build the runtime probe functions injected into instrumented code.

    These run once per branch evaluation of every instrumented target —
    the engine's hottest path.  A *concrete* evaluation writes one byte
    into the calling thread's sink (``branch_hits[2*sid + outcome]`` or
    ``func_hits[fid]``) and returns; the arrays are folded into the
    coverage map once per run (:meth:`~repro.concolic.trace.LightSink.flush`).
    A sink that has no arrays yet — one built outside the runner — gets
    them from ``registry`` on its first probe.  Symbolic-relevant
    evaluations take the full ``observe``/``on_branch`` path, so path
    constraints, reduction and implicit sites are recorded per call.
    The heavy sink's event count and event log, and the stop poll (one
    per 256 probe calls), are kept on the array path too.
    """

    def allocate(sink) -> None:
        sink.preallocate(registry.total_sites, len(registry.functions))

    def __compi_branch__(sid: int, val: Any) -> bool:
        sink = getattr(tls, "sink", None)
        if sink is None:
            if isinstance(val, (SymBool, SymInt)):
                return bool(val.concrete)
            return bool(val)
        if val is True or val is False:
            # the light-rank common case: a plain comparison result —
            # skip the symbolic-proxy type checks entirely
            outcome = val
        elif isinstance(val, SymBool):
            if val.constraint is not None:
                return val.observe(sid)       # symbolic: full probe path
            outcome = val.concrete
        elif isinstance(val, SymInt):
            # C truthiness `if (x)` ≡ `x != 0`
            sb = val != 0
            if isinstance(sb, SymBool) and sb.constraint is not None:
                return sb.observe(sid)        # symbolic: full probe path
            outcome = val.concrete != 0
        else:
            outcome = True if val else False
        hits = sink.branch_hits
        if hits is None:
            allocate(sink)
            hits = sink.branch_hits
        hits[sid + sid + outcome] = 1
        calls = sink._probe_calls + 1
        sink._probe_calls = calls
        if not calls % 256:
            stop = sink._stop
            if stop is not None and stop.is_set():
                raise MpiShutdown(
                    f"rank {sink.global_rank} cancelled in probe")
        if sink.heavy:
            sink.event_count += 1
            if sink.log_events:
                sink._event_log.append((sid, outcome))
        return outcome

    def __compi_func__(fid: int) -> None:
        sink = getattr(tls, "sink", None)
        if sink is None:
            return
        fhits = sink.func_hits
        if fhits is None:
            allocate(sink)
            fhits = sink.func_hits
        fhits[fid] = 1

    def __compi_iter__(sid: int, iterable: Any):
        """Probe generator for ``for`` loops: one True branch per item,
        one False branch at exhaustion (the CIL for→while lowering)."""
        sink = getattr(tls, "sink", None)
        if sink is None:
            yield from iterable
            return
        hits = sink.branch_hits
        if hits is None:
            allocate(sink)
            hits = sink.branch_hits
        # loop iterations are always concrete (the iterable is a real
        # container; symbolic bounds go through ``while`` probes)
        heavy = sink.heavy
        true_idx = sid + sid + 1
        for item in iterable:
            hits[true_idx] = 1
            calls = sink._probe_calls + 1
            sink._probe_calls = calls
            if not calls % 256:
                stop = sink._stop
                if stop is not None and stop.is_set():
                    raise MpiShutdown(
                        f"rank {sink.global_rank} cancelled in probe")
            if heavy:
                sink.event_count += 1
                if sink.log_events:
                    sink._event_log.append((sid, True))
            yield item
        hits[true_idx - 1] = 1
        calls = sink._probe_calls + 1
        sink._probe_calls = calls
        if not calls % 256:
            stop = sink._stop
            if stop is not None and stop.is_set():
                raise MpiShutdown(
                    f"rank {sink.global_rank} cancelled in probe")
        if heavy:
            sink.event_count += 1
            if sink.log_events:
                sink._event_log.append((sid, False))

    return {BRANCH_PROBE: __compi_branch__, FUNC_PROBE: __compi_func__,
            ITER_PROBE: __compi_iter__}


@dataclass
class InstrumentedProgram:
    """A loaded, instrumented target: what COMPI launches as ex1/ex2."""

    name: str
    registry: SiteRegistry
    modules: dict[str, types.ModuleType]
    entry_module: str
    entry_name: str = "main"

    @property
    def entry(self) -> Callable:
        """The target's ``main(mpi, args)`` entry point."""
        return getattr(self.modules[self.entry_module], self.entry_name)

    @property
    def total_branches(self) -> int:
        return self.registry.total_branches

    def unload(self) -> None:
        """Drop the instrumented modules from ``sys.modules``."""
        for mod in self.modules.values():
            sys.modules.pop(mod.__name__, None)


def _module_source(module_name: str) -> tuple[str, str]:
    mod = importlib.import_module(module_name)
    path = inspect.getsourcefile(mod)
    if path is None:  # pragma: no cover - only for exotic loaders
        raise ImportError(f"no source for {module_name}")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read(), path


def instrument_program(module_names: list[str], entry_module: Optional[str] = None,
                       entry_name: str = "main",
                       package_root: Optional[str] = None,
                       name: Optional[str] = None) -> InstrumentedProgram:
    """Instrument ``module_names`` (dependency order, entry last by default).

    ``package_root`` is the absolute package against which the modules'
    relative imports resolve (e.g. ``"repro.targets.hpl"``); it defaults to
    the parent package of the first module.

    Determinism contract: instrumentation is a pure function of the
    module *sources* — site IDs are assigned in AST visitation order, so
    two loads of the same modules (in this process, in a fleet shard
    worker, or across campaign resumes) produce identical site
    registries.  Checkpoints and campaign logs depend on this: a resumed
    or replayed campaign re-instruments by module name and must agree
    with the original on every site ID, and on the size of the per-sink
    hit arrays the probes index by those IDs (see :func:`make_probes`).
    """
    if not module_names:
        raise ValueError("no modules to instrument")
    entry_module = entry_module or module_names[-1]
    if entry_module not in module_names:
        raise ValueError(f"entry module {entry_module} not in module list")
    if package_root is None:
        package_root = module_names[0].rsplit(".", 1)[0]
    prog_id = next(_program_ids)
    prefix = f"_compi_p{prog_id}"
    name = name or entry_module.rsplit(".", 1)[-1]

    registry = SiteRegistry()
    probes = make_probes(registry)
    import_map = {m: f"{prefix}.{m}" for m in module_names}

    # parent placeholder packages so `import _compi_p0.repro...` resolves
    created: dict[str, types.ModuleType] = {}

    def ensure_package(dotted: str) -> None:
        parts = dotted.split(".")
        for i in range(1, len(parts)):
            pkg = ".".join(parts[:i])
            if pkg not in sys.modules:
                m = types.ModuleType(pkg)
                m.__path__ = []  # mark as package
                sys.modules[pkg] = m
                created[pkg] = m

    modules: dict[str, types.ModuleType] = {}
    try:
        for mod_name in module_names:
            source, path = _module_source(mod_name)
            tree = instrument_source(source, mod_name, registry,
                                     import_map=import_map,
                                     package_root=package_root,
                                     filename=path)
            code = compile(tree, filename=path, mode="exec")
            inst_name = import_map[mod_name]
            ensure_package(inst_name)
            module = types.ModuleType(inst_name)
            module.__file__ = path
            module.__dict__.update(probes)
            sys.modules[inst_name] = module
            created[inst_name] = module
            exec(code, module.__dict__)
            modules[mod_name] = module
    except Exception:
        for n in created:
            sys.modules.pop(n, None)
        raise

    return InstrumentedProgram(name=name, registry=registry, modules=modules,
                               entry_module=entry_module, entry_name=entry_name)
