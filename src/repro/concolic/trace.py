"""Execution recorders (sinks): the heavy concolic trace and the light
coverage-only recorder.

COMPI's two-way instrumentation (§IV-B) generates two program variants:

* ``ex1`` — *heavy*: full symbolic execution.  Here: inputs and MPI
  rank/size queries come back as :class:`~repro.concolic.sym.SymInt`
  proxies, every branch probe records coverage **and** (subject to
  constraint-set reduction) the path constraint, every raw branch event is
  logged (that log is the I/O the paper measures in Table IV).
* ``ex2`` — *light*: branch probes only record the set of covered branch
  IDs; inputs stay plain ``int`` so no symbolic work happens at all.

Both variants poll the job's stop event from the probe stream so that
runaway loops in instrumented code can be cancelled by the watchdog.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from ..mpi.errors import MpiShutdown
from .coverage import CoverageMap
from .expr import (KIND_INPUT, KIND_RC, KIND_RW, KIND_SC, KIND_SW,
                   Constraint, LinearExpr, Var)
from .reduction import ReductionFilter
from .sym import SymInt

#: probe calls between stop-event polls (keeps the common path cheap)
_STOP_POLL_PERIOD = 256


@dataclass(frozen=True)
class PathEntry:
    """One symbolic branch on the executed path (CREST's path element)."""

    site: int
    outcome: bool
    constraint: Constraint  # oriented to HOLD under this execution


@dataclass
class TraceResult:
    """Everything COMPI reads back from the focus process after one run."""

    vars: list[Var]
    values: dict[int, int]                 # vid → concrete value this run
    path: list[PathEntry]                  # constrained branches, in order
    coverage: CoverageMap
    mapping_rows: list[tuple[int, ...]]    # comm_index → global ranks by local rank
    event_count: int = 0                   # raw branch evaluations (incl. reduced)
    suppressed: int = 0                    # constraints dropped by reduction
    input_vids: dict[str, int] = field(default_factory=dict)

    @property
    def constraint_set_size(self) -> int:
        return len(self.path)

    def vars_by_kind(self, kind: str) -> list[Var]:
        return [v for v in self.vars if v.kind == kind]


class LightSink:
    """Coverage-only recorder for non-focus ranks (the ``ex2`` behaviour).

    Concrete probe evaluations record into two flat hit arrays, which
    the runner sizes from the program's site registry before a run; a
    sink built elsewhere gets them from the first probe that finds none
    (:func:`~repro.instrument.loader.make_probes`), so one sink records
    one program.  :meth:`flush` folds the arrays into :attr:`coverage`;
    leaving :func:`~repro.concolic.context.sink_scope` calls it.
    """

    heavy = False

    def __init__(self, global_rank: int = -1):
        self.global_rank = global_rank
        self.coverage = CoverageMap()
        self._stop: Optional[threading.Event] = None
        self._probe_calls = 0
        #: probe hit arrays (``None`` until allocated):
        #: ``branch_hits[2*sid + outcome]`` and ``func_hits[fid]`` are
        #: set by concrete probe evaluations.  See docs/PERFORMANCE.md.
        self.branch_hits: Optional[bytearray] = None
        self.func_hits: Optional[bytearray] = None

    # -- runtime wiring -------------------------------------------------
    def bind_stop_event(self, event: threading.Event) -> None:
        self._stop = event

    def preallocate(self, n_sites: int, n_functions: int) -> None:
        """Allocate the hit arrays: one byte per static branch direction
        and per function.  Site/function IDs are deterministic and dense
        (see :class:`~repro.instrument.sites.SiteRegistry`), so the
        probes index with ``2*sid + outcome`` / ``fid`` directly.
        Implicit sites (negative IDs) are recorded per call instead."""
        self.branch_hits = bytearray(2 * n_sites)
        self.func_hits = bytearray(n_functions)

    def flush(self) -> None:
        """Fold the hit arrays into the coverage map.

        Called when the sink's scope ends, by the runner's harvest and by
        :meth:`serialize` / :meth:`result`; idempotent, and a no-op
        before the arrays exist.
        """
        hits = self.branch_hits
        if hits is not None:
            add = self.coverage.branches.add
            for idx in range(len(hits)):
                if hits[idx]:
                    add((idx >> 1, bool(idx & 1)))
        fhits = self.func_hits
        if fhits is not None:
            fadd = self.coverage.functions.add
            for fid in range(len(fhits)):
                if fhits[fid]:
                    fadd(fid)

    def _poll_stop(self) -> None:
        self._probe_calls += 1
        if (self._probe_calls % _STOP_POLL_PERIOD == 0
                and self._stop is not None and self._stop.is_set()):
            raise MpiShutdown(f"rank {self.global_rank} cancelled in probe")

    # -- probes ----------------------------------------------------------
    def on_branch(self, site: int, outcome: bool,
                  constraint: Optional[Constraint] = None) -> None:
        self._poll_stop()
        self.coverage.add_branch(site, outcome)

    def on_function(self, fid: int) -> None:
        self.coverage.add_function(fid)

    # -- marking: everything stays concrete ------------------------------
    def mark_input(self, name: str, value: int, cap: Optional[int] = None,
                   floor: Optional[int] = None) -> int:
        return int(value)

    def on_comm_rank(self, comm: Any, value: int) -> int:
        return value

    def on_comm_size(self, comm: Any, value: int) -> int:
        return value

    # -- log accounting ---------------------------------------------------
    def serialize(self) -> bytes:
        """The bytes this rank would write for the driver (Table IV)."""
        self.flush()
        lines = [f"{s},{int(d)}" for (s, d) in sorted(self.coverage.branches)]
        lines += [f"f{fid}" for fid in sorted(self.coverage.functions)]
        return ("\n".join(lines) + "\n").encode()


class HeavySink(LightSink):
    """Full concolic recorder for the focus rank (the ``ex1`` behaviour)."""

    heavy = True

    def __init__(self, global_rank: int = -1, reduction: bool = True,
                 log_events: bool = True, mark_mpi: bool = True,
                 mark_comm_sizes: bool = False):
        super().__init__(global_rank)
        #: when False, rank/size stay concrete — "standard concolic
        #: testing" without MPI semantics (the paper's No_Fwk baseline)
        self.mark_mpi = mark_mpi
        #: extension: also mark non-default communicator sizes (the paper
        #: explicitly leaves these unmarked, §III-A)
        self.mark_comm_sizes = mark_comm_sizes
        self.reduction = ReductionFilter(enabled=reduction)
        self.vars: list[Var] = []
        self.values: dict[int, int] = {}
        self.path: list[PathEntry] = []
        self.mapping_rows: list[tuple[int, ...]] = []
        self._comm_index: dict[int, int] = {}   # comm_id → mapping row index
        self._input_vars: dict[str, Var] = {}   # inputs reuse one var per name
        self._implicit_sites: dict[tuple, int] = {}
        self._implicit_next = -1                # implicit sites get negative ids
        self.event_count = 0
        self.log_events = log_events
        self._event_log: list[tuple[int, bool]] = []

    # -- variable creation ------------------------------------------------
    def _new_var(self, name: str, kind: str, value: int,
                 cap: Optional[int] = None, floor: Optional[int] = None,
                 comm_index: Optional[int] = None,
                 comm_size: Optional[int] = None) -> Var:
        var = Var(vid=len(self.vars), name=name, kind=kind, cap=cap,
                  floor=floor, comm_index=comm_index, comm_size=comm_size)
        self.vars.append(var)
        self.values[var.vid] = int(value)
        return var

    def mark_input(self, name: str, value: int, cap: Optional[int] = None,
                   floor: Optional[int] = None) -> SymInt:
        """Developer marking (``COMPI_int`` / ``COMPI_int_with_limit`` /
        the ranged width-typed variants)."""
        var = self._input_vars.get(name)
        if var is None:
            var = self._new_var(name, KIND_INPUT, value, cap=cap, floor=floor)
            self._input_vars[name] = var
        return SymInt.from_var(var, int(value))

    def on_comm_rank(self, comm: Any, value: int) -> Any:
        if not self.mark_mpi:
            return value
        if comm.is_world:
            var = self._new_var("rank_world", KIND_RW, value)
        else:
            idx = self._register_comm(comm)
            var = self._new_var(f"rank_comm{idx}", KIND_RC, value,
                                comm_index=idx, comm_size=comm.Get_size())
        return SymInt.from_var(var, value)

    def on_comm_size(self, comm: Any, value: int) -> Any:
        if not self.mark_mpi:
            return value
        if comm.is_world:
            var = self._new_var("size_world", KIND_SW, value)
            return SymInt.from_var(var, value)
        idx = self._register_comm(comm)
        if self.mark_comm_sizes:
            # extension beyond the paper: local sizes become symbolic too
            var = self._new_var(f"size_comm{idx}", KIND_SC, value,
                                comm_index=idx, comm_size=value)
            return SymInt.from_var(var, value)
        # paper behaviour (§III-A): non-default sizes stay concrete
        return value

    def _register_comm(self, comm: Any) -> int:
        idx = self._comm_index.get(comm.comm_id)
        if idx is None:
            idx = len(self.mapping_rows)
            self._comm_index[comm.comm_id] = idx
            # the local-rank → global-rank mapping row (§III-D, Table II):
            # comm.group is already ordered by local rank
            self.mapping_rows.append(tuple(comm.group))
        return idx

    # -- probes ------------------------------------------------------------
    def on_branch(self, site: int, outcome: bool,
                  constraint: Optional[Constraint] = None) -> None:
        self._poll_stop()
        outcome = bool(outcome)
        self.event_count += 1
        self.coverage.add_branch(site, outcome)
        if self.log_events:
            self._event_log.append((site, outcome))
        if constraint is not None and self.reduction.should_record(site, outcome):
            self.path.append(PathEntry(site, outcome, constraint))

    def on_implicit_branch(self, key: tuple, outcome: bool,
                           constraint: Constraint) -> None:
        """A SymBool forced outside a probe (short-circuit &&/|| analog)."""
        sid = self._implicit_sites.get(key)
        if sid is None:
            sid = self._implicit_next
            self._implicit_next -= 1
            self._implicit_sites[key] = sid
        self.on_branch(sid, outcome, constraint)

    # -- results -------------------------------------------------------------
    def result(self) -> TraceResult:
        self.flush()
        return TraceResult(
            vars=list(self.vars),
            values=dict(self.values),
            path=list(self.path),
            coverage=self.coverage,
            mapping_rows=list(self.mapping_rows),
            event_count=self.event_count,
            suppressed=self.reduction.suppressed,
            input_vids={n: v.vid for n, v in self._input_vars.items()},
        )

    def serialize(self) -> bytes:
        parts = [super().serialize()]
        for var in self.vars:
            parts.append(
                f"var {var.vid} {var.name} {var.kind} = "
                f"{self.values[var.vid]}\n".encode())
        for pe in self.path:
            parts.append(f"pc {pe.site} {int(pe.outcome)} {pe.constraint!r}\n".encode())
        if self.log_events:
            for s, d in self._event_log:
                parts.append(f"ev {s} {int(d)}\n".encode())
        return b"".join(parts)
