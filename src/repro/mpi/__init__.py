"""Virtual in-process MPI runtime (substrate for the COMPI reproduction).

Public surface::

    from repro.mpi import run_spmd, mpiexec, ProcSet, MpiContext

``run_spmd(program, size)`` is the quick way to run one SPMD callable on
``size`` ranks; :func:`~repro.mpi.launch.mpiexec` is the full MPMD launch
used by COMPI's two-way instrumentation.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .comm import Communicator
from .context import MpiContext
from .datatypes import (BAND, BOR, BXOR, LAND, LOR, MAX, MAXLOC, MIN, MINLOC,
                        PROD, SUM, ReduceOp)
from .errors import (MpiAbort, MpiError, MpiInternalError, MpiInvalidRank,
                     MpiShutdown, MpiTimeout)
from .launch import ProcSet, focus_launch, mpiexec
from .runtime import Job, JobResult, RankOutcome, run_job
from .status import (ANY_SOURCE, ANY_TAG, Request, Status, waitall, waitany)
from .topology import CartComm, cart_create, dims_create
from .waitgraph import DeadlockInfo, detect_deadlock, find_cycle

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "BAND", "BOR", "BXOR", "CartComm",
    "Communicator", "DeadlockInfo", "Job", "JobResult", "LAND", "LOR", "MAX",
    "MAXLOC", "MIN", "MINLOC", "MpiAbort", "MpiContext", "MpiError",
    "MpiInternalError", "MpiInvalidRank", "MpiShutdown", "MpiTimeout",
    "ProcSet", "PROD", "RankOutcome", "ReduceOp", "Request", "Status", "SUM",
    "cart_create", "detect_deadlock", "dims_create",
    "find_cycle", "focus_launch", "mpiexec", "run_job", "run_spmd", "waitall",
    "waitany",
]


def run_spmd(program: Callable[[MpiContext], Optional[int]], size: int,
             timeout: Optional[float] = None,
             sink_factory: Optional[Callable[[int], Any]] = None,
             injector: Optional[Any] = None,
             detect_deadlocks: bool = True,
             match_policy: Optional[Any] = None) -> JobResult:
    """Run one SPMD ``program(mpi)`` on ``size`` identical ranks."""
    return mpiexec([ProcSet(size, program, sink_factory)], timeout=timeout,
                   injector=injector, detect_deadlocks=detect_deadlocks,
                   match_policy=match_policy)
