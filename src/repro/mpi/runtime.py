"""Threaded SPMD/MPMD job runtime — the ``mpiexec`` of the simulator.

One Python thread per rank, scheduled run-to-block by the job's
:class:`~repro.mpi.baton.Baton`: one rank runs at a time, and the baton
passes on only inside MPI calls that wait or poll.  The job owns the
mailboxes, the collective engine, the baton, a stop event and a
watchdog deadline.  Error handling follows ``MPI_ERRORS_ARE_FATAL``: the
first uncaught exception on any rank stops the whole job, and every
other rank, parked at a known MPI call, unwinds from there in rank order
via :class:`~repro.mpi.errors.MpiShutdown`.

The per-test timeout implements the paper's hang/infinite-loop detection:
COMPI "logs the derived error-inducing input ... if either the program
returns a non-zero value or fails to complete within the specified
timeout".  Communication deadlocks need no timeout: when no rank can run
and some are unfinished, the baton reports the waits they are parked in
and the job stops at once with a
:class:`~repro.mpi.waitgraph.DeadlockInfo` — a *true* communication
deadlock, distinct from a compute hang that only the watchdog can catch.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .baton import Baton
from .channel import Mailbox
from .collectives import CollectiveEngine
from .context import MpiContext
from .errors import MpiAbort, MpiShutdown
from .waitgraph import DeadlockInfo, detect_deadlock

#: how often the main thread checks the watchdog deadline
_MONITOR_POLL = 0.02

#: the interpreter's thread switch interval while a job runs.  Each baton
#: hand-off needs the GIL at once; a CPU-bound thread left over from an
#: abandoned job (a straggler) would otherwise hold every hand-off up for
#: a whole default interval of 5 ms.  With no such thread nothing
#: contends for the GIL and the interval costs nothing.
_HANDOFF_SWITCH = 1e-4


def _monitor_wait(all_done: threading.Event, period: float) -> None:
    """One monitor pause: wake early when the job completes or deadlocks.

    Split out so benchmarks/test_engine_hotpath.py can substitute the
    historical ``time.sleep(period)`` poll and measure what completion
    quantization used to cost (see docs/PERFORMANCE.md)."""
    all_done.wait(period)


def _start_on_one_cpu(threads: list[threading.Thread]) -> None:
    """Start the rank threads confined to the CPU the caller runs on.

    The baton runs one rank at a time, so the ranks lose nothing by
    sharing a CPU, and every hand-off becomes a same-CPU thread switch
    instead of a wake-up on another, possibly idle, CPU — the dominant
    hand-off cost on a small VM.  Threads inherit the affinity of the
    thread that starts them; the caller's own mask is restored after.
    Taking the caller's CPU keeps concurrent jobs (pool workers, fleet
    daemons) spread the way the OS spread them.  Where Linux affinity
    is unavailable the threads simply start unconfined."""
    mask = None
    if hasattr(os, "sched_setaffinity"):
        try:
            with open("/proc/thread-self/stat", "rb") as fh:
                # field 39 ("processor"), counted after the ")" of field 2
                cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])
            mask = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {cpu})
        except (OSError, ValueError, IndexError):
            mask = None
    try:
        for t in threads:
            t.start()
    finally:
        if mask is not None:
            os.sched_setaffinity(0, mask)


class Job:
    """Shared state of one running MPI job."""

    def __init__(self, size: int, injector: Optional[Any] = None,
                 detect_deadlocks: bool = True,
                 match_policy: Optional[Any] = None):
        if size < 1:
            raise ValueError(f"job size must be >= 1, got {size}")
        self.size = size
        self.stop_event = threading.Event()
        #: set when every rank finished, or when a deadlock was proven
        self.all_done = threading.Event()
        self.injector = injector
        self.detect_deadlocks = detect_deadlocks
        self.deadlock: Optional[DeadlockInfo] = None
        #: injectable match policy (repro.schedules): wildcard receives
        #: become controllable decision points when set
        self.match_policy = match_policy
        self.baton = Baton(size, self.stop_event, self._quiesce)
        self.mailboxes = [Mailbox(r, self.stop_event, baton=self.baton,
                                  injector=injector, policy=match_policy)
                          for r in range(size)]
        self.collectives = CollectiveEngine(self.stop_event, self.baton,
                                            injector=injector)
        self.start_time = time.monotonic()
        self._abort_lock = threading.Lock()
        self.abort_code: Optional[int] = None
        self.abort_origin: Optional[int] = None

    def _quiesce(self, waits: dict[int, Any]) -> None:
        """No rank can run, some are unfinished: a proven deadlock.
        Without detection the job idles until the watchdog fires."""
        if self.detect_deadlocks:
            self.deadlock = detect_deadlock(waits)
            self.stop_event.set()
            self.all_done.set()

    def abort(self, errorcode: int = 1, origin: Optional[int] = None) -> None:
        """``MPI_Abort``: stop every rank.  The caller also raises locally."""
        with self._abort_lock:
            if self.abort_code is None:
                self.abort_code = int(errorcode)
                self.abort_origin = origin
        self.stop_event.set()
        raise MpiAbort(errorcode, origin)

    def request_stop(self) -> None:
        """Stop without recording an abort (used for fatal rank errors)."""
        self.stop_event.set()


@dataclass
class RankOutcome:
    """What happened on one rank."""

    global_rank: int
    exit_code: Optional[int] = None          # return value of the entry point
    error: Optional[BaseException] = None    # uncaught exception, if any
    error_traceback: str = ""
    elapsed: float = 0.0
    finished: bool = False                   # thread returned (ok or error)

    @property
    def ok(self) -> bool:
        return self.finished and self.error is None

    @property
    def interrupted(self) -> bool:
        """True when the rank was unwound by the runtime, not its own bug."""
        return isinstance(self.error, MpiShutdown)


@dataclass
class JobResult:
    """Aggregate result of one job execution."""

    size: int
    outcomes: list[RankOutcome]
    wall_time: float
    timed_out: bool
    abort_code: Optional[int] = None
    abort_origin: Optional[int] = None
    stragglers: int = 0  # threads abandoned after timeout (pure-compute hangs)
    #: set when the job quiesced with ranks unfinished: a proven deadlock
    deadlock: Optional[DeadlockInfo] = None

    @property
    def ok(self) -> bool:
        return (not self.timed_out and self.deadlock is None
                and self.abort_code is None
                and all(o.ok for o in self.outcomes))

    def first_error(self) -> Optional[RankOutcome]:
        """The lowest-rank outcome carrying a *real* error (not an unwind)."""
        for o in self.outcomes:
            if o.error is not None and not o.interrupted:
                return o
        return None


def run_job(entries: list[Callable[[MpiContext], Optional[int]]],
            sinks: Optional[list[Any]] = None,
            timeout: Optional[float] = None,
            grace: float = 2.0,
            injector: Optional[Any] = None,
            detect_deadlocks: bool = True,
            match_policy: Optional[Any] = None) -> JobResult:
    """Run one MPMD job: ``entries[r]`` is rank *r*'s entry point.

    ``sinks[r]``, when given, is attached to rank *r*'s context (the
    concolic recorder).  ``timeout`` bounds the whole job; on expiry the
    stop event is set and blocked ranks unwind.  Ranks stuck in
    *uninstrumented* pure-compute loops cannot be interrupted from outside
    (instrumented code paths poll the stop event from their branch
    probes); those threads are abandoned as daemon stragglers and counted.

    With ``detect_deadlocks`` (the default), the moment no rank can run
    while some are unfinished is a proven communication deadlock: the
    job stops there and reports it via ``JobResult.deadlock``; without
    detection such a job idles until the watchdog.  ``injector``
    attaches a fault injector (:mod:`repro.faults`) to every
    communication hook point;
    ``match_policy`` attaches a schedule controller
    (:mod:`repro.schedules`) that turns wildcard receives into
    deterministic, replayable decision points.
    """
    size = len(entries)
    job = Job(size, injector=injector, detect_deadlocks=detect_deadlocks,
              match_policy=match_policy)
    outcomes = [RankOutcome(global_rank=r) for r in range(size)]

    def runner(rank: int) -> None:
        sink = sinks[rank] if sinks is not None else None
        ctx = MpiContext(job, rank, sink=sink)
        if sink is not None and hasattr(sink, "bind_stop_event"):
            sink.bind_stop_event(job.stop_event)
        job.baton.enter(rank)
        t0 = time.monotonic()
        out = outcomes[rank]
        try:
            out.exit_code = entries[rank](ctx)
        except BaseException as exc:  # noqa: BLE001 - we *are* the harness
            out.error = exc
            out.error_traceback = traceback.format_exc()
            # MPI_ERRORS_ARE_FATAL: a real error tears the job down so the
            # other ranks don't deadlock waiting for this one.
            if not isinstance(exc, MpiShutdown):
                job.request_stop()
        finally:
            out.elapsed = time.monotonic() - t0
            out.finished = True
            # completion wakes the main thread at once, not at its next
            # poll tick: sub-millisecond executions must not be quantized
            # up to the poll period (the docs/PERFORMANCE.md cost model)
            if all(o.finished for o in outcomes):
                job.all_done.set()
            job.baton.finish(rank)

    threads = [threading.Thread(target=runner, args=(r,), daemon=True,
                                name=f"mpi-rank-{r}")
               for r in range(size)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(_HANDOFF_SWITCH)
    try:
        t_start = time.monotonic()
        _start_on_one_cpu(threads)

        deadline = None if timeout is None else t_start + timeout
        timed_out = False
        while not all(o.finished for o in outcomes) and job.deadlock is None:
            if deadline is not None and time.monotonic() >= deadline:
                timed_out = True
                break
            _monitor_wait(job.all_done, _MONITOR_POLL)

        if timed_out:
            # the holder may be an uninstrumented loop that never yields:
            # release every parked rank to unwind on its own
            job.request_stop()
            job.baton.abandon()
        for t in threads:
            t.join(grace if timed_out or job.deadlock is not None else None)
    finally:
        sys.setswitchinterval(switch)
    stragglers = sum(1 for t in threads if t.is_alive())

    return JobResult(
        size=size,
        outcomes=outcomes,
        wall_time=time.monotonic() - t_start,
        timed_out=timed_out,
        abort_code=job.abort_code,
        abort_origin=job.abort_origin,
        stragglers=stragglers,
        deadlock=job.deadlock,
    )
