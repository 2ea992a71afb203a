"""Executor stage: how candidate test cases become execution outcomes.

Two implementations of one protocol:

* :class:`InlineExecutor` — evaluates candidates lazily in-process via
  the campaign's own :class:`~repro.core.runner.TestRunner`.  A pending
  run executes only when its result is first consumed, so speculation is
  free: a candidate the engine squashes was never run, and the committed
  behaviour is bit-for-bit the classic serial loop (same EWMA updates,
  same fault-stream indices, same everything).
* :class:`ParallelExecutor` — submits the whole candidate batch to a
  ``concurrent.futures.ProcessPoolExecutor`` (spawn start method).  Each
  worker re-instruments the target once (instrumentation is
  deterministic, so site IDs match the parent's), then runs test cases
  with the shared retry policy.  Results come back as picklable
  :class:`ExecOutcome` values and are consumed strictly in submission
  order; squashed speculations are cancelled (or discarded if already
  running).  Committed wall times are folded back into the parent
  runner's EWMA in commit order, keeping adaptive timeouts and the run
  counter checkpoint-compatible with the inline executor.

The per-batch timeout is pinned at submission time from the runner's
current EWMA state: workers cannot observe mid-batch EWMA movement, and
pinning keeps every speculative sibling under the same deadline.

Supervision (:mod:`repro.supervise`): both executors optionally take a
:class:`~repro.supervise.pool.CampaignSupervisor`.  The inline executor
then routes runs through the forked sandbox and honors the quarantine;
the parallel executor additionally survives worker death — a
``BrokenProcessPool`` (or a heartbeat-confirmed wedge) tears the pool
down, the suspect re-runs inline in the sandbox *in commit order*, and
only a sandbox-confirmed death charges a kill.  Because every committed
outcome is then either a pool result (pure function of the test case)
or the same sandboxed re-run the serial path would produce, ``--workers
N`` with supervision remains bit-for-bit identical to the serial
sandboxed campaign.  After ``breaker_rebuilds`` teardowns the circuit
breaker opens and new batches run sandboxed-inline instead of thrashing
pool rebuilds.  Without a supervisor the pre-supervision behaviour is
unchanged (a broken pool is fatal).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import sys
import time
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from ..concolic.coverage import CoverageMap
from ..concolic.trace import TraceResult
from ..core.config import CompiConfig
from ..core.runner import ErrorInfo, RunRecord, TestRunner
from ..core.testcase import TestCase
from ..instrument.loader import InstrumentedProgram
from ..supervise.pool import CampaignSupervisor, HeartbeatMonitor


@dataclass
class ExecOutcome:
    """Everything the collector/scheduler need from one execution.

    A picklable projection of :class:`~repro.core.runner.RunRecord`
    (which drags the full per-rank job result along) — this is what pool
    workers ship back over the process boundary.
    """

    testcase: TestCase
    trace: Optional[TraceResult]
    coverage: CoverageMap
    error: Optional[ErrorInfo]
    focus_log_size: int = 0
    nonfocus_log_sizes: list[int] = field(default_factory=list)
    wall_time: float = 0.0
    degraded: bool = False
    timeout_used: float = 0.0
    stragglers: int = 0
    timed_out: bool = False
    retries: int = 0
    #: why the trace harvest failed, when ``degraded`` (see RunRecord)
    harvest_error: str = ""
    #: canonical schedule ID of the executed interleaving ("" when no
    #: schedule controller was attached; see repro.schedules)
    schedule: str = ""
    #: canonical decision records feeding the ScheduleTree
    schedule_decisions: tuple = ()
    schedule_divergences: int = 0


def outcome_from_record(rec: RunRecord, retries: int = 0) -> ExecOutcome:
    """Project a runner record onto the executor-protocol outcome."""
    return ExecOutcome(
        testcase=rec.testcase,
        trace=rec.trace,
        coverage=rec.coverage,
        error=rec.error,
        focus_log_size=rec.focus_log_size,
        nonfocus_log_sizes=rec.nonfocus_log_sizes,
        wall_time=rec.wall_time,
        degraded=rec.degraded,
        timeout_used=rec.timeout_used,
        stragglers=rec.job.stragglers,
        timed_out=rec.job.timed_out,
        retries=retries,
        harvest_error=rec.harvest_error,
        schedule=rec.schedule,
        schedule_decisions=rec.schedule_decisions,
        schedule_divergences=rec.schedule_divergences,
    )


class PendingRun(Protocol):
    """One submitted candidate execution, consumed at most once."""

    def result(self) -> ExecOutcome: ...

    def cancel(self) -> None: ...


class Executor(Protocol):
    """The executor stage of the staged campaign engine."""

    #: True when submitted siblings actually run concurrently (the engine
    #: only pays for speculative solving when this is set)
    parallel: bool

    def submit_batch(self, testcases: list[TestCase]) -> list[PendingRun]: ...

    def close(self) -> None: ...


# ----------------------------------------------------------------------
# inline (serial) executor
# ----------------------------------------------------------------------
class _LazyPending:
    """Runs the test on first ``result()``; cancelling costs nothing."""

    def __init__(self, thunk: Callable[[], ExecOutcome]):
        self._thunk = thunk
        self._outcome: Optional[ExecOutcome] = None

    def result(self) -> ExecOutcome:
        if self._outcome is None:
            self._outcome = self._thunk()
        return self._outcome

    def cancel(self) -> None:
        pass  # never started


class InlineExecutor:
    """Serial executor: the classic loop's behaviour, candidate by
    candidate, with lazy evaluation so squashed speculation is free.

    With a supervisor, runs are routed through the forked sandbox (when
    enabled) and quarantined inputs are skipped — lazily, in commit
    order, so quarantine decisions from iteration *n* govern iteration
    *n+1* exactly as they do under the parallel executor.
    """

    parallel = False

    def __init__(self, runner: TestRunner,
                 supervisor: Optional[CampaignSupervisor] = None):
        self.runner = runner
        self.supervisor = supervisor

    def _run(self, tc: TestCase) -> ExecOutcome:
        sup = self.supervisor
        if sup is not None and (sup.sandbox_inline or sup.is_quarantined(tc)):
            return sup.run_inline(tc, None)
        rec, retries = self.runner.run_with_retries(tc)
        return outcome_from_record(rec, retries)

    def submit_batch(self, testcases: list[TestCase]) -> list[PendingRun]:
        return [_LazyPending(lambda tc=tc: self._run(tc))
                for tc in testcases]

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# process-pool executor
# ----------------------------------------------------------------------
class _WedgedPool(Exception):
    """Internal: heartbeats went stale past the wedge deadline."""


class _PoolPending:
    """A pool future plus everything recovery needs to re-run it:
    the test case, the pinned timeout, and the pool generation the
    future belongs to (recovery must not tear down a *rebuilt* pool
    when a stale broken future from the previous one is consumed)."""

    def __init__(self, executor: "ParallelExecutor", future: Future,
                 testcase: TestCase, timeout: float, generation: int):
        self._executor = executor
        self.future = future
        self.testcase = testcase
        self.timeout = timeout
        self.generation = generation
        self._outcome: Optional[ExecOutcome] = None

    def result(self) -> ExecOutcome:
        if self._outcome is None:
            self._outcome = self._executor._await(self)
        return self._outcome

    def cancel(self) -> None:
        # a running speculation cannot be interrupted; it finishes in its
        # worker and the result is simply never consumed
        self.future.cancel()


class ParallelExecutor:
    """Process-pool executor for speculative candidate batches.

    The pool uses the ``spawn`` start method: the parent runs target
    ranks on threads, and forking a thread-heavy interpreter is a
    deadlock lottery.  Workers bootstrap from the parent's ``sys.path``
    and re-instrument the target by module name in their initializer.

    Fault-injection campaigns never get this executor (the façade forces
    inline): fault streams are indexed by the global run number, which
    squashed speculation would perturb.
    """

    parallel = True

    def __init__(self, program: InstrumentedProgram, config: CompiConfig,
                 runner: TestRunner, workers: int,
                 supervisor: Optional[CampaignSupervisor] = None):
        self.config = config
        self.runner = runner
        self.workers = max(1, int(workers))
        self.supervisor = supervisor
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._monitor: Optional[HeartbeatMonitor] = None
        if supervisor is not None:
            self._monitor = HeartbeatMonitor(config.heartbeat_stale)
        # everything a worker needs to rebuild the program: module names
        # in instrumentation order, plus the entry coordinates
        cfg_dict = dataclasses.asdict(config)
        cfg_dict["faults"] = ()          # run-indexed streams: serial only
        cfg_dict["workers"] = 1          # no nested pools
        self._init_args = (
            list(sys.path),
            list(program.modules),
            program.entry_module,
            program.entry_name,
            program.name,
            cfg_dict,
            self._monitor.dir if self._monitor is not None else None,
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            from .worker import worker_init
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=worker_init,
                initargs=self._init_args,
            )
        return self._pool

    def _note(self, outcome: ExecOutcome) -> None:
        self.runner.note_external_run(outcome.wall_time, outcome.timed_out)

    # ------------------------------------------------------------------
    # supervised consumption
    # ------------------------------------------------------------------
    def _await(self, pending: _PoolPending) -> ExecOutcome:
        """Consume one pending future, in commit order.

        Unsupervised, this is ``future.result()`` — a broken pool is
        fatal, as before supervision existed.  Supervised, worker death
        and heartbeat-confirmed wedges divert to :meth:`_recover`.
        """
        sup = self.supervisor
        try:
            if sup is None:
                outcome = pending.future.result()
            else:
                outcome = self._wait_supervised(pending)
        except (BrokenProcessPool, OSError):
            # OSError: the manager thread closes the pool's queues
            # *before* flagging it broken (cpython race), so a break can
            # surface as "handle is closed" instead of BrokenProcessPool
            if sup is None:
                raise
            outcome = self._recover(pending, wedged=False)
        except CancelledError:
            # a sibling's recovery tore the pool down and this queued
            # future was cancelled with it — re-run inline like any
            # other casualty of the broken pool
            if sup is None:
                raise
            outcome = self._recover(pending, wedged=False)
        except _WedgedPool:
            outcome = self._recover(pending, wedged=True)
        self._note(outcome)
        return outcome

    def _wait_supervised(self, pending: _PoolPending) -> ExecOutcome:
        """Wait with wedge detection: past the pinned timeout plus the
        grace window, stale heartbeats mean no worker is making progress
        — stop waiting and recover.  A fresh heartbeat means some worker
        is merely slow; keep waiting (the watchdog inside the worker
        bounds the run itself)."""
        poll = max(0.05, min(self.config.heartbeat_stale / 2.0, 1.0))
        deadline = (time.monotonic() + pending.timeout
                    + self.config.wedge_grace)
        while True:
            try:
                return pending.future.result(timeout=poll)
            except FuturesTimeoutError:
                if (time.monotonic() > deadline
                        and self._monitor is not None
                        and self._monitor.stale()):
                    raise _WedgedPool() from None

    def _recover(self, pending: _PoolPending, wedged: bool) -> ExecOutcome:
        """Broken-pool recovery, in commit order.

        Tear down the (current-generation) pool, then re-run the suspect
        inline in the forked sandbox.  Innocent siblings of a batch
        whose pool broke re-run clean and commit ordinary results; only
        the input whose sandboxed re-run dies again records a kill — the
        exact outcome the serial sandboxed campaign commits, which is
        what keeps parallel and serial runs bit-for-bit identical.
        """
        sup = self.supervisor
        assert sup is not None
        if pending.generation == self._generation:
            self._teardown(wedged=wedged)
        return sup.run_inline(pending.testcase, pending.timeout, note=False)

    def _teardown(self, wedged: bool) -> None:
        """Discard the broken pool; the next batch lazily rebuilds (or,
        with the breaker open, never does)."""
        pool, self._pool = self._pool, None
        self._generation += 1
        if pool is not None:
            # A *wedged* worker never drains the shutdown sentinel, so
            # the pool's manager thread blocks on it forever — and
            # concurrent.futures joins that manager thread at
            # interpreter exit, wedging the whole process.  The pool is
            # abandoned either way (suspects re-run inline), so kill its
            # workers outright and let the manager thread finish.
            # Snapshot first: shutdown() drops the _processes reference.
            procs = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in procs:
                try:
                    proc.kill()
                except (ValueError, OSError, AttributeError):
                    pass  # already reaped/closed
        if self.supervisor is not None:
            self.supervisor.note_rebuild(wedged=wedged)

    # ------------------------------------------------------------------
    def submit_batch(self, testcases: list[TestCase]) -> list[PendingRun]:
        from .worker import worker_run
        sup = self.supervisor
        timeout = self.runner.current_timeout()
        if sup is not None and sup.breaker_open:
            # circuit open: sandboxed-inline lazy thunks, no pool
            return [_LazyPending(
                        lambda tc=tc: sup.run_inline(tc, timeout))
                    for tc in testcases]
        pendings: list[PendingRun] = []
        pool = self._ensure_pool()
        for tc in testcases:
            if sup is not None and sup.is_quarantined(tc):
                # known killer: never hand it to the pool
                pendings.append(_LazyPending(
                    lambda tc=tc: sup.run_inline(tc, timeout)))
                continue
            try:
                future = pool.submit(worker_run, tc, timeout)
            except (BrokenProcessPool, OSError):
                # batches are pipelined: a suspect from the *previous*
                # batch can break the pool before its future is ever
                # awaited, so the break surfaces here at submit time —
                # as BrokenProcessPool, or as a bare OSError when the
                # manager thread has closed the queues but not yet
                # flagged the pool broken (cpython race)
                if sup is None:
                    raise
                self._teardown(wedged=False)
                if sup.breaker_open:
                    pendings.append(_LazyPending(
                        lambda tc=tc: sup.run_inline(tc, timeout)))
                    continue
                pool = self._ensure_pool()
                try:
                    future = pool.submit(worker_run, tc, timeout)
                except (BrokenProcessPool, OSError):
                    # the rebuilt pool died on arrival too: give up on
                    # pooling this candidate, run it sandboxed inline
                    self._teardown(wedged=False)
                    pendings.append(_LazyPending(
                        lambda tc=tc: sup.run_inline(tc, timeout)))
                    continue
            pendings.append(_PoolPending(
                self, future, tc, timeout, self._generation))
        return pendings

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._monitor is not None:
            self._monitor.cleanup()


def make_executor(program: InstrumentedProgram, config: CompiConfig,
                  runner: TestRunner,
                  supervisor: Optional[CampaignSupervisor] = None) -> Executor:
    """Pick the executor for one campaign.

    Parallel execution requires ``workers > 1``, no fault injection
    (fault streams are run-number-indexed; see :mod:`repro.faults.plan`),
    and no schedule exploration (the schedule frontier grows from each
    committed run's decisions, so scheduled candidates must execute in
    commit order — forcing inline keeps serial ≡ ``--workers N``).
    """
    if (config.workers > 1 and not config.faults
            and not config.explore_schedules):
        return ParallelExecutor(program, config, runner, config.workers,
                                supervisor=supervisor)
    return InlineExecutor(runner, supervisor=supervisor)
