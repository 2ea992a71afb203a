"""Executor stage: how one candidate test case becomes an execution outcome.

:func:`execute` runs the candidate in-process through the campaign's own
:class:`~repro.core.runner.TestRunner` — the retry policy, the adaptive
timeout and the fault streams all advance in commit order.  With a
:class:`~repro.supervise.sandbox.CampaignSupervisor` that asks for it
(sandboxing enabled, or the input is quarantined) the run goes through
the forked sandbox or replays the quarantine verdict instead.

Parallelism lives outside the engine: to use N cores, run N seeds or
strategy arms as fleet shards (:mod:`repro.fleet`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..concolic.coverage import CoverageMap
from ..concolic.trace import TraceResult
from ..core.runner import ErrorInfo, RunRecord, TestRunner
from ..core.testcase import TestCase

if TYPE_CHECKING:  # pragma: no cover
    from ..supervise.sandbox import CampaignSupervisor


@dataclass
class ExecOutcome:
    """Everything the collector/scheduler need from one execution.

    A picklable projection of :class:`~repro.core.runner.RunRecord`
    (which drags the full per-rank job result along) — this is what the
    forked sandbox ships back over its pipe.
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
    """Project a runner record onto the executor's outcome."""
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


def execute(runner: TestRunner, testcase: TestCase,
            supervisor: Optional["CampaignSupervisor"] = None
            ) -> ExecOutcome:
    """Run one candidate test case, in commit order.

    Sandboxed campaigns and quarantined inputs go through the
    supervisor; every other run is a plain in-process
    ``runner.run_with_retries``.
    """
    if supervisor is not None and (supervisor.sandbox_inline
                                   or supervisor.is_quarantined(testcase)):
        return supervisor.run_inline(testcase)
    rec, retries = runner.run_with_retries(testcase)
    return outcome_from_record(rec, retries)
