"""Collector stage: coverage merge, bug dedup, records, persistence.

The collector owns the campaign's *accumulated* state — the merged
coverage map, the bug list, the per-iteration telemetry — and the
persistence side effects: streaming each committed iteration to the
campaign log and refreshing the crash-safe checkpoint through a hook.

The checkpoint hook is how resume stays exact: the checkpoint written
after iteration *n* captures everything the next iteration depends on,
so killing a campaign loses at most the uncommitted iteration, and a
resume reproduces the uninterrupted run exactly.  It fires only for a
log that a resume reads (:attr:`~repro.core.persist.CampaignLog.
resumable`); a fleet shard's log is not one.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..concolic.coverage import CoverageMap
from ..core.compi import BugRecord, IterationRecord
from ..supervise.triage import crash_signature
from .executor import ExecOutcome
from .scheduler import Candidate

#: hook signature: (entered CampaignLog, elapsed_seconds) -> None
CheckpointHook = Callable[[Any, float], None]


class Collector:
    """Accumulates committed outcomes; streams them to the log.

    ``supervisor``/``triage`` (see :mod:`repro.supervise`) hook the
    committed stream: newly quarantined inputs are persisted with the
    iteration that confirmed the kill, and every committed bug feeds
    signature dedup + reproducer minimization.  Both run at commit time,
    in commit order — which is what keeps their state identical across
    a resume.
    """

    def __init__(self, checkpoint: Optional[CheckpointHook] = None,
                 supervisor: Optional[Any] = None,
                 triage: Optional[Any] = None):
        self.coverage = CoverageMap()
        self.bugs: list[BugRecord] = []
        self.records: list[IterationRecord] = []
        self.checkpoint = checkpoint
        self.supervisor = supervisor
        self.triage = triage
        self.log: Optional[Any] = None  # an *entered* CampaignLog

    # ------------------------------------------------------------------
    def absorb(self, candidate: Candidate, outcome: ExecOutcome,
               iteration: int) -> tuple[set, Optional[BugRecord]]:
        """Merge one committed outcome; returns (new branches, bug)."""
        new_branches = outcome.coverage.branches - self.coverage.branches
        self.coverage.merge(outcome.coverage)
        bug: Optional[BugRecord] = None
        if outcome.error is not None:
            err = outcome.error
            bug = BugRecord(kind=err.kind, message=err.message,
                            global_rank=err.global_rank,
                            testcase=candidate.testcase,
                            iteration=iteration, location=err.location,
                            signature=crash_signature(err),
                            schedule=outcome.schedule,
                            pending_ops=getattr(err, "pending", ()))
            self.bugs.append(bug)
        return new_branches, bug

    def build_record(self, candidate: Candidate, outcome: ExecOutcome,
                     iteration: int, elapsed: float,
                     negated_site: Optional[int]) -> IterationRecord:
        tc = candidate.testcase
        trace = outcome.trace
        nonfocus = outcome.nonfocus_log_sizes
        nonfocus_avg = sum(nonfocus) / len(nonfocus) if nonfocus else 0.0
        return IterationRecord(
            iteration=iteration, origin=tc.origin,
            nprocs=tc.setup.nprocs, focus=tc.setup.focus,
            path_len=len(trace.path) if trace else 0,
            event_count=trace.event_count if trace else 0,
            covered_after=self.coverage.covered_branches,
            error_kind=outcome.error.kind if outcome.error else None,
            wall_time=outcome.wall_time,
            elapsed=elapsed,
            negated_site=negated_site,
            focus_log_size=outcome.focus_log_size,
            nonfocus_log_avg=nonfocus_avg,
            stragglers=outcome.stragglers,
            degraded=outcome.degraded,
            retries=outcome.retries,
            harvest_error=outcome.harvest_error,
            arm=candidate.arm,
            schedule=outcome.schedule,
        )

    def record(self, it_rec: IterationRecord, new_branches: set,
               bug: Optional[BugRecord]) -> None:
        """Append + persist one committed iteration (log, delta, ckpt)."""
        self.records.append(it_rec)
        if bug is not None and self.triage is not None:
            # dedup + (first occurrence of a signature) minimize and
            # emit a reproducer artifact next to the log
            self.triage.on_bug(
                bug, self.log.path if self.log is not None else None)
        if self.log is not None:
            self.log.write_iteration(it_rec)
            self.log.write_cov_delta(it_rec.iteration, sorted(new_branches))
            if bug is not None:
                self.log.write_bug(bug)
            if self.supervisor is not None:
                for entry in self.supervisor.drain_new_quarantines():
                    self.log.write_quarantine(entry)
            if self.checkpoint is not None and self.log.resumable:
                self.checkpoint(self.log, it_rec.elapsed)
