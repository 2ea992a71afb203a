"""Collector stage: coverage merge, bug dedup, records, the log.

The collector owns the campaign's *accumulated* state — the merged
coverage map, the bug list, the per-iteration telemetry — and streams
each committed iteration to the campaign log.  The engine refreshes
the crash-safe checkpoint right after, from every stage's
``state_dict``.
"""

from __future__ import annotations

from typing import Any, Optional

from ..concolic.coverage import CoverageMap
from ..core.compi import BugRecord, IterationRecord
from ..supervise.triage import crash_signature
from .executor import ExecOutcome
from .scheduler import Candidate


class Collector:
    """Accumulates committed outcomes; streams them to the log.

    ``supervisor``/``triage`` (see :mod:`repro.supervise`) hook the
    committed stream: newly quarantined inputs are persisted with the
    iteration that confirmed the kill, and every committed bug feeds
    signature dedup + reproducer minimization.  Both run at commit time,
    in commit order — which is what keeps their state identical across
    a resume.
    """

    def __init__(self, supervisor: Any, triage: Any):
        self.coverage = CoverageMap()
        self.bugs: list[BugRecord] = []
        self.records: list[IterationRecord] = []
        self.supervisor = supervisor
        self.triage = triage
        self.log: Optional[Any] = None  # an *entered* CampaignLog

    def state_dict(self) -> dict:
        """Checkpoint slice: everything the collector accumulated."""
        return {"coverage": self.coverage, "bugs": self.bugs,
                "records": self.records}

    def load_state(self, state: dict) -> None:
        self.coverage = state["coverage"]
        self.bugs = state["bugs"]
        self.records = state["records"]

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
        """Append + log one committed iteration (record, delta, bug)."""
        self.records.append(it_rec)
        if bug is not None:
            # dedup + (first occurrence of a signature) minimize and
            # emit a reproducer artifact next to the log
            self.triage.on_bug(
                bug, self.log.path if self.log is not None else None)
        if self.log is not None:
            self.log.write_iteration(it_rec)
            self.log.write_cov_delta(it_rec.iteration, sorted(new_branches))
            if bug is not None:
                self.log.write_bug(bug)
            for entry in self.supervisor.drain_new_quarantines():
                self.log.write_quarantine(entry)
