"""Campaign persistence: JSONL logs of iterations, bugs, and coverage.

The paper's work flow logs symbolic execution history "in a file" after
each execution and reads it back to drive the next test (§I-A); the tool
also "logs the derived error-inducing input for further analysis" (§V).
This module provides the durable form of both: a streaming JSONL log a
campaign can write as it runs, and a loader that reconstructs enough
state to analyse or resume a campaign offline.

Crash safety:

* the log opens in ``"x"`` mode by default — it refuses to clobber an
  existing file (pass ``mode="w"`` to overwrite, ``mode="a"`` to append
  for a resumed campaign);
* writes are flushed per record and ``fsync``'d every ``fsync_every``
  records and on close, so a killed campaign loses at most the tail;
* the reader tolerates a truncated *final* line (the one a crash can cut
  mid-record); a corrupt line anywhere else is still an error.

Format: one JSON object per line, discriminated by ``"type"``:

* ``meta``      — program name, config snapshot, totals
* ``iteration`` — one IterationRecord
* ``bug``       — one BugRecord with its error-inducing inputs
* ``cov``        — newly covered branches this iteration (resume delta)
* ``solver``     — cumulative solver telemetry (end of campaign)
* ``quarantine`` — one input quarantined after repeated worker kills
  (written with the iteration that confirmed the kill; honored by every
  subsequent resume)
* ``supervision``— supervision/triage telemetry (end of campaign)
* ``portfolio``  — per-arm portfolio telemetry: pulls, budget share,
  coverage gained, solver time, UCB score (end of campaign; only
  written by portfolio campaigns)
* ``coverage``   — final covered branch list (written once at the end)

Exact-state resume additionally uses a pickle checkpoint *sidecar*
(``<log>.ckpt``, written atomically): the JSONL log is the durable,
human-readable record, while the checkpoint carries the mutable
campaign state (search tree, solver, RNG streams) that JSONL cannot.
A checkpoint is one dict, stamped ``"format": CHECKPOINT_FORMAT``, whose
``"state"`` holds each engine stage's ``state_dict``.  Static program
data (the site registry and graph the CFG strategy reads) is left out;
resume re-attaches it from the live program.  Each checkpoint stamps
the log's byte offset at the moment it was taken, so resume can drop
records of an iteration the checkpoint never saw (:func:`reconcile_log`).

The staged engine (:mod:`repro.engine`) writes the log and then the
checkpoint after every committed iteration of a
:attr:`CampaignLog.resumable` log, so killing a campaign and resuming
reproduces the uninterrupted run exactly.  :func:`resume_checkpoint`
refuses a checkpoint of any other format.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import sys
from pathlib import Path
from typing import Any, Iterator, Optional, TextIO, Union

from .atomicio import atomic_write_bytes, fsync_dir, read_jsonl
from .compi import BugRecord, CampaignResult, IterationRecord
from .config import CompiConfig
from .conflicts import TestSetup
from .testcase import TestCase


class CampaignLog:
    """Streaming writer for campaign telemetry.

    ``mode`` is ``"x"`` (create, refuse to overwrite — the default),
    ``"w"`` (explicit overwrite) or ``"a"`` (append, for resume).
    """

    #: whether a resume reads this log; the campaign refreshes its
    #: checkpoint sidecar only for a log that is
    resumable = True

    def __init__(self, path: Union[str, Path], mode: str = "x",
                 fsync_every: int = 32):
        if mode not in ("x", "w", "a"):
            raise ValueError(f"mode must be 'x', 'w' or 'a', got {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self.fsync_every = max(1, int(fsync_every))
        self._fh: Optional[TextIO] = None
        self._since_sync = 0
        #: bytes in the file after the last record written
        self.offset = 0

    def __enter__(self) -> "CampaignLog":
        if self.mode == "x" and self.path.exists():
            raise FileExistsError(
                f"campaign log {self.path} already exists; pass mode='w' to "
                f"overwrite or mode='a' to append (resume)")
        open_mode = "a" if self.mode == "a" else "w"
        existed = self.path.exists()
        self._fh = self.path.open(open_mode, encoding="utf-8")
        self.offset = self.path.stat().st_size if open_mode == "a" else 0
        if not existed:
            # make the new log's directory entry durable up front: a crash
            # right after open must not leave records in an unnamed file
            fsync_dir(self.path.parent)
        return self

    def __exit__(self, *exc) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def sync(self) -> None:
        """Force the log to disk (flush + fsync)."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._since_sync = 0

    def _write(self, obj: dict) -> None:
        if self._fh is None:
            raise RuntimeError("CampaignLog used outside its context")
        # ``json.dumps`` escapes non-ASCII, so characters are bytes
        line = json.dumps(obj, sort_keys=True) + "\n"
        self._fh.write(line)
        self._fh.flush()
        self.offset += len(line)
        self._since_sync += 1
        if self._since_sync >= self.fsync_every:
            self.sync()

    def write_meta(self, program_name: str, config: CompiConfig,
                   total_branches: int) -> None:
        self._write({"type": "meta", "program": program_name,
                     "config": dataclasses.asdict(config),
                     "total_branches": total_branches})

    def write_iteration(self, rec: IterationRecord) -> None:
        self._write({"type": "iteration", **dataclasses.asdict(rec)})

    def write_bug(self, bug: BugRecord) -> None:
        self._write({
            "type": "bug", "kind": bug.kind, "message": bug.message,
            "global_rank": bug.global_rank, "iteration": bug.iteration,
            "location": bug.location,
            "signature": bug.signature,
            "inputs": dict(bug.testcase.inputs),
            "nprocs": bug.testcase.setup.nprocs,
            "focus": bug.testcase.setup.focus,
            "schedule": bug.schedule,
            "pending_ops": [list(p) for p in bug.pending_ops],
        })

    def write_quarantine(self, entry) -> None:
        """One newly quarantined input (a supervise.sandbox.QuarantineEntry)."""
        self._write({"type": "quarantine", **entry.as_dict()})

    def write_supervision(self, supervision: Optional[dict]) -> None:
        """Supervision/triage telemetry (a plain dict, or None)."""
        if supervision is not None:
            self._write({"type": "supervision", **supervision})

    def write_portfolio(self, portfolio: Optional[dict]) -> None:
        """Per-arm portfolio telemetry (a plain dict, or None)."""
        if portfolio is not None:
            self._write({"type": "portfolio", **portfolio})

    def write_cov_delta(self, iteration: int,
                        new_branches: list[tuple[int, bool]]) -> None:
        """Branches first covered this iteration (resume without ckpt)."""
        if new_branches:
            self._write({"type": "cov", "iteration": iteration,
                         "branches": sorted([s, int(d)]
                                            for (s, d) in new_branches)})

    def write_solver(self, stats) -> None:
        """Cumulative solver telemetry (a SolverStats, or None)."""
        if stats is not None:
            self._write({"type": "solver", **stats.as_dict()})

    def write_coverage(self, result: CampaignResult) -> None:
        self._write({
            "type": "coverage",
            "branches": sorted([s, int(d)] for (s, d) in
                               result.coverage.branches),
            "functions": sorted(result.coverage.functions),
            "covered_static": result.coverage.covered_static,
            "reachable": result.reachable_branches,
            "wall_time": result.wall_time,
        })

    def write_result(self, result: CampaignResult,
                     config: Optional[CompiConfig] = None) -> None:
        """Dump a finished campaign in one call."""
        self.write_meta(result.program_name, config or CompiConfig(),
                        result.total_branches)
        for rec in result.iterations:
            self.write_iteration(rec)
        for bug in result.bugs:
            self.write_bug(bug)
        self.write_solver(result.solver)
        self.write_supervision(result.supervision)
        self.write_portfolio(result.portfolio)
        self.write_coverage(result)


def save_campaign(result: CampaignResult, path: Union[str, Path],
                  config: Optional[CompiConfig] = None,
                  overwrite: bool = True) -> Path:
    """Write a finished campaign to ``path`` as a JSONL log."""
    path = Path(path)
    with CampaignLog(path, mode="w" if overwrite else "x") as log:
        log.write_result(result, config)
    return path


def read_records(path: Union[str, Path]) -> Iterator[dict]:
    """Yield the raw JSON objects of a campaign log, line by line.

    A truncated *final* line (a crash cutting a record in half) is
    skipped silently; a malformed line anywhere else raises, since that
    means real corruption rather than an interrupted write.  (The shared
    implementation lives in :mod:`repro.core.atomicio`; the fleet
    manifest reads its records through the same tolerance rules.)
    """
    yield from read_jsonl(path, tolerate_torn_tail=True)


def _filtered_kwargs(cls, obj: dict) -> dict:
    """Keep only the dataclass's known fields (older/newer log tolerance)."""
    known = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in obj.items() if k in known}


def load_campaign(path: Union[str, Path]) -> dict:
    """Reconstruct a campaign summary from a JSONL log.

    Returns a dict with ``meta``, ``iterations`` (IterationRecord list),
    ``bugs`` (BugRecord list), ``coverage`` (raw final dict, if the
    campaign finished), ``solver`` (raw solver telemetry dict, if
    recorded), ``quarantine`` (raw quarantine-entry dicts, in log order),
    ``supervision`` (raw telemetry dict, if recorded), ``portfolio``
    (raw per-arm telemetry dict, if recorded) and
    ``cov_branches`` (set of (site, outcome) branch pairs accumulated
    from per-iteration deltas — available even for a log cut off
    mid-campaign).
    """
    meta: Optional[dict] = None
    iterations: list[IterationRecord] = []
    bugs: list[BugRecord] = []
    coverage: Optional[dict] = None
    solver: Optional[dict] = None
    supervision: Optional[dict] = None
    portfolio: Optional[dict] = None
    quarantine: list[dict] = []
    cov_branches: set[tuple[int, bool]] = set()
    for obj in read_records(path):
        kind = obj.pop("type")
        if kind == "meta":
            meta = obj
        elif kind == "iteration":
            iterations.append(IterationRecord(
                **_filtered_kwargs(IterationRecord, obj)))
        elif kind == "bug":
            # re-pin the testcase to the bug's schedule (when one was
            # logged) so replaying it reproduces the interleaving
            sched_id = obj.get("schedule", "")
            schedule: tuple = ()
            if sched_id:
                from ..schedules import decode_schedule
                schedule = decode_schedule(sched_id)
            tc = TestCase(inputs=obj["inputs"],
                          setup=TestSetup(obj["nprocs"], obj["focus"]),
                          schedule=schedule)
            bugs.append(BugRecord(
                kind=obj["kind"], message=obj["message"],
                global_rank=obj["global_rank"],
                testcase=tc, iteration=obj["iteration"],
                location=obj.get("location", ""),
                signature=obj.get("signature", ""),
                schedule=sched_id,
                pending_ops=tuple(tuple(p) for p in
                                  obj.get("pending_ops", ()))))
        elif kind == "cov":
            cov_branches.update((s, bool(d)) for s, d in obj["branches"])
        elif kind == "solver":
            solver = obj
        elif kind == "quarantine":
            quarantine.append(obj)
        elif kind == "supervision":
            supervision = obj
        elif kind == "portfolio":
            portfolio = obj
        elif kind == "coverage":
            coverage = obj
            cov_branches.update((s, bool(d)) for s, d in obj["branches"])
        else:  # pragma: no cover - forward compatibility
            continue
    return {"meta": meta, "iterations": iterations, "bugs": bugs,
            "coverage": coverage, "solver": solver,
            "quarantine": quarantine, "supervision": supervision,
            "portfolio": portfolio, "cov_branches": cov_branches}


# ----------------------------------------------------------------------
# checkpoint sidecar (exact-state resume)

def checkpoint_path(log_path: Union[str, Path]) -> Path:
    """The checkpoint sidecar next to a campaign log."""
    p = Path(log_path)
    return p.with_name(p.name + ".ckpt")


#: the checkpoint layout this code writes and resumes from; a sidecar
#: without this stamp is refused (resume falls back to the JSONL log)
CHECKPOINT_FORMAT = 2


def write_checkpoint(log_path: Union[str, Path], state: dict) -> Path:
    """Atomically persist campaign state next to the log.

    Written to a temp file then ``os.replace``'d (with a parent-directory
    fsync — see :mod:`repro.core.atomicio`), so a crash mid-write leaves
    the previous checkpoint intact and a crash right after the rename
    cannot lose the new one.
    """
    return atomic_write_bytes(
        checkpoint_path(log_path),
        pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))


def reconcile_log(log_path: Union[str, Path],
                  offset: Optional[int] = None) -> bool:
    """Cut the log back to what a resume continues from.

    The collector writes an iteration's records before the engine writes
    its checkpoint, so a kill between the two leaves the log ahead of
    the checkpoint; resume would append that iteration again.  Records
    past the checkpoint's ``offset`` are dropped when they hold an
    ``iteration`` record, as is a torn final line (appending after one
    would corrupt the log).  Anything else past it (the summary records
    of a finished session) stays.  Without an ``offset`` (the JSONL
    fallback) only a torn final line is dropped.

    Returns False, with one line on stderr, when the log is shorter
    than ``offset``: it lost a tail the checkpoint counted, so the
    checkpoint is refused and the caller falls back to the JSONL log.
    """
    path = Path(log_path)
    size = path.stat().st_size if path.exists() else 0
    start = offset or 0
    if size < start:
        print(f"checkpoint {checkpoint_path(path)} covers {offset} bytes of "
              f"{path}, which holds {size}; falling back to the JSONL log",
              file=sys.stderr)
        return False
    if size == start:
        return True
    with path.open("rb") as fh:
        fh.seek(start)
        tail = fh.read()
    keep = tail.rfind(b"\n") + 1  # complete lines only
    if offset is not None and any(
            json.loads(line).get("type") == "iteration"
            for line in tail[:keep].splitlines()):
        keep = 0
    if keep < len(tail):
        with path.open("r+b") as fh:
            fh.truncate(start + keep)
            os.fsync(fh.fileno())
    return True


def load_checkpoint(log_path: Union[str, Path]) -> Optional[dict]:
    """Load the checkpoint sidecar; ``None`` if absent or unreadable.

    An unreadable sidecar is reported on stderr: the caller then falls
    back to the JSONL log, which restarts the search."""
    target = checkpoint_path(log_path)
    if not target.exists():
        return None
    try:
        with target.open("rb") as fh:
            return pickle.load(fh)
    except Exception as exc:
        print(f"checkpoint {target} failed to load "
              f"({type(exc).__name__}: {exc}); falling back to the JSONL log",
              file=sys.stderr)
        return None


def resume_checkpoint(log_path: Union[str, Path]) -> Optional[dict]:
    """The checkpoint a resume continues from, with the log cut to match.

    ``None`` sends the caller to the JSONL log: the sidecar is absent,
    unreadable, of another :data:`CHECKPOINT_FORMAT`, or covers more of
    the log than it holds.  Each refusal is one line on stderr.  Either
    way the log is left ending on a complete record, ready to append to.
    """
    state = load_checkpoint(log_path)
    found = state.get("format") if isinstance(state, dict) else None
    if state is not None and found != CHECKPOINT_FORMAT:
        print(f"checkpoint {checkpoint_path(log_path)} is stale (format "
              f"{found!r}, expected {CHECKPOINT_FORMAT}); falling back to "
              f"the JSONL log", file=sys.stderr)
        state = None
    if state is not None and reconcile_log(log_path, state["log_offset"]):
        return state
    reconcile_log(log_path)
    return None
