"""Fork-isolated, resource-capped execution of one test, and the
campaign supervisor that routes runs through it.

The virtual MPI substrate runs target ranks on *threads of the campaign
process*, so a target that dies hard — ``os._exit``, a fatal signal, a
runaway allocation the kernel answers with SIGKILL — takes the whole
campaign with it.  :func:`run_sandboxed` forks a child, applies the
configured ``resource`` rlimits, runs the test there, and ships the
picklable :class:`~repro.engine.executor.ExecOutcome` back over a pipe:

* a clean child returns the outcome exactly as an in-process run would
  (execution is a pure function of the test case);
* a child that raises a harness-level exception re-raises it in the
  parent, matching the unsandboxed path;
* a child that dies hard yields a :class:`SandboxDeath` the supervisor
  turns into a synthesized ``worker-killed`` / ``oom`` / ``cpu-cap``
  outcome — the campaign keeps going.

:class:`CampaignSupervisor` owns the campaign's kill accounting and
quarantine: a confirmed hard death is charged to the test's canonical
input (:func:`canonical_input_key`); after ``quarantine_kills`` kills
the input is **quarantined** — persisted in the campaign log, honored
across ``--resume``, and skipped (with a replayed synthesized outcome)
instead of executed.  Every state change follows the committed stream,
so a resumed campaign evolves the same quarantine state.

Platform note: forking requires POSIX (``os.fork``); on platforms
without it the sandbox degrades to an unprotected in-process run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import signal
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.config import CompiConfig
from ..core.runner import (KIND_CPU, KIND_OOM, KIND_SEGFAULT, KIND_WORKER,
                           ErrorInfo)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.runner import TestRunner
    from ..core.testcase import TestCase
    from ..engine.executor import ExecOutcome

#: child exit status when even shipping the failure payload failed
_CHILD_INTERNAL_ERROR = 83


def sandbox_supported() -> bool:
    """Fork-based sandboxing needs a POSIX fork."""
    return hasattr(os, "fork")


@dataclass(frozen=True)
class ResourceLimits:
    """The per-run resource caps of one campaign (pure data)."""

    max_rss_mb: Optional[int] = None
    max_cpu_s: Optional[float] = None

    @classmethod
    def from_config(cls, config: CompiConfig) -> "ResourceLimits":
        return cls(max_rss_mb=config.max_rss_mb, max_cpu_s=config.max_cpu_s)

    @property
    def any(self) -> bool:
        return self.max_rss_mb is not None or self.max_cpu_s is not None


@dataclass(frozen=True)
class SandboxDeath:
    """A hard child death, classified against the active rlimits."""

    kind: str       # KIND_WORKER | KIND_OOM | KIND_CPU
    desc: str       # deterministic: "exit code 1", "signal 9 (SIGKILL)", …

    def message(self, limits: ResourceLimits) -> str:
        """Deterministic error message (pure function of death + caps)."""
        if self.kind == KIND_CPU:
            return (f"CPU rlimit exceeded "
                    f"({limits.max_cpu_s}s cap; {self.desc})")
        if self.kind == KIND_OOM:
            return (f"address-space rlimit exceeded "
                    f"({limits.max_rss_mb} MB cap; {self.desc})")
        return f"worker process died mid-run ({self.desc})"


def _set_soft(res: int, soft: int) -> None:
    """Set a soft rlimit, never touching (or exceeding) the hard limit."""
    import resource
    _, hard = resource.getrlimit(res)
    if hard != resource.RLIM_INFINITY:
        soft = min(soft, hard)
    resource.setrlimit(res, (soft, hard))


def apply_rlimits(limits: ResourceLimits) -> None:
    """Apply the address-space cap (absolute) and arm the CPU cap.

    Called once per sandbox child and once per fleet shard worker.
    No-op without caps or without the ``resource`` module (non-POSIX).
    """
    if not limits.any:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    if limits.max_rss_mb is not None:
        _set_soft(resource.RLIMIT_AS, limits.max_rss_mb * 1024 * 1024)
    arm_cpu_limit(limits)


def arm_cpu_limit(limits: ResourceLimits) -> None:
    """(Re-)arm the CPU cap relative to CPU already consumed.

    ``RLIMIT_CPU`` counts whole-process CPU, so a long-lived worker
    must raise the soft limit before every task — otherwise the cap
    would measure the worker's lifetime, not the run.  The hard limit is
    never lowered, so re-raising the soft limit stays legal.
    """
    if limits.max_cpu_s is None:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    used = resource.getrusage(resource.RUSAGE_SELF)
    consumed = used.ru_utime + used.ru_stime
    _set_soft(resource.RLIMIT_CPU,
              int(math.ceil(consumed + limits.max_cpu_s)))


def reclassify_resource(outcome: "ExecOutcome",
                        limits: ResourceLimits) -> "ExecOutcome":
    """Rewrite an rlimit-induced MemoryError from ``segfault`` to ``oom``.

    Under ``RLIMIT_AS`` a too-large allocation raises MemoryError inside
    the target, which the paper-taxonomy classifier files under
    ``segfault``.  With a cap configured that is a resource kill, not a
    target bug of the segfault family — give it its own kind so triage
    does not conflate them.  Applied in the sandbox child, which sees
    the in-process exception.
    """
    import dataclasses
    err = outcome.error
    if (limits.max_rss_mb is not None and err is not None
            and err.kind == KIND_SEGFAULT
            and err.message.startswith("MemoryError")):
        outcome.error = dataclasses.replace(err, kind=KIND_OOM)
    return outcome


def _death_from_status(status: int, limits: ResourceLimits) -> SandboxDeath:
    """Classify a ``waitpid`` status against the active rlimits."""
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        try:
            name = signal.Signals(sig).name
        except ValueError:  # pragma: no cover - unknown signal number
            name = "?"
        desc = f"signal {sig} ({name})"
        if limits.max_cpu_s is not None and sig == signal.SIGXCPU:
            return SandboxDeath(kind=KIND_CPU, desc=desc)
        if limits.max_rss_mb is not None and sig == signal.SIGKILL:
            # the kernel OOM killer answers over-cap RSS with SIGKILL
            return SandboxDeath(kind=KIND_OOM, desc=desc)
        return SandboxDeath(kind=KIND_WORKER, desc=desc)
    code = os.WEXITSTATUS(status)
    return SandboxDeath(kind=KIND_WORKER, desc=f"exit code {code}")


def _child_main(write_fd: int, runner: "TestRunner", testcase: "TestCase",
                timeout: Optional[float], limits: ResourceLimits) -> None:
    """Sandbox child: run the test, ship ``(tag, payload)``, exit.

    Never returns.  Ships ``("ok", outcome)`` for a completed run —
    including runs that classified a target bug — or ``("err", exc)``
    for a harness-level exception, which the parent re-raises so the
    sandboxed path behaves exactly like the unsandboxed one.
    """
    status = 0
    try:
        from ..engine.executor import outcome_from_record
        apply_rlimits(limits)
        try:
            rec, retries = runner.probe(testcase, timeout=timeout)
            out = reclassify_resource(outcome_from_record(rec, retries),
                                      limits)
            payload = pickle.dumps(("ok", out),
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # ship the exception, parent re-raises
            payload = pickle.dumps(("err", exc),
                                   protocol=pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(payload)
    except BaseException:
        status = _CHILD_INTERNAL_ERROR
    finally:
        os._exit(status)


def run_sandboxed(runner: "TestRunner", testcase: "TestCase",
                  timeout: Optional[float], limits: ResourceLimits
                  ) -> tuple[Optional["ExecOutcome"], Optional[SandboxDeath]]:
    """Run one test in a forked, rlimit-capped child.

    Returns ``(outcome, None)`` for a completed run, ``(None, death)``
    when the child died hard, and re-raises any harness-level exception
    the child shipped (parity with the unsandboxed path).  Without
    ``os.fork`` the run degrades to an unprotected in-process execution.
    Either way the run goes through :meth:`TestRunner.probe`, so the
    runner's run counter and EWMA are left to the caller.
    """
    if not sandbox_supported():
        from ..engine.executor import outcome_from_record
        rec, retries = runner.probe(testcase, timeout=timeout)
        return outcome_from_record(rec, retries), None

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child exits via os._exit
        os.close(read_fd)
        _child_main(write_fd, runner, testcase, timeout, limits)
    os.close(write_fd)
    # read to EOF *before* waitpid: a large trace can overfill the pipe
    # buffer, and a child blocked on write never exits
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, wait_status = os.waitpid(pid, 0)
    if data:
        try:
            tag, value = pickle.loads(data)
        except Exception:
            # torn payload: the child died mid-write
            return None, _death_from_status(wait_status, limits)
        if tag == "ok":
            return value, None
        raise value
    return None, _death_from_status(wait_status, limits)


def canonical_input_key(testcase: "TestCase") -> str:
    """Stable identity of one test input: inputs + launch setup.

    Invariant under input-dict insertion order, so the same logical test
    maps to the same key in every session (quarantine must survive
    ``--resume`` and checkpoint round-trips).
    """
    blob = json.dumps([sorted(testcase.inputs.items()),
                       testcase.setup.nprocs, testcase.setup.focus],
                      sort_keys=True)
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()


@dataclass
class QuarantineEntry:
    """One quarantined canonical input (persisted in the campaign log)."""

    key: str
    inputs: dict
    nprocs: int
    focus: int
    kills: int
    error_kind: str
    error_message: str

    def as_dict(self) -> dict:
        return {"key": self.key, "inputs": dict(self.inputs),
                "nprocs": self.nprocs, "focus": self.focus,
                "kills": self.kills, "error_kind": self.error_kind,
                "error_message": self.error_message}

    @classmethod
    def from_dict(cls, d: dict) -> "QuarantineEntry":
        return cls(key=d["key"], inputs=dict(d["inputs"]),
                   nprocs=d["nprocs"], focus=d["focus"], kills=d["kills"],
                   error_kind=d["error_kind"],
                   error_message=d["error_message"])


@dataclass
class SupervisionStats:
    """Campaign-level supervision telemetry (picklable snapshot)."""

    worker_kills: int = 0
    quarantined: int = 0
    quarantine_skips: int = 0
    sandboxed_runs: int = 0

    def as_dict(self) -> dict:
        return {"worker_kills": self.worker_kills,
                "quarantined": self.quarantined,
                "quarantine_skips": self.quarantine_skips,
                "sandboxed_runs": self.sandboxed_runs}


class CampaignSupervisor:
    """Shared supervision state for one campaign.

    Owns the resource limits, the sandboxed run path, kill counts and
    the quarantine list.  The committed iteration stream drives every
    state change, so a resumed campaign evolves identical quarantine
    state.
    """

    def __init__(self, config: CompiConfig, runner: "TestRunner"):
        self.config = config
        self.runner = runner
        self.limits = ResourceLimits.from_config(config)
        self.kill_counts: dict[str, int] = {}
        self.quarantine: dict[str, QuarantineEntry] = {}
        #: entries quarantined since the collector last drained (log I/O)
        self._fresh_quarantines: list[QuarantineEntry] = []
        self.stats = SupervisionStats()

    # ------------------------------------------------------------------
    @property
    def sandbox_inline(self) -> bool:
        """Runs go through the forked sandbox."""
        return self.config.sandbox_enabled()

    # ------------------------------------------------------------------
    # quarantine bookkeeping
    # ------------------------------------------------------------------
    def is_quarantined(self, testcase: "TestCase") -> bool:
        return canonical_input_key(testcase) in self.quarantine

    def record_kill(self, testcase: "TestCase",
                    death: SandboxDeath) -> Optional[QuarantineEntry]:
        """Charge one *confirmed* hard kill to the test's canonical input.

        Returns the new quarantine entry when this kill crossed the
        ``quarantine_kills`` threshold, else None.
        """
        key = canonical_input_key(testcase)
        self.kill_counts[key] = self.kill_counts.get(key, 0) + 1
        self.stats.worker_kills += 1
        if (key not in self.quarantine
                and self.kill_counts[key] >= self.config.quarantine_kills):
            entry = QuarantineEntry(
                key=key, inputs=dict(testcase.inputs),
                nprocs=testcase.setup.nprocs, focus=testcase.setup.focus,
                kills=self.kill_counts[key], error_kind=death.kind,
                error_message=death.message(self.limits))
            self.quarantine[key] = entry
            self._fresh_quarantines.append(entry)
            self.stats.quarantined = len(self.quarantine)
            return entry
        return None

    def drain_new_quarantines(self) -> list[QuarantineEntry]:
        """New entries since the last drain (the collector persists them
        right after the iteration that confirmed the kill)."""
        fresh, self._fresh_quarantines = self._fresh_quarantines, []
        return fresh

    def load_entries(self, entries: list[QuarantineEntry]) -> None:
        """Restore quarantine state on resume (checkpoint or JSONL)."""
        for entry in entries:
            self.quarantine[entry.key] = entry
            self.kill_counts[entry.key] = max(
                self.kill_counts.get(entry.key, 0), entry.kills)
        self.stats.quarantined = len(self.quarantine)

    # ------------------------------------------------------------------
    # synthesized outcomes
    # ------------------------------------------------------------------
    def _synthesized(self, testcase: "TestCase", kind: str,
                     message: str) -> "ExecOutcome":
        from ..concolic.coverage import CoverageMap
        from ..engine.executor import ExecOutcome
        # timed_out=True keeps the synthesized (zero) wall time out of
        # the runner's EWMA while still counting the run
        return ExecOutcome(
            testcase=testcase, trace=None, coverage=CoverageMap(),
            error=ErrorInfo(kind=kind, global_rank=-1, message=message),
            wall_time=0.0, timed_out=True)

    def death_outcome(self, testcase: "TestCase",
                      death: SandboxDeath) -> "ExecOutcome":
        return self._synthesized(testcase, death.kind,
                                 death.message(self.limits))

    def quarantine_outcome(self, testcase: "TestCase") -> "ExecOutcome":
        """Replay the quarantined input's recorded failure without
        executing anything — same error kind and message as the original
        kill, so dedup folds the skip into the confirmed bug."""
        entry = self.quarantine[canonical_input_key(testcase)]
        self.stats.quarantine_skips += 1
        return self._synthesized(testcase, entry.error_kind,
                                 entry.error_message)

    # ------------------------------------------------------------------
    # the supervised run path
    # ------------------------------------------------------------------
    def run_inline(self, testcase: "TestCase") -> "ExecOutcome":
        """One supervised execution, in commit order.

        Quarantined inputs are skipped; everything else runs in the
        forked sandbox.  A hard death is charged to the input and
        surfaces as a synthesized outcome.  The sandboxed run leaves the
        runner's accounting alone, so the outcome is folded into the
        runner's EWMA and run counter here, exactly once.
        """
        if self.is_quarantined(testcase):
            outcome = self.quarantine_outcome(testcase)
        else:
            self.stats.sandboxed_runs += 1
            result, death = run_sandboxed(self.runner, testcase, None,
                                          self.limits)
            if death is None:
                outcome = result
            else:
                if death.kind == KIND_WORKER:
                    self.record_kill(testcase, death)
                outcome = self.death_outcome(testcase, death)
        self.runner.note_run(outcome.wall_time, outcome.timed_out)
        return outcome

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> SupervisionStats:
        return SupervisionStats(**self.stats.as_dict())

    def state_dict(self) -> dict:
        """Checkpointable slice: what exact resume must restore."""
        return {"kill_counts": dict(self.kill_counts),
                "quarantine": [e.as_dict() for e in self.quarantine.values()]}

    def load_state(self, state: dict) -> None:
        self.kill_counts.update(state.get("kill_counts", {}))
        self.load_entries([QuarantineEntry.from_dict(d)
                           for d in state.get("quarantine", [])])
