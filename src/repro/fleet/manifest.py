"""The fleet manifest: a crash-safe ledger of shard lifecycle events.

One append-only JSONL file per sweep (``<fleet>/manifest.jsonl``),
written through :class:`~repro.core.atomicio.JsonlAppender` with a
per-record fsync — the same discipline as the PR-1 campaign log, at the
fleet level.  Record types, discriminated by ``"type"``:

* ``fleet-meta``        — spec snapshot + expanded shard IDs (first line)
* ``shard-start``       — one attempt dispatched (shard, attempt, pid,
  and the ``pool_worker`` daemon it is leased to; a manifest written by
  an older sweep that spawned one process per attempt has no
  ``pool_worker``, and resumes all the same)
* ``shard-done``        — attempt completed; deterministic summary
* ``shard-fail``        — attempt failed: ``shard-crash`` /
  ``shard-timeout`` / ``shard-oom`` / ``shard-error``
* ``shard-quarantine``  — retry budget exhausted; the shard is poisoned
* ``pool-spawn``        — one worker daemon came up (worker, pid)
* ``pool-exit``         — a daemon left the pool: ``recycle`` /
  ``drain`` / ``crash`` / ``kill`` / ``spawn-failed``
* ``pool-breaker``      — the pool circuit breaker opened; that session
  dispatched no further attempt and left its untouched shards pending
  for ``repro fleet resume``, which starts a fresh pool

Crash semantics: a sweep killed at any instruction leaves a readable
manifest — the reader tolerates a torn final line, and every record is
fsync'd before the action it describes is *relied upon* (a shard is
only skipped on resume if its ``shard-done``/``shard-quarantine`` made
it to disk).  A ``shard-start`` without a matching terminal record
marks an attempt that was in flight when the fleet died: resume counts
it as never having happened (it produced no verdict) and re-runs the
shard, after killing any orphaned daemon the dead fleet left behind.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from ..core.atomicio import JsonlAppender, read_jsonl
from .spec import FleetSpec

MANIFEST_NAME = "manifest.jsonl"

#: fleet-level outcome kinds of one failed shard attempt
SHARD_CRASH = "shard-crash"
SHARD_TIMEOUT = "shard-timeout"
SHARD_OOM = "shard-oom"
SHARD_ERROR = "shard-error"
SHARD_FAIL_KINDS = (SHARD_CRASH, SHARD_TIMEOUT, SHARD_OOM, SHARD_ERROR)

#: shard statuses derived from the manifest
PENDING = "pending"
DONE = "done"
QUARANTINED = "quarantined"

#: reasons a daemon leaves the pool (``pool-exit`` records)
POOL_RECYCLE = "recycle"
POOL_DRAIN = "drain"
POOL_CRASH = "crash"
POOL_KILL = "kill"
POOL_SPAWN_FAILED = "spawn-failed"
POOL_EXIT_REASONS = (POOL_RECYCLE, POOL_DRAIN, POOL_CRASH, POOL_KILL,
                     POOL_SPAWN_FAILED)


@dataclass
class FleetPaths:
    """Filesystem layout of one fleet directory."""

    root: Path

    @property
    def manifest(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def shards(self) -> Path:
        return self.root / "shards"

    @property
    def heartbeats(self) -> Path:
        return self.root / "heartbeats"

    def shard_log(self, shard_id: str) -> Path:
        return self.shards / f"{shard_id}.jsonl"

    def shard_result(self, shard_id: str) -> Path:
        return self.shards / f"{shard_id}.result.json"

    @property
    def pool(self) -> Path:
        return self.root / "pool"

    def pool_output(self, worker_id: int) -> Path:
        return self.pool / f"workerd-{worker_id}.output"

    def ensure(self) -> "FleetPaths":
        self.root.mkdir(parents=True, exist_ok=True)
        self.shards.mkdir(exist_ok=True)
        self.heartbeats.mkdir(exist_ok=True)
        self.pool.mkdir(exist_ok=True)
        return self


def fleet_paths(root: Union[str, Path]) -> FleetPaths:
    return FleetPaths(Path(root))


class FleetManifest:
    """Streaming writer for the fleet ledger (one open appender)."""

    def __init__(self, paths: FleetPaths, mode: str = "a"):
        # every record is fsync'd: manifest writes are rare (per shard
        # attempt, not per iteration) and each one gates resume behavior
        self._appender = JsonlAppender(paths.manifest, mode=mode,
                                       fsync_every=1)

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, paths: FleetPaths, spec: FleetSpec,
               overwrite: bool = False) -> "FleetManifest":
        """Start a fresh sweep: layout + the ``fleet-meta`` first record."""
        paths.ensure()
        manifest = cls(paths, mode="w" if overwrite else "x")
        manifest._appender.open()
        manifest._write({
            "type": "fleet-meta", "fleet": spec.name,
            "spec": spec.as_dict(),
            "shards": [sh.shard_id for sh in spec.expand()],
        })
        return manifest

    @classmethod
    def open_append(cls, paths: FleetPaths) -> "FleetManifest":
        """Append to an existing sweep's manifest (resume)."""
        if not paths.manifest.exists():
            raise FileNotFoundError(f"no fleet manifest at {paths.manifest}")
        manifest = cls(paths, mode="a")
        manifest._appender.open()
        return manifest

    # ------------------------------------------------------------------
    def _write(self, obj: dict) -> None:
        self._appender.write(obj)

    def shard_start(self, shard_id: str, attempt: int, pid: int,
                    pool_worker: Optional[int] = None) -> None:
        rec = {"type": "shard-start", "shard": shard_id,
               "attempt": attempt, "pid": pid, "ts": time.time()}
        if pool_worker is not None:
            rec["pool_worker"] = pool_worker
        self._write(rec)

    def shard_done(self, shard_id: str, attempt: int, summary: dict) -> None:
        self._write({"type": "shard-done", "shard": shard_id,
                     "attempt": attempt, "summary": summary,
                     "ts": time.time()})

    def shard_fail(self, shard_id: str, attempt: int, kind: str,
                   detail: str) -> None:
        assert kind in SHARD_FAIL_KINDS, kind
        self._write({"type": "shard-fail", "shard": shard_id,
                     "attempt": attempt, "kind": kind, "detail": detail,
                     "ts": time.time()})

    def shard_quarantine(self, shard_id: str, failures: int, kind: str,
                         detail: str) -> None:
        self._write({"type": "shard-quarantine", "shard": shard_id,
                     "failures": failures, "kind": kind, "detail": detail,
                     "ts": time.time()})

    # -- worker-pool lifecycle (see repro.fleet.pool) ------------------

    def pool_spawn(self, worker: int, pid: int) -> None:
        self._write({"type": "pool-spawn", "worker": worker, "pid": pid,
                     "ts": time.time()})

    def pool_exit(self, worker: int, pid: int, reason: str) -> None:
        assert reason in POOL_EXIT_REASONS, reason
        self._write({"type": "pool-exit", "worker": worker, "pid": pid,
                     "reason": reason, "ts": time.time()})

    def pool_breaker(self, failures: int, detail: str) -> None:
        self._write({"type": "pool-breaker", "failures": failures,
                     "detail": detail, "ts": time.time()})

    def close(self) -> None:
        self._appender.close()

    def __enter__(self) -> "FleetManifest":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# reload


@dataclass
class ShardState:
    """Everything the manifest knows about one shard."""

    shard_id: str
    status: str = PENDING
    #: completed failed attempts (carried across resumes)
    failures: int = 0
    #: completed successful attempts (0 or 1)
    completions: int = 0
    last_kind: str = ""
    last_detail: str = ""
    summary: Optional[dict] = None
    #: pids of attempts started but never finished (orphans of a dead
    #: fleet process; resume kills them before re-dispatching)
    inflight_pids: list = field(default_factory=list)

    @property
    def attempts(self) -> int:
        return self.failures + self.completions


@dataclass
class PoolState:
    """Everything the manifest knows about the sweep's worker pool."""

    #: workers ever spawned (pool-spawn records)
    spawns: int = 0
    #: pool-exit reason → count
    exits: dict = field(default_factory=dict)
    #: worker id → pid of workers with a spawn but no exit record —
    #: alive in a running sweep, orphans of a dead one
    live: dict = field(default_factory=dict)
    #: shard ids currently leased to a daemon (open shard-starts
    #: carrying a ``pool_worker`` field)
    leased: list = field(default_factory=list)
    #: the last session's breaker opened and no later session has
    #: spawned a daemon since
    breaker_open: bool = False

    @property
    def recycled(self) -> int:
        return self.exits.get("recycle", 0)

    @property
    def alive(self) -> int:
        return len(self.live)


@dataclass
class FleetState:
    """The sweep reconstructed from its manifest (resume's world view)."""

    spec: FleetSpec
    shards: dict[str, ShardState]
    pool: PoolState = field(default_factory=PoolState)

    def shard_ids(self) -> list[str]:
        return [sh.shard_id for sh in self.spec.expand()]

    def incomplete(self) -> list[str]:
        """Shards resume must (re-)dispatch, in expansion order."""
        return [sid for sid in self.shard_ids()
                if self.shards[sid].status == PENDING]

    def counts(self) -> dict[str, int]:
        out = {PENDING: 0, DONE: 0, QUARANTINED: 0}
        for sid in self.shard_ids():
            out[self.shards[sid].status] += 1
        return out

    def orphan_pids(self) -> list[int]:
        """Pids a dead fleet may have left running: in-flight attempt
        workers plus live pool daemons (deduplicated — a leased daemon
        appears in both ledgers)."""
        pids = [pid for sid in self.shard_ids()
                for pid in self.shards[sid].inflight_pids]
        pids += list(self.pool.live.values())
        return list(dict.fromkeys(pids))


def load_state(root: Union[str, Path]) -> FleetState:
    """Rebuild the sweep state from the manifest, tolerating a torn tail."""
    paths = fleet_paths(root)
    if not paths.manifest.exists():
        raise FileNotFoundError(f"no fleet manifest at {paths.manifest}")
    spec: Optional[FleetSpec] = None
    shards: dict[str, ShardState] = {}
    open_starts: dict[str, list[int]] = {}
    open_leases: dict[str, int] = {}
    pool = PoolState()
    for obj in read_jsonl(paths.manifest):
        kind = obj.get("type")
        if kind == "fleet-meta":
            spec = FleetSpec.from_dict(obj["spec"])
            for sid in obj["shards"]:
                shards[sid] = ShardState(shard_id=sid)
        elif kind == "shard-start":
            st = shards.setdefault(obj["shard"],
                                   ShardState(shard_id=obj["shard"]))
            open_starts.setdefault(obj["shard"], []).append(obj.get("pid", 0))
            if obj.get("pool_worker") is not None:
                open_leases[obj["shard"]] = obj["pool_worker"]
            else:
                open_leases.pop(obj["shard"], None)
        elif kind == "pool-spawn":
            pool.spawns += 1
            pool.live[obj["worker"]] = obj.get("pid", 0)
            # an open breaker leases nothing more: a spawn after it is
            # a resumed session's fresh pool
            pool.breaker_open = False
        elif kind == "pool-exit":
            reason = obj.get("reason", "?")
            pool.exits[reason] = pool.exits.get(reason, 0) + 1
            pool.live.pop(obj["worker"], None)
        elif kind == "pool-breaker":
            pool.breaker_open = True
        elif kind == "shard-done":
            st = shards.setdefault(obj["shard"],
                                   ShardState(shard_id=obj["shard"]))
            st.status = DONE
            st.completions += 1
            st.summary = obj.get("summary")
            open_starts.pop(obj["shard"], None)
            open_leases.pop(obj["shard"], None)
        elif kind == "shard-fail":
            st = shards.setdefault(obj["shard"],
                                   ShardState(shard_id=obj["shard"]))
            st.failures += 1
            st.last_kind = obj.get("kind", "")
            st.last_detail = obj.get("detail", "")
            open_starts.pop(obj["shard"], None)
            open_leases.pop(obj["shard"], None)
        elif kind == "shard-quarantine":
            st = shards.setdefault(obj["shard"],
                                   ShardState(shard_id=obj["shard"]))
            st.status = QUARANTINED
            st.last_kind = obj.get("kind", st.last_kind)
            st.last_detail = obj.get("detail", st.last_detail)
            open_starts.pop(obj["shard"], None)
            open_leases.pop(obj["shard"], None)
        # unknown types: forward compatibility — skip
    pool.leased = sorted(open_leases)
    if spec is None:
        raise ValueError(f"{paths.manifest}: no fleet-meta record "
                         f"(not a fleet manifest, or its first write was "
                         f"torn)")
    for sid, pids in open_starts.items():
        if shards[sid].status == PENDING:
            shards[sid].inflight_pids = [p for p in pids if p > 0]
    return FleetState(spec=spec, shards=shards, pool=pool)


def kill_orphans(state: FleetState) -> int:
    """SIGKILL workers a dead fleet left running (best effort).

    Without this, a resumed sweep and a leftover orphan could both write
    one shard's campaign log.  Returns the number of processes signalled.
    """
    killed = 0
    for pid in state.orphan_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            killed += 1
        except (OSError, ProcessLookupError):
            continue
    if killed:
        time.sleep(0.2)  # give the kernel a beat to tear them down
    return killed
