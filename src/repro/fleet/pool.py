"""The worker pool: persistent shard daemons with supervised leases.

Every fleet shard attempt runs on a long-lived ``repro fleet workerd``
daemon, leased for one shard at a time over a length-prefixed JSON
request/response protocol on the daemon's stdin/stdout pipe.  A daemon
pays its interpreter start-up and imports once, not once per attempt.

Reuse is only sound because a shard campaign is a pure function of its
spec plus the fleet directory (:func:`~repro.fleet.worker
.execute_shard` re-instruments its target per shard and unloads it
after, and the instrumentation contract guarantees identical site
registries across loads).  The determinism bar is therefore absolute: a
sweep's merged report must be byte-identical to the same shards run
inline, one after another, through ``execute_shard``.

Robustness is the core of the design, ported up from the run-level
supervision layer:

* **leases** — a shard dispatched to a daemon holds a lease; the
  scheduler supervises it with a deadline and the heartbeat wedge
  detector, and an expired lease SIGKILLs the daemon and classifies the
  shard ``shard-timeout`` (a death under the lease is ``shard-crash``),
  to be retried on a fresh daemon;
* **recycling** — a daemon is retired after ``pool.recycle_tasks``
  shards or when its post-shard RSS self-check exceeds
  ``pool.max_rss_mb`` (state-leak hygiene), and after any failed shard;
* **graceful drain** — daemons finish the in-flight shard, publish its
  ``result.json`` atomically, and exit 0 on SIGTERM/SIGINT or an
  ``exit`` frame;
* **circuit breaker** — repeated *pool* failures (spawn/handshake
  failures, idle daemon deaths, protocol violations — a daemon dying
  under a lease is the shard's failure, not the pool's) open the
  breaker: the pool leases nothing more, the scheduler stops
  dispatching, and ``repro fleet resume`` continues on a fresh pool;
* **resume safety** — every spawn/exit/breaker transition is a
  manifest record, so ``repro fleet resume`` SIGKILLs the daemons a
  dead fleet left running.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Optional

from .manifest import (FleetManifest, FleetPaths, POOL_CRASH, POOL_DRAIN,
                       POOL_KILL, POOL_RECYCLE, POOL_SPAWN_FAILED)
from .spec import PoolPolicy

#: protocol version exchanged in the ``hello`` handshake; a daemon
#: speaking a different version is a pool failure (refuse, don't guess)
PROTO_VERSION = 1

#: hard cap on one frame's payload — a corrupted length prefix must not
#: make the reader try to allocate gigabytes
MAX_FRAME = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(Exception):
    """A malformed frame on a worker pipe (corrupted or wrong speaker)."""


# ----------------------------------------------------------------------
# framing, shared by the async scheduler side and the blocking workerd
# side: 4-byte big-endian length prefix + UTF-8 JSON payload


def write_frame(fh, obj: dict) -> None:
    """Write one frame to a blocking binary file object and flush it."""
    data = json.dumps(obj, sort_keys=True).encode("utf-8")
    fh.write(_HEADER.pack(len(data)) + data)
    fh.flush()


def read_frame(fh) -> Optional[dict]:
    """Read one frame from a blocking binary file object.

    Returns ``None`` on a clean or torn EOF (the peer is gone — the
    caller classifies); raises :class:`ProtocolError` on a frame that
    cannot be a frame (oversized length, undecodable payload).
    """
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        return None
    (length,) = _HEADER.unpack(head)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME}")
    data = b""
    while len(data) < length:
        chunk = fh.read(length - len(data))
        if not chunk:
            return None
        data += chunk
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None


async def read_frame_async(reader: asyncio.StreamReader) -> Optional[dict]:
    """The asyncio twin of :func:`read_frame` (scheduler side).

    Safe to wrap in ``asyncio.wait_for`` and retry: a cancelled
    ``readexactly`` leaves already-buffered bytes in the stream.
    """
    try:
        head = await reader.readexactly(_HEADER.size)
        (length,) = _HEADER.unpack(head)
        if length > MAX_FRAME:
            raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME}")
        data = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError,
            BrokenPipeError):
        return None
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None


# ----------------------------------------------------------------------


class WarmWorker:
    """One live ``workerd`` daemon and its bookkeeping."""

    def __init__(self, wid: int, proc: asyncio.subprocess.Process):
        self.wid = wid
        self.proc = proc
        #: shards completed (successfully or not) on this worker,
        #: reported back by the worker's own post-shard self-check
        self.tasks_done = 0
        #: post-shard RSS self-check, KB (0 until the first shard)
        self.rss_kb = 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    @property
    def alive(self) -> bool:
        return self.proc.returncode is None


class WarmPool:
    """A supervised pool of persistent shard workers.

    The scheduler asks for a worker per attempt (:meth:`try_acquire`),
    runs the shard over the worker's pipe, and hands the worker back
    (:meth:`release`) or reports its death (:meth:`reap`).  The pool
    holds at most ``policy.warm`` live daemons and decides spawning,
    recycling, and — after repeated pool-level failures — opening the
    circuit breaker, after which it leases nothing for the rest of the
    session.
    """

    #: spawn-retry suppression window after a failed spawn, seconds
    #: (attempts wait it out; the breaker handles repetition)
    SPAWN_BACKOFF_S = 1.0

    def __init__(self, paths: FleetPaths, policy: PoolPolicy,
                 manifest: Optional[FleetManifest], env: dict,
                 echo=None):
        self.paths = paths
        self.policy = policy
        self.manifest = manifest
        self.env = env
        self.echo = echo or (lambda msg: None)
        self._next_wid = 0
        self._idle: list[WarmWorker] = []
        self._live: dict[int, WarmWorker] = {}
        self._failures = 0
        self.breaker_open = False
        self._closed = False
        #: monotonic deadline before which spawning is suppressed after
        #: a spawn failure (simple backoff; breaker handles repetition)
        self._spawn_backoff_until = 0.0
        #: telemetry for the echo stream and tests
        self.spawned = 0
        self.recycled = 0

    # ------------------------------------------------------------------
    # acquire / release

    async def try_acquire(self) -> Optional[WarmWorker]:
        """An idle worker, a freshly spawned one, or ``None``.

        ``None`` means no worker for now: the breaker is open, the pool
        is closed or at capacity, or a spawn failed (counted toward the
        breaker) or is inside its backoff window.  The caller asks again
        unless :meth:`available` turned false.
        """
        if self.breaker_open or self._closed:
            return None
        while self._idle:
            worker = self._idle.pop(0)
            if worker.alive:
                return worker
            # an idle worker died on its own: nothing was leased to it,
            # so this is the pool's failure, not any shard's
            await self._reap_dead(worker, POOL_CRASH)
            self._pool_failure(f"idle worker {worker.wid} "
                               f"(pid {worker.pid}) died")
        if len(self._live) >= self.policy.warm:
            return None
        loop = asyncio.get_running_loop()
        if loop.time() < self._spawn_backoff_until:
            return None
        worker = await self._spawn()
        if worker is None:
            self._spawn_backoff_until = loop.time() + self.SPAWN_BACKOFF_S
        return worker

    async def release(self, worker: WarmWorker, response: dict,
                      failed: bool = False) -> None:
        """Hand a worker back after its lease; recycle when due.

        Recycling fires on the task-count budget, the RSS self-check
        threshold, a worker that announced it is exiting (e.g. after an
        OOM response), or — hygiene — any failed shard.
        """
        worker.tasks_done = int(response.get("tasks_done",
                                             worker.tasks_done + 1))
        worker.rss_kb = int(response.get("rss_kb", 0))
        reason = None
        if failed or response.get("will_exit"):
            reason = "post-failure hygiene"
        elif worker.tasks_done >= self.policy.recycle_tasks:
            reason = f"task budget ({worker.tasks_done} shards)"
        elif (self.policy.max_rss_mb is not None
                and worker.rss_kb > self.policy.max_rss_mb * 1024):
            reason = (f"rss {worker.rss_kb // 1024} MB > "
                      f"{self.policy.max_rss_mb} MB")
        if reason is not None:
            self.echo(f"  pool: recycling worker {worker.wid} ({reason})")
            await self._retire(worker, POOL_RECYCLE)
            self.recycled += 1
        else:
            self._idle.append(worker)

    async def reap(self, worker: WarmWorker, reason: str) -> None:
        """A leased worker died or was killed — drop it from the pool.

        Lease deaths are charged to the *shard* (the scheduler records
        the ``shard-crash``/``shard-timeout``); they do not move the
        pool's circuit breaker.
        """
        if reason == POOL_KILL:
            await self._kill(worker)
        await self._reap_dead(worker, reason)

    def available(self) -> bool:
        return not (self.breaker_open or self._closed)

    def protocol_violation(self, detail: str) -> None:
        """A worker spoke garbage — the pool's failure, breaker-counted."""
        self._pool_failure(f"protocol violation: {detail}")

    def live_count(self) -> int:
        return len(self._live)

    # ------------------------------------------------------------------
    # lifecycle internals

    def _argv(self, wid: int) -> list:
        """The workerd command line (a seam the breaker tests override)."""
        import sys
        return [sys.executable, "-m", "repro", "fleet", "workerd",
                "--dir", str(self.paths.root), "--worker", str(wid)]

    async def _spawn(self) -> Optional[WarmWorker]:
        wid = self._next_wid
        self._next_wid += 1
        out = self.paths.pool_output(wid).open("wb")
        try:
            proc = await asyncio.create_subprocess_exec(
                *self._argv(wid),
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE,
                stderr=out, env=self.env)
        except OSError as exc:
            self._pool_failure(f"spawn of worker {wid} failed: {exc!r}")
            return None
        finally:
            out.close()
        worker = WarmWorker(wid, proc)
        try:
            hello = await asyncio.wait_for(
                read_frame_async(proc.stdout),
                timeout=self.policy.spawn_timeout)
        except (asyncio.TimeoutError, ProtocolError) as exc:
            await self._kill(worker)
            self._pool_failure(f"worker {wid} handshake failed: {exc!r}")
            if self.manifest is not None:
                self.manifest.pool_exit(wid, proc.pid, POOL_SPAWN_FAILED)
            return None
        if (hello is None or hello.get("type") != "hello"
                or hello.get("proto") != PROTO_VERSION):
            await self._kill(worker)
            self._pool_failure(f"worker {wid} bad hello: {hello!r}")
            if self.manifest is not None:
                self.manifest.pool_exit(wid, proc.pid, POOL_SPAWN_FAILED)
            return None
        self._live[wid] = worker
        self.spawned += 1
        if self.manifest is not None:
            self.manifest.pool_spawn(wid, proc.pid)
        self.echo(f"  pool: spawned worker {wid} (pid {proc.pid})")
        return worker

    async def _retire(self, worker: WarmWorker, reason: str) -> None:
        """Politely stop an idle worker: exit frame, grace, then kill."""
        try:
            write_frame(_StreamWriterFile(worker.proc.stdin), {"type": "exit"})
        except (OSError, AttributeError, RuntimeError):
            pass
        try:
            await asyncio.wait_for(worker.proc.wait(),
                                   timeout=self.policy.drain_grace)
        except asyncio.TimeoutError:
            await self._kill(worker)
        await self._reap_dead(worker, reason)

    async def _kill(self, worker: WarmWorker) -> None:
        try:
            worker.proc.kill()
        except ProcessLookupError:
            pass
        try:
            await worker.proc.wait()
        except Exception:  # pragma: no cover - already reaped
            pass

    async def _reap_dead(self, worker: WarmWorker, reason: str) -> None:
        if worker.proc.returncode is None:
            await self._kill(worker)
        if self._live.pop(worker.wid, None) is not None \
                and self.manifest is not None:
            self.manifest.pool_exit(worker.wid, worker.pid, reason)

    def _pool_failure(self, detail: str) -> None:
        self._failures += 1
        self.echo(f"  pool: failure {self._failures}/"
                  f"{self.policy.breaker}: {detail}")
        if not self.breaker_open and self._failures >= self.policy.breaker:
            self.breaker_open = True
            if self.manifest is not None:
                self.manifest.pool_breaker(self._failures, detail)
            self.echo("  pool: circuit breaker OPEN — no further "
                      "dispatch; `repro fleet resume` continues on a "
                      "fresh pool")

    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Drain idle workers, kill anything else; idempotent."""
        if self._closed:
            return
        self._closed = True
        for worker in list(self._idle):
            if worker.alive:
                await self._retire(worker, POOL_DRAIN)
            else:
                await self._reap_dead(worker, POOL_CRASH)
        self._idle.clear()
        # anything still live was leased when the sweep stopped — a
        # daemon must never outlive its scheduler (it would race
        # the next resume for shard logs, like any orphan)
        for worker in list(self._live.values()):
            await self.reap(worker, POOL_KILL)


class _StreamWriterFile:
    """Adapt an asyncio StreamWriter to the blocking write_frame shape.

    Writes land in the transport buffer immediately (StreamWriter.write
    is synchronous); request frames are tiny, so the buffer never needs
    an explicit drain before the worker can read them.
    """

    def __init__(self, writer):
        self._writer = writer

    def write(self, data: bytes) -> None:
        if self._writer is None:
            raise OSError("worker stdin is gone")
        self._writer.write(data)

    def flush(self) -> None:
        pass


def send_request(worker: WarmWorker, obj: dict) -> None:
    """Send one request frame to a pool worker (scheduler side).

    Raises ``OSError`` when the pipe is already closed — the caller
    treats that exactly like a worker death at lease start.
    """
    if worker.proc.stdin is None:
        raise OSError("worker stdin is gone")
    if worker.proc.stdin.is_closing():
        raise OSError("worker stdin is closing")
    write_frame(_StreamWriterFile(worker.proc.stdin), obj)
