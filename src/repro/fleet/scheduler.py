"""The async fleet scheduler: supervised shard dispatch with retry,
backoff, and quarantine.

One :class:`FleetScheduler` drives one sweep session (fresh or resumed).
Every shard attempt is a **lease** on a persistent ``repro fleet
workerd`` daemon of the session's :class:`~repro.fleet.pool.WarmPool`,
which holds one daemon per shard run at once (``spec.workers``, or the
``--workers`` override).  The scheduler is a single-threaded asyncio
loop that supervises the leases:

* a daemon that dies under a lease, overruns the shard timeout, wedges
  (heartbeat staleness via
  :class:`~repro.fleet.heartbeat.HeartbeatMonitor`) or answers with a
  failed ``done`` frame fails the attempt with a distinct kind —
  ``shard-crash`` / ``shard-timeout`` / ``shard-oom`` / ``shard-error``;
* failed shards retry, on a fresh daemon, after an exponential backoff
  with deterministic per-shard jitter (seeded from the fleet seed +
  shard id, so two runs of the same spec back off identically);
* a shard that fails ``max_failures`` times — counted across resumes,
  because failures are manifest records — is **quarantined**: recorded,
  skipped by every later resume, and its partial campaign log is left
  for the results store;
* every failure is contained: a crashing shard takes down its own
  daemon, never the scheduler or its sibling shards (process isolation
  plus a per-task exception firewall);
* pool trouble (failed spawns, idle daemon deaths, protocol violations)
  counts toward the pool's circuit breaker.  Once it opens, no attempt
  is dispatched any more: in-flight leases finish, and the session
  returns with the untouched shards still pending, so ``fleet run``
  exits 2 and ``fleet resume`` continues on a fresh pool.

Crash safety is the manifest's job; the scheduler's job is to only act
on fsync'd facts — an attempt is recorded started before its outcome
can be recorded, and a shard is only skipped on resume if its terminal
record reached disk.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import random
import signal
import sys
from typing import Optional

from .heartbeat import HeartbeatMonitor
from .manifest import (DONE, FleetManifest, FleetState, POOL_CRASH,
                       POOL_KILL, QUARANTINED, SHARD_CRASH, SHARD_ERROR,
                       SHARD_OOM, SHARD_TIMEOUT, fleet_paths)
from .pool import ProtocolError, WarmPool, read_frame_async, send_request
from .spec import ShardSpec

#: how often a waiting supervisor re-checks deadlines and stop requests
_POLL_S = 0.25


class FleetScheduler:
    """Dispatch the incomplete shards of one sweep until each is done or
    quarantined (or a test-only stop fires)."""

    def __init__(self, root, state: FleetState, manifest: FleetManifest,
                 workers: Optional[int] = None,
                 stop_after_shards: Optional[int] = None,
                 echo=None):
        self.paths = fleet_paths(root)
        self.state = state
        self.manifest = manifest
        self.spec = state.spec
        self.policy = state.spec.failure
        self.workers = max(1, workers or state.spec.workers)
        #: test hook: abort the sweep (as a crash would) after this many
        #: shards reach a terminal state, leaving the rest incomplete
        self.stop_after_shards = stop_after_shards
        self.echo = echo or (lambda msg: None)
        self._monitor = HeartbeatMonitor(str(self.paths.heartbeats))
        self._stop = False
        self._terminal = 0
        # one daemon per shard run at once: an attempt never waits for
        # a daemon another attempt holds
        self._pool = WarmPool(
            self.paths, dataclasses.replace(state.spec.pool,
                                            warm=self.workers),
            manifest, env=self._worker_env(), echo=self.echo)

    # ------------------------------------------------------------------
    def run(self) -> dict:
        """Drive the sweep to completion; returns the final status counts."""
        return asyncio.run(self._drive())

    async def _drive(self) -> dict:
        todo = [self.spec.shard(sid) for sid in self.state.incomplete()]
        self.echo(f"fleet: {len(todo)} shard(s) to run, "
                  f"{self.workers} concurrent")
        sem = asyncio.Semaphore(self.workers)
        tasks = [asyncio.create_task(self._shard_task(sem, shard))
                 for shard in todo]
        try:
            results = await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            await self._pool.close()
        for shard, res in zip(todo, results):
            if isinstance(res, BaseException):
                # the per-task firewall failed — record the failure so
                # the sweep state stays honest, then keep going
                self._record_failure(shard, SHARD_ERROR,
                                     f"scheduler task died: {res!r}")
        counts = self.state.counts()
        counts["stopped"] = self._stop
        return counts

    # ------------------------------------------------------------------
    async def _shard_task(self, sem: asyncio.Semaphore,
                          shard: ShardSpec) -> None:
        """The supervised retry loop of one shard (exception-firewalled)."""
        sid = shard.shard_id
        jitter_rng = random.Random(f"{self.spec.seed}:{sid}")
        async with sem:
            while not self._stop:
                try:
                    outcome = await self._attempt(shard)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    outcome = (SHARD_ERROR, f"dispatch failed: {exc!r}")
                if outcome is None:          # stop fired, or breaker open
                    return
                kind, payload = outcome
                if kind == "ok":
                    st = self.state.shards[sid]
                    st.status = DONE
                    st.completions += 1
                    st.summary = payload["summary"]
                    self.manifest.shard_done(sid, st.attempts,
                                             payload["summary"])
                    self.echo(f"  done        {sid}")
                    self._note_terminal()
                    return
                if self._record_failure(shard, kind, payload):
                    return                   # quarantined
                st = self.state.shards[sid]
                delay = self._backoff_delay(st.failures, jitter_rng)
                self.echo(f"  retry in {delay:.2f}s  {sid} "
                          f"({kind}: {payload[:60]})")
                await asyncio.sleep(delay)

    def _record_failure(self, shard: ShardSpec, kind: str,
                        detail: str) -> bool:
        """Count one failed attempt; quarantine past the budget.

        Returns True when the shard just reached a terminal state.
        """
        sid = shard.shard_id
        st = self.state.shards[sid]
        st.failures += 1
        st.last_kind, st.last_detail = kind, detail
        self.manifest.shard_fail(sid, st.attempts, kind, detail)
        if st.failures >= self.policy.max_failures:
            st.status = QUARANTINED
            self.manifest.shard_quarantine(sid, st.failures, kind, detail)
            self.echo(f"  quarantined {sid} after {st.failures} failure(s) "
                      f"({kind})")
            self._note_terminal()
            return True
        return False

    def _backoff_delay(self, failures: int, rng: random.Random) -> float:
        base = min(self.policy.backoff_cap,
                   self.policy.backoff * (2.0 ** max(0, failures - 1)))
        return base * (1.0 + self.policy.jitter * rng.random())

    def _note_terminal(self) -> None:
        self._terminal += 1
        if (self.stop_after_shards is not None
                and self._terminal >= self.stop_after_shards):
            self._stop = True

    # ------------------------------------------------------------------
    # one attempt = one supervised lease on a pool daemon
    # ------------------------------------------------------------------
    def _worker_env(self) -> dict:
        """A daemon must resolve ``repro`` exactly as this process does."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        return env

    async def _acquire(self):
        """A daemon for the next attempt, or ``None`` once the breaker is
        open or the stop fired.  While a failed spawn's backoff runs,
        the attempt waits and asks again."""
        while self._pool.available() and not self._stop:
            worker = await self._pool.try_acquire()
            if worker is not None:
                return worker
            await asyncio.sleep(_POLL_S)
        return None

    async def _attempt(self, shard: ShardSpec):
        """Run one attempt on a leased daemon; supervise the lease.

        Returns ``("ok", result_payload)``, ``(fail_kind, detail)``, or
        ``None`` when no verdict is due: the sweep-level stop fired
        while the attempt was in flight (it is abandoned without a
        manifest verdict — exactly what a killed fleet process leaves
        behind), or the pool's breaker is open and the shard stays
        pending for ``fleet resume``.
        """
        worker = await self._acquire()
        if worker is None:
            return None
        sid = shard.shard_id
        st = self.state.shards[sid]
        self._monitor.clear(sid)
        try:
            self.paths.shard_result(sid).unlink()
        except OSError:
            pass
        self.manifest.shard_start(sid, st.attempts + 1, worker.pid,
                                  pool_worker=worker.wid)
        self.echo(f"  start       {sid} (attempt {st.attempts + 1}, "
                  f"worker {worker.wid}, pid {worker.pid})")
        try:
            send_request(worker, {"type": "run", "shard": sid})
        except OSError as exc:
            await self._pool.reap(worker, POOL_CRASH)
            if self._stop:
                return None
            return (SHARD_CRASH, f"worker {worker.wid} pipe closed "
                                 f"at dispatch: {exc}")
        try:
            outcome = await self._await_lease(sid, worker)
        finally:
            self._monitor.clear(sid)
        if isinstance(outcome, dict):
            # a completed response frame: the worker survives the shard
            await self._pool.release(worker, outcome,
                                     failed=outcome.get("status") != "ok")
            if self._stop:
                return None
            return self._classify_response(sid, outcome)
        if self._stop:
            return None
        return outcome

    async def _await_lease(self, sid: str, worker):
        """Supervise one lease: response frame, death, expiry, or stop.

        Returns the response frame (dict), a ``(kind, detail)`` failure
        (the worker is already reaped), or ``None`` when the stop fired
        (the worker is killed — it must not outlive the scheduler).
        """
        loop = asyncio.get_running_loop()
        deadline = (None if self.policy.shard_timeout is None
                    else loop.time() + self.policy.shard_timeout)
        while True:
            try:
                frame = await asyncio.wait_for(
                    read_frame_async(worker.proc.stdout), timeout=_POLL_S)
            except asyncio.TimeoutError:
                if self._stop:
                    await self._pool.reap(worker, POOL_KILL)
                    return None
                if deadline is not None and loop.time() > deadline:
                    await self._pool.reap(worker, POOL_KILL)
                    return (SHARD_TIMEOUT,
                            f"exceeded shard timeout "
                            f"{self.policy.shard_timeout}s (lease expired; "
                            f"worker {worker.wid} killed)")
                grace = self.policy.wedge_grace
                if grace is not None:
                    age = self._monitor.age_of(sid)
                    if age is not None and age > grace:
                        await self._pool.reap(worker, POOL_KILL)
                        return (SHARD_TIMEOUT,
                                f"wedged: no campaign progress for "
                                f"{age:.1f}s (grace {grace}s; worker "
                                f"{worker.wid} killed)")
                continue
            except ProtocolError as exc:
                await self._pool.reap(worker, POOL_KILL)
                self._pool.protocol_violation(
                    f"worker {worker.wid}: {exc}")
                return (SHARD_ERROR,
                        f"worker protocol violation: {exc}")
            if frame is None:
                # EOF mid-lease: the worker died under the shard —
                # kill-9, os._exit in the target, kernel OOM-kill...
                await self._pool.reap(worker, POOL_CRASH)
                return (SHARD_CRASH,
                        f"worker {worker.wid} died mid-shard "
                        f"({self._death_detail(worker.proc.returncode)})")
            if frame.get("type") == "done" and frame.get("shard") == sid:
                return frame
            await self._pool.reap(worker, POOL_KILL)
            self._pool.protocol_violation(
                f"worker {worker.wid}: unexpected frame "
                f"{frame.get('type')!r} for {frame.get('shard')!r}")
            return (SHARD_ERROR, "worker answered with a frame for the "
                                 "wrong shard")

    def _classify_response(self, sid: str, response: dict):
        """Map a daemon's ``done`` frame onto the fleet outcome kinds."""
        status = response.get("status")
        if status == "ok":
            payload = self._read_result(sid)
            if payload is None:
                return (SHARD_CRASH, "worker reported ok without "
                                     "publishing a result")
            return ("ok", payload)
        if status == "oom":
            return (SHARD_OOM,
                    f"worker exceeded the fleet rlimit "
                    f"({self.policy.max_rss_mb} MB cap)")
        detail = str(response.get("detail", "?")).strip()
        tail = detail.splitlines()[-1][-200:] if detail else "?"
        return (SHARD_ERROR, f"harness exception in worker: {tail}")

    @staticmethod
    def _death_detail(rc) -> str:
        if rc is None:
            return "pipe closed"
        if rc < 0:
            try:
                name = signal.Signals(-rc).name
            except ValueError:  # pragma: no cover - unknown signal
                name = "?"
            return f"signal {-rc} ({name})"
        return f"exit code {rc}"

    def _read_result(self, sid: str) -> Optional[dict]:
        try:
            return json.loads(self.paths.shard_result(sid).read_text())
        except (OSError, ValueError):
            return None
