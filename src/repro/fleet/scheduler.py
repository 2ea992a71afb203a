"""The async fleet scheduler: supervised shard dispatch with retry,
backoff, and quarantine.

One :class:`FleetScheduler` drives one sweep session (fresh or resumed).
Shards run as disposable worker processes (``repro fleet worker``) — or,
with a warm pool configured (``--warm-pool`` / spec ``pool.warm``), as
**leases** on persistent ``repro fleet workerd`` daemons (see
:mod:`repro.fleet.pool`) — at most ``spec.workers`` concurrently; the
scheduler is a single-threaded asyncio loop that supervises them:

* a worker that exits nonzero, dies to a signal, overruns the shard
  timeout, or wedges (heartbeat staleness via
  :class:`~repro.fleet.heartbeat.HeartbeatMonitor`) fails the attempt
  with a distinct kind — ``shard-crash`` / ``shard-timeout`` /
  ``shard-oom`` / ``shard-error``;
* failed shards retry after an exponential backoff with deterministic
  per-shard jitter (seeded from the fleet seed + shard id, so two runs
  of the same spec back off identically);
* a shard that fails ``max_failures`` times — counted across resumes,
  because failures are manifest records — is **quarantined**: recorded,
  skipped by every later resume, and its partial campaign log is left
  for the results store;
* every failure is contained: a crashing shard never takes down the
  scheduler or its sibling shards (process isolation plus a per-task
  exception firewall).

Crash safety is the manifest's job; the scheduler's job is to only act
on fsync'd facts — an attempt is recorded started before its outcome
can be recorded, and a shard is only skipped on resume if its terminal
record reached disk.
"""

from __future__ import annotations

import asyncio
import dataclasses
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
from .worker import EXIT_INTERNAL, EXIT_OOM

#: how often a waiting supervisor re-checks deadlines and stop requests
_POLL_S = 0.25


class FleetScheduler:
    """Dispatch the incomplete shards of one sweep until each is done or
    quarantined (or a test-only stop fires)."""

    def __init__(self, root, state: FleetState, manifest: FleetManifest,
                 workers: Optional[int] = None,
                 stop_after_shards: Optional[int] = None,
                 warm_pool: Optional[int] = None,
                 pool_recycle_tasks: Optional[int] = None,
                 pool_max_rss: Optional[int] = None,
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
        self._procs: dict[str, asyncio.subprocess.Process] = {}
        # CLI flags override the spec's pool policy field by field
        pp = state.spec.pool
        if warm_pool is not None:
            pp = dataclasses.replace(pp, warm=warm_pool)
        if pool_recycle_tasks is not None:
            pp = dataclasses.replace(pp, recycle_tasks=pool_recycle_tasks)
        if pool_max_rss is not None:
            pp = dataclasses.replace(pp, max_rss_mb=pool_max_rss)
        self.pool_policy = pp
        self._pool: Optional[WarmPool] = None
        if pp.warm > 0:
            self._pool = WarmPool(self.paths, pp, manifest,
                                  env=self._worker_env(), echo=self.echo)

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
            await self._kill_outstanding()
            if self._pool is not None:
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
                if outcome is None:          # stop fired mid-attempt
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
    # one attempt = one supervised worker process
    # ------------------------------------------------------------------
    def _worker_env(self) -> dict:
        """The child must resolve ``repro`` exactly as this process does."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        return env

    async def _attempt(self, shard: ShardSpec):
        """Run one attempt, warm when a pool worker is available.

        Returns ``("ok", result_payload)``, ``(fail_kind, detail)``, or
        ``None`` when the sweep-level stop fired while this attempt was
        in flight (the attempt is abandoned without a manifest verdict —
        exactly what a killed fleet process leaves behind).

        The warm path degrades per attempt: no idle worker, a failed
        spawn, or an open circuit breaker all fall through to the cold
        path, so a sweep never stalls on pool trouble.
        """
        if self._pool is not None and self._pool.available():
            worker = await self._pool.try_acquire()
            if worker is not None:
                return await self._attempt_warm(shard, worker)
        return await self._attempt_cold(shard)

    # -- warm path (leases on pool workers) ----------------------------

    async def _attempt_warm(self, shard: ShardSpec, worker):
        """Run one shard on a leased warm worker; supervise the lease."""
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
                  f"warm worker {worker.wid}, pid {worker.pid})")
        try:
            send_request(worker, {"type": "run", "shard": sid})
        except OSError as exc:
            await self._pool.reap(worker, POOL_CRASH)
            if self._stop:
                return None
            return (SHARD_CRASH, f"warm worker {worker.wid} pipe closed "
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
                            f"warm worker {worker.wid} killed)")
                grace = self.policy.wedge_grace
                if grace is not None:
                    age = self._monitor.age_of(sid)
                    if age is not None and age > grace:
                        await self._pool.reap(worker, POOL_KILL)
                        return (SHARD_TIMEOUT,
                                f"wedged: no campaign progress for "
                                f"{age:.1f}s (grace {grace}s; warm worker "
                                f"{worker.wid} killed)")
                continue
            except ProtocolError as exc:
                await self._pool.reap(worker, POOL_KILL)
                self._pool.protocol_violation(
                    f"worker {worker.wid}: {exc}")
                return (SHARD_ERROR,
                        f"warm worker protocol violation: {exc}")
            if frame is None:
                # EOF mid-lease: the worker died under the shard —
                # kill-9, os._exit in the target, kernel OOM-kill...
                await self._pool.reap(worker, POOL_CRASH)
                return (SHARD_CRASH,
                        f"warm worker {worker.wid} died mid-shard "
                        f"({self._death_detail(worker.proc.returncode)})")
            if frame.get("type") == "done" and frame.get("shard") == sid:
                return frame
            await self._pool.reap(worker, POOL_KILL)
            self._pool.protocol_violation(
                f"worker {worker.wid}: unexpected frame "
                f"{frame.get('type')!r} for {frame.get('shard')!r}")
            return (SHARD_ERROR, "warm worker answered with a frame for "
                                 "the wrong shard")

    def _classify_response(self, sid: str, response: dict):
        """Map a warm worker's response onto the cold outcome kinds."""
        status = response.get("status")
        if status == "ok":
            payload = self._read_result(sid)
            if payload is None:
                return (SHARD_CRASH, "warm worker reported ok without "
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

    # -- cold path (one disposable process per attempt) ----------------

    async def _attempt_cold(self, shard: ShardSpec):
        """Run one disposable worker process; classify its death."""
        sid = shard.shard_id
        st = self.state.shards[sid]
        self._monitor.clear(sid)
        result_path = self.paths.shard_result(sid)
        try:
            result_path.unlink()
        except OSError:
            pass
        out = self.paths.shard_output(sid).open("wb")
        try:
            proc = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro", "fleet", "worker",
                "--dir", str(self.paths.root), "--shard", sid,
                stdout=out, stderr=out, env=self._worker_env())
        finally:
            out.close()
        self._procs[sid] = proc
        self.manifest.shard_start(sid, st.attempts + 1, proc.pid)
        self.echo(f"  start       {sid} (attempt {st.attempts + 1}, "
                  f"pid {proc.pid})")
        try:
            rc, timed_out_detail = await self._await_worker(sid, proc)
        finally:
            self._procs.pop(sid, None)
            self._monitor.clear(sid)
        if self._stop:
            return None
        if timed_out_detail is not None:
            return (SHARD_TIMEOUT, timed_out_detail)
        return self._classify_exit(sid, rc)

    async def _await_worker(self, sid: str, proc):
        """Wait for one worker under the shard timeout + wedge detector.

        Returns ``(returncode, None)`` for a natural exit or
        ``(None, detail)`` after the supervisor killed it.
        """
        loop = asyncio.get_running_loop()
        deadline = (None if self.policy.shard_timeout is None
                    else loop.time() + self.policy.shard_timeout)
        while True:
            try:
                rc = await asyncio.wait_for(proc.wait(), timeout=_POLL_S)
                return rc, None
            except asyncio.TimeoutError:
                pass
            if self._stop:
                await self._kill_proc(proc)
                return None, None
            if deadline is not None and loop.time() > deadline:
                await self._kill_proc(proc)
                return None, (f"exceeded shard timeout "
                              f"{self.policy.shard_timeout}s")
            grace = self.policy.wedge_grace
            if grace is not None:
                age = self._monitor.age_of(sid)
                if age is not None and age > grace:
                    await self._kill_proc(proc)
                    return None, (f"wedged: no campaign progress for "
                                  f"{age:.1f}s (grace {grace}s)")

    def _classify_exit(self, sid: str, rc: int):
        """Map a worker exit status onto a fleet outcome."""
        if rc == 0:
            payload = self._read_result(sid)
            if payload is None:
                return (SHARD_CRASH,
                        "worker exited 0 without publishing a result")
            return ("ok", payload)
        if rc < 0:
            try:
                name = signal.Signals(-rc).name
            except ValueError:  # pragma: no cover - unknown signal
                name = "?"
            return (SHARD_CRASH, f"worker died to signal {-rc} ({name})")
        if rc == EXIT_OOM:
            return (SHARD_OOM,
                    f"worker exceeded the fleet rlimit "
                    f"({self.policy.max_rss_mb} MB cap)")
        if rc == EXIT_INTERNAL:
            return (SHARD_ERROR,
                    f"harness exception in worker: {self._stderr_tail(sid)}")
        return (SHARD_CRASH, f"worker exited with code {rc}")

    def _read_result(self, sid: str) -> Optional[dict]:
        import json
        try:
            return json.loads(self.paths.shard_result(sid).read_text())
        except (OSError, ValueError):
            return None

    def _stderr_tail(self, sid: str, limit: int = 200) -> str:
        try:
            text = self.paths.shard_output(sid).read_text(errors="replace")
        except OSError:
            return "(no worker output captured)"
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        return lines[-1][-limit:] if lines else "(empty worker output)"

    # ------------------------------------------------------------------
    async def _kill_proc(self, proc) -> None:
        try:
            proc.kill()
        except ProcessLookupError:
            pass
        try:
            await proc.wait()
        except Exception:  # pragma: no cover - already reaped
            pass

    async def _kill_outstanding(self) -> None:
        """On stop/teardown, no worker may outlive the scheduler — an
        orphan would race the next resume for the shard's log file."""
        for proc in list(self._procs.values()):
            await self._kill_proc(proc)
        self._procs.clear()
