"""The shard worker: the ``repro fleet workerd`` daemon and the shard
campaign it runs.

The fleet scheduler keeps ``python -m repro fleet workerd`` daemons
alive across shards and leases each one shard at a time over the framed
pipe protocol (:mod:`repro.fleet.pool`); :func:`serve_pool` is the
daemon's loop.  Process isolation holds at the daemon level: a target
that hard-kills its process (``os._exit``, a fatal signal, an OOM the
kernel answers with SIGKILL) takes down *this* daemon only — the
scheduler reads the broken pipe as ``shard-crash`` and retries or
quarantines the shard on a fresh daemon without disturbing its
siblings.

Each shard runs :func:`execute_shard`, a pure function of the shard
spec and the fleet directory, which is also callable inline (the
reference the fleet's determinism tests and benchmarks compare with):

* the campaign streams to ``shards/<id>.jsonl`` (mode ``"w"`` — each
  attempt starts the log over, so a retried shard's log is always one
  attempt's coherent record, and a quarantined shard leaves the partial
  log of its final attempt for the results store);
* the shard's campaign writes no checkpoint sidecar: the unit of fleet
  resume is the shard, which re-runs from scratch;
* every log record touches the shard's heartbeat file (reusing
  :class:`~repro.fleet.heartbeat.HeartbeatMonitor`), which is how the
  scheduler tells "slow but progressing" from "wedged";
* a finished shard atomically writes ``shards/<id>.result.json`` before
  the daemon answers ``done`` — the scheduler treats an ``ok`` answer
  *without* the result file as a crash.
"""

from __future__ import annotations

import os
import signal as signal_module
import traceback
from pathlib import Path
from typing import Union

from ..core.atomicio import atomic_write_json, read_jsonl
from ..core.persist import CampaignLog
from ..supervise import ResourceLimits, apply_rlimits
from .heartbeat import HeartbeatMonitor
from .manifest import fleet_paths
from .spec import FleetSpec, ShardSpec, build_strategy

#: daemon exit status when it cannot come up or loses the protocol
EXIT_INTERNAL = 70


class HeartbeatLog(CampaignLog):
    """A campaign log whose every record doubles as a liveness signal.

    No resume reads a shard log: ``fleet resume`` re-runs an incomplete
    shard from scratch, so its campaign writes no checkpoint sidecar."""

    resumable = False

    def __init__(self, path, heartbeat_path: str, mode: str = "w"):
        super().__init__(path, mode=mode)
        self._heartbeat = str(heartbeat_path)

    def _write(self, obj: dict) -> None:
        super()._write(obj)
        HeartbeatMonitor.touch(self._heartbeat)


def load_fleet_spec(root: Union[str, Path]) -> FleetSpec:
    """The spec snapshot embedded in a fleet manifest's first record."""
    paths = fleet_paths(root)
    for obj in read_jsonl(paths.manifest):
        if obj.get("type") == "fleet-meta":
            return FleetSpec.from_dict(obj["spec"])
    raise ValueError(f"{paths.manifest}: no fleet-meta record")


def shard_summary(result) -> dict:
    """The deterministic projection of one campaign the report merges.

    Wall-clock time, retries and attempt counts are deliberately *not*
    here: the merged fleet report must be byte-identical between an
    uninterrupted sweep and a killed-and-resumed one.
    """
    return {
        "iterations": len(result.iterations),
        "covered": result.covered,
        "total_branches": result.total_branches,
        "reachable": result.reachable_branches,
        "divergences": result.divergences,
        "unique_bugs": sorted([k, loc] for (k, loc) in
                              {b.dedup_key for b in result.bugs}),
    }


def execute_shard(root: Union[str, Path], shard: ShardSpec) -> dict:
    """Run one shard campaign to completion and publish its result file.

    Runs in a pool daemon, but is also callable inline (the fleet's
    determinism reference) — it is a pure function of the shard spec
    plus the fleet directory it writes into.
    """
    from ..__main__ import load_target  # lazy: __main__ imports fleet
    from ..core import Compi

    paths = fleet_paths(root)
    heartbeat = HeartbeatMonitor(str(paths.heartbeats))
    hb_path = heartbeat.path_for(shard.shard_id)
    HeartbeatMonitor.touch(hb_path)

    config = shard.to_config()
    program = load_target(shard.target)
    try:
        strategy = build_strategy(shard.strategy, config, program)
        with Compi(program, config, strategy=strategy) as compi, \
                HeartbeatLog(paths.shard_log(shard.shard_id), hb_path,
                             mode="w") as log:
            result = compi.run(**shard.budget_kwargs(), log=log)
    finally:
        program.unload()

    payload = {
        "shard": shard.shard_id,
        "status": "ok",
        "summary": shard_summary(result),
        # session-local telemetry, excluded from the deterministic report
        "wall_time": result.wall_time,
        "retries": result.retries,
    }
    atomic_write_json(paths.shard_result(shard.shard_id), payload)
    return payload


# ----------------------------------------------------------------------
# the daemon (``repro fleet workerd``)


def _rss_kb() -> int:
    """Current RSS in KB — the post-shard state-leak self-check.

    Prefers ``/proc/self/statm`` (current resident pages); falls back to
    ``ru_maxrss`` (peak, KB on Linux) where /proc is unavailable.
    """
    try:
        with open("/proc/self/statm", "r") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") // 1024
    except (OSError, ValueError, IndexError):
        try:
            import resource
            return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        except Exception:  # pragma: no cover - exotic platform
            return 0


def _open_fds() -> int:
    """Open file descriptors — leaked fds across shards are a state leak."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:  # pragma: no cover - no /proc
        return -1


def serve_pool(root: Union[str, Path], worker_id: int) -> int:
    """The daemon loop: serve shard requests until told not to.

    Protocol (see :mod:`repro.fleet.pool` for the framing): one
    ``hello`` handshake out, then ``run`` requests in and ``done``
    responses out, one shard at a time.  Every response carries the
    worker's post-shard self-check (``tasks_done``, ``rss_kb``,
    ``open_fds``) so the pool can recycle a leaking worker.

    Lifecycle contracts:

    * the *real* stdout is detached for the protocol before any shard
      runs; fd 1 is re-pointed at stderr (the pool output file), so a
      printing target can never corrupt the frame stream;
    * SIGTERM/SIGINT request a **graceful drain** — an idle worker
      exits 0 immediately; a busy one finishes the in-flight shard,
      publishes its ``result.json`` atomically (that is
      :func:`execute_shard`'s normal epilogue), sends the response, and
      exits 0;
    * a MemoryError response announces ``will_exit`` and the daemon
      exits afterward — post-OOM heap state is not worth trusting;
    * EOF on stdin or an ``exit`` frame ends the loop with exit 0.
    """
    from .pool import PROTO_VERSION, ProtocolError, read_frame, write_frame

    # detach the protocol channel, then point fd 1 (and sys.stdout,
    # which wraps it) at stderr so target prints go to the output file
    proto_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    req_in = os.fdopen(os.dup(0), "rb")
    devnull = os.open(os.devnull, os.O_RDONLY)
    os.dup2(devnull, 0)
    os.close(devnull)

    state = {"busy": False, "drain": False}

    def _drain(signum, frame):
        state["drain"] = True
        if not state["busy"]:
            # idle: nothing in flight, nothing to publish — leave now
            raise SystemExit(0)
        # busy: finish the shard; the loop exits after the response

    signal_module.signal(signal_module.SIGTERM, _drain)
    signal_module.signal(signal_module.SIGINT, _drain)

    try:
        spec = load_fleet_spec(root)
        apply_rlimits(ResourceLimits(max_rss_mb=spec.failure.max_rss_mb))
        write_frame(proto_out, {"type": "hello", "proto": PROTO_VERSION,
                                "pid": os.getpid(), "worker": worker_id})
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL

    tasks = 0
    while True:
        try:
            req = read_frame(req_in)
        except ProtocolError:
            traceback.print_exc()
            return EXIT_INTERNAL
        if req is None or req.get("type") == "exit":
            return 0
        if req.get("type") != "run":
            continue  # unknown request types: forward compatibility
        state["busy"] = True
        resp = {"type": "done", "shard": req.get("shard"), "status": "ok"}
        try:
            execute_shard(root, spec.shard(req["shard"]))
        except MemoryError:
            resp["status"] = "oom"
            resp["will_exit"] = True
            resp["detail"] = "MemoryError under rlimit cap"
        except Exception:
            resp["status"] = "error"
            resp["detail"] = traceback.format_exc().strip()[-500:]
        finally:
            state["busy"] = False
        tasks += 1
        resp["tasks_done"] = tasks
        resp["rss_kb"] = _rss_kb()
        resp["open_fds"] = _open_fds()
        try:
            write_frame(proto_out, resp)
        except (BrokenPipeError, OSError):
            # the scheduler is gone; the shard's result.json (if any)
            # is already atomically published — nothing left to say
            return 0
        if resp["status"] == "oom" or state["drain"]:
            return 0
