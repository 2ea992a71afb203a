"""Tests for the worker pool: framing, policy, leases, recycling,
graceful drain, the circuit breaker, and the determinism contract (a
sweep on pool daemons must merge byte-identical to the same shards run
inline through ``execute_shard``)."""

import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.fleet import (FleetSpec, FleetSpecError, PoolPolicy, fleet_paths,
                        load_state, merge_results, report_text)
from repro.fleet.manifest import (DONE, PENDING, FleetManifest, QUARANTINED,
                                  SHARD_CRASH, SHARD_TIMEOUT)
from repro.fleet.pool import (MAX_FRAME, PROTO_VERSION, ProtocolError,
                              WarmPool, read_frame, write_frame)
from repro.fleet.results import status_text
from repro.fleet.service import clear_heartbeats, fleet_resume, fleet_run
from repro.fleet.spec import load_spec
from repro.fleet.worker import execute_shard

quiet = lambda msg: None  # noqa: E731 - silence scheduler narration


def spec_dict(**kw):
    base = {
        "fleet": "t",
        "matrix": {"target": ["seq_demo"]},
        "shard": {"iterations": 2},
        "failure": {"max_failures": 2, "backoff": 0.01, "jitter": 0.0},
        "workers": 1,
    }
    base.update(kw)
    return base


def write_spec(tmp_path, d, name="sweep.json"):
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return p


def inline_report(root, d):
    """The reference: the same shards run inline, one after another."""
    spec = FleetSpec.from_dict(d)
    with FleetManifest.create(fleet_paths(root), spec) as manifest:
        for shard in spec.expand():
            payload = execute_shard(root, shard)
            manifest.shard_start(shard.shard_id, 1, 0)
            manifest.shard_done(shard.shard_id, 1, payload["summary"])
    return merge_results(root, load_state(root))


def manifest_records(root, rtype):
    out = []
    for line in (fleet_paths(root).manifest).read_text().splitlines():
        rec = json.loads(line)
        if rec["type"] == rtype:
            out.append(rec)
    return out


# ----------------------------------------------------------------------
# framing


def test_frame_roundtrip():
    buf = io.BytesIO()
    write_frame(buf, {"type": "run", "shard": "x", "n": 1})
    buf.seek(0)
    assert read_frame(buf) == {"type": "run", "shard": "x", "n": 1}
    assert read_frame(buf) is None  # clean EOF


def test_torn_frame_reads_as_eof():
    buf = io.BytesIO()
    write_frame(buf, {"big": "x" * 100})
    whole = buf.getvalue()
    # cut inside the header, then inside the payload: both are the peer
    # dying mid-write, and both must read as EOF, not an exception
    assert read_frame(io.BytesIO(whole[:2])) is None
    assert read_frame(io.BytesIO(whole[:20])) is None


def test_oversized_and_garbage_frames_are_protocol_errors():
    import struct
    huge = struct.pack(">I", MAX_FRAME + 1)
    with pytest.raises(ProtocolError, match="exceeds"):
        read_frame(io.BytesIO(huge))
    bad = struct.pack(">I", 4) + b"\xff\xfe\x00\x01"
    with pytest.raises(ProtocolError, match="undecodable"):
        read_frame(io.BytesIO(bad))


# ----------------------------------------------------------------------
# pool policy in the spec


def test_pool_policy_defaults_and_roundtrip():
    spec = FleetSpec.from_dict(spec_dict())
    assert spec.pool == PoolPolicy()
    # one daemon per concurrent shard; the count is not a setting
    assert spec.pool.warm == spec.workers == 1
    assert FleetSpec.from_dict(spec_dict(workers=3)).pool.warm == 3
    assert "warm" not in spec.as_dict()["pool"]
    clone = FleetSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
    assert clone.pool == spec.pool


def test_pool_policy_parses_and_validates():
    # an older spec's pool.warm still loads, its value ignored
    spec = FleetSpec.from_dict(spec_dict(
        pool={"warm": 2, "recycle_tasks": 5, "max_rss_mb": 256,
              "breaker": 2}))
    assert (spec.pool.warm, spec.pool.recycle_tasks,
            spec.pool.max_rss_mb, spec.pool.breaker) == (1, 5, 256, 2)
    with pytest.raises(FleetSpecError, match="unknown pool key"):
        FleetSpec.from_dict(spec_dict(pool={"hotness": 9}))
    with pytest.raises(FleetSpecError, match="recycle_tasks"):
        FleetSpec.from_dict(spec_dict(pool={"recycle_tasks": 0}))


# ----------------------------------------------------------------------
# manifest: pool records, PoolState, orphan pids


def test_pool_records_roundtrip_through_state(tmp_path):
    spec = FleetSpec.from_dict(spec_dict())
    paths = fleet_paths(tmp_path)
    with FleetManifest.create(paths, spec) as manifest:
        manifest.pool_spawn(0, 1111)
        manifest.pool_spawn(1, 2222)
        manifest.pool_exit(0, 1111, "recycle")
    state = load_state(tmp_path)
    assert state.pool.spawns == 2
    assert state.pool.recycled == 1
    assert state.pool.live == {1: 2222}
    assert state.pool.alive == 1
    # a live warm worker of a dead sweep is an orphan, like any worker
    assert 2222 in state.orphan_pids()
    assert 1111 not in state.orphan_pids()


def test_open_warm_lease_is_tracked_and_closed(tmp_path):
    spec = FleetSpec.from_dict(spec_dict())
    (sid,) = [sh.shard_id for sh in spec.expand()]
    paths = fleet_paths(tmp_path)
    with FleetManifest.create(paths, spec) as manifest:
        manifest.pool_spawn(0, 1111)
        manifest.shard_start(sid, 1, 1111, pool_worker=0)
    assert load_state(tmp_path).pool.leased == [sid]
    with FleetManifest.open_append(paths) as manifest:
        manifest.shard_done(sid, 1, {"iterations": 2})
    assert load_state(tmp_path).pool.leased == []


def test_breaker_record_surfaces_in_state_and_status(tmp_path):
    spec = FleetSpec.from_dict(spec_dict())
    with FleetManifest.create(fleet_paths(tmp_path), spec) as manifest:
        manifest.pool_spawn(0, 1111)
        manifest.pool_exit(0, 1111, "spawn-failed")
        manifest.pool_breaker(3, "spawn kept failing")
    state = load_state(tmp_path)
    assert state.pool.breaker_open
    assert "breaker OPEN" in status_text(state)


# ----------------------------------------------------------------------
# the determinism contract: pool sweep ≡ inline, bytewise


def test_pool_sweep_report_is_byte_identical_to_inline(tmp_path):
    d = spec_dict(matrix={"target": ["seq_demo"],
                          "strategy": ["two-phase", "random-branch"]},
                  workers=2)
    spec_path = write_spec(tmp_path, d)
    root = tmp_path / "fleet"
    assert fleet_run(spec_path, root, echo=quiet) == 0
    inline = report_text(inline_report(tmp_path / "inline", d))
    assert report_text(merge_results(root, load_state(root))) == inline
    # every attempt ran on a daemon: spawns recorded, leases named
    state = load_state(root)
    assert 1 <= state.pool.spawns <= 2
    starts = manifest_records(root, "shard-start")
    assert starts and all("pool_worker" in rec for rec in starts)
    assert "pool:" in status_text(state)


def test_one_warm_worker_is_reused_across_shards(tmp_path):
    d = spec_dict(matrix={"target": ["seq_demo"],
                          "strategy": ["two-phase", "random-branch"]})
    spec_path = write_spec(tmp_path, d)
    root = tmp_path / "fleet"
    assert fleet_run(spec_path, root, echo=quiet) == 0
    state = load_state(root)
    assert state.pool.spawns == 1       # both shards on the same daemon
    assert state.pool.recycled == 0
    exits = manifest_records(root, "pool-exit")
    assert [e["reason"] for e in exits] == ["drain"]  # clean close


# ----------------------------------------------------------------------
# recycling


def test_recycle_on_task_budget(tmp_path):
    d = spec_dict(matrix={"target": ["seq_demo"],
                          "strategy": ["two-phase", "random-branch"]},
                  pool={"recycle_tasks": 1})
    spec_path = write_spec(tmp_path, d)
    root = tmp_path / "fleet"
    assert fleet_run(spec_path, root, echo=quiet) == 0
    state = load_state(root)
    assert state.counts()[DONE] == 2
    # every shard exhausts the 1-task budget → fresh daemon per shard
    assert state.pool.spawns == 2
    assert state.pool.recycled == 2


def test_recycle_on_rss_self_check(tmp_path):
    # a 1 MB threshold is always exceeded by a real interpreter's RSS
    d = spec_dict(matrix={"target": ["seq_demo"],
                          "strategy": ["two-phase", "random-branch"]},
                  pool={"max_rss_mb": 1})
    spec_path = write_spec(tmp_path, d)
    root = tmp_path / "fleet"
    assert fleet_run(spec_path, root, echo=quiet) == 0
    state = load_state(root)
    assert state.counts()[DONE] == 2
    assert state.pool.recycled == 2


# ----------------------------------------------------------------------
# leases: worker death and lease expiry are the shard's failure


def test_warm_worker_death_mid_shard_is_shard_crash_not_pool_failure(
        tmp_path):
    # targets/killer os._exit()s the daemon mid-shard: EOF on the lease.
    # The shard is quarantined after its retry budget; the sibling still
    # completes (on fresh daemons), and the pool breaker never opens —
    # a poison shard must not stop the sweep.
    d = spec_dict(matrix={"target": ["killer", "seq_demo"]}, workers=2)
    spec_path = write_spec(tmp_path, d)
    root = tmp_path / "fleet"
    assert fleet_run(spec_path, root, echo=quiet) == 2
    state = load_state(root)
    killer = state.shards["killer--two-phase--np8--s0--fs0"]
    assert killer.status == QUARANTINED
    assert killer.last_kind == SHARD_CRASH
    assert "died mid-shard" in killer.last_detail
    assert state.shards["seq_demo--two-phase--np8--s0--fs0"].status == DONE
    assert not state.pool.breaker_open
    assert manifest_records(root, "pool-breaker") == []
    # each killer attempt took a daemon down with it
    assert state.pool.exits.get("crash", 0) >= 2


def test_lease_expiry_kills_worker_and_classifies_shard_timeout(tmp_path):
    d = spec_dict(shard={"iterations": 2000},
                  failure={"max_failures": 2, "backoff": 0.01,
                           "jitter": 0.0, "shard_timeout": 0.1})
    spec_path = write_spec(tmp_path, d)
    root = tmp_path / "fleet"
    assert fleet_run(spec_path, root, echo=quiet) == 2
    state = load_state(root)
    (sid,) = state.shard_ids()
    st = state.shards[sid]
    assert st.status == QUARANTINED
    assert st.last_kind == SHARD_TIMEOUT
    assert "lease expired" in st.last_detail
    # the expired lease SIGKILLed the daemon; the retry got a fresh one
    assert state.pool.spawns >= 2
    assert state.pool.exits.get("kill", 0) >= 2


# ----------------------------------------------------------------------
# graceful drain (SIGTERM to a busy daemon)


def _workerd_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


def test_workerd_drains_gracefully_on_sigterm(tmp_path):
    # a busy daemon must finish the in-flight shard, publish its
    # result.json, answer, and exit 0 — never abandon work mid-write
    spec = FleetSpec.from_dict(spec_dict(shard={"iterations": 300}))
    paths = fleet_paths(tmp_path)
    FleetManifest.create(paths, spec).close()
    (shard,) = spec.expand()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "workerd",
         "--dir", str(tmp_path), "--worker", "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, env=_workerd_env())
    try:
        hello = read_frame(proc.stdout)
        assert hello["type"] == "hello"
        assert hello["proto"] == PROTO_VERSION
        write_frame(proc.stdin, {"type": "run", "shard": shard.shard_id})
        # wait until the shard is demonstrably in flight (heartbeat
        # file appears), then ask for the drain
        hb = paths.heartbeats / f"hb-{shard.shard_id}"
        deadline = time.time() + 30
        while not hb.exists() and time.time() < deadline:
            time.sleep(0.01)
        assert hb.exists(), "shard never started"
        proc.send_signal(signal.SIGTERM)
        resp = read_frame(proc.stdout)
        assert resp["type"] == "done"
        assert resp["shard"] == shard.shard_id
        assert resp["status"] == "ok"
        assert resp["tasks_done"] == 1
        assert resp["rss_kb"] > 0
        assert read_frame(proc.stdout) is None  # drained: clean EOF
        assert proc.wait(timeout=30) == 0
        assert paths.shard_result(shard.shard_id).exists()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_idle_workerd_exits_zero_on_sigterm(tmp_path):
    spec = FleetSpec.from_dict(spec_dict())
    FleetManifest.create(fleet_paths(tmp_path), spec).close()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "workerd",
         "--dir", str(tmp_path), "--worker", "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, env=_workerd_env())
    try:
        assert read_frame(proc.stdout)["type"] == "hello"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


# ----------------------------------------------------------------------
# circuit breaker: repeated pool failures stop the sweep resumably


def test_breaker_opens_stops_sweep_and_resume_completes(tmp_path,
                                                         monkeypatch):
    # every spawn dies before saying hello — a broken pool. The breaker
    # opens after pool.breaker failures; the sweep dispatches nothing
    # more and exits 2 with its shards pending. Resume starts a fresh
    # pool and completes the sweep as if it had never stopped.
    monkeypatch.setattr(
        WarmPool, "_argv",
        lambda self, wid: [sys.executable, "-c", "raise SystemExit(1)"])
    monkeypatch.setattr(WarmPool, "SPAWN_BACKOFF_S", 0.0)
    d = spec_dict(matrix={"target": ["seq_demo"],
                          "strategy": ["two-phase", "random-branch"]},
                  pool={"breaker": 2})
    spec_path = write_spec(tmp_path, d)
    root = tmp_path / "fleet"
    assert fleet_run(spec_path, root, echo=quiet) == 2
    state = load_state(root)
    assert state.counts()[PENDING] == 2     # stopped, nothing lost
    assert state.pool.breaker_open
    assert state.pool.spawns == 0
    (brk,) = manifest_records(root, "pool-breaker")
    assert brk["failures"] == 2
    # no attempt was dispatched, so none is charged to a shard
    assert manifest_records(root, "shard-start") == []
    assert "breaker OPEN" in status_text(state)

    monkeypatch.undo()
    assert fleet_resume(root, echo=quiet) == 0
    state = load_state(root)
    assert state.counts()[DONE] == 2
    assert not state.pool.breaker_open      # the fresh pool spawned
    assert "breaker closed" in status_text(state)
    clean_root = tmp_path / "clean"
    assert fleet_run(spec_path, clean_root, echo=quiet) == 0
    assert report_text(merge_results(root, state)) == \
        report_text(merge_results(clean_root, load_state(clean_root)))


# ----------------------------------------------------------------------
# resume safety


def test_resume_kills_orphan_warm_workers_and_clears_heartbeats(tmp_path):
    d = spec_dict(matrix={"target": ["seq_demo"],
                          "strategy": ["two-phase", "random-branch"]})
    spec_path = write_spec(tmp_path, d)
    root = tmp_path / "fleet"
    # the fleet process "dies" after one shard; fake the dead session's
    # leavings: a live warm-worker record and a stale heartbeat file
    assert fleet_run(spec_path, root, stop_after_shards=1, echo=quiet) == 2
    paths = fleet_paths(root)
    orphan = subprocess.Popen([sys.executable, "-c",
                               "import time; time.sleep(600)"])
    with FleetManifest.open_append(paths) as manifest:
        manifest.pool_spawn(7, orphan.pid)
    stale = paths.heartbeats / "stale-shard-hb"
    stale.write_text("")
    assert orphan.pid in load_state(root).orphan_pids()
    assert fleet_resume(root, echo=quiet) == 0
    assert orphan.wait(timeout=30) != 0     # SIGKILLed on resume
    assert not stale.exists()
    assert load_state(root).counts()[DONE] == 2


def test_manifest_of_a_cold_spawn_sweep_resumes_on_daemons(tmp_path):
    # a sweep killed before daemons were the only dispatch path: its
    # spec snapshot carries pool.warm 0, and its shard-starts name a
    # worker process but no pool_worker. Resume must kill the orphaned
    # worker and complete the sweep on daemons, byte-identical to the
    # same shards run inline.
    d = spec_dict(matrix={"target": ["seq_demo"],
                          "strategy": ["two-phase", "random-branch"]})
    spec = FleetSpec.from_dict(d)
    first, second = [sh.shard_id for sh in spec.expand()]
    root = tmp_path / "fleet"
    fleet_paths(root).ensure()
    payload = execute_shard(root, spec.shard(first))
    orphan = subprocess.Popen([sys.executable, "-c",
                               "import time; time.sleep(600)"])
    try:
        snapshot = spec.as_dict()
        snapshot["pool"]["warm"] = 0
        records = [
            {"type": "fleet-meta", "fleet": spec.name, "spec": snapshot,
             "shards": [first, second]},
            {"type": "shard-start", "shard": first, "attempt": 1,
             "pid": orphan.pid, "ts": 0.0},
            {"type": "shard-done", "shard": first, "attempt": 1,
             "summary": payload["summary"], "ts": 0.0},
            {"type": "shard-start", "shard": second, "attempt": 1,
             "pid": orphan.pid, "ts": 0.0},
        ]
        fleet_paths(root).manifest.write_text(
            "".join(json.dumps(r) + "\n" for r in records))
        state = load_state(root)
        assert state.incomplete() == [second]
        assert state.orphan_pids() == [orphan.pid]
        assert state.pool.leased == []
        assert fleet_resume(root, echo=quiet) == 0
        assert orphan.wait(timeout=30) != 0     # SIGKILLed on resume
    finally:
        if orphan.poll() is None:
            orphan.kill()
            orphan.wait()
    state = load_state(root)
    assert state.counts()[DONE] == 2
    assert state.pool.spawns == 1
    (resumed,) = [r for r in manifest_records(root, "shard-start")
                  if "pool_worker" in r]
    assert resumed["shard"] == second
    assert report_text(merge_results(root, state)) == \
        report_text(inline_report(tmp_path / "inline", d))


def test_clear_heartbeats_counts_and_tolerates_missing_dir(tmp_path):
    spec_path = write_spec(tmp_path, spec_dict())
    root = tmp_path / "fleet"
    assert fleet_run(spec_path, root, echo=quiet) == 0
    paths = fleet_paths(root)
    (paths.heartbeats / "a").write_text("")
    (paths.heartbeats / "b").write_text("")
    assert clear_heartbeats(root) == 2
    assert clear_heartbeats(root) == 0
    assert clear_heartbeats(tmp_path / "never-created") == 0


# ----------------------------------------------------------------------
# kill -9 mid-shard: the acceptance scenario, in-process


def test_kill9_of_warm_worker_retries_on_fresh_worker_deterministically(
        tmp_path):
    # a watcher SIGKILLs the daemon as soon as the shard's heartbeat
    # appears. The shard must retry on a fresh daemon, and the merged
    # report must still be byte-identical to the same shard run inline.
    import threading
    d = spec_dict(shard={"iterations": 300},
                  failure={"max_failures": 3, "backoff": 0.01,
                           "jitter": 0.0})
    spec_path = write_spec(tmp_path, d)
    root = tmp_path / "fleet"
    # 300 iterations of seq_demo may legitimately find bugs (exit 1);
    # the bar is that the sweep matches inline exactly, exit code included
    inline = inline_report(tmp_path / "inline", d)

    paths = fleet_paths(root)
    (sid,) = [sh.shard_id for sh in FleetSpec.from_dict(d).expand()]
    done = threading.Event()

    def assassin():
        hb = paths.heartbeats / f"hb-{sid}"
        deadline = time.time() + 60
        while time.time() < deadline and not done.is_set():
            if hb.exists():
                for rec in manifest_records(root, "pool-spawn"):
                    try:
                        os.kill(rec["pid"], signal.SIGKILL)
                    except (ProcessLookupError, PermissionError):
                        pass
                return
            time.sleep(0.005)

    killer = threading.Thread(target=assassin)
    killer.start()
    try:
        assert fleet_run(spec_path, root, echo=quiet) == \
            (1 if inline.fleet_bugs else 0)
    finally:
        done.set()
        killer.join()
    state = load_state(root)
    st = state.shards[sid]
    assert st.status == DONE
    assert st.failures >= 1                  # the kill really landed
    assert st.last_kind == SHARD_CRASH
    assert "died mid-shard" in st.last_detail
    assert state.pool.spawns >= 2            # retried on a fresh daemon
    assert report_text(merge_results(root, state)) == report_text(inline)
