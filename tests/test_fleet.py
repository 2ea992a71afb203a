"""Tests for the campaign fleet: specs, manifest, merge, and the
supervised scheduler (retry / quarantine / crash-safe resume)."""

import json

import pytest

from repro.fleet import (FailurePolicy, FleetManifest, FleetSpec,
                         FleetSpecError, ShardSpec, fleet_paths, load_spec,
                         load_state, merge_results, report_text)
from repro.fleet.manifest import (DONE, PENDING, QUARANTINED, SHARD_CRASH,
                                  SHARD_ERROR, SHARD_OOM, FleetState,
                                  ShardState)
from repro.fleet.results import status_text
from repro.fleet.service import (fleet_report, fleet_resume, fleet_run,
                                 fleet_status)

quiet = lambda msg: None  # noqa: E731 - silence scheduler narration


# ----------------------------------------------------------------------
# spec parsing + expansion


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


def test_expansion_is_deterministic_matrix_product():
    spec = FleetSpec.from_dict(spec_dict(matrix={
        "target": ["demo", "seq_demo"],
        "strategy": ["two-phase", "dfs"],
        "nprocs": [2, 4],
    }))
    shards = spec.expand()
    assert len(shards) == 8
    ids = [sh.shard_id for sh in shards]
    assert ids[0] == "demo--two-phase--np2--s0--fs0"
    assert ids == sorted(set(ids), key=ids.index)  # unique, stable order
    # same spec → same expansion
    assert [sh.shard_id for sh in spec.expand()] == ids


def test_shard_config_is_pure_function_of_spec():
    sh = ShardSpec(target="demo", strategy="dfs", nprocs=2, seed=7,
                   fault_seed=3, overrides=(("nprocs_cap", 4),))
    cfg = sh.to_config()
    assert (cfg.seed, cfg.fault_seed, cfg.init_nprocs) == (7, 3, 2)
    assert cfg.nprocs_cap == 4
    assert sh.to_config() == cfg


def test_spec_rejects_unknown_target_strategy_and_config_key():
    with pytest.raises(FleetSpecError, match="unknown target"):
        FleetSpec.from_dict(spec_dict(matrix={"target": ["nope"]}))
    with pytest.raises(FleetSpecError, match="unknown strategy"):
        FleetSpec.from_dict(spec_dict(matrix={"target": ["demo"],
                                              "strategy": ["zigzag"]}))
    with pytest.raises(FleetSpecError, match="unknown shard.config"):
        FleetSpec.from_dict(spec_dict(shard={"config": {"not_a_field": 1}}))
    with pytest.raises(FleetSpecError, match="max_failures"):
        FleetSpec.from_dict(spec_dict(failure={"max_failures": 0}))


@pytest.mark.parametrize("key", ["probe_batching", "persistent_solver",
                                 "workers", "speculation_width",
                                 "speculation_depth", "solver_cache",
                                 "solver_cache_size", "solver_cache_path"])
def test_spec_rejects_retired_config_keys(key):
    with pytest.raises(FleetSpecError, match="unknown shard.config"):
        FleetSpec.from_dict(spec_dict(shard={"config": {key: False}}))


def test_spec_roundtrips_through_manifest_snapshot():
    spec = FleetSpec.from_dict(spec_dict(
        matrix={"target": ["demo"], "strategy": ["dfs"], "nprocs": [2]},
        shard={"iterations": 9, "config": {"two_way": False}}))
    clone = FleetSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
    assert clone.as_dict() == spec.as_dict()
    assert [s.shard_id for s in clone.expand()] == \
        [s.shard_id for s in spec.expand()]


def test_load_spec_json_and_yaml(tmp_path):
    d = spec_dict()
    jpath = tmp_path / "sweep.json"
    jpath.write_text(json.dumps(d))
    assert load_spec(jpath).name == "t"
    yaml = pytest.importorskip("yaml")
    ypath = tmp_path / "sweep.yaml"
    ypath.write_text(yaml.safe_dump(d))
    assert load_spec(ypath).as_dict() == load_spec(jpath).as_dict()


# ----------------------------------------------------------------------
# manifest: ledger + reload


def make_manifest(tmp_path, **kw):
    spec = FleetSpec.from_dict(spec_dict(**kw))
    paths = fleet_paths(tmp_path / "fleet")
    return spec, paths, FleetManifest.create(paths, spec)


def test_manifest_reload_tracks_failures_and_quarantine(tmp_path):
    spec, paths, manifest = make_manifest(tmp_path)
    (sid,) = [sh.shard_id for sh in spec.expand()]
    with manifest:
        manifest.shard_start(sid, 1, 111)
        manifest.shard_fail(sid, 1, SHARD_CRASH, "died")
        manifest.shard_start(sid, 2, 222)
        manifest.shard_fail(sid, 2, SHARD_OOM, "oom")
        manifest.shard_quarantine(sid, 2, SHARD_OOM, "oom")
    state = load_state(paths.root)
    st = state.shards[sid]
    assert st.status == QUARANTINED
    assert st.failures == 2 and st.attempts == 2
    assert st.last_kind == SHARD_OOM
    assert state.incomplete() == []  # quarantined shards are never re-run
    assert state.counts()[QUARANTINED] == 1


def test_manifest_inflight_attempt_is_not_a_failure(tmp_path):
    """A shard-start with no terminal record = the fleet died mid-attempt.

    Resume must re-run the shard without charging it a failure (the
    attempt produced no verdict), and must know the orphan pid."""
    spec, paths, manifest = make_manifest(tmp_path)
    (sid,) = [sh.shard_id for sh in spec.expand()]
    with manifest:
        manifest.shard_start(sid, 1, 4242)
    state = load_state(paths.root)
    st = state.shards[sid]
    assert st.status == PENDING and st.failures == 0
    assert state.incomplete() == [sid]
    assert state.orphan_pids() == [4242]


def test_manifest_tolerates_torn_tail(tmp_path):
    spec, paths, manifest = make_manifest(tmp_path)
    (sid,) = [sh.shard_id for sh in spec.expand()]
    with manifest:
        manifest.shard_start(sid, 1, 99)
        manifest.shard_done(sid, 1, {"iterations": 2})
    with paths.manifest.open("a") as fh:
        fh.write('{"type": "shard-fail", "shard": "' + sid)  # torn record
    state = load_state(paths.root)
    assert state.shards[sid].status == DONE
    assert state.shards[sid].failures == 0


def test_status_text_lists_every_shard(tmp_path):
    spec, paths, manifest = make_manifest(tmp_path)
    (sid,) = [sh.shard_id for sh in spec.expand()]
    with manifest:
        manifest.shard_start(sid, 1, 7)
        manifest.shard_fail(sid, 1, SHARD_CRASH, "boom")
    text = status_text(load_state(paths.root))
    assert sid in text and "shard-crash: boom" in text


# ----------------------------------------------------------------------
# results store: deterministic merge of (possibly partial) shard logs


def write_shard_log(path, iters, bugs=(), branches=(), finished=True,
                    torn=False):
    """Synthesize a campaign log the way one shard attempt writes it."""
    lines = [{"type": "meta", "program": "p", "config": {},
              "total_branches": 10}]
    for i in range(iters):
        lines.append({"type": "iteration", "iteration": i, "origin": "t",
                      "nprocs": 2, "focus": 0, "path_len": 1,
                      "event_count": 0, "covered_after": len(branches),
                      "error_kind": None, "wall_time": 0.0, "elapsed": 0.0})
    if branches:
        lines.append({"type": "cov", "iteration": 0,
                      "branches": [[s, int(d)] for s, d in branches]})
    for kind, loc in bugs:
        lines.append({"type": "bug", "kind": kind, "message": "m",
                      "global_rank": 0, "iteration": 0, "location": loc,
                      "signature": "", "inputs": {}, "nprocs": 2,
                      "focus": 0})
    if finished:
        lines.append({"type": "coverage",
                      "branches": [[s, int(d)] for s, d in branches],
                      "functions": [], "covered_static": len(branches),
                      "reachable": 10, "wall_time": 1.0})
    text = "\n".join(json.dumps(o) for o in lines) + "\n"
    if torn:
        text += '{"type": "coverage", "branch'  # crash mid-record
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def fake_state(tmp_path, statuses):
    """A FleetState over two overlapping demo shards with given statuses."""
    spec = FleetSpec.from_dict(spec_dict(matrix={
        "target": ["demo"], "strategy": ["two-phase", "dfs"]}))
    shards = {}
    for sh, status in zip(spec.expand(), statuses):
        shards[sh.shard_id] = ShardState(shard_id=sh.shard_id,
                                         status=status)
    return FleetState(spec=spec, shards=shards)


def test_merge_is_independent_of_shard_dict_order(tmp_path):
    state = fake_state(tmp_path, [DONE, DONE])
    paths = fleet_paths(tmp_path)
    ids = state.shard_ids()
    write_shard_log(paths.shard_log(ids[0]), iters=3,
                    bugs=[("assert", "a.py:1")], branches=[(1, True)])
    write_shard_log(paths.shard_log(ids[1]), iters=2,
                    bugs=[("assert", "a.py:1")], branches=[(2, False)])
    text_fwd = report_text(merge_results(tmp_path, state))
    # rebuild the state with reversed insertion order
    rev = FleetState(spec=state.spec,
                     shards=dict(reversed(list(state.shards.items()))))
    assert report_text(merge_results(tmp_path, rev)) == text_fwd
    # overlapping shards hit the same bug: fleet-wide it is ONE bug
    assert merge_results(tmp_path, state).fleet_bugs == \
        [("demo", "assert", "a.py:1")]


def test_merge_reads_torn_and_partial_quarantined_logs(tmp_path):
    state = fake_state(tmp_path, [DONE, QUARANTINED])
    paths = fleet_paths(tmp_path)
    ids = state.shard_ids()
    write_shard_log(paths.shard_log(ids[0]), iters=2, branches=[(1, True)],
                    finished=True, torn=True)
    write_shard_log(paths.shard_log(ids[1]), iters=1,
                    bugs=[("crash", "k.py:9")], branches=[(3, True)],
                    finished=False)  # quarantined: final attempt's partial
    report = merge_results(tmp_path, state)
    by_id = {sh.shard_id: sh for sh in report.shards}
    # torn final record is skipped; the complete records still merge
    assert by_id[ids[0]].iterations == 2
    # the partial log's coverage comes from per-iteration deltas
    q = by_id[ids[1]]
    assert q.status == QUARANTINED and q.covered == 1
    assert q.reachable is None
    # bugs a quarantined shard found before dying reach the fleet list
    assert ("demo", "crash", "k.py:9") in report.fleet_bugs


def test_pending_shards_contribute_no_data(tmp_path):
    """A killed attempt's leftover log must not leak into the report —
    else an interrupted sweep's report diverges from the clean one."""
    state = fake_state(tmp_path, [DONE, PENDING])
    paths = fleet_paths(tmp_path)
    ids = state.shard_ids()
    write_shard_log(paths.shard_log(ids[0]), iters=2, branches=[(1, True)])
    write_shard_log(paths.shard_log(ids[1]), iters=1,
                    bugs=[("crash", "x.py:1")], finished=False)
    report = merge_results(tmp_path, state)
    by_id = {sh.shard_id: sh for sh in report.shards}
    assert by_id[ids[1]].iterations == 0
    assert report.fleet_bugs == []


# ----------------------------------------------------------------------
# the scheduler, end to end (small real sweeps)


def write_spec(tmp_path, d):
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(d))
    return p


def test_fleet_run_completes_and_reports(tmp_path):
    spec_path = write_spec(tmp_path, spec_dict())
    root = tmp_path / "fleet"
    # a 2-iteration seq_demo campaign completes bug-free → exit 0
    assert fleet_run(spec_path, root, echo=quiet) == 0
    state = load_state(root)
    assert state.counts() == {PENDING: 0, DONE: 1, QUARANTINED: 0}
    (sid,) = state.shard_ids()
    assert state.shards[sid].summary["iterations"] == 2
    assert fleet_status(root, echo=quiet) == 0
    assert fleet_report(root, echo=quiet) == 0


def test_shards_write_no_checkpoint_sidecar(tmp_path):
    """``fleet resume`` re-runs an incomplete shard from scratch, so no
    shard campaign writes the ``.ckpt`` sidecar a campaign resume reads:
    neither a real sweep nor a shard run inline."""
    from repro.fleet.worker import execute_shard

    d = spec_dict(matrix={"target": ["seq_demo"],
                          "strategy": ["two-phase", "cfg"]})
    root = tmp_path / "fleet"
    assert fleet_run(write_spec(tmp_path, d), root, echo=quiet) == 0
    inline_root = tmp_path / "inline"
    spec = FleetSpec.from_dict(d)
    with FleetManifest.create(fleet_paths(inline_root), spec):
        for shard in spec.expand():
            execute_shard(inline_root, shard)
    for where in (root, inline_root):
        assert len(list(where.rglob("*.jsonl"))) == 3  # manifest + 2 shards
        assert list(where.rglob("*.ckpt")) == []


def test_bad_spec_and_missing_fleet_exit_unrecoverable(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"fleet": "x", "matrix": {"target": ["nope"]}}')
    assert fleet_run(bad, tmp_path / "f", echo=quiet) == 2
    assert fleet_resume(tmp_path / "nothing-here", echo=quiet) == 2
    assert fleet_status(tmp_path / "nothing-here", echo=quiet) == 2


def test_hard_crashing_shard_is_quarantined_siblings_complete(tmp_path):
    # targets/killer os._exit()s the whole worker on its first bad input;
    # the fleet retries it max_failures times, quarantines it, and the
    # sibling shard still completes
    spec_path = write_spec(tmp_path, spec_dict(
        matrix={"target": ["killer", "seq_demo"]}, workers=2))
    root = tmp_path / "fleet"
    assert fleet_run(spec_path, root, echo=quiet) == 2
    state = load_state(root)
    killer = state.shards["killer--two-phase--np8--s0--fs0"]
    assert killer.status == QUARANTINED
    assert killer.failures == 2
    assert killer.last_kind == SHARD_CRASH
    assert state.shards["seq_demo--two-phase--np8--s0--fs0"].status == DONE
    # quarantine is honored across resume: nothing left to run
    assert state.incomplete() == []


def test_kill_mid_sweep_then_resume_merges_byte_identical(tmp_path):
    d = spec_dict(matrix={"target": ["seq_demo"],
                          "strategy": ["two-phase", "random-branch"]})
    spec_path = write_spec(tmp_path, d)

    clean_root = tmp_path / "clean"
    assert fleet_run(spec_path, clean_root, echo=quiet) == 0

    # same sweep, but the fleet process "dies" after one shard finishes
    killed_root = tmp_path / "killed"
    assert fleet_run(spec_path, killed_root, stop_after_shards=1,
                     echo=quiet) == 2
    assert load_state(killed_root).incomplete() != []

    assert fleet_resume(killed_root, echo=quiet) == 0
    clean = report_text(merge_results(clean_root, load_state(clean_root)))
    resumed = report_text(merge_results(killed_root,
                                        load_state(killed_root)))
    # the acceptance bar: interrupted + resumed ≡ uninterrupted, bytewise
    assert clean == resumed


def test_daemon_answers_unknown_shard_with_shard_error(tmp_path):
    # a run frame for a shard the spec does not have is a harness error:
    # the daemon answers a done frame with status "error" and stays up
    import os
    import subprocess
    import sys

    from repro.fleet.pool import read_frame, write_frame
    from repro.fleet.scheduler import FleetScheduler

    spec = FleetSpec.from_dict(spec_dict())
    FleetManifest.create(fleet_paths(tmp_path), spec).close()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "workerd",
         "--dir", str(tmp_path), "--worker", "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, env=env)
    try:
        assert read_frame(proc.stdout)["type"] == "hello"
        write_frame(proc.stdin, {"type": "run", "shard": "no-such-shard"})
        done = read_frame(proc.stdout)
        assert (done["type"], done["shard"], done["status"]) == \
            ("done", "no-such-shard", "error")
        assert "no-such-shard" in done["detail"]
        write_frame(proc.stdin, {"type": "exit"})
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # ...which the scheduler maps to shard-error
    state = load_state(tmp_path)
    sched = FleetScheduler(tmp_path, state, manifest=None, echo=quiet)
    kind, detail = sched._classify_response("no-such-shard", done)
    assert kind == SHARD_ERROR
    assert detail.startswith("harness exception in worker:")


def test_retry_backoff_is_deterministic_per_shard(tmp_path):
    from repro.fleet.scheduler import FleetScheduler
    import random
    spec = FleetSpec.from_dict(spec_dict(
        failure={"max_failures": 5, "backoff": 0.5, "backoff_cap": 2.0,
                 "jitter": 0.1}))
    state = FleetState(spec=spec, shards={
        sh.shard_id: ShardState(shard_id=sh.shard_id)
        for sh in spec.expand()})
    sched = FleetScheduler(tmp_path, state, manifest=None, echo=quiet)
    rng_a = random.Random("0:sid")
    rng_b = random.Random("0:sid")
    delays_a = [sched._backoff_delay(n, rng_a) for n in (1, 2, 3, 4)]
    delays_b = [sched._backoff_delay(n, rng_b) for n in (1, 2, 3, 4)]
    assert delays_a == delays_b
    # exponential then capped: base delays 0.5, 1.0, 2.0, 2.0 (+jitter)
    assert delays_a[0] < delays_a[1] < delays_a[2]
    assert delays_a[3] <= 2.0 * 1.1
