"""Supervised execution: sandboxing, quarantine, crash triage and input
minimization.

The anchor test: a sandboxed campaign whose target hard-kills the
executing process mid-iteration (``os._exit``) finishes, with the kill
confirmed, the killing input quarantined, and a minimized reproducer
artifact emitted next to the campaign log.
"""

import json
from pathlib import Path

import pytest

from repro.core import Compi, CompiConfig, KIND_CPU, KIND_OOM, KIND_WORKER
from repro.core.conflicts import TestSetup
from repro.core.persist import CampaignLog, checkpoint_path, load_campaign
from repro.core.runner import ErrorInfo, TestRunner
from repro.core.testcase import TestCase
from repro.instrument import instrument_program
from repro.supervise import (CampaignSupervisor, QuarantineEntry,
                             ResourceLimits, canonical_input_key,
                             crash_signature, ddmin, load_artifacts,
                             minimize_inputs, repro_dir, run_sandboxed,
                             signature_filename)
from repro.supervise.sandbox import SandboxDeath


@pytest.fixture(scope="module")
def killer_program():
    prog = instrument_program(["repro.targets.killer"],
                              entry_module="repro.targets.killer")
    yield prog
    prog.unload()


@pytest.fixture(scope="module")
def hog_program():
    prog = instrument_program(["repro.targets.hog"],
                              entry_module="repro.targets.hog")
    yield prog
    prog.unload()


@pytest.fixture(scope="module")
def demo_program():
    prog = instrument_program(["repro.targets.demo"])
    yield prog
    prog.unload()


def _cfg(**kw):
    base = dict(seed=7, init_nprocs=2, nprocs_cap=4, test_timeout=10.0)
    base.update(kw)
    return CompiConfig(**base)


def _setup(nprocs=2, focus=0):
    return TestSetup(nprocs=nprocs, focus=focus)


# ----------------------------------------------------------------------
# ddmin / input minimization
# ----------------------------------------------------------------------
def test_ddmin_finds_minimal_pair():
    mini, spent = ddmin(list(range(16)),
                        lambda sub: 3 in sub and 11 in sub, budget=200)
    assert sorted(mini) == [3, 11]
    assert spent <= 200


def test_ddmin_single_culprit():
    mini, _ = ddmin(list(range(8)), lambda sub: 5 in sub, budget=100)
    assert mini == [5]


def test_ddmin_budget_exhaustion_returns_best_so_far():
    calls = []

    def probe(sub):
        calls.append(tuple(sub))
        return 3 in sub and 11 in sub

    mini, spent = ddmin(list(range(16)), probe, budget=3)
    assert spent == 3 == len(calls)
    # still a failing superset of the true minimum
    assert 3 in mini and 11 in mini


def test_minimize_inputs_resets_irrelevant_keys_to_defaults():
    inputs = {"a": 5, "b": -9, "c": 42}
    defaults = {"a": 1, "b": 2, "c": 3}
    mini, spent = minimize_inputs(inputs, defaults,
                                  lambda d: d["b"] == -9, budget=50)
    assert mini == {"a": 1, "b": -9, "c": 3}
    assert spent >= 1


def test_minimize_inputs_no_delta_is_free():
    mini, spent = minimize_inputs({"a": 1}, {"a": 1}, lambda d: True,
                                  budget=50)
    assert mini == {"a": 1} and spent == 0


def test_minimize_inputs_key_without_default_is_kept():
    mini, _ = minimize_inputs({"a": 5, "extra": 7}, {"a": 1},
                              lambda d: True, budget=50)
    assert mini["extra"] == 7


# ----------------------------------------------------------------------
# crash signatures
# ----------------------------------------------------------------------
_TB = ('Traceback (most recent call last):\n'
       '  File "/x/targets/solver.py", line 57, in step\n'
       '    v = grid[i]\n'
       'IndexError: list index out of range\n')


def test_signature_stable_across_message_payloads():
    a = ErrorInfo("segfault", 0, "IndexError: oob (i=3)", _TB,
                  "solver.py:57:step")
    b = ErrorInfo("segfault", 1, "IndexError: oob (i=99)", _TB,
                  "solver.py:57:step")
    assert crash_signature(a) == crash_signature(b)


def test_signature_distinguishes_kinds_and_stacks():
    a = ErrorInfo("segfault", 0, "IndexError: oob", _TB, "solver.py:57:step")
    b = ErrorInfo("assert", 0, "IndexError: oob", _TB, "solver.py:57:step")
    other_tb = _TB.replace("step", "other_fn")
    c = ErrorInfo("segfault", 0, "IndexError: oob", other_tb,
                  "solver.py:57:other_fn")
    sigs = {crash_signature(e) for e in (a, b, c)}
    assert len(sigs) == 3


def test_signature_ignores_line_numbers():
    moved = _TB.replace("line 57", "line 99")
    a = ErrorInfo("segfault", 0, "IndexError: oob", _TB, "solver.py:57:step")
    b = ErrorInfo("segfault", 0, "IndexError: oob", moved,
                  "solver.py:57:step")
    assert crash_signature(a) == crash_signature(b)


def test_signature_filename_is_safe():
    name = signature_filename("segfault@solver.py:57:step#ab12cd34")
    assert "/" not in name and name.endswith(".json")
    assert signature_filename("worker-killed@?#95fb2009") == \
        "worker-killed@-#95fb2009.json"


# ----------------------------------------------------------------------
# sandbox
# ----------------------------------------------------------------------
def test_sandbox_clean_run_matches_inline(demo_program):
    cfg = _cfg()
    tc = TestCase(inputs={"x": 10, "y": 200}, setup=_setup(nprocs=3))
    inline = TestRunner(demo_program, cfg).run(tc)
    out, death = run_sandboxed(TestRunner(demo_program, cfg), tc, 10.0,
                               ResourceLimits())
    assert death is None
    assert out.error is None and inline.error is None
    assert out.coverage.branches == inline.coverage.branches
    assert [c.site for c in out.trace.path] == \
        [c.site for c in inline.trace.path]


def test_sandbox_catches_hard_exit(killer_program):
    cfg = _cfg()
    tc = TestCase(inputs={"x": 0, "y": 5}, setup=_setup())
    out, death = run_sandboxed(TestRunner(killer_program, cfg), tc, 10.0,
                               ResourceLimits())
    assert out is None
    assert death.kind == KIND_WORKER
    assert death.desc == "exit code 1"
    msg = death.message(ResourceLimits())
    assert "died mid-run" in msg and "exit code 1" in msg


def test_sandbox_rss_cap_classifies_oom(hog_program):
    cfg = _cfg(max_rss_mb=2048)
    tc = TestCase(inputs={"mem": 1, "spin": 0}, setup=_setup())
    out, death = run_sandboxed(TestRunner(hog_program, cfg), tc, 10.0,
                               ResourceLimits.from_config(cfg))
    # RLIMIT_AS surfaces as an in-process MemoryError, reclassified from
    # the segfault family to the distinct oom kind
    if death is not None:  # kernel chose SIGKILL instead
        assert death.kind == KIND_OOM
    else:
        assert out.error is not None and out.error.kind == KIND_OOM


def test_sandbox_cpu_cap_classifies_sigxcpu(hog_program):
    cfg = _cfg(max_cpu_s=1.0, test_timeout=30.0)
    tc = TestCase(inputs={"mem": 0, "spin": 1}, setup=_setup())
    out, death = run_sandboxed(TestRunner(hog_program, cfg), tc, 30.0,
                               ResourceLimits.from_config(cfg))
    assert out is None
    assert death.kind == KIND_CPU
    assert "SIGXCPU" in death.desc


def test_sandbox_enabled_auto_on_with_caps():
    assert not CompiConfig().sandbox_enabled()
    assert CompiConfig(max_rss_mb=100).sandbox_enabled()
    assert CompiConfig(max_cpu_s=1.0).sandbox_enabled()
    assert CompiConfig(sandbox=True).sandbox_enabled()
    assert not CompiConfig(sandbox=False, max_rss_mb=100).sandbox_enabled()


# ----------------------------------------------------------------------
# supervisor units: kill accounting, quarantine, breaker, heartbeats
# ----------------------------------------------------------------------
def _mk_supervisor(program, **cfg_kw):
    cfg = _cfg(**cfg_kw)
    return CampaignSupervisor(cfg, TestRunner(program, cfg))


def test_quarantine_threshold(demo_program):
    sup = _mk_supervisor(demo_program, quarantine_kills=2)
    tc = TestCase(inputs={"x": 1, "y": 2}, setup=_setup())
    death = SandboxDeath(kind=KIND_WORKER, desc="exit code 1")
    assert sup.record_kill(tc, death) is None          # 1st kill: counted
    assert not sup.is_quarantined(tc)
    entry = sup.record_kill(tc, death)                 # 2nd: quarantined
    assert entry is not None and entry.kills == 2
    assert sup.is_quarantined(tc)
    assert sup.drain_new_quarantines() == [entry]
    assert sup.drain_new_quarantines() == []           # drained once


def test_canonical_key_ignores_input_order_but_not_setup():
    a = TestCase(inputs={"x": 1, "y": 2}, setup=_setup())
    b = TestCase(inputs={"y": 2, "x": 1}, setup=_setup(), origin="restart")
    c = TestCase(inputs={"x": 1, "y": 2}, setup=_setup(nprocs=3))
    assert canonical_input_key(a) == canonical_input_key(b)
    assert canonical_input_key(a) != canonical_input_key(c)


def test_quarantine_outcome_replays_recorded_error(demo_program):
    sup = _mk_supervisor(demo_program)
    tc = TestCase(inputs={"x": 1, "y": 2}, setup=_setup())
    sup.record_kill(tc, SandboxDeath(kind=KIND_WORKER, desc="exit code 1"))
    out = sup.quarantine_outcome(tc)
    assert out.error.kind == KIND_WORKER
    assert out.trace is None and out.timed_out
    assert out.wall_time == 0.0
    assert sup.stats.quarantine_skips == 1


def test_supervisor_state_roundtrip(demo_program):
    sup = _mk_supervisor(demo_program)
    tc = TestCase(inputs={"x": 1, "y": 2}, setup=_setup())
    sup.record_kill(tc, SandboxDeath(kind=KIND_WORKER, desc="exit code 1"))
    state = sup.state_dict()
    fresh = _mk_supervisor(demo_program)
    fresh.load_state(state)
    assert fresh.is_quarantined(tc)
    assert fresh.kill_counts == sup.kill_counts


def test_quarantine_entry_roundtrip():
    entry = QuarantineEntry(key="k", inputs={"x": 1}, nprocs=2, focus=0,
                            kills=1, error_kind=KIND_WORKER,
                            error_message="worker process died mid-run (x)")
    assert QuarantineEntry.from_dict(entry.as_dict()) == entry


# ----------------------------------------------------------------------
# the acceptance test: a hard-killed sandbox child
# ----------------------------------------------------------------------
def _killer_campaign(tmp_path, tag, iterations=12, resume=False, **cfg_kw):
    base = dict(sandbox=True, minimize_probes=16)
    base.update(cfg_kw)
    cfg = _cfg(**base)
    prog = instrument_program(["repro.targets.killer"],
                              entry_module="repro.targets.killer")
    path = tmp_path / f"camp-{tag}.jsonl"
    try:
        if resume:
            compi = Compi.resume(prog, path)
            log = CampaignLog(path, mode="a")
        else:
            compi = Compi(prog, cfg)
            log = CampaignLog(path)
        with compi, log:
            result = compi.run(iterations=iterations, log=log)
        return result, path, compi
    finally:
        prog.unload()


def test_killed_worker_campaign_matches_serial(tmp_path):
    """A target that os._exit()s mid-iteration must not kill the
    sandboxed campaign."""
    serial, path, _ = _killer_campaign(tmp_path, "serial")
    assert len(serial.iterations) == 12  # the campaign finished

    # the kill was confirmed, classified and quarantined
    kinds = {b.kind for b in serial.bugs}
    assert KIND_WORKER in kinds
    sup = serial.supervision
    assert sup["worker_kills"] >= 1
    assert sup["quarantined"] >= 1
    assert sup["unique_signatures"] >= 1
    assert sup["sandboxed_runs"] >= 1

    # the quarantine record and the reproducer artifact landed in the log
    loaded = load_campaign(path)
    assert loaded["quarantine"], f"no quarantine record in {path}"
    assert loaded["supervision"]["worker_kills"] >= 1
    arts = load_artifacts(repro_dir(path))
    assert arts, f"no reproducer artifact under {repro_dir(path)}"
    assert arts[0]["kind"] == KIND_WORKER
    # ddmin reset the irrelevant y to its default
    assert arts[0]["minimized"]
    assert arts[0]["minimized_inputs"]["y"] == 5
    assert arts[0]["minimized_inputs"]["x"] <= 0


def test_quarantine_honored_across_checkpoint_resume(tmp_path):
    _, path, first = _killer_campaign(tmp_path, "resume", iterations=6)
    assert first.supervisor.quarantine  # at least one input quarantined
    quarantined = dict(first.supervisor.quarantine)

    result, _, resumed = _killer_campaign(tmp_path, "resume", iterations=4,
                                          resume=True)
    assert set(resumed.supervisor.quarantine) >= set(quarantined)
    # the resumed session replayed quarantine state, not just the log
    assert resumed.supervisor.kill_counts
    assert len(result.iterations) == 10


def test_quarantine_honored_across_jsonl_resume(tmp_path):
    _, path, first = _killer_campaign(tmp_path, "jresume", iterations=6)
    keys = set(first.supervisor.quarantine)
    assert keys
    checkpoint_path(path).unlink()  # force the degraded JSONL path

    prog = instrument_program(["repro.targets.killer"],
                              entry_module="repro.targets.killer")
    try:
        compi = Compi.resume(prog, path)
        try:
            assert set(compi.supervisor.quarantine) == keys
            # logged signatures seeded triage dedup: no re-minimization
            assert compi.triage.seen
        finally:
            compi.close()
    finally:
        prog.unload()


# ----------------------------------------------------------------------
# triage artifacts + CLI
# ----------------------------------------------------------------------
def test_triage_emits_one_artifact_per_signature(tmp_path):
    result, path, _ = _killer_campaign(tmp_path, "triage")
    arts = load_artifacts(repro_dir(path))
    sigs = {a["signature"] for a in arts}
    assert len(arts) == len(sigs)  # dedup: one artifact per signature
    worker_bugs = [b for b in result.bugs if b.kind == KIND_WORKER]
    assert {b.signature for b in worker_bugs} <= sigs | {""}
    art = arts[0]
    assert art["format"] == "compi-repro-v1"
    assert art["program"] and art["nprocs"] >= 1
    assert set(art["minimized_inputs"]) == set(art["inputs"])


def test_triage_cli_list_show_replay(tmp_path, capsys):
    from repro.__main__ import main

    _, path, _ = _killer_campaign(tmp_path, "cli")
    assert main(["triage", "list", "--log", str(path)]) == 0
    out = capsys.readouterr().out
    assert "worker-killed" in out

    assert main(["triage", "show", "--log", str(path)]) == 0
    shown = json.loads(
        "\n".join(l for l in capsys.readouterr().out.splitlines()
                  if not l.startswith("#")))
    assert shown["format"] == "compi-repro-v1"

    rc = main(["triage", "replay", "--log", str(path),
               "--target", "killer"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "signature match" in out


def test_triage_cli_replay_requires_target(tmp_path):
    from repro.__main__ import main

    _, path, _ = _killer_campaign(tmp_path, "clibad")
    with pytest.raises(SystemExit):
        main(["triage", "replay", "--log", str(path)])


def test_run_cli_supervision_flags(tmp_path, capsys):
    """End-to-end: `run --target killer --sandbox` survives the kill and
    prints supervision telemetry."""
    from repro.__main__ import main

    log = tmp_path / "cli-camp.jsonl"
    rc = main(["run", "--target", "killer", "--iterations", "8",
               "--seed", "7", "--nprocs", "2", "--nprocs-cap", "4",
               "--sandbox", "--save-log", str(log)])
    out = capsys.readouterr().out
    assert rc == 1, out  # bugs found → nonzero, but it *finished*
    assert "supervision" in out
    assert "quarantine" in out
    assert load_campaign(log)["quarantine"]


# ----------------------------------------------------------------------
# report + persistence surface
# ----------------------------------------------------------------------
def test_summary_mentions_supervision(tmp_path):
    from repro.core import campaign_summary

    result, _, _ = _killer_campaign(tmp_path, "summary")
    text = campaign_summary(result)
    assert "supervision" in text
    assert "quarantine" in text
    assert "crash triage" in text


def test_bug_signature_survives_log_roundtrip(tmp_path):
    result, path, _ = _killer_campaign(tmp_path, "roundtrip")
    loaded = load_campaign(path)
    by_iter = {b.iteration: b for b in loaded["bugs"]}
    for bug in result.bugs:
        assert by_iter[bug.iteration].signature == bug.signature


# ----------------------------------------------------------------------
# where triage probes run, and what they leave alone
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def seq_program():
    prog = instrument_program(["repro.targets.seq_demo"])
    yield prog
    prog.unload()


def _artifact_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_inline_probes_write_the_forked_probes_artifacts(tmp_path,
                                                         monkeypatch):
    """Race seed 0: an unsandboxed campaign probes in-process and writes
    the same reproducers, byte for byte, as a sandboxed one whose probes
    fork."""
    from repro.__main__ import load_target

    from .golden import run_golden

    forks = []
    monkeypatch.setattr("repro.supervise.triage.run_sandboxed",
                        lambda *a: forks.append(a))
    program = load_target("race")
    try:
        inline, inline_digest = run_golden(program, "race", 0,
                                           log_path=tmp_path / "in.jsonl")
        monkeypatch.undo()
        forked, forked_digest = run_golden(program, "race", 0,
                                           log_path=tmp_path / "fk.jsonl",
                                           sandbox=True)
    finally:
        program.unload()
    assert forks == []
    assert forked.supervision["sandboxed_runs"] > 0
    assert inline.supervision["minimize_probes"] > 0
    assert inline_digest == forked_digest
    inline_arts = _artifact_bytes(repro_dir(tmp_path / "in.jsonl"))
    assert len(inline_arts) == 2
    assert inline_arts == _artifact_bytes(repro_dir(tmp_path / "fk.jsonl"))


def _triage(program, **cfg_kw):
    from repro.supervise import CrashTriage
    cfg = _cfg(**cfg_kw)
    return CrashTriage(TestRunner(program, cfg), {}, cfg, "test")


def _bug(kind):
    from repro.core.compi import BugRecord
    return BugRecord(kind=kind, message="m", global_rank=-1, iteration=0,
                     testcase=TestCase(inputs={"x": 1, "y": 2},
                                       setup=_setup()))


@pytest.mark.parametrize("kind,sandbox", [
    ("hang", None), (KIND_WORKER, None), (KIND_OOM, None), (KIND_CPU, None),
    ("assertion", True)])
def test_probe_forks_for_unclean_kinds_and_sandboxed_campaigns(
        demo_program, monkeypatch, kind, sandbox):
    tri = _triage(demo_program, sandbox=sandbox)
    death = SandboxDeath(kind=kind, desc="exit code 1")
    forks = []

    def fake_sandbox(runner, tc, timeout, limits):
        forks.append(timeout)
        return None, death

    monkeypatch.setattr("repro.supervise.triage.run_sandboxed", fake_sandbox)
    monkeypatch.setattr(tri.runner, "probe", None)  # never called
    signature = crash_signature(ErrorInfo(
        kind=kind, global_rank=-1, message=death.message(tri.limits)))
    assert tri._probe({"x": 1, "y": 2}, _bug(kind), signature)
    assert forks == [tri.config.test_timeout]


def test_probe_runs_inline_for_python_level_crashes(seq_program,
                                                    monkeypatch):
    tri = _triage(seq_program)
    forks = []
    monkeypatch.setattr("repro.supervise.triage.run_sandboxed",
                        lambda *a: forks.append(a))
    rec, _ = tri.runner.probe(TestCase(inputs={"x": 100, "y": 50},
                                       setup=_setup()), 10.0)
    assert rec.error is not None and rec.error.kind == "assertion"
    bug = _bug(rec.error.kind)
    assert tri._probe({"x": 100, "y": 50}, bug, crash_signature(rec.error))
    assert not tri._probe({"x": 1, "y": 2}, bug, crash_signature(rec.error))
    assert forks == []


def test_probe_leaves_runner_accounting_alone(seq_program):
    runner = TestRunner(seq_program, _cfg())
    runner.run(TestCase(inputs={"x": 1, "y": 2}, setup=_setup()))
    runs, ewma = runner._runs, runner._ewma
    for x in (1, 100, 7):
        runner.probe(TestCase(inputs={"x": x, "y": 50}, setup=_setup()),
                     10.0)
    assert (runner._runs, runner._ewma) == (runs, ewma)
    runner.run(TestCase(inputs={"x": 1, "y": 2}, setup=_setup()))
    assert runner._runs == runs + 1


def test_fork_fallback_counts_each_supervised_run_once(seq_program,
                                                       monkeypatch):
    """Without ``os.fork`` the sandbox runs in-process; a supervised run
    must still advance the run counter by exactly one, a probe by zero."""
    monkeypatch.setattr("repro.supervise.sandbox.sandbox_supported",
                        lambda: False)
    sup = _mk_supervisor(seq_program, sandbox=True)
    tri = _triage(seq_program, sandbox=True)
    tri.runner = sup.runner
    tc = TestCase(inputs={"x": 100, "y": 50}, setup=_setup())
    for expected in (1, 2, 3):
        out = sup.run_inline(tc)
        assert sup.runner._runs == expected
    assert out.error is not None
    assert tri._probe(dict(tc.inputs), _bug(out.error.kind),
                      crash_signature(out.error))
    assert sup.runner._runs == 3


def test_fault_campaign_trajectory_ignores_minimization(tmp_path):
    """Probes draw the fault sub-plan the next run will draw but never
    advance it: a logged fault campaign commits the same trajectory with
    minimization on and off.  ``crash`` gives triage injected faults to
    minimize; it fires at a fixed MPI call in every run, so ``drop``,
    whose losses depend on the run number, is what would expose a probe
    that advanced the per-run fault streams."""
    from repro.__main__ import load_target

    from .golden import run_golden

    program = load_target("demo")
    try:
        digests, probes = [], []
        for minimize in (True, False):
            result, digest = run_golden(
                program, "demo", 0, log_path=tmp_path / f"{minimize}.jsonl",
                faults=("crash", "drop"), minimize_crashes=minimize)
            digests.append(digest)
            probes.append(result.supervision["minimize_probes"])
    finally:
        program.unload()
    assert probes[0] > 0 and probes[1] == 0
    assert digests[0] == digests[1]
