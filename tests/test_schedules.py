"""Schedule-space exploration: IDs, tree, controller, replay, resume."""

import dataclasses
import time

import pytest

from repro.core import Compi, CompiConfig
from repro.core.conflicts import TestSetup
from repro.core.persist import (CampaignLog, load_campaign, load_checkpoint,
                                read_records, write_checkpoint)
from repro.core.runner import TestRunner
from repro.core.testcase import TestCase
from repro.instrument import instrument_program
from repro.mpi import ANY_SOURCE, run_spmd
from repro.schedules import (Decision, ScheduleController, ScheduleExplorer,
                             ScheduleTree, decode_schedule, encode_schedule,
                             normalize_prescription)

from .golden import GOLDEN, run_golden


@pytest.fixture(scope="module")
def race_program():
    prog = instrument_program(["repro.targets.race"])
    yield prog
    prog.unload()


CFG = CompiConfig(seed=0, init_nprocs=4, test_timeout=20.0,
                  explore_schedules=True, schedule_budget=16,
                  schedule_depth=8)

#: the two seeded interleaving bugs of repro.targets.race
DEADLOCK_SID = "r0.0=s2.t1"
#: the fold order every un-steered run takes (rank order 1, 2, 3)
CANONICAL_SID = "r0.0=s1.t1;r0.1=s2.t1;r0.2=s3.t1"


# ----------------------------------------------------------------------
# schedule IDs
# ----------------------------------------------------------------------
def test_schedule_id_roundtrip():
    entries = ((0, 0, 2, 1), (0, 1, 1, 1), (3, 0, 7, 42))
    sid = encode_schedule(entries)
    assert sid == "r0.0=s2.t1;r0.1=s1.t1;r3.0=s7.t42"
    assert decode_schedule(sid) == entries


def test_schedule_id_is_site_sorted():
    # commit order of commuting cross-rank decisions must not perturb
    # the ID: encoding sorts by (rank, index)
    a = encode_schedule(((1, 0, 2, 1), (0, 0, 3, 1)))
    b = encode_schedule(((0, 0, 3, 1), (1, 0, 2, 1)))
    assert a == b == "r0.0=s3.t1;r1.0=s2.t1"


def test_empty_schedule_id():
    assert encode_schedule(()) == ""
    assert decode_schedule("") == ()


def test_normalize_prescription_accepts_lists_and_strings():
    want = ((0, 0, 2, 1),)
    assert normalize_prescription("r0.0=s2.t1") == want
    assert normalize_prescription([[0, 0, 2, 1]]) == want
    assert normalize_prescription(((0, 0, 2, 1),)) == want
    assert normalize_prescription(()) == ()


# ----------------------------------------------------------------------
# the schedule tree / explorer
# ----------------------------------------------------------------------
def _decisions(*specs):
    """(rank, index, source, tag, candidates) tuples → Decision list."""
    return [Decision(rank=r, index=i, source=s, tag=t,
                     candidates=tuple(c)) for r, i, s, t, c in specs]


def test_tree_emits_unexplored_alternatives_once():
    tree = ScheduleTree(depth=8)
    run = _decisions((0, 0, 1, 1, [(1, 1), (2, 1), (3, 1)]),
                     (0, 1, 2, 1, [(2, 1), (3, 1)]))
    fresh = tree.observe([d.record() for d in run])
    # alternatives at both decision points, deepest prefix preserved
    assert ((0, 0, 2, 1),) in fresh
    assert ((0, 0, 3, 1),) in fresh
    assert ((0, 0, 1, 1), (0, 1, 3, 1)) in fresh
    # replaying the same run discovers nothing new
    assert tree.observe([d.record() for d in run]) == []


def test_tree_depth_bound_truncates():
    tree = ScheduleTree(depth=1)
    run = _decisions((0, 0, 1, 1, [(1, 1), (2, 1)]),
                     (0, 1, 2, 1, [(2, 1), (3, 1)]))
    fresh = tree.observe([d.record() for d in run])
    assert fresh == [((0, 0, 2, 1),)]  # the deeper decision is ignored


def test_explorer_budget_and_state_roundtrip():
    exp = ScheduleExplorer(budget=2, depth=8)
    tc = TestCase(inputs={"x": 1}, setup=TestSetup(4, 0))
    run = _decisions((0, 0, 1, 1, [(1, 1), (2, 1), (3, 1)]))
    exp.note(tc, tuple(d.record() for d in run))
    assert exp.frontier_size() == 2
    copy = ScheduleExplorer(budget=2, depth=8)
    copy.load_state(exp.state_dict())
    assert copy.frontier_size() == exp.frontier_size()
    first = exp.next_testcase()
    assert first is not None and first.origin == "schedule"
    assert first.inputs == tc.inputs and first.schedule
    assert exp.next_testcase() is not None
    assert exp.next_testcase() is None  # budget of 2 spent
    # the restored copy drains the same frontier
    assert copy.next_testcase().schedule == first.schedule


# ----------------------------------------------------------------------
# campaign-level: finding and replaying the seeded race bugs
# ----------------------------------------------------------------------
def _bug_kinds(result):
    return {b.kind for b in result.unique_bugs()}


def test_exploration_finds_both_seeded_race_bugs(race_program):
    with Compi(race_program, CFG) as c:
        result = c.run(iterations=12)
    assert _bug_kinds(result) == {"deadlock", "assertion"}
    by_kind = {b.kind: b for b in result.unique_bugs()}
    assert by_kind["deadlock"].schedule == DEADLOCK_SID
    assert by_kind["deadlock"].pending_ops == \
        ((0, "Recv(source=1, tag=9)"),)
    # the assertion fires on any non-canonical fold that dodges the
    # deadlock branch; whichever the DFS hit first, its schedule is a
    # full, decodable, non-canonical interleaving
    assert_sid = by_kind["assertion"].schedule
    assert assert_sid not in ("", CANONICAL_SID, DEADLOCK_SID)
    assert len(decode_schedule(assert_sid)) == 3
    assert result.schedules is not None
    assert result.schedules["explored"] >= 2
    assert result.schedules["divergences"] == 0


def test_default_campaign_never_sees_the_race_bugs(race_program):
    cfg = dataclasses.replace(CFG, explore_schedules=False)
    with Compi(race_program, cfg) as c:
        result = c.run(iterations=30)
    assert result.unique_bugs() == []
    assert result.schedules is None
    assert all(r.schedule == "" for r in result.iterations)


def test_pinned_replay_reproduces_bug_and_schedule(race_program):
    cfg = dataclasses.replace(CFG, explore_schedules=False)
    tc = TestCase(inputs={"x": 10, "y": 5}, setup=TestSetup(4, 0),
                  schedule=decode_schedule(DEADLOCK_SID))
    for _ in range(2):  # replay is deterministic, not merely likely
        rec = TestRunner(race_program, cfg).run(tc)
        assert rec.error is not None and rec.error.kind == "deadlock"
        assert rec.schedule == DEADLOCK_SID
        assert rec.schedule_divergences == 0
        assert rec.error.pending == ((0, "Recv(source=1, tag=9)"),)


def test_portfolio_excludes_schedule_exploration(race_program):
    cfg = dataclasses.replace(CFG, portfolio=("dfs2", "bounded"))
    with pytest.raises(ValueError, match="mutually exclusive"):
        Compi(race_program, cfg)


def test_free_decision_waits_for_a_late_sender():
    """A free decision is taken at exact quiesce, however long a peer
    computes first: here longer than any poll-and-timer heuristic would
    wait, so the late message must still be among the candidates."""
    def prog(mpi):
        mpi.Init()
        rank = mpi.COMM_WORLD.Get_rank()
        if rank == 0:
            for _ in range(2):
                mpi.COMM_WORLD.Recv(source=ANY_SOURCE, tag=1)
        elif rank == 1:
            mpi.COMM_WORLD.Send(1, dest=0, tag=1)
        else:
            end = time.monotonic() + 1.2
            while time.monotonic() < end:   # compute, no MPI calls
                pass
            mpi.COMM_WORLD.Send(2, dest=0, tag=1)

    sids = set()
    for _ in range(2):
        controller = ScheduleController()
        res = run_spmd(prog, size=3, timeout=20, match_policy=controller)
        assert res.ok
        first = controller.decisions()[0]
        assert first.candidates == ((1, 1), (2, 1))
        assert controller.divergences == 0
        sids.add(controller.schedule_id())
    assert sids == {"r0.0=s1.t1;r0.1=s2.t1"}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_race_exploration_matches_golden_digest(race_program, seed,
                                                tmp_path, monkeypatch):
    """``repro run --target race --explore-schedules --iterations 60
    --save-log`` explores the golden schedules, finds the golden bugs and
    covers the golden branches (tests/golden.py).  The campaign is
    logged, so crash triage minimizes its bugs with in-process probes
    along the way, and those must not move the trajectory."""
    forks = []
    monkeypatch.setattr("repro.supervise.triage.run_sandboxed",
                        lambda *a: forks.append(a))
    result, digest = run_golden(race_program, "race", seed,
                                log_path=tmp_path / "race.jsonl")
    assert digest == GOLDEN[("race", seed)]
    assert result.supervision["minimize_probes"] > 0 and forks == []


# ----------------------------------------------------------------------
# determinism + resume
# ----------------------------------------------------------------------
def _normalized_log(path):
    """The deterministic log stream: meta/iteration/bug/cov records with
    wall-clock noise dropped (byte-compare the rest).  Solver/supervision
    telemetry records carry latency EWMAs, and a resumed log repeats them
    mid-stream, so they are excluded here."""
    out = []
    for rec in read_records(path):
        if rec["type"] not in ("meta", "iteration", "bug", "cov"):
            continue
        rec = dict(rec)
        for key in ("wall_time", "elapsed"):
            rec.pop(key, None)
        out.append(rec)
    return out


def test_fixed_seed_gives_identical_logs(race_program, tmp_path):
    logs = []
    for name in ("a.jsonl", "b.jsonl"):
        p = tmp_path / name
        with CampaignLog(p) as log:
            with Compi(race_program, CFG) as c:
                c.run(iterations=10, log=log)
        logs.append(_normalized_log(p))
    assert logs[0] == logs[1]
    # every schedule-origin iteration carries its schedule ID
    sched = [r for r in logs[0] if r["type"] == "iteration"
             and r["origin"] == "schedule"]
    assert sched and all(r["schedule"] for r in sched)


def test_resume_continues_the_schedule_frontier(race_program, tmp_path):
    full_log = tmp_path / "full.jsonl"
    with CampaignLog(full_log) as log:
        with Compi(race_program, CFG) as c:
            full = c.run(iterations=12, log=log)

    part_log = tmp_path / "part.jsonl"
    with CampaignLog(part_log) as log:
        with Compi(race_program, CFG) as c:
            c.run(iterations=5, log=log)
    resumed_c = Compi.resume(race_program, part_log)
    assert resumed_c.scheduler.schedules is not None
    with CampaignLog(part_log, mode="a") as log:
        with resumed_c:
            resumed = resumed_c.run(iterations=7, log=log)

    proj = lambda it: [(r.iteration, r.origin, r.schedule, r.error_kind,
                        r.covered_after, r.negated_site)
                       for r in it]
    assert proj(resumed.iterations) == proj(full.iterations)
    assert _bug_kinds(resumed) == _bug_kinds(full)
    assert {b.schedule for b in resumed.bugs} == \
        {b.schedule for b in full.bugs}
    assert resumed.schedules == full.schedules
    # the stitched log equals the uninterrupted one, record for record
    assert _normalized_log(part_log) == _normalized_log(full_log)


def test_pre_schedule_checkpoint_resumes_with_empty_frontier(
        race_program, tmp_path):
    """Checkpoints written before schedule exploration lack the
    "schedules" key; resume must start an empty frontier, not crash."""
    p = tmp_path / "c.jsonl"
    with CampaignLog(p) as log:
        with Compi(race_program, CFG) as c:
            c.run(iterations=3, log=log)
    state = load_checkpoint(p)
    del state["schedules"]  # what an old-version checkpoint looks like
    write_checkpoint(p, state)

    resumed = Compi.resume(race_program, p)
    assert resumed.scheduler.schedules is not None
    assert resumed.scheduler.schedules.frontier_size() == 0
    with resumed:
        result = resumed.run(iterations=2)
    assert len(result.iterations) == 5


def test_bug_log_roundtrips_schedule_and_pending(race_program, tmp_path):
    p = tmp_path / "c.jsonl"
    with CampaignLog(p) as log:
        with Compi(race_program, CFG) as c:
            result = c.run(iterations=12, log=log)
    loaded = load_campaign(p)
    assert {b.schedule for b in loaded["bugs"]} == \
        {b.schedule for b in result.bugs}
    by_kind = {b.kind: b for b in loaded["bugs"]}
    dead = by_kind["deadlock"]
    assert dead.pending_ops == ((0, "Recv(source=1, tag=9)"),)
    # the reloaded testcase is re-pinned: replaying it hits the bug
    rec = TestRunner(race_program,
                     dataclasses.replace(CFG, explore_schedules=False)
                     ).run(dead.testcase)
    assert rec.error is not None and rec.error.kind == "deadlock"


# ----------------------------------------------------------------------
# fleet strategy strings
# ----------------------------------------------------------------------
def test_fleet_schedules_suffix_sets_config():
    from repro.fleet.spec import FleetSpec, FleetSpecError

    spec = FleetSpec.from_dict({
        "fleet": "sweep", "matrix": {"target": ["race"],
                                     "strategy": ["two-phase:schedules"]},
        "shard": {"iterations": 4}})
    shard = spec.expand()[0]
    cfg = shard.to_config()
    assert cfg.explore_schedules is True
    assert cfg.portfolio == ()
    with pytest.raises(FleetSpecError, match="portfolio"):
        FleetSpec.from_dict({
            "fleet": "bad", "matrix": {"target": ["race"],
                                       "strategy": ["portfolio:schedules"]}})
