"""Portfolio search: bandit, shared frontier, and campaign determinism.

The portfolio's crown-jewel claim is that it keeps the staged engine's
determinism contract while multiplexing several strategy arms over one
shared :class:`ExecutionTree` frontier — ``--resume`` ≡ uninterrupted
is asserted here with full per-iteration projections (including the
committed arm attribution), not just final tallies; the golden SUSY
digests (tests/test_baton.py) pin the 4-arm trajectory itself.
"""

import pickle

import numpy as np
import pytest

from repro.concolic.coverage import CoverageMap
from repro.concolic.expr import Constraint, LinearExpr
from repro.concolic.trace import PathEntry
from repro.core import Compi, CompiConfig
from repro.core.persist import CampaignLog, load_campaign
from repro.instrument import instrument_program
from repro.portfolio import (DEFAULT_PORTFOLIO, UcbBandit, canonical_arm,
                             iteration_cost, parse_portfolio)
from repro.search import (BoundedDFS, ExecutionTree, StrategyContext,
                          TwoPhaseDFS)


@pytest.fixture(scope="module")
def demo_program():
    prog = instrument_program(["repro.targets.demo"])
    yield prog
    prog.unload()


@pytest.fixture(scope="module")
def seq_program():
    prog = instrument_program(["repro.targets.seq_demo"])
    yield prog
    prog.unload()


ARMS = ("dfs2", "bounded", "random", "cfg")


def _cfg(**kw):
    base = dict(seed=7, init_nprocs=2, nprocs_cap=4, test_timeout=5.0,
                portfolio=ARMS)
    base.update(kw)
    return CompiConfig(**base)


def _proj(result):
    """Per-iteration projection incl. the commit-order arm attribution."""
    return [(r.iteration, r.origin, r.arm, r.nprocs, r.path_len,
             r.covered_after, r.error_kind, r.negated_site)
            for r in result.iterations]


def _pf_det(pf):
    """The deterministic slice of the portfolio snapshot: everything the
    bandit acts on.  Measured solver seconds are telemetry-only and
    excluded."""
    return {
        "active": pf["active"],
        "exploration": pf["exploration"],
        "arms": [{k: v for k, v in a.items()
                  if k != "solver_time"}
                 for a in pf["arms"]],
    }


def entry(site, outcome):
    c = Constraint(LinearExpr({0: 1}, -site), "<")
    return PathEntry(site, outcome, c if outcome else c.negated())


def path(*pairs):
    return [entry(s, o) for s, o in pairs]


def ctx(p, iteration=0):
    return StrategyContext(path=p, coverage=CoverageMap(),
                           iteration=iteration)


# ----------------------------------------------------------------------
# arm registry
# ----------------------------------------------------------------------
def test_parse_portfolio_aliases_and_separators():
    assert parse_portfolio("dfs2,bounded,random,cfg") == ARMS
    assert parse_portfolio("dfs2+bounded+random+cfg") == ARMS
    assert parse_portfolio("two-phase,random-branch,uniform-random") == \
        ("dfs2", "random", "uniform")
    assert parse_portfolio("") == DEFAULT_PORTFOLIO
    assert parse_portfolio("default") == DEFAULT_PORTFOLIO
    assert parse_portfolio(["dfs", "cfg"]) == ("dfs", "cfg")


def test_parse_portfolio_rejects_unknown_and_duplicates():
    with pytest.raises(ValueError, match="unknown portfolio arm"):
        parse_portfolio("dfs2,quantum")
    with pytest.raises(ValueError, match="duplicate"):
        parse_portfolio("dfs2,two-phase")  # alias of the same arm
    with pytest.raises(ValueError, match="unknown portfolio arm"):
        canonical_arm("nope")


# ----------------------------------------------------------------------
# bandit
# ----------------------------------------------------------------------
def test_bandit_bootstraps_every_arm_in_order():
    b = UcbBandit(("a", "b", "c"), exploration=0.5, seed=1)
    order = []
    for _ in range(3):
        i = b.select()
        order.append(i)
        b.update(i, gain=0, cost=1.0)
    assert order == [0, 1, 2]


def test_bandit_exploits_the_productive_arm():
    b = UcbBandit(("good", "bad"), exploration=0.1, seed=0)
    pulls = [0, 0]
    for _ in range(60):
        i = b.select()
        pulls[i] += 1
        b.update(i, gain=3.0 if i == 0 else 0.0, cost=1.0)
    assert pulls[0] > 4 * pulls[1]


def test_bandit_explores_when_rewards_dry_up():
    """Once no arm gains coverage, the exploration bonus must keep every
    arm in rotation instead of starving all but one."""
    b = UcbBandit(("a", "b", "c"), exploration=0.5, seed=3)
    pulls = [0, 0, 0]
    for _ in range(90):
        i = b.select()
        pulls[i] += 1
        b.update(i, gain=0.0, cost=1.0)
    assert all(p > 10 for p in pulls)


def test_bandit_is_deterministic_and_state_roundtrips():
    def drive(b, n):
        out = []
        for k in range(n):
            i = b.select()
            out.append(i)
            b.update(i, gain=float(k % 3 == 0), cost=1.0 + 0.1 * i)
        return out

    a = UcbBandit(ARMS, exploration=0.5, seed=42)
    b = UcbBandit(ARMS, exploration=0.5, seed=42)
    assert drive(a, 40) == drive(b, 40)

    # pickle-roundtrip the state mid-stream: selections must continue
    # exactly (this is what checkpoint/resume leans on)
    state = pickle.loads(pickle.dumps(a.state_dict()))
    c = UcbBandit(ARMS, exploration=0.5, seed=0)
    c.load_state(state)
    assert drive(a, 25) == drive(c, 25)


def test_bandit_rejects_mismatched_checkpoint():
    a = UcbBandit(("x", "y"))
    with pytest.raises(ValueError, match="does not match"):
        UcbBandit(("x", "z")).load_state(a.state_dict())


def test_iteration_cost_is_deterministic_and_monotone():
    class T:
        def __init__(self, n):
            self.event_count = n

    assert iteration_cost(None) == 1.0
    assert iteration_cost(T(0)) == 1.0
    assert iteration_cost(T(512)) > iteration_cost(T(256)) > 1.0


# ----------------------------------------------------------------------
# shared-frontier ExecutionTree semantics
# ----------------------------------------------------------------------
def test_two_arms_share_explored_state():
    """Interleaved inserts from two arms agree on explored/infeasible."""
    tree = ExecutionTree()
    a = TwoPhaseDFS(rng=np.random.default_rng(0), tree=tree)
    b = BoundedDFS(rng=np.random.default_rng(1), tree=tree)
    assert a.tree is b.tree

    p1 = path((1, True), (2, False))
    a.register_execution(p1)
    b.note_foreign_execution(p1)
    # arm B sees arm A's exploration without inserting again
    assert b.tree.flip_status(p1, 1) == "unexplored"
    assert tree.paths_inserted == 1

    p2 = path((1, True), (2, True))  # B explores the flip of p1[1]
    b.register_execution(p2)
    a.note_foreign_execution(p2)
    assert a.tree.flip_status(p1, 1) == "explored"
    assert b.tree.flip_status(p2, 1) == "explored"
    assert tree.paths_inserted == 2

    # B proposes only still-unexplored flips — position 0 here
    assert list(b.propose(ctx(p1))) == [0]


def test_foreign_execution_updates_bound_observation_only():
    """note_foreign_execution feeds two-phase bound derivation but must
    not double-count tree bookkeeping."""
    tree = ExecutionTree()
    a = TwoPhaseDFS(observe_iterations=0, slack=1.0,
                    rng=np.random.default_rng(0), tree=tree)
    b = BoundedDFS(rng=np.random.default_rng(1), tree=tree)

    long_path = path(*[(i, True) for i in range(1, 8)])
    b.register_execution(long_path)
    a.note_foreign_execution(long_path)
    assert a.max_path_seen == 7
    assert tree.paths_inserted == 1
    # the derived phase-2 bound reflects the sibling's observation
    assert a.current_bound(ctx(path((1, True)), iteration=5)) == 7


def test_infeasibility_is_shared_and_cleared_by_execution():
    """A divergence one arm records steers its sibling too; a later
    execution of that direction (by either arm) rehabilitates it."""
    tree = ExecutionTree()
    a = BoundedDFS(rng=np.random.default_rng(0), tree=tree)
    b = BoundedDFS(rng=np.random.default_rng(1), tree=tree)

    p = path((1, True), (2, True))
    a.register_execution(p)
    a.mark_infeasible(p, 0)  # A's divergence handling
    tree.note_divergence()
    # B skips the flip A proved pointless — no re-derivation
    assert list(b.propose(ctx(p))) == [1]
    assert tree.divergences == 1

    # B later actually executes the "infeasible" direction: feasible
    # after all, and both arms see it as explored
    b.register_execution(path((1, False)))
    assert a.tree.flip_status(p, 0) == "explored"
    assert list(a.propose(ctx(p))) == [1]


def test_divergence_does_not_corrupt_sibling_bookkeeping():
    """One arm's divergence must leave the sibling's arm-local state
    (max_path_seen, RNG) untouched."""
    tree = ExecutionTree()
    a = BoundedDFS(rng=np.random.default_rng(0), tree=tree)
    b = TwoPhaseDFS(rng=np.random.default_rng(1), tree=tree)
    b.register_execution(path((1, True), (2, True), (3, True)))
    before = b.max_path_seen

    p = path((9, True))
    a.register_execution(p)
    a.mark_infeasible(p, 0)
    tree.note_divergence()
    assert b.max_path_seen == before
    assert tree.divergences == 1
    # sibling's own frontier view includes both executions
    assert tree.paths_inserted == 2


# ----------------------------------------------------------------------
# portfolio campaigns: construction + telemetry
# ----------------------------------------------------------------------
def test_explicit_strategy_and_portfolio_are_mutually_exclusive(
        demo_program):
    with pytest.raises(ValueError, match="not both"):
        Compi(demo_program, _cfg(),
              strategy=BoundedDFS(rng=np.random.default_rng(0)))


def test_portfolio_campaign_attributes_every_iteration(seq_program):
    with Compi(seq_program, _cfg()) as c:
        result = c.run(iterations=24)
    arms = [r.arm for r in result.iterations]
    assert all(a in ARMS for a in arms)
    # bootstrap guarantees every arm at least one committed iteration
    assert set(arms) == set(ARMS)

    pf = result.portfolio
    assert pf is not None
    assert [a["name"] for a in pf["arms"]] == list(ARMS)
    assert sum(a["pulls"] for a in pf["arms"]) == 24
    assert abs(sum(a["share"] for a in pf["arms"]) - 1.0) < 0.01
    for a in pf["arms"]:
        assert a["coverage_gained"] >= 0
        assert a["cost"] > 0 if a["pulls"] else a["cost"] == 0
        assert "solver_time" in a and "solver_solves" in a
        assert "ucb_score" in a and "restarts" in a


def test_portfolio_telemetry_reaches_log_and_report(seq_program, tmp_path):
    from repro.core.report import campaign_summary

    p = tmp_path / "c.jsonl"
    with Compi(seq_program, _cfg()) as c:
        with CampaignLog(p) as log:
            result = c.run(iterations=12, log=log)
    data = load_campaign(p)
    assert data["portfolio"] is not None
    assert [a["name"] for a in data["portfolio"]["arms"]] == list(ARMS)
    text = campaign_summary(result)
    assert "portfolio" in text
    for arm in ARMS:
        assert f"arm[{arm}]" in text


def test_single_strategy_campaign_has_no_portfolio_telemetry(seq_program):
    with Compi(seq_program, _cfg(portfolio=())) as c:
        result = c.run(iterations=4)
    assert result.portfolio is None
    assert all(r.arm == "" for r in result.iterations)


# ----------------------------------------------------------------------
# portfolio campaigns: the determinism contract
# ----------------------------------------------------------------------
def test_portfolio_resume_equals_uninterrupted(seq_program, tmp_path):
    """Kill after 5, resume for 7: identical committed stream, identical
    per-arm telemetry — arm state restores bit-for-bit."""
    full_log = tmp_path / "full.jsonl"
    with Compi(seq_program, _cfg()) as c:
        with CampaignLog(full_log) as log:
            full = c.run(iterations=12, log=log)

    part_log = tmp_path / "part.jsonl"
    with Compi(seq_program, _cfg()) as c:
        with CampaignLog(part_log) as log:
            c.run(iterations=5, log=log)

    resumed_c = Compi.resume(seq_program, part_log)
    assert resumed_c._iteration == 5
    with resumed_c:
        with CampaignLog(part_log, mode="a") as log:
            resumed = resumed_c.run(iterations=7, log=log)

    assert _proj(resumed) == _proj(full)
    assert resumed.coverage.branches == full.coverage.branches
    assert _pf_det(resumed.portfolio) == _pf_det(full.portfolio)


@pytest.mark.parametrize("with_static_data", [False, True],
                         ids=["current", "static-data-pickled"])
def test_cfg_arm_resumes_without_pickled_static_data(seq_program, tmp_path,
                                                     monkeypatch,
                                                     with_static_data):
    """The cfg arm's checkpoint leaves out the site registry and graph;
    ``load_state`` re-attaches them from the live program.  A checkpoint
    that still carries them (as they were once pickled) resumes exactly
    too.  Seed 1 pulls the cfg arm after the resume point."""
    from repro.core.persist import checkpoint_path
    from repro.search import CfgDirectedSearch

    with Compi(seq_program, _cfg(seed=1)) as c:
        full = c.run(iterations=12)

    part_log = tmp_path / "part.jsonl"
    with monkeypatch.context() as m:
        if with_static_data:
            m.delattr(CfgDirectedSearch, "__getstate__")
        with Compi(seq_program, _cfg(seed=1)) as c, CampaignLog(part_log) as log:
            c.run(iterations=5, log=log)
    raw = checkpoint_path(part_log).read_bytes()
    assert (b"SiteRegistry" in raw) == with_static_data
    assert (b"SiteGraph" in raw) == with_static_data

    with Compi.resume(seq_program, part_log) as resumed_c, \
            CampaignLog(part_log, mode="a") as log:
        (cfg_arm,) = [a for a in resumed_c.scheduler.arms if a.name == "cfg"]
        assert cfg_arm.scheduler.strategy.registry is seq_program.registry
        resumed = resumed_c.run(iterations=7, log=log)

    assert "cfg" in [r.arm for r in resumed.iterations[5:]]
    assert _proj(resumed) == _proj(full)
    assert resumed.coverage.branches == full.coverage.branches
    assert _pf_det(resumed.portfolio) == _pf_det(full.portfolio)


def test_portfolio_degraded_jsonl_resume_still_runs(seq_program, tmp_path):
    """Without the checkpoint sidecar the portfolio campaign still
    resumes from the JSONL log (fresh arm state, resume-origin next)."""
    from repro.core.persist import checkpoint_path

    p = tmp_path / "c.jsonl"
    with Compi(seq_program, _cfg()) as c:
        first = c.run(iterations=6, log=None)
    with Compi(seq_program, _cfg()) as c:
        with CampaignLog(p) as log:
            c.run(iterations=6, log=log)
    checkpoint_path(p).unlink()

    resumed = Compi.resume(seq_program, p)
    assert resumed._iteration == 6
    assert resumed.coverage.covered_branches == \
        first.coverage.covered_branches
    result = resumed.run(iterations=2)
    assert result.iterations[-2].origin == "resume"
    assert result.iterations[-2].arm in ARMS


# ----------------------------------------------------------------------
# CLI + fleet plumbing
# ----------------------------------------------------------------------
def test_cli_maps_portfolio_flag():
    import argparse

    from repro.__main__ import build_config

    ns = argparse.Namespace(
        seed=3, nprocs=2, nprocs_cap=4, test_timeout=5.0,
        no_reduction=False, one_way=False, no_framework=False,
        portfolio="dfs2,random", portfolio_exploration=0.7)
    cfg = build_config(ns)
    assert cfg.portfolio == ("dfs2", "random")
    assert cfg.portfolio_exploration == 0.7

    ns.portfolio = "dfs2,bogus"
    with pytest.raises(SystemExit, match="unknown portfolio arm"):
        build_config(ns)


def test_fleet_spec_accepts_portfolio_strategies():
    from repro.fleet.spec import (FleetSpec, FleetSpecError, ShardSpec,
                                  build_strategy)

    spec = FleetSpec.from_dict({
        "fleet": "pf", "seed": 1,
        "matrix": {"target": ["demo"],
                   "strategy": ["two-phase",
                                "portfolio:dfs2+bounded+random+cfg"]},
        "shard": {"iterations": 5},
    })
    shards = spec.expand()
    assert len(shards) == 2
    pf_shard = [s for s in shards if s.strategy.startswith("portfolio")][0]
    cfg = pf_shard.to_config()
    assert cfg.portfolio == ARMS
    # Compi builds the arms from config — the fleet passes no strategy
    assert build_strategy(pf_shard.strategy, cfg, program=None) is None
    # bare "portfolio" means the default mix
    assert ShardSpec(target="demo", strategy="portfolio", nprocs=2,
                     seed=0, fault_seed=0).to_config().portfolio == \
        DEFAULT_PORTFOLIO
    with pytest.raises(FleetSpecError, match="unknown portfolio arm"):
        FleetSpec.from_dict({
            "fleet": "pf", "matrix": {"target": ["demo"],
                                      "strategy": ["portfolio:warp"]}})


def test_fleet_coverage_union_across_shards():
    from repro.fleet.results import FleetReport, ShardReport

    def shard(sid, target, pairs, status="shard-done", has_log=True):
        return ShardReport(shard_id=sid, target=target, strategy="two-phase",
                           nprocs=2, status=status, covered=len(pairs),
                           cov_branches=tuple(sorted(pairs)),
                           has_log=has_log)

    report = FleetReport(fleet="pf", shards=(
        shard("a", "demo", [(1, 0), (1, 1), (2, 0)]),
        shard("b", "demo", [(2, 0), (2, 1)]),
        shard("c", "demo", [(9, 1)], status="shard-pending", has_log=False),
        shard("d", "seq_demo", [(3, 0)]),
    ))
    union = report.coverage_union()
    # union merges done shards per target; pending contributes nothing
    assert union["demo"] == ((1, 0), (1, 1), (2, 0), (2, 1))
    assert union["seq_demo"] == ((3, 0),)
    rows = {r[0]: r for r in report.coverage_rows()}
    assert rows["demo"] == ["demo", 2, 4, 3, 1]  # union 4, best 3 → +1
    assert report.as_dict()["coverage_union"] == {"demo": 4, "seq_demo": 1}

    from repro.fleet.results import report_text
    text = report_text(report, with_coverage=True)
    assert "coverage union across shards" in text
    assert "headroom" in text
    # without the flag the classic report is unchanged
    assert "coverage union" not in report_text(report)
