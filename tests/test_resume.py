"""Crash-safe persistence: log modes, torn tails, checkpointed resume."""

import dataclasses
import json
import sys
import types
from collections import OrderedDict

import numpy as np
import pytest

from repro.core import Compi, CompiConfig
from repro.core.persist import (CampaignLog, checkpoint_path, load_campaign,
                                load_checkpoint, read_records,
                                write_checkpoint)
from repro.instrument import instrument_program
from repro.search import CfgDirectedSearch
from repro.solver import SolverStats

from .golden import solver_counters


@pytest.fixture(scope="module")
def seq_program():
    prog = instrument_program(["repro.targets.seq_demo"])
    yield prog
    prog.unload()


CFG = CompiConfig(seed=3, init_nprocs=2, nprocs_cap=4, test_timeout=5.0)


def _keys(result):
    return {b.dedup_key for b in result.bugs}


# ----------------------------------------------------------------------
# CampaignLog modes
# ----------------------------------------------------------------------
def test_log_refuses_to_clobber_by_default(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"type": "meta"}\n')
    with pytest.raises(FileExistsError, match="already exists"):
        with CampaignLog(p):
            pass
    assert p.read_text() == '{"type": "meta"}\n'  # untouched


def test_log_mode_w_overwrites_and_a_appends(tmp_path):
    p = tmp_path / "c.jsonl"
    with CampaignLog(p, mode="w") as log:
        log._write({"type": "x", "n": 1})
    with CampaignLog(p, mode="a") as log:
        log._write({"type": "x", "n": 2})
    assert [r["n"] for r in read_records(p)] == [1, 2]
    with CampaignLog(p, mode="w") as log:
        log._write({"type": "x", "n": 3})
    assert [r["n"] for r in read_records(p)] == [3]


def test_log_rejects_bad_mode(tmp_path):
    with pytest.raises(ValueError, match="mode"):
        CampaignLog(tmp_path / "c.jsonl", mode="r")


def test_log_offset_counts_the_bytes_on_disk(tmp_path):
    p = tmp_path / "c.jsonl"
    with CampaignLog(p) as log:
        assert log.offset == 0
        log._write({"type": "x", "s": "caf\u00e9"})
        assert log.offset == p.stat().st_size
    with CampaignLog(p, mode="a") as log:
        assert log.offset == p.stat().st_size
        log._write({"type": "x", "n": 2})
        assert log.offset == p.stat().st_size


# ----------------------------------------------------------------------
# torn-tail tolerance
# ----------------------------------------------------------------------
def test_truncated_final_line_is_skipped(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"type": "meta", "program": "x", "config": {}, '
                 '"total_branches": 1}\n'
                 '{"type": "iteration", "iteration": 0, "origin"')
    records = list(read_records(p))
    assert len(records) == 1 and records[0]["type"] == "meta"


def test_corruption_in_the_middle_still_raises(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"type": "meta"\n{"type": "coverage"}\n')
    with pytest.raises(json.JSONDecodeError):
        list(read_records(p))


def test_checkpoint_roundtrip_and_damage_tolerance(tmp_path):
    p = tmp_path / "c.jsonl"
    write_checkpoint(p, {"iteration": 7, "caps": {"x": 3}})
    assert load_checkpoint(p) == {"iteration": 7, "caps": {"x": 3}}
    checkpoint_path(p).write_bytes(b"\x80garbage")
    assert load_checkpoint(p) is None  # damaged sidecar, not an exception
    assert load_checkpoint(tmp_path / "absent.jsonl") is None


# ----------------------------------------------------------------------
# resume semantics
# ----------------------------------------------------------------------
def test_resume_matches_uninterrupted_run(seq_program, tmp_path):
    """Kill after 5 iterations, resume for 7: same coverage, same bugs,
    same iteration projections as 12 straight iterations."""
    full_log = tmp_path / "full.jsonl"
    with CampaignLog(full_log) as log:
        full = Compi(seq_program, CFG).run(iterations=12, log=log)

    part_log = tmp_path / "part.jsonl"
    with CampaignLog(part_log) as log:
        Compi(seq_program, CFG).run(iterations=5, log=log)

    resumed_c = Compi.resume(seq_program, part_log)
    assert resumed_c._iteration == 5
    with CampaignLog(part_log, mode="a") as log:
        resumed = resumed_c.run(iterations=7, log=log)

    assert resumed.coverage.branches == full.coverage.branches
    assert _keys(resumed) == _keys(full)
    assert len(resumed.iterations) == 12
    proj = lambda it: [(r.iteration, r.origin, r.nprocs, r.path_len,
                        r.covered_after, r.error_kind, r.negated_site)
                       for r in it]
    assert proj(resumed.iterations) == proj(full.iterations)
    # the appended log reloads as one coherent 12-iteration campaign
    data = load_campaign(part_log)
    assert len(data["iterations"]) == 12
    assert data["cov_branches"] == full.coverage.branches


def test_resume_without_checkpoint_falls_back_to_jsonl(seq_program, tmp_path):
    p = tmp_path / "c.jsonl"
    with CampaignLog(p) as log:
        first = Compi(seq_program, CFG).run(iterations=6, log=log)
    checkpoint_path(p).unlink()

    resumed = Compi.resume(seq_program, p)
    # coverage, bugs and counters survive via the JSONL cov deltas
    assert resumed.coverage.branches == first.coverage.branches
    assert {b.dedup_key for b in resumed.bugs} == _keys(first)
    assert resumed._iteration == 6
    result = resumed.run(iterations=2)
    assert len(result.iterations) == 8


def test_jsonl_fallback_resume_is_not_a_restart(seq_program, tmp_path):
    """The degraded resume synthesizes a continuation test case: it must
    not inflate the restart counter or clear infeasible verdicts the way
    a genuine mid-campaign restart does."""
    p = tmp_path / "c.jsonl"
    with CampaignLog(p) as log:
        Compi(seq_program, CFG).run(iterations=6, log=log)
    checkpoint_path(p).unlink()

    resumed = Compi.resume(seq_program, p)
    assert resumed._restarts == 0
    assert resumed._next.origin == "resume"
    # the synthesized continuation is runnable
    result = resumed.run(iterations=1)
    assert result.iterations[-1].origin == "resume"


def test_resume_tolerates_torn_tail(seq_program, tmp_path):
    p = tmp_path / "c.jsonl"
    with CampaignLog(p) as log:
        Compi(seq_program, CFG).run(iterations=4, log=log)
    checkpoint_path(p).unlink()
    raw = p.read_bytes()
    p.write_bytes(raw[:-15])  # crash mid-record

    resumed = Compi.resume(seq_program, p)
    assert resumed._iteration >= 3
    assert resumed.coverage.covered_branches > 0


def test_pre_portfolio_checkpoint_defaults_to_single_arm(seq_program,
                                                         tmp_path):
    """Checkpoints written before the portfolio subsystem have no
    "portfolio" key; resume must fall back to a single-arm campaign
    (like the pre-cache tolerance) even when the requested config asks
    for a portfolio — there is no arm state to restore."""
    from repro.engine import Scheduler

    p = tmp_path / "c.jsonl"
    with CampaignLog(p) as log:
        Compi(seq_program, CFG).run(iterations=4, log=log)
    state = load_checkpoint(p)
    del state["portfolio"]  # what an old-version checkpoint looks like
    write_checkpoint(p, state)

    wants_portfolio = CFG.with_(portfolio=("dfs2", "bounded"))
    resumed = Compi.resume(seq_program, p, config=wants_portfolio)
    assert resumed.config.portfolio == ()
    assert type(resumed.scheduler) is Scheduler
    assert resumed._iteration == 4
    result = resumed.run(iterations=2)
    assert len(result.iterations) == 6
    assert all(r.arm == "" for r in result.iterations)
    assert result.portfolio is None


def _retired_class(module: str, name: str) -> type:
    """A stand-in for a class of a deleted module: instances pickle
    under ``module.name``, as the real class's did."""
    cls = type(name, (), {})
    cls.__module__ = module
    return cls


def test_checkpoint_naming_retired_cache_classes_resumes_exactly(
        seq_program, tmp_path, monkeypatch, capsys):
    """Checkpoints written while the solver had a counterexample cache
    pickle ``repro.solvercache.*`` classes: the cache, its entries and
    the session's SolverStats.  They still resume through the checkpoint,
    not the JSONL fallback, and continue bit-for-bit."""
    full = Compi(seq_program, CFG).run(iterations=12)

    p = tmp_path / "part.jsonl"
    with CampaignLog(p) as log:
        Compi(seq_program, CFG).run(iterations=5, log=log)
    state = load_checkpoint(p)
    with monkeypatch.context() as m:
        modules = {}
        for name in ("repro.solvercache", "repro.solvercache.cache",
                     "repro.solvercache.telemetry"):
            modules[name] = types.ModuleType(name)
            m.setitem(sys.modules, name, modules[name])
        cache_mod = modules["repro.solvercache.cache"]
        stats_mod = modules["repro.solvercache.telemetry"]
        cache_mod.CounterexampleCache = _retired_class(
            cache_mod.__name__, "CounterexampleCache")
        cache_mod.CacheEntry = _retired_class(cache_mod.__name__,
                                              "CacheEntry")
        stats_mod.SolverStats = _retired_class(stats_mod.__name__,
                                               "SolverStats")
        entry = cache_mod.CacheEntry()
        entry.__dict__.update(sat=True, model={0: 1})
        cache = cache_mod.CounterexampleCache()
        cache.__dict__.update(capacity=4096, path=None, evictions=0,
                              _entries=OrderedDict(k=entry))
        stats = stats_mod.SolverStats()
        stats.__dict__.update(dataclasses.asdict(state["solver_stats"]),
                              cache_hits=3, unsat_hits=2, cache_misses=1,
                              stale_hits=0, stores=1)
        state["solver_cache"] = cache
        state["solver_stats"] = stats
        write_checkpoint(p, state)
    raw = checkpoint_path(p).read_bytes()
    assert b"repro.solvercache.cache" in raw
    assert b"repro.solvercache.telemetry" in raw

    def no_fallback(path):
        raise AssertionError("resume took the JSONL fallback")
    monkeypatch.setattr("repro.core.persist.load_campaign", no_fallback)
    resumed_c = Compi.resume(seq_program, p)
    assert capsys.readouterr().err == ""
    assert resumed_c._iteration == 5
    restored = resumed_c.solver_stats
    assert type(restored) is SolverStats
    assert set(vars(restored)) == \
        {f.name for f in dataclasses.fields(SolverStats)}
    with CampaignLog(p, mode="a") as log:
        resumed = resumed_c.run(iterations=7, log=log)

    proj = lambda it: [(r.iteration, r.origin, r.nprocs, r.path_len,
                        r.covered_after, r.error_kind, r.negated_site)
                       for r in it]
    assert proj(resumed.iterations) == proj(full.iterations)
    assert resumed.coverage.branches == full.coverage.branches
    assert _keys(resumed) == _keys(full)
    assert solver_counters(resumed.solver) == solver_counters(full.solver)


def test_unreadable_checkpoint_is_reported_before_fallback(seq_program,
                                                          tmp_path, capsys):
    p = tmp_path / "c.jsonl"
    with CampaignLog(p) as log:
        Compi(seq_program, CFG).run(iterations=4, log=log)
    sidecar = checkpoint_path(p)
    sidecar.write_bytes(sidecar.read_bytes()[:200])  # truncated sidecar

    resumed = Compi.resume(seq_program, p)
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert str(sidecar) in err[0] and "Error" in err[0]
    assert resumed._iteration == 4       # restored from the JSONL log
    assert resumed._next.origin == "resume"


class Killed(Exception):
    """Stands in for a kill that lands inside ``write_checkpoint``."""


def _stream(path):
    """A log's committed-iteration records, minus wall-clock fields."""
    return [{k: v for k, v in rec.items() if k not in ("wall_time", "elapsed")}
            for rec in read_records(path)
            if rec["type"] in ("iteration", "cov", "bug", "quarantine")]


def test_kill_between_log_and_checkpoint_logs_each_iteration_once(
        seq_program, tmp_path, monkeypatch):
    """The collector writes an iteration's records before its checkpoint.
    A kill between the two leaves the log one iteration ahead; resume
    must drop that iteration's records before running it again."""
    full_log = tmp_path / "full.jsonl"
    with CampaignLog(full_log) as log:
        Compi(seq_program, CFG).run(iterations=12, log=log)

    write = write_checkpoint
    calls = []

    def dies_at_fifth(path, state):
        calls.append(state["iteration"])
        if len(calls) == 5:
            raise Killed
        return write(path, state)

    p = tmp_path / "part.jsonl"
    with monkeypatch.context() as m:
        m.setattr("repro.core.persist.write_checkpoint", dies_at_fifth)
        with pytest.raises(Killed), CampaignLog(p) as log:
            Compi(seq_program, CFG).run(iterations=12, log=log)
    assert [r["iteration"] for r in read_records(p)
            if r["type"] == "iteration"] == [0, 1, 2, 3, 4]

    resumed_c = Compi.resume(seq_program, p)
    assert resumed_c._iteration == 4
    with CampaignLog(p, mode="a") as log:
        resumed_c.run(iterations=8, log=log)

    indices = [r["iteration"] for r in read_records(p)
               if r["type"] == "iteration"]
    assert indices == list(range(12))
    assert _stream(p) == _stream(full_log)


def test_log_shorter_than_its_checkpoint_is_refused(seq_program, tmp_path,
                                                   capsys):
    """A log that lost a tail the checkpoint counted cannot be continued
    from that checkpoint: resume says so once and uses the JSONL log."""
    p = tmp_path / "c.jsonl"
    with CampaignLog(p) as log:
        Compi(seq_program, CFG).run(iterations=6, log=log)
    lines = p.read_bytes().splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines)
               if json.loads(line)["type"] == "iteration")
    p.write_bytes(b"".join(lines[:last]))  # iteration 5 and after lost

    resumed = Compi.resume(seq_program, p)
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert str(checkpoint_path(p)) in err[0] and "JSONL" in err[0]
    assert resumed._iteration == 5
    assert resumed._next.origin == "resume"


def test_resume_keeps_summary_records_and_drops_a_torn_tail(seq_program,
                                                           tmp_path):
    """Past the last checkpoint a finished campaign holds its summary
    records; they stay.  A torn final line goes, so appended records
    start on a line of their own."""
    p = tmp_path / "c.jsonl"
    with CampaignLog(p) as log:
        Compi(seq_program, CFG).run(iterations=4, log=log)
    finished = p.read_bytes()
    with p.open("ab") as fh:
        fh.write(b'{"arm": "", "covered_af')

    resumed_c = Compi.resume(seq_program, p)
    assert resumed_c._iteration == 4
    assert p.read_bytes() == finished
    with CampaignLog(p, mode="a") as log:
        resumed_c.run(iterations=2, log=log)
    data = load_campaign(p)
    assert [r.iteration for r in data["iterations"]] == list(range(6))


def _cfg_campaign(program):
    return Compi(program, CFG, strategy=CfgDirectedSearch(
        program.registry, rng=np.random.default_rng(11)))


@pytest.mark.parametrize("with_static_data", [False, True],
                         ids=["current", "static-data-pickled"])
def test_cfg_campaign_resumes_exactly(seq_program, tmp_path, monkeypatch,
                                      with_static_data):
    """A single-strategy CFG campaign: its checkpoint leaves out the site
    registry and graph, and resume re-attaches them from the program.
    A checkpoint that still carries them (as they were once pickled)
    resumes exactly too."""
    full = _cfg_campaign(seq_program).run(iterations=12)

    p = tmp_path / "part.jsonl"
    with monkeypatch.context() as m:
        if with_static_data:
            m.delattr(CfgDirectedSearch, "__getstate__")
        with CampaignLog(p) as log:
            _cfg_campaign(seq_program).run(iterations=5, log=log)
    raw = checkpoint_path(p).read_bytes()
    assert (b"SiteRegistry" in raw) == with_static_data
    assert (b"SiteGraph" in raw) == with_static_data

    resumed_c = Compi.resume(seq_program, p)
    assert type(resumed_c.strategy) is CfgDirectedSearch
    assert resumed_c.strategy.registry is seq_program.registry
    with CampaignLog(p, mode="a") as log:
        resumed = resumed_c.run(iterations=7, log=log)

    proj = lambda it: [(r.iteration, r.origin, r.nprocs, r.path_len,
                        r.covered_after, r.error_kind, r.negated_site)
                       for r in it]
    assert proj(resumed.iterations) == proj(full.iterations)
    assert resumed.coverage.branches == full.coverage.branches
    assert _keys(resumed) == _keys(full)
    assert solver_counters(resumed.solver) == solver_counters(full.solver)


def test_streamed_log_equals_batch_save(seq_program, tmp_path):
    """The incremental writer and save_campaign agree on content."""
    from repro.core.persist import save_campaign

    streamed = tmp_path / "s.jsonl"
    with CampaignLog(streamed) as log:
        result = Compi(seq_program, CFG).run(iterations=5, log=log)
    batch = save_campaign(result, tmp_path / "b.jsonl", config=CFG)

    a, b = load_campaign(streamed), load_campaign(batch)
    assert a["meta"] == b["meta"]
    assert [r.iteration for r in a["iterations"]] == \
        [r.iteration for r in b["iterations"]]
    assert {x.dedup_key for x in a["bugs"]} == {x.dedup_key for x in b["bugs"]}
    assert a["coverage"]["branches"] == b["coverage"]["branches"]
