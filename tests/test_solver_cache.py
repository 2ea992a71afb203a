"""Tests for the solver acceleration subsystem (repro.solvercache):
canonicalization, the two-tier counterexample cache, the speculative
fork view, telemetry, and the campaign-level determinism contract
(cache-on ≡ cache-off for a fixed seed)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.concolic.expr import Constraint, LinearExpr
from repro.core import Compi, CompiConfig
from repro.instrument import instrument_program
from repro.solver import Solver, simplify, solve_incremental
from repro.solver.incremental import SolveSession, _StemFrame
from repro.solvercache import (CacheEntry, CounterexampleCache, SolverStats,
                               canonical_key, canonicalize_model,
                               decanonicalize)

from .golden import GOLDEN, run_golden, solver_counters


def le(coeffs, const):
    return Constraint(LinearExpr(coeffs, const), "<=")


def eq(coeffs, const):
    return Constraint(LinearExpr(coeffs, const), "==")


def ne(coeffs, const):
    return Constraint(LinearExpr(coeffs, const), "!=")


def lt(coeffs, const):
    return Constraint(LinearExpr(coeffs, const), "<")


# ----------------------------------------------------------------------
# canonicalization
# ----------------------------------------------------------------------
def test_canonical_key_invariant_under_renaming_and_order():
    # x + y <= 10, y == 3  with vids {0,1} vs {7,42}, constraints reversed
    k1, _ = canonical_key([le({0: 1, 1: 1}, -10), eq({1: 1}, -3)],
                          {0: (0, 100), 1: (0, 100)}, {1: 3})
    k2, _ = canonical_key([eq({42: 1}, -3), le({7: 1, 42: 1}, -10)],
                          {7: (0, 100), 42: (0, 100)}, {42: 3})
    assert k1 == k2


def test_canonical_key_normalizes_strict_comparisons():
    # x < 5 and x + 1 <= 5 are the same normalized constraint
    k1, _ = canonical_key([lt({0: 1}, -5)], {0: (0, 10)}, {})
    k2, _ = canonical_key([le({0: 1}, -4)], {0: (0, 10)}, {})
    assert k1 == k2


def test_canonical_key_distinguishes_previous_values():
    cons = [le({0: 1}, -10)]
    k1, _ = canonical_key(cons, {0: (0, 100)}, {0: 3})
    k2, _ = canonical_key(cons, {0: (0, 100)}, {0: 4})
    k3, _ = canonical_key(cons, {0: (0, 100)}, {})
    assert len({k1, k2, k3}) == 3


def test_canonical_key_distinguishes_domains():
    cons = [le({0: 1}, -10)]
    k1, _ = canonical_key(cons, {0: (0, 100)}, {})
    k2, _ = canonical_key(cons, {0: (0, 99)}, {})
    assert k1 != k2


def test_model_roundtrip_through_canonical_indices():
    cons = [le({7: 1, 42: 1}, -10)]
    _, order = canonical_key(cons, {7: (0, 100), 42: (0, 100)}, {})
    model = {7: 4, 42: 6}
    assert decanonicalize(canonicalize_model(model, order), order) == model


def test_cached_model_replays_onto_renamed_query():
    """The end-to-end reuse story: canonicalize a model under one set of
    vids, replay it onto a renaming of the same query."""
    cons_a = [le({0: 1, 1: 1}, -10)]
    dom_a = {0: (0, 100), 1: (0, 100)}
    key_a, order_a = canonical_key(cons_a, dom_a, {0: 2, 1: 2})

    cons_b = [le({30: 1, 31: 1}, -10)]
    dom_b = {30: (0, 100), 31: (0, 100)}
    key_b, order_b = canonical_key(cons_b, dom_b, {30: 2, 31: 2})
    assert key_a == key_b
    stored = canonicalize_model({0: 3, 1: 4}, order_a)
    replayed = decanonicalize(stored, order_b)
    assert sorted(replayed.values()) == [3, 4]
    assert set(replayed) == {30, 31}


# ----------------------------------------------------------------------
# cache entries and tiers
# ----------------------------------------------------------------------
def test_cache_entry_json_roundtrip():
    sat = CacheEntry(sat=True, model={0: -3, 2: 17})
    k, back = CacheEntry.from_json(json.loads(sat.to_json("K")))
    assert k == "K" and back == sat
    unsat = CacheEntry(sat=False)
    k, back = CacheEntry.from_json(json.loads(unsat.to_json("U")))
    assert k == "U" and back == unsat


def test_lru_eviction_is_deterministic_and_touch_aware():
    c = CounterexampleCache(capacity=2)
    c.put("a", CacheEntry(sat=False))
    c.put("b", CacheEntry(sat=False))
    c.get("a")                        # refresh: b is now oldest
    c.put("c", CacheEntry(sat=False))
    assert c.get("b") is None and c.get("a") is not None
    assert c.evictions == 1


def test_untouched_get_does_not_refresh_recency():
    c = CounterexampleCache(capacity=2)
    c.put("a", CacheEntry(sat=False))
    c.put("b", CacheEntry(sat=False))
    c.get("a", touch=False)           # a stays oldest
    c.put("c", CacheEntry(sat=False))
    assert c.get("a") is None and c.get("b") is not None


def test_disk_tier_persists_and_reloads(tmp_path):
    path = tmp_path / "cache.jsonl"
    c = CounterexampleCache(capacity=16, path=path)
    c.put("sat-key", CacheEntry(sat=True, model={0: 5}))
    c.put("unsat-key", CacheEntry(sat=False))

    back = CounterexampleCache(capacity=16, path=path)
    assert back.get("sat-key") == CacheEntry(sat=True, model={0: 5})
    assert back.get("unsat-key") == CacheEntry(sat=False)
    assert back.sat_entries == 1 and back.unsat_entries == 1


def test_disk_tier_later_lines_win_and_replaced_entries_reappend(tmp_path):
    path = tmp_path / "cache.jsonl"
    c = CounterexampleCache(capacity=16, path=path)
    c.put("k", CacheEntry(sat=True, model={0: 1}))
    c.put("k", CacheEntry(sat=True, model={0: 2}))   # replaced → re-appended
    c.put("k", CacheEntry(sat=True, model={0: 2}))   # unchanged → no append
    assert len(path.read_text().splitlines()) == 2
    back = CounterexampleCache(capacity=16, path=path)
    assert back.get("k").model == {0: 2}


def test_disk_tier_tolerates_torn_tail(tmp_path):
    path = tmp_path / "cache.jsonl"
    c = CounterexampleCache(capacity=16, path=path)
    c.put("k", CacheEntry(sat=False))
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"k": "torn", "sa')   # crash mid-append
    back = CounterexampleCache(capacity=16, path=path)
    assert back.get("k") is not None and len(back) == 1


def test_disk_tier_rejects_mid_file_corruption(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('garbage\n{"k": "a", "sat": false}\n')
    with pytest.raises(json.JSONDecodeError):
        CounterexampleCache(capacity=16, path=path)


# ----------------------------------------------------------------------
# the fork write-buffer rule
# ----------------------------------------------------------------------
def test_fork_writes_stay_private():
    base = CounterexampleCache(capacity=16)
    base.put("shared", CacheEntry(sat=False))
    view = base.fork()
    view.put("speculative", CacheEntry(sat=True, model={0: 1}))
    assert view.get("speculative") is not None     # visible to the fork
    assert view.get("shared") is not None          # read-through
    assert base.get("speculative") is None         # invisible to base
    assert len(base) == 1


def test_fork_reads_do_not_touch_base_recency():
    base = CounterexampleCache(capacity=2)
    base.put("a", CacheEntry(sat=False))
    base.put("b", CacheEntry(sat=False))
    base.fork().get("a")              # speculative read: a stays oldest
    base.put("c", CacheEntry(sat=False))
    assert base.get("a") is None and base.get("b") is not None


def test_fork_writes_never_reach_disk(tmp_path):
    path = tmp_path / "cache.jsonl"
    base = CounterexampleCache(capacity=16, path=path)
    base.fork().put("spec", CacheEntry(sat=False))
    assert not path.exists() or path.read_text() == ""


# ----------------------------------------------------------------------
# solve_incremental + cache integration
# ----------------------------------------------------------------------
def _query():
    """A small SAT query: x + y <= 10, negate x == 0."""
    return ([le({0: 1, 1: 1}, -10)], ne({0: 1}, 0),
            {0: (0, 100), 1: (0, 100)}, {0: 0, 1: 0})


def test_cache_hit_replays_identical_assignment():
    cache = CounterexampleCache()
    stats = SolverStats()
    cons, neg, dom, prev = _query()
    first = solve_incremental(cons, neg, dom, prev, cache=cache, stats=stats)
    again = solve_incremental(cons, neg, dom, prev, cache=cache, stats=stats)
    assert first is not None and again is not None
    assert not first.cached and again.cached
    assert first.assignment == again.assignment
    assert stats.cache_hits == 1 and stats.cache_misses == 1
    assert stats.stores == 1 and stats.solves == 2


def test_cache_hit_replays_across_renaming():
    cache = CounterexampleCache()
    stats = SolverStats()
    cons, neg, dom, prev = _query()
    solve_incremental(cons, neg, dom, prev, cache=cache, stats=stats)
    # same query over fresh vids {8, 9}
    res = solve_incremental([le({8: 1, 9: 1}, -10)], ne({8: 1}, 0),
                            {8: (0, 100), 9: (0, 100)}, {8: 0, 9: 0},
                            cache=cache, stats=stats)
    assert res is not None and res.cached
    assert stats.cache_hits == 1


def test_unsat_short_circuit():
    cache = CounterexampleCache()
    stats = SolverStats()
    cons, neg = [eq({0: 1}, -5)], ne({0: 1}, -5)
    dom, prev = {0: (0, 10)}, {0: 5}
    assert solve_incremental(cons, neg, dom, prev,
                             cache=cache, stats=stats) is None
    assert solve_incremental(cons, neg, dom, prev,
                             cache=cache, stats=stats) is None
    assert stats.unsat_hits == 1 and stats.cache_misses == 1
    assert cache.unsat_entries == 1


def test_poisoned_sat_entry_degrades_to_miss_and_is_replaced():
    cache = CounterexampleCache()
    stats = SolverStats()
    cons, neg, dom, prev = _query()
    key, order = canonical_key(simplify(list(cons)) + [neg], dom, prev)
    # poison: a "model" violating the negated constraint (x == 0)
    cache.put(key, CacheEntry(sat=True,
                              model=canonicalize_model({0: 0, 1: 0}, order)))
    res = solve_incremental(cons, neg, dom, prev, cache=cache, stats=stats)
    assert res is not None and not res.cached
    assert res.assignment[0] != 0
    assert stats.stale_hits == 1 and stats.cache_misses == 1
    # the fresh verdict replaced the poisoned entry
    replayed = decanonicalize(cache.get(key).model, order)
    assert replayed[0] != 0


def test_node_budget_giveup_is_not_cached_as_unsat():
    cache = CounterexampleCache()
    # an actually-SAT query, but the solver gives up instantly
    cons, neg, dom, prev = _query()
    starved = Solver(node_limit=0)
    assert solve_incremental(cons, neg, dom, prev, solver=starved,
                             cache=cache) is None
    assert len(cache) == 0
    # a real solver later answers SAT — no poisoned UNSAT blocks it
    res = solve_incremental(cons, neg, dom, prev, cache=cache)
    assert res is not None


def test_cache_determinism_same_stream_same_contents():
    def run():
        cache = CounterexampleCache(capacity=4)
        for k in range(8):
            cons = [le({0: 1}, -(10 + k % 5))]
            solve_incremental(cons, ne({0: 1}, 0), {0: (0, 100)}, {0: 0},
                              cache=cache)
        return list(cache._entries)
    assert run() == run()


# ----------------------------------------------------------------------
# SolveSession wiring
# ----------------------------------------------------------------------
def test_session_threads_cache_and_stats():
    session = SolveSession(cache=CounterexampleCache())
    cons, neg, dom, prev = _query()
    a = session.solve(cons, neg, dom, prev)
    b = session.solve(cons, neg, dom, prev)
    assert a.assignment == b.assignment
    assert session.stats.cache_hits == 1
    assert session.stats.solves == 2


def test_session_fork_isolates_cache_and_stats():
    session = SolveSession(cache=CounterexampleCache())
    cons, neg, dom, prev = _query()
    fork = session.fork()
    fork.solve(cons, neg, dom, prev)
    # speculation left no trace in the committed session
    assert len(session.cache) == 0
    assert session.stats.solves == 0
    assert fork.stats.solves == 1
    # the committed stream still has to solve (and store) it itself
    res = session.solve(cons, neg, dom, prev)
    assert res is not None and not res.cached
    assert len(session.cache) == 1


def test_session_without_cache_still_solves():
    session = SolveSession()
    cons, neg, dom, prev = _query()
    res = session.solve(cons, neg, dom, prev)
    assert res is not None and not res.cached
    assert session.stats.cache_misses == 1 and session.stats.hits == 0


# ----------------------------------------------------------------------
# the stem frame's prefix ladder ≡ plain simplify, solve_at ≡ solve
# ----------------------------------------------------------------------
constraint_st = st.builds(
    lambda coeffs, const, op: Constraint(LinearExpr(coeffs, const), op),
    st.dictionaries(st.integers(0, 4), st.integers(-3, 3).filter(bool),
                    min_size=1, max_size=3),
    st.integers(-20, 20),
    st.sampled_from(["<=", "<", "==", "!="]))

#: one step of a prefix sequence: extend appends ``cons``, shrink keeps
#: the first ``n`` constraints, swap keeps the first ``n`` then appends
#: ``cons``; ``negated`` is the step's flipped branch
prefix_step_st = st.tuples(st.sampled_from(["extend", "shrink", "swap"]),
                           st.integers(0, 8),
                           st.lists(constraint_st, min_size=1, max_size=3),
                           constraint_st)


def _prefixes(steps):
    """Yield ``(prefix, negated)`` for each step of a prefix sequence."""
    prefix: list = []
    for op, n, cons, negated in steps:
        if op == "extend":
            prefix = prefix + cons
        elif op == "shrink":
            prefix = prefix[:n]
        else:
            prefix = prefix[:n] + cons
        yield prefix, negated


@settings(max_examples=60, deadline=None)
@given(st.lists(constraint_st, max_size=8),
       st.lists(prefix_step_st, max_size=8))
def test_stem_ladder_matches_plain_simplify(stem, steps):
    """Extending, shrinking and swapping the prefix: every ladder rung
    is a fresh ``simplify`` of ``stem + prefix``."""
    frame = _StemFrame(stem)
    assert frame.context_at([]) == simplify(stem)
    for prefix, _ in _prefixes(steps):
        assert frame.context_at(prefix) == simplify(stem + prefix)


@settings(max_examples=40, deadline=None)
@given(st.lists(constraint_st, max_size=6),
       st.lists(prefix_step_st, min_size=1, max_size=6))
def test_solve_at_matches_solve(stem, steps):
    """``solve_at`` through the ladder and ``solve`` on the concatenated
    context give the same result and the same solver counters, call by
    call."""
    domains = {v: (-30, 30) for v in range(5)}
    previous = {v: 0 for v in range(5)}
    laddered = SolveSession(cache=CounterexampleCache())
    plain = SolveSession(cache=CounterexampleCache())
    frame = laddered.stem(stem)
    for prefix, negated in _prefixes(steps):
        got = laddered.solve_at(frame, prefix, negated, domains, previous)
        want = plain.solve(stem + prefix, negated, domains, previous)
        assert got == want
        assert solver_counters(laddered.stats) == solver_counters(
            plain.stats)


# ----------------------------------------------------------------------
# campaign-level contract: cache-on ≡ cache-off, and resume
# ----------------------------------------------------------------------
def _campaign(solver_cache: bool, iters: int = 25, path=None):
    program = instrument_program(["repro.targets.demo"])
    try:
        cfg = CompiConfig(seed=11, init_nprocs=2, nprocs_cap=4,
                          test_timeout=5.0, solver_cache=solver_cache,
                          solver_cache_path=path)
        compi = Compi(program, cfg)
        try:
            return compi.run(iterations=iters)
        finally:
            compi.close()
    finally:
        program.unload()


def _projection(result):
    return [(r.iteration, r.origin, r.nprocs, r.path_len, r.covered_after,
             r.error_kind) for r in result.iterations]


def test_campaign_cache_on_equals_cache_off():
    """The golden campaigns run with the cache on; switching it off
    must commit the same trajectory.  Only the solver counters differ."""
    program = instrument_program(["repro.targets.demo"])
    try:
        off, (trajectory, _) = run_golden(program, "demo", 0,
                                          solver_cache=False)
    finally:
        program.unload()
    golden_trajectory, on = GOLDEN[("demo", 0)]
    assert trajectory == golden_trajectory
    assert off.solver.hits == 0
    assert on[1] + on[2] > 0            # the cache-on golden did hit ...
    assert on[4] == 0                   # ... and never replayed a stale model


def test_campaign_disk_tier_warms_second_run(tmp_path):
    path = str(tmp_path / "solver_cache.jsonl")
    cold = _campaign(True, iters=15, path=path)
    warm = _campaign(True, iters=15, path=path)
    # identical trajectory (cache contents steer nothing observable) ...
    assert _projection(cold) == _projection(warm)
    assert cold.coverage.branches == warm.coverage.branches
    # ... but the warmed run answers more requests from the cache
    assert warm.solver.hits >= cold.solver.hits
    assert warm.solver.nodes <= cold.solver.nodes
