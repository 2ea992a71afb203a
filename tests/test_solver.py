"""Tests for interval propagation, the backtracking solver, incremental
solving (previous-value preference, dependency slicing), the solve
session's stem ladder, and an exhaustive-enumeration SAT/UNSAT oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.concolic.expr import Constraint, LinearExpr
from repro.solver import (Problem, Solver, check_assignment, dependent_slice,
                          propagate, simplify, solve_incremental)
from repro.solver.incremental import SolveSession, _StemFrame

from .golden import solver_counters


def le(coeffs, const):
    """sum(coeffs*x) + const <= 0"""
    return Constraint(LinearExpr(coeffs, const), "<=")


def eq(coeffs, const):
    return Constraint(LinearExpr(coeffs, const), "==")


def ne(coeffs, const):
    return Constraint(LinearExpr(coeffs, const), "!=")


def lt(coeffs, const):
    return Constraint(LinearExpr(coeffs, const), "<")


# ----------------------------------------------------------------------
# propagation
# ----------------------------------------------------------------------
def test_propagate_tightens_upper_bound():
    box = {0: (-100, 100)}
    assert propagate([le({0: 1}, -10)], box)      # x - 10 <= 0
    assert box[0] == (-100, 10)


def test_propagate_tightens_lower_bound_with_negative_coeff():
    box = {0: (-100, 100)}
    assert propagate([le({0: -1}, 5)], box)       # -x + 5 <= 0 → x >= 5
    assert box[0] == (5, 100)


def test_propagate_equality_collapses():
    box = {0: (-100, 100)}
    assert propagate([eq({0: 1}, -42)], box)      # x == 42
    assert box[0] == (42, 42)


def test_propagate_detects_unsat():
    box = {0: (0, 10)}
    assert not propagate([le({0: -1}, 50)], box)  # x >= 50 with x <= 10


def test_propagate_chains_through_shared_vars():
    # x == y, y == 7
    box = {0: (-100, 100), 1: (-100, 100)}
    assert propagate([eq({0: 1, 1: -1}, 0), eq({1: 1}, -7)], box)
    assert box[0] == (7, 7) and box[1] == (7, 7)


def test_propagate_integer_division_rounds_correctly():
    box = {0: (-100, 100)}
    assert propagate([le({0: 2}, -7)], box)       # 2x <= 7 → x <= 3
    assert box[0][1] == 3
    box = {0: (-100, 100)}
    assert propagate([le({0: -2}, 7)], box)       # -2x + 7 <= 0 → x >= 3.5 → 4
    assert box[0][0] == 4


# ----------------------------------------------------------------------
# solver
# ----------------------------------------------------------------------
def test_solver_simple_sat():
    p = Problem(constraints=[lt({0: 1}, -100)],      # x < 100
                domains={0: (-1000, 1000)})
    model = Solver().solve(p)
    assert model is not None and model[0] < 100


def test_solver_prefers_previous_value():
    p = Problem(constraints=[lt({0: 1}, -100)],
                domains={0: (-1000, 1000)}, previous={0: 57})
    model = Solver().solve(p)
    assert model == {0: 57}


def test_solver_moves_off_previous_only_when_forced():
    # x != 57 forces a change; y keeps its previous value
    p = Problem(constraints=[ne({0: 1}, -57), le({1: 1}, -10)],
                domains={0: (0, 100), 1: (0, 10)},
                previous={0: 57, 1: 3})
    model = Solver().solve(p)
    assert model[0] != 57
    assert model[1] == 3


def test_solver_equality_chain():
    # x0 == x1 == x2 == 5  (like the rw equality constraints)
    p = Problem(constraints=[eq({0: 1, 1: -1}, 0), eq({1: 1, 2: -1}, 0),
                             eq({2: 1}, -5)],
                domains={v: (0, 100) for v in range(3)})
    model = Solver().solve(p)
    assert model == {0: 5, 1: 5, 2: 5}


def test_solver_unsat_returns_none():
    p = Problem(constraints=[le({0: 1}, -5), le({0: -1}, 10)],  # x<=5, x>=10
                domains={0: (-100, 100)})
    assert Solver().solve(p) is None


def test_solver_disequality_with_collapsed_domain_unsat():
    p = Problem(constraints=[eq({0: 1}, -5), ne({0: 1}, -5)],
                domains={0: (-100, 100)})
    assert Solver().solve(p) is None


def test_solver_mpi_semantics_shape():
    """rank/size shape: x0=x1, z0=z1, x0<z0, 0<=x0, 1<=z0<=16, negate x0=0."""
    constraints = [
        eq({0: 1, 1: -1}, 0),          # x0 == x1
        eq({2: 1, 3: -1}, 0),          # z0 == z1
        lt({0: 1, 2: -1}, 0),          # x0 < z0
        ne({0: 1}, 0),                 # negated: x0 != 0
    ]
    p = Problem(constraints=constraints,
                domains={0: (0, 15), 1: (0, 15), 2: (1, 16), 3: (1, 16)},
                previous={0: 0, 1: 0, 2: 8, 3: 8})
    model = Solver().solve(p)
    assert model is not None
    assert model[0] == model[1] != 0
    assert model[2] == model[3]
    assert model[0] < model[2]


def test_solver_requires_domains_for_all_constraint_vars():
    p = Problem(constraints=[le({7: 1}, 0)], domains={})
    with pytest.raises(KeyError):
        Solver().solve(p)


def test_solver_node_limit_gives_up_cleanly():
    # a dense, hard instance with a tiny node budget
    constraints = [ne({v: 1, (v + 1) % 6: -1}, 0) for v in range(6)]
    p = Problem(constraints=constraints, domains={v: (0, 1) for v in range(6)})
    s = Solver(node_limit=1)
    assert s.solve(p) is None  # odd cycle over {0,1} is UNSAT anyway
    assert s.stats.nodes >= 1


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(
        st.dictionaries(st.integers(0, 3), st.integers(-4, 4), min_size=1, max_size=3),
        st.integers(-20, 20),
        st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
    ),
    max_size=5,
))
def test_solver_models_always_verify(specs):
    """Soundness: any model the solver returns satisfies every constraint."""
    constraints = [Constraint(LinearExpr(c, k), op) for c, k, op in specs]
    domains = {v: (-50, 50) for v in range(4)}
    model = Solver(rng=np.random.default_rng(1)).solve(
        Problem(constraints=constraints, domains=domains))
    if model is not None:
        assert check_assignment(constraints, model)
        assert set(model) == set(domains)


@settings(max_examples=40, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30))
def test_solver_finds_known_solution(a, b):
    """Completeness on easy instances: x == a, y == b is always found."""
    p = Problem(constraints=[eq({0: 1}, -a), eq({1: 1}, -b)],
                domains={0: (-50, 50), 1: (-50, 50)})
    assert Solver().solve(p) == {0: a, 1: b}


# ----------------------------------------------------------------------
# dependency slicing / incremental solving
# ----------------------------------------------------------------------
def test_dependent_slice_transitive_closure():
    cs = [le({0: 1, 1: 1}, 0),   # shares 0 → in
          le({1: 1, 2: 1}, 0),   # shares 1 transitively → in
          le({5: 1}, 0)]         # disjoint → out
    sliced, closed = dependent_slice(cs, frozenset({0}))
    assert sliced == cs[:2]
    assert closed == frozenset({0, 1, 2})


def test_dependent_slice_empty_seed():
    cs = [le({0: 1}, 0)]
    sliced, closed = dependent_slice(cs, frozenset())
    assert sliced == [] and closed == frozenset()


def test_dependent_slice_fully_disconnected():
    # every constraint disjoint from the seed and from each other
    cs = [le({1: 1}, 0), le({2: 1}, 0), le({3: 1}, 0)]
    sliced, closed = dependent_slice(cs, frozenset({0}))
    assert sliced == []
    assert closed == frozenset({0})    # the seed var alone stays closed


def test_dependent_slice_chain_closes_transitively():
    # 0—1, 1—2, 2—3: reaching constraint (2,3) needs two closure rounds
    # because the list order puts it *before* the links that justify it
    cs = [le({2: 1, 3: 1}, 0),
          le({1: 1, 2: 1}, 0),
          le({0: 1, 1: 1}, 0),
          le({7: 1, 8: 1}, 0)]         # island, must stay out
    sliced, closed = dependent_slice(cs, frozenset({0}))
    assert set(id(c) for c in sliced) == set(id(c) for c in cs[:3])
    assert closed == frozenset({0, 1, 2, 3})


def test_dependent_slice_preserves_input_order():
    cs = [le({2: 1, 3: 1}, 0), le({1: 1, 2: 1}, 0), le({0: 1, 1: 1}, 0)]
    sliced, _ = dependent_slice(cs, frozenset({0}))
    assert sliced == cs                # original order, not discovery order


def test_solve_incremental_keeps_unrelated_vars():
    context = [le({0: 1}, -100)]                 # x <= 100
    negated = ne({0: 1}, -7)                     # x != 7
    domains = {0: (0, 200), 1: (0, 200)}
    previous = {0: 7, 1: 55}
    res = solve_incremental(context, negated, domains, previous)
    assert res is not None
    assert res.assignment[1] == 55               # untouched var keeps value
    assert res.assignment[0] != 7
    assert res.changed == {0}
    assert res.slice_size == 2


def test_solve_incremental_unsat():
    context = [eq({0: 1}, -5)]
    negated = ne({0: 1}, -5)
    assert solve_incremental(context, negated, {0: (0, 10)}, {0: 5}) is None


def test_solve_incremental_changed_propagates_through_equalities():
    # x0 == x1, negate x0 == 0 → both change together ("most up-to-date")
    context = [eq({0: 1, 1: -1}, 0)]
    negated = ne({0: 1}, 0)
    res = solve_incremental(context, negated, {0: (0, 15), 1: (0, 15)},
                            {0: 0, 1: 0})
    assert res is not None
    assert res.assignment[0] == res.assignment[1] != 0
    assert res.changed == {0, 1}


# ----------------------------------------------------------------------
# SolveSession: stats, and the stem frame's prefix ladder ≡ plain
# simplify, solve_at ≡ solve
# ----------------------------------------------------------------------
def _query():
    """A small SAT query: x + y <= 10, negate x == 0."""
    return ([le({0: 1, 1: 1}, -10)], ne({0: 1}, 0),
            {0: (0, 100), 1: (0, 100)}, {0: 0, 1: 0})


def test_session_solves_and_counts():
    session = SolveSession()
    cons, neg, dom, prev = _query()
    res = session.solve(cons, neg, dom, prev)
    assert res is not None and res.assignment[0] != 0
    stats = session.stats
    assert (stats.solves, stats.sat_solves, stats.unsat_solves) == (1, 1, 0)
    assert stats.cache_hits == stats.unsat_hits == 0


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
    laddered = SolveSession()
    plain = SolveSession()
    frame = laddered.stem(stem)
    for prefix, negated in _prefixes(steps):
        got = laddered.solve_at(frame, prefix, negated, domains, previous)
        want = plain.solve(stem + prefix, negated, domains, previous)
        assert got == want
        assert solver_counters(laddered.stats) == solver_counters(
            plain.stats)


# ----------------------------------------------------------------------
# SAT/UNSAT oracle: exhaustive enumeration of tiny problems
# ----------------------------------------------------------------------
#: node budget no problem below can reach, so a None is a real verdict
ORACLE_NODE_LIMIT = 100_000


@st.composite
def tiny_problem_st(draw):
    """1-3 variables with domains inside [-3, 3], 1-4 constraints over
    ``<=``, ``==`` and ``!=``, and previous values inside the domains."""
    nvars = draw(st.integers(1, 3))
    domains = {}
    for v in range(nvars):
        lo, hi = sorted(draw(st.tuples(st.integers(-3, 3),
                                       st.integers(-3, 3))))
        domains[v] = (lo, hi)
    constraints = draw(st.lists(st.builds(
        lambda coeffs, const, op: Constraint(LinearExpr(coeffs, const), op),
        st.dictionaries(st.integers(0, nvars - 1),
                        st.integers(-3, 3).filter(bool), min_size=1),
        st.integers(-6, 6),
        st.sampled_from(["<=", "==", "!="])), min_size=1, max_size=4))
    previous = {v: draw(st.integers(lo, hi))
                for v, (lo, hi) in domains.items()}
    return constraints, domains, previous


def _holds(c: Constraint, a: dict[int, int]) -> bool:
    value = c.lhs.const + sum(k * a[v] for v, k in c.lhs.coeffs.items())
    return {"<=": value <= 0, "==": value == 0, "!=": value != 0}[c.op]


def _exists_model(constraints, domains) -> bool:
    """Whether any assignment over ``domains`` satisfies ``constraints``,
    by enumerating every one."""
    vids = sorted(domains)
    for values in itertools.product(*(range(lo, hi + 1)
                                      for lo, hi in
                                      (domains[v] for v in vids))):
        a = dict(zip(vids, values))
        if all(_holds(c, a) for c in constraints):
            return True
    return False


def _component(constraints, seed_vars):
    """The constraints transitively sharing a variable with
    ``seed_vars``, and their variables (what incremental solving
    re-solves; the rest keep their previous values)."""
    vids, picked = set(seed_vars), set()
    while True:
        grow = {i for i, c in enumerate(constraints)
                if i not in picked and c.vars() & vids}
        if not grow:
            return [constraints[i] for i in sorted(picked)], vids
        picked |= grow
        for i in grow:
            vids |= constraints[i].vars()


@settings(max_examples=300, deadline=None)
@given(tiny_problem_st())
def test_solver_oracle_model_iff_one_exists(problem):
    """``Solver.solve`` returns a model exactly when enumeration finds
    one, the model satisfies every constraint, and with an unreachable
    node budget no give-up is ever reported as UNSAT."""
    constraints, domains, previous = problem
    solver = Solver(node_limit=ORACLE_NODE_LIMIT)
    model = solver.solve(Problem(constraints=constraints, domains=domains,
                                 previous=previous))
    assert not solver.stats.exhausted
    assert (model is not None) == _exists_model(constraints, domains)
    if model is not None:
        assert set(model) == set(domains)
        assert all(lo <= model[v] <= hi for v, (lo, hi) in domains.items())
        assert all(_holds(c, model) for c in constraints)


@settings(max_examples=300, deadline=None)
@given(tiny_problem_st(), st.integers(0, 3))
def test_solve_at_oracle_model_iff_one_exists(problem, split):
    """``SolveSession.solve_at`` on a stem frame: the last constraint is
    the negation, the others are split into stem and prefix.  A result
    comes back exactly when enumeration finds a model of the negation's
    dependency slice, and the result satisfies that slice."""
    constraints, domains, previous = problem
    *context, negated = constraints
    session = SolveSession(Solver(node_limit=ORACLE_NODE_LIMIT))
    frame = session.stem(context[:split])
    res = session.solve_at(frame, context[split:], negated, domains,
                           previous)
    assert not session.solver.stats.exhausted
    sliced, vids = _component(constraints, negated.vars())
    slice_domains = {v: domains[v] for v in vids}
    assert (res is not None) == _exists_model(sliced, slice_domains)
    if res is not None:
        a = res.assignment
        assert all(lo <= a[v] <= hi for v, (lo, hi) in domains.items())
        assert all(_holds(c, a) for c in sliced)
        assert {v: a[v] for v in domains if v not in vids} == \
            {v: previous[v] for v in domains if v not in vids}
