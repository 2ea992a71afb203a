"""Tests for sinks (heavy/light), reduction filter, and coverage maps."""

import pytest
from hypothesis import given, strategies as st

from repro.concolic import (CoverageMap, HeavySink, LightSink, ReductionFilter,
                            SymInt, merge_all, sink_scope)


class FakeComm:
    def __init__(self, comm_id, group, rank):
        self.comm_id = comm_id
        self.group = tuple(group)
        self._rank = rank

    @property
    def is_world(self):
        return self.comm_id == 0

    def Get_rank(self):
        return self._rank

    def Get_size(self):
        return len(self.group)


# ----------------------------------------------------------------------
# ReductionFilter — the paper's §IV-C heuristic
# ----------------------------------------------------------------------
def test_reduction_records_first_and_flips_only():
    f = ReductionFilter(enabled=True)
    # loop: True x4 then False — paper's Fig. 7 pattern
    outcomes = [True, True, True, True, False]
    kept = [f.should_record(7, o) for o in outcomes]
    assert kept == [True, False, False, False, True]
    assert f.admitted == 2 and f.suppressed == 3


def test_reduction_alternating_keeps_all():
    f = ReductionFilter(enabled=True)
    kept = [f.should_record(1, o) for o in [True, False, True, False]]
    assert kept == [True, True, True, True]


def test_reduction_disabled_keeps_everything():
    f = ReductionFilter(enabled=False)
    kept = [f.should_record(1, True) for _ in range(5)]
    assert kept == [True] * 5
    assert f.suppressed == 0


def test_reduction_tracks_sites_independently():
    f = ReductionFilter(enabled=True)
    assert f.should_record(1, True)
    assert f.should_record(2, True)      # different site: first encounter
    assert not f.should_record(1, True)  # same site, same outcome


@given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=60))
def test_reduction_invariant_boundaries_kept(events):
    """Property: an evaluation is kept iff it is the first at its site or
    its outcome differs from the immediately preceding one at that site."""
    f = ReductionFilter(enabled=True)
    last: dict[int, bool] = {}
    for site, outcome in events:
        expected = site not in last or last[site] != outcome
        assert f.should_record(site, outcome) == expected
        last[site] = outcome


def test_reduction_reset():
    f = ReductionFilter(enabled=True)
    f.should_record(1, True)
    f.reset()
    assert f.should_record(1, True)  # first encounter again


# ----------------------------------------------------------------------
# CoverageMap
# ----------------------------------------------------------------------
def test_coverage_counts_distinct_branches():
    c = CoverageMap()
    c.add_branch(1, True)
    c.add_branch(1, True)
    c.add_branch(1, False)
    c.add_branch(2, True)
    assert c.covered_branches == 3
    assert (1, True) in c and (2, False) not in c
    assert c.covered_sites() == {1, 2}


def test_coverage_merge_and_rate():
    a, b = CoverageMap(), CoverageMap()
    a.add_branch(1, True)
    b.add_branch(1, True)
    b.add_branch(2, False)
    b.add_function(9)
    m = merge_all([a, b])
    assert m.covered_branches == 2 and 9 in m.functions
    assert m.rate(4) == 0.5
    assert CoverageMap().rate(0) == 0.0


def test_reachable_branch_estimate_sums_entered_functions():
    c = CoverageMap()
    c.add_function(1)
    c.add_function(3)
    per_func = {1: 10, 2: 100, 3: 4}
    assert c.reachable_branches(per_func) == 14


# ----------------------------------------------------------------------
# LightSink
# ----------------------------------------------------------------------
def test_light_sink_records_coverage_only_and_stays_concrete():
    s = LightSink(global_rank=3)
    s.on_branch(5, True)
    s.on_branch(5, True)
    s.on_branch(6, False)
    assert s.coverage.covered_branches == 2
    assert s.mark_input("x", 7) == 7 and isinstance(s.mark_input("x", 7), int)
    world = FakeComm(0, (0, 1), 1)
    assert s.on_comm_rank(world, 1) == 1
    assert s.on_comm_size(world, 2) == 2


def test_light_sink_log_is_small_and_coverage_shaped():
    s = LightSink()
    for i in range(100):
        s.on_branch(i, True)
    log = s.serialize()
    assert 0 < len(log) < 2000
    assert b"pc " not in log and b"ev " not in log


@pytest.mark.parametrize("sink_cls", [LightSink, HeavySink])
@given(branch_slots=st.sets(st.integers(0, 99)),
       func_slots=st.sets(st.integers(0, 19)))
def test_flush_folds_hit_slots_exactly_and_idempotently(sink_cls,
                                                         branch_slots,
                                                         func_slots):
    s = sink_cls()
    s.preallocate(n_sites=50, n_functions=20)
    for idx in branch_slots:
        s.branch_hits[idx] = 1
    for fid in func_slots:
        s.func_hits[fid] = 1
    s.flush()
    s.flush()
    assert s.coverage.branches == {(i >> 1, bool(i & 1))
                                   for i in branch_slots}
    assert s.coverage.functions == func_slots


# ----------------------------------------------------------------------
# HeavySink
# ----------------------------------------------------------------------
def test_heavy_sink_marks_inputs_symbolic_and_reuses_vars():
    s = HeavySink()
    x1 = s.mark_input("x", 10)
    x2 = s.mark_input("x", 10)
    y = s.mark_input("y", 3, cap=50)
    assert isinstance(x1, SymInt) and x1.is_symbolic
    assert x1.lin == x2.lin                     # same var reused per name
    res = s.result()
    assert res.input_vids == {"x": 0, "y": 1}
    assert res.vars[1].cap == 50
    assert res.values == {0: 10, 1: 3}


def test_heavy_sink_marks_world_rank_and_size():
    s = HeavySink()
    world = FakeComm(0, (0, 1, 2), 2)
    r1 = s.on_comm_rank(world, 2)
    r2 = s.on_comm_rank(world, 2)
    sz = s.on_comm_size(world, 3)
    assert all(isinstance(v, SymInt) for v in (r1, r2, sz))
    res = s.result()
    kinds = [v.kind for v in res.vars]
    assert kinds == ["rw", "rw", "sw"]
    # each invocation creates a FRESH variable (the paper adds x0=xi
    # equality constraints precisely because of this)
    assert r1.lin != r2.lin


def test_heavy_sink_local_comm_marking_and_mapping_rows():
    s = HeavySink()
    sub = FakeComm(7, (0, 4, 2), 1)     # local ranks 0,1,2 → global 0,4,2
    r = s.on_comm_rank(sub, 1)
    assert isinstance(r, SymInt)
    sz = s.on_comm_size(sub, 3)
    assert isinstance(sz, int)           # non-world size is NOT marked
    res = s.result()
    rc = res.vars_by_kind("rc")[0]
    assert rc.comm_index == 0 and rc.comm_size == 3
    assert res.mapping_rows == [(0, 4, 2)]
    # registering the same comm again does not duplicate the row
    s.on_comm_rank(sub, 1)
    assert len(s.result().mapping_rows) == 1


def test_heavy_sink_path_respects_reduction():
    s = HeavySink(reduction=True)
    with sink_scope(s):
        x = s.mark_input("x", 0)
        i = 0
        while x + i < 5:   # 5 True evaluations then 1 False, one site... but
            i += 1         # implicit sites are per (file,func,line,lasti)
    res = s.result()
    # all evaluations share one implicit site → reduction keeps 2 of 6
    assert res.event_count == 6
    assert len(res.path) == 2
    assert res.suppressed == 4
    assert [pe.outcome for pe in res.path] == [True, False]


def test_heavy_sink_without_reduction_keeps_all():
    s = HeavySink(reduction=False)
    with sink_scope(s):
        x = s.mark_input("x", 0)
        i = 0
        while x + i < 5:
            i += 1
    res = s.result()
    assert len(res.path) == 6


def test_heavy_log_includes_events_and_dwarfs_light_log():
    heavy = HeavySink(reduction=True, log_events=True)
    light = LightSink()
    with sink_scope(heavy):
        x = heavy.mark_input("x", 0)
        i = 0
        while x + i < 500:
            i += 1
    for _ in range(506):
        light.on_branch(1, True)
    assert len(heavy.serialize()) > 20 * len(light.serialize())


@pytest.mark.parametrize("sink_cls", [LightSink, HeavySink])
def test_serialized_size_of_an_empty_sink(sink_cls):
    s = sink_cls()
    assert s.serialized_size() == len(s.serialize()) == 1


@given(branches=st.lists(st.tuples(st.integers(-30, 2000), st.booleans()),
                         max_size=60),
       functions=st.sets(st.integers(0, 300)),
       log_events=st.booleans(), bound=st.integers(0, 40))
def test_serialized_size_equals_serialized_length(branches, functions,
                                                  log_events, bound):
    """The runner reads log sizes without building the bytes; the size
    must match byte for byte, implicit (negative) sites, non-ASCII input
    names and an unlogged event stream included."""
    light = LightSink()
    heavy = HeavySink(log_events=log_events)
    for sink in (light, heavy):
        for site, outcome in branches:
            sink.on_branch(site, outcome)
        for fid in functions:
            sink.on_function(fid)
    heavy.on_comm_rank(FakeComm(0, (0, 1), 1), 1)
    with sink_scope(heavy):
        x = heavy.mark_input("x\u00e9", 3)
        i = 0
        while x + i < bound:  # implicit sites with path constraints
            i += 1
    for sink in (light, heavy):
        assert sink.serialized_size() == len(sink.serialize())


def test_heavy_sink_stop_event_cancels_probe_stream():
    import threading

    from repro.mpi.errors import MpiShutdown

    s = HeavySink()
    ev = threading.Event()
    s.bind_stop_event(ev)
    ev.set()
    with pytest.raises(MpiShutdown):
        for _ in range(10_000):
            s.on_branch(1, True)
