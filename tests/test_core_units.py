"""Unit tests for COMPI core pieces: semantics constraints, conflict
resolution, test cases, runner classification, report formatting."""

import dataclasses

import pytest

from repro.concolic.expr import KIND_INPUT, KIND_RC, KIND_RW, KIND_SW, Var
from repro.concolic.trace import TraceResult
from repro.concolic.coverage import CoverageMap
from repro.core import (CompiConfig, capping_constraints, clamp_to_caps,
                        format_table, mpi_semantic_constraints,
                        random_testcase, resolve_setup, size_histogram,
                        solver_domains, specs_from_module)
from repro.core import TestSetup as TestSetup  # noqa: PLC0414
from repro.core.testcase import InputSpec, default_testcase
from repro.core.testcase import TestCase as TestCase  # noqa: PLC0414

# keep pytest from trying to collect the imported dataclasses
TestSetup.__test__ = False
TestCase.__test__ = False


def make_trace(vars_, values=None, mapping_rows=()):
    return TraceResult(vars=vars_, values=values or {}, path=[],
                       coverage=CoverageMap(), mapping_rows=list(mapping_rows))


def var(vid, kind, name="v", **kw):
    return Var(vid=vid, name=name, kind=kind, **kw)


# ----------------------------------------------------------------------
# MPI semantic constraints (§III-B)
# ----------------------------------------------------------------------
def test_semantics_rw_equalities_and_bounds():
    trace = make_trace([var(0, KIND_RW), var(1, KIND_RW), var(2, KIND_SW),
                        var(3, KIND_SW)])
    cs = mpi_semantic_constraints(trace, CompiConfig(nprocs_cap=16))
    # valid: both rw = 3, both sw = 8
    good = {0: 3, 1: 3, 2: 8, 3: 8}
    assert all(c.evaluate(good) for c in cs)
    # rw disagreement violates
    assert not all(c.evaluate({0: 3, 1: 4, 2: 8, 3: 8}) for c in cs)
    # rank >= size violates
    assert not all(c.evaluate({0: 8, 1: 8, 2: 8, 3: 8}) for c in cs)
    # size above the cap violates
    assert not all(c.evaluate({0: 0, 1: 0, 2: 17, 3: 17}) for c in cs)
    # negative rank violates
    assert not all(c.evaluate({0: -1, 1: -1, 2: 8, 3: 8}) for c in cs)


def test_semantics_rc_bounds_use_concrete_comm_size():
    trace = make_trace([var(0, KIND_RC, comm_index=0, comm_size=3)])
    cs = mpi_semantic_constraints(trace, CompiConfig())
    assert all(c.evaluate({0: 2}) for c in cs)
    assert not all(c.evaluate({0: 3}) for c in cs)
    assert not all(c.evaluate({0: -1}) for c in cs)


def test_semantics_empty_trace_no_constraints():
    assert mpi_semantic_constraints(make_trace([]), CompiConfig()) == []


def test_clamp_to_caps_clamps_only_capped_over_cap_inputs():
    caps = {"n": 10, "m": 5}
    inputs = {"n": 99, "m": 3, "k": 1000}
    assert clamp_to_caps(inputs, caps) == {"n": 10, "m": 3, "k": 1000}
    # no caps: identity copy, and the original is never mutated
    assert clamp_to_caps(inputs, {}) == inputs
    assert inputs["n"] == 99
    assert clamp_to_caps({}, caps) == {}


def test_capping_constraints_only_for_capped_inputs():
    trace = make_trace([var(0, KIND_INPUT, cap=100), var(1, KIND_INPUT)])
    caps = capping_constraints(trace)
    assert len(caps) == 1
    assert caps[0].evaluate({0: 100}) and not caps[0].evaluate({0: 101})


def test_solver_domains_by_kind():
    cfg = CompiConfig(nprocs_cap=8, input_min=-100, input_max=100)
    trace = make_trace([
        var(0, KIND_INPUT, name="n", cap=50),
        var(1, KIND_RW), var(2, KIND_SW),
        var(3, KIND_RC, comm_index=0, comm_size=4),
    ])
    box = solver_domains(trace, cfg, input_bounds={"n": (-10, 2000)})
    assert box[0] == (-10, 50)        # spec lower, cap-tightened upper
    assert box[1] == (0, 7)
    assert box[2] == (1, 8)
    assert box[3] == (0, 3)


# ----------------------------------------------------------------------
# conflict resolution (§III-C / §III-D)
# ----------------------------------------------------------------------
def test_resolve_setup_rw_change_moves_focus():
    trace = make_trace([var(0, KIND_RW), var(1, KIND_SW)])
    setup = resolve_setup(trace, {0: 3, 1: 6}, changed={0},
                          current=TestSetup(4, 0), config=CompiConfig())
    assert setup == TestSetup(nprocs=6, focus=3)


def test_resolve_setup_rc_change_translates_through_mapping():
    # local communicator 0 maps local ranks [0,1,2] → globals (0, 4, 2)
    trace = make_trace([var(0, KIND_RC, comm_index=0, comm_size=3)],
                       mapping_rows=[(0, 4, 2)])
    setup = resolve_setup(trace, {0: 1}, changed={0},
                          current=TestSetup(8, 0), config=CompiConfig())
    assert setup.focus == 4              # Table II's example lookup


def test_resolve_setup_rw_wins_over_rc():
    trace = make_trace([var(0, KIND_RW),
                        var(1, KIND_RC, comm_index=0, comm_size=2)],
                       mapping_rows=[(0, 5)])
    setup = resolve_setup(trace, {0: 2, 1: 1}, changed={0, 1},
                          current=TestSetup(8, 0), config=CompiConfig())
    assert setup.focus == 2


def test_resolve_setup_no_change_keeps_focus():
    trace = make_trace([var(0, KIND_RW)])
    setup = resolve_setup(trace, {0: 0}, changed=set(),
                          current=TestSetup(4, 2), config=CompiConfig())
    assert setup == TestSetup(4, 2)


def test_resolve_setup_clamps_focus_into_new_world():
    trace = make_trace([var(0, KIND_SW)])
    setup = resolve_setup(trace, {0: 2}, changed={0},
                          current=TestSetup(8, 7), config=CompiConfig())
    assert setup.nprocs == 2 and setup.focus == 1


def test_resolve_setup_mapping_miss_is_guarded():
    trace = make_trace([var(0, KIND_RC, comm_index=0, comm_size=3)],
                       mapping_rows=[(0, 1)])     # row shorter than rank
    setup = resolve_setup(trace, {0: 2}, changed={0},
                          current=TestSetup(4, 1), config=CompiConfig())
    assert setup.focus == 1              # kept


def test_testsetup_validation():
    with pytest.raises(ValueError):
        TestSetup(nprocs=2, focus=2)


# ----------------------------------------------------------------------
# test cases / specs
# ----------------------------------------------------------------------
def test_specs_from_module_and_defaults():
    import repro.targets.demo as demo

    specs = specs_from_module(demo)
    assert set(specs) == {"x", "y"}
    tc = default_testcase(specs, TestSetup(2, 0))
    assert tc.inputs == {"x": 10, "y": 50}


def test_specs_missing_raises():
    import repro.targets.cmem as cmem

    with pytest.raises(AttributeError):
        specs_from_module(cmem)


def test_input_spec_validation():
    with pytest.raises(ValueError):
        InputSpec(name="x", default=0, lo=5, hi=1)


def test_random_testcase_respects_bounds_and_caps():
    import numpy as np

    specs = {"a": InputSpec("a", 0, -10, 1000)}
    rng = np.random.default_rng(0)
    for _ in range(50):
        tc = random_testcase(specs, TestSetup(2, 0), rng, caps={"a": 20})
        assert -10 <= tc.inputs["a"] <= 20


def test_testcase_describe():
    tc = TestCase(inputs={"x": 1}, setup=TestSetup(4, 2), origin="negation")
    s = tc.describe()
    assert "np=4" in s and "focus=2" in s and "x=1" in s


@pytest.mark.parametrize("value", [True, False])
def test_config_snapshot_with_retired_keys_loads(value):
    """Checkpoints, JSONL metas and fleet results written while the probe
    and solver paths had A/B switches, and while the engine had a
    speculative process pool, carry their keys; they still load, and the
    keys select nothing."""
    snapshot = dict(dataclasses.asdict(CompiConfig(seed=5)),
                    probe_batching=value, persistent_solver=value,
                    workers=2, speculation_width=3, speculation_depth=1,
                    breaker_rebuilds=1, heartbeat_stale=5.0, wedge_grace=9.0)
    assert CompiConfig.from_dict(snapshot) == CompiConfig(seed=5)


# ----------------------------------------------------------------------
# reporting helpers
# ----------------------------------------------------------------------
def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_size_histogram_buckets():
    hist = size_histogram([0, 50, 150, 450, 999, 5000, 10 ** 7])
    as_dict = dict(hist)
    assert as_dict["[0,100)"] == 2
    assert as_dict["[100,300)"] == 1
    assert as_dict["[300,500)"] == 1
    assert as_dict[">=5000"] == 2
    assert sum(as_dict.values()) == 7
