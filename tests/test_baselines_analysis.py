"""Tests for the baselines (random testing, ablation variants) and the
complexity/SLOC analysis helpers."""

import pytest

from repro.analysis import (complexity_row, count_sloc_modules,
                            count_sloc_source)
from repro.baselines import RandomTester, VARIANTS, make_variant
from repro.core import Compi, CompiConfig
from repro.instrument import instrument_program


@pytest.fixture(scope="module")
def demo_program():
    prog = instrument_program(["repro.targets.demo"])
    yield prog
    prog.unload()


# ----------------------------------------------------------------------
# SLOC
# ----------------------------------------------------------------------
def test_sloc_skips_blanks_comments_docstrings():
    src = (
        '"""module docstring\nspanning lines"""\n'
        "\n"
        "# a comment\n"
        "def f(a):\n"
        '    """doc"""\n'
        "    x = 1  # trailing comment\n"
        "\n"
        "    return x\n"
    )
    assert count_sloc_source(src) == 3  # def, assign, return


def test_sloc_counts_multiline_statements_fully():
    src = "x = [\n    1,\n    2,\n]\n"
    assert count_sloc_source(src) == 4


def test_sloc_of_real_targets_is_substantial():
    from repro.targets.hpl import MODULES as HPL
    from repro.targets.susy import MODULES as SUSY
    from repro.targets.imb import MODULES as IMB

    hpl, susy, imb = (count_sloc_modules(m) for m in (HPL, SUSY, IMB))
    # ordering mirrors the paper's Table III: SUSY and HPL are the big
    # ones, IMB the smallest
    assert hpl > imb and susy > 100 and imb > 100


def test_complexity_row(demo_program):
    row = complexity_row(demo_program, ["repro.targets.demo"])
    assert row.total_branches == 14
    assert row.sloc > 10
    assert row.reachable_branches == 0  # no campaign coverage given

    result = Compi(demo_program, CompiConfig(seed=0, init_nprocs=2,
                                             nprocs_cap=4)).run(iterations=5)
    row2 = complexity_row(demo_program, ["repro.targets.demo"],
                          coverage=result.coverage)
    assert 0 < row2.reachable_branches <= row2.total_branches


# ----------------------------------------------------------------------
# random testing
# ----------------------------------------------------------------------
def test_random_tester_runs_and_merges_coverage(demo_program):
    rt = RandomTester(demo_program, CompiConfig(seed=5, nprocs_cap=4))
    res = rt.run(iterations=15)
    assert len(res.iterations) == 15
    assert res.covered > 0
    assert res.program_name.endswith("(random)")
    # random testing varies both process count and focus
    assert len({r.nprocs for r in res.iterations}) > 1


def test_random_tester_honours_caps(demo_program):
    rt = RandomTester(demo_program, CompiConfig(seed=5, nprocs_cap=3),
                      caps={"x": 5})
    res = rt.run(iterations=10)
    assert all(r.nprocs <= 3 for r in res.iterations)


def test_random_tester_requires_budget(demo_program):
    with pytest.raises(ValueError):
        RandomTester(demo_program).run()


def test_compi_beats_random_on_demo(demo_program):
    cfg = CompiConfig(seed=9, init_nprocs=3, nprocs_cap=6)
    compi = Compi(demo_program, cfg).run(iterations=30)
    rand = RandomTester(demo_program, cfg).run(iterations=30)
    # the demo needs x*50+y <= 100000 AND x>0, y>0 AND the rank branches;
    # random rarely covers what negation finds directly
    assert compi.covered >= rand.covered


# ----------------------------------------------------------------------
# variants factory
# ----------------------------------------------------------------------
def test_every_variant_constructs_and_runs(demo_program):
    cfg = CompiConfig(seed=3, init_nprocs=2, nprocs_cap=4)
    for name in VARIANTS:
        tester = make_variant(demo_program, name, cfg)
        res = tester.run(iterations=3)
        assert len(res.iterations) == 3, name


def test_unknown_variant_rejected(demo_program):
    with pytest.raises(ValueError):
        make_variant(demo_program, "nope")


def test_nr_variants_disable_reduction(demo_program):
    cfg = CompiConfig(seed=3)
    nr = make_variant(demo_program, "NRBound", cfg, depth_bound=100)
    assert nr.config.reduction is False
    assert nr.scheduler.strategy.depth_bound == 100
    unl = make_variant(demo_program, "NRUnl", cfg)
    assert unl.scheduler.strategy.depth_bound is None


def test_nofwk_and_oneway_flags(demo_program):
    cfg = CompiConfig(seed=3)
    assert make_variant(demo_program, "No_Fwk", cfg).config.framework is False
    assert make_variant(demo_program, "OneWay", cfg).config.two_way is False


def test_nr_unl_paths_are_longer_than_reduced(demo_program):
    """Without reduction the loop in the demo generates one constraint per
    iteration; with reduction only the boundary pair is kept."""
    cfg = CompiConfig(seed=4, init_nprocs=2, nprocs_cap=4)
    r = make_variant(demo_program, "R", cfg).run(iterations=10)
    nr = make_variant(demo_program, "NRUnl", cfg).run(iterations=10)
    assert max(nr.constraint_set_sizes()) > max(r.constraint_set_sizes())
