"""Run-to-block scheduling: rank order, and crash aborts that no longer
depend on thread timing."""

import pytest

from repro.core.conflicts import TestSetup
from repro.core.runner import TestRunner
from repro.core.testcase import TestCase
from repro.mpi import run_spmd

from .golden import GOLDEN, golden_config, run_golden


def test_lowest_runnable_rank_runs_first():
    order = []

    def prog(mpi):
        mpi.Init()
        rank = mpi.COMM_WORLD.Get_rank()
        order.append(("start", rank))
        mpi.COMM_WORLD.Barrier()       # everyone parks here but the last
        order.append(("end", rank))

    assert run_spmd(prog, size=4, timeout=10).ok
    # ranks run to their first wait in rank order; the last arriver
    # completes the rendezvous and runs on, then the rest in rank order
    assert order == [("start", r) for r in range(4)] + \
        [("end", 3), ("end", 0), ("end", 1), ("end", 2)]


def test_crash_unwinds_parked_ranks_at_their_calls():
    reached = []

    def prog(mpi):
        mpi.Init()
        rank = mpi.COMM_WORLD.Get_rank()
        if rank == 2:
            raise ZeroDivisionError("rank 2 crashes")
        mpi.COMM_WORLD.Recv(source=2, tag=0)
        reached.append(rank)           # pragma: no cover

    for _ in range(5):
        res = run_spmd(prog, size=3, timeout=10)
        assert res.deadlock is None and not res.timed_out
        assert res.first_error().global_rank == 2
        assert [o.interrupted for o in res.outcomes] == [True, True, False]
    assert reached == []


@pytest.fixture(scope="module")
def susy_program():
    from repro.__main__ import load_target
    prog = load_target("susy")
    yield prog
    prog.unload()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_susy_campaign_is_reproducible(susy_program, seed):
    result, digest = run_golden(susy_program, "susy", seed)
    assert any(r.error_kind for r in result.iterations)  # crashes seen
    assert digest == GOLDEN[("susy", seed)]


def test_crash_abort_leaves_a_fixed_focus_trace(susy_program):
    """Rank 1 segfaults while the focus, rank 0, is still running: the
    focus trace ends where rank 0 next parks, every time."""
    tc = TestCase(inputs={"nx": 5, "ny": 5, "nz": 4, "nt": 5, "warms": 0,
                          "ntraj": 30, "nsteps": 98, "nroot": 16,
                          "gauge_fix": 1, "lambda_i": 274, "kappa_i": 943,
                          "meas_freq": 463, "seed": 273169},
                  setup=TestSetup(5, 0))
    runner = TestRunner(susy_program, golden_config("susy", 0))
    seen = set()
    for _ in range(20):
        rec = runner.run(tc)
        assert rec.error.kind == "segfault" and rec.error.global_rank == 1
        seen.add((len(rec.trace.path), rec.trace.event_count))
    assert len(seen) == 1
