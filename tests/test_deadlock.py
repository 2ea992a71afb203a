"""Wait-for-graph deadlock detection: true deadlocks vs compute hangs."""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KIND_DEADLOCK, KIND_HANG, classify_run
from repro.mpi import run_spmd
from repro.mpi.waitgraph import find_cycle

#: generous watchdog — every deadlock test must finish long before it
TIMEOUT = 10.0


def test_send_send_cycle_two_ranks():
    """The classic: both ranks Recv before either Send."""
    def prog(mpi):
        mpi.Init()
        r = mpi.COMM_WORLD.Get_rank()
        peer = 1 - r
        mpi.COMM_WORLD.Recv(source=peer, tag=1)   # both block here
        mpi.COMM_WORLD.Send(r, dest=peer, tag=1)  # pragma: no cover

    t0 = time.monotonic()
    res = run_spmd(prog, size=2, timeout=TIMEOUT)
    wall = time.monotonic() - t0
    assert not res.timed_out
    assert res.deadlock is not None
    assert res.deadlock.cycle in ((0, 1, 0), (1, 0, 1))
    assert wall < TIMEOUT / 2, "detector should beat the watchdog easily"
    err = classify_run(res)
    assert err is not None and err.kind == KIND_DEADLOCK
    assert "cycle" in err.message


def test_three_rank_ring_cycle():
    def prog(mpi):
        mpi.Init()
        r = mpi.COMM_WORLD.Get_rank()
        mpi.COMM_WORLD.Recv(source=(r + 1) % 3, tag=0)

    res = run_spmd(prog, size=3, timeout=TIMEOUT)
    assert res.deadlock is not None
    cycle = res.deadlock.cycle
    assert cycle is not None and len(cycle) == 4 and cycle[0] == cycle[-1]
    assert set(cycle) == {0, 1, 2}


def test_collective_mismatch_is_deadlock():
    """Rank 0 enters Barrier, rank 1 waits in Recv: neither can progress."""
    def prog(mpi):
        mpi.Init()
        if mpi.COMM_WORLD.Get_rank() == 0:
            mpi.COMM_WORLD.Barrier()
        else:
            mpi.COMM_WORLD.Recv(source=0, tag=9)

    res = run_spmd(prog, size=2, timeout=TIMEOUT)
    assert not res.timed_out
    assert res.deadlock is not None
    assert res.deadlock.cycle in ((0, 1, 0), (1, 0, 1))
    waits = res.deadlock.waits
    assert any("Barrier" in w for w in waits.values())
    assert any("Recv" in w for w in waits.values())


def test_orphan_wait_recv_from_finished_rank():
    """No cycle, still permanent: the awaited peer already terminated."""
    def prog(mpi):
        mpi.Init()
        if mpi.COMM_WORLD.Get_rank() == 1:
            mpi.COMM_WORLD.Recv(source=0, tag=5)  # rank 0 exits immediately

    res = run_spmd(prog, size=2, timeout=TIMEOUT)
    assert not res.timed_out
    assert res.deadlock is not None
    assert res.deadlock.cycle is None
    assert "orphan" in res.deadlock.describe()


def test_probe_cycle_is_deadlock():
    """A blocking Probe parks as a registered wait: a Probe cycle is a
    deadlock found at quiesce, not a hang left to the watchdog."""
    def prog(mpi):
        mpi.Init()
        r = mpi.COMM_WORLD.Get_rank()
        mpi.COMM_WORLD.Probe(source=1 - r, tag=1)
        mpi.COMM_WORLD.Send(r, dest=1 - r, tag=1)  # pragma: no cover

    t0 = time.monotonic()
    res = run_spmd(prog, size=2, timeout=TIMEOUT)
    assert time.monotonic() - t0 < TIMEOUT / 2
    assert not res.timed_out
    assert res.deadlock is not None
    assert res.deadlock.cycle in ((0, 1, 0), (1, 0, 1))
    assert res.deadlock.waits == {0: "Probe(source=1, tag=1)",
                                  1: "Probe(source=0, tag=1)"}
    assert classify_run(res).kind == KIND_DEADLOCK


def test_waitany_cycle_is_deadlock():
    """waitany over pending Irecvs parks as one wait covering them all."""
    from repro.mpi import waitany

    def prog(mpi):
        mpi.Init()
        r = mpi.COMM_WORLD.Get_rank()
        peer = 1 - r
        reqs = [mpi.COMM_WORLD.Irecv(source=peer, tag=1),
                mpi.COMM_WORLD.Irecv(source=peer, tag=2)]
        waitany(reqs)
        mpi.COMM_WORLD.Send(r, dest=peer, tag=1)  # pragma: no cover

    t0 = time.monotonic()
    res = run_spmd(prog, size=2, timeout=TIMEOUT)
    assert time.monotonic() - t0 < TIMEOUT / 2
    assert not res.timed_out
    assert res.deadlock is not None
    assert res.deadlock.cycle in ((0, 1, 0), (1, 0, 1))
    assert res.deadlock.waits[0] == \
        "Waitany(source=1, tag=1 | source=1, tag=2)"
    assert classify_run(res).kind == KIND_DEADLOCK


def test_compute_loop_stays_a_hang():
    """An uninstrumented busy loop is NOT a communication deadlock: only
    the watchdog catches it, and the thread is abandoned as a straggler."""
    def prog(mpi):
        mpi.Init()
        if mpi.COMM_WORLD.Get_rank() == 0:
            x = 0
            while True:       # no probes, no MPI: unkillable
                x += 1
                if x < 0:     # pragma: no cover
                    break

    res = run_spmd(prog, size=2, timeout=0.4)
    assert res.timed_out
    assert res.deadlock is None
    assert res.stragglers >= 1
    err = classify_run(res)
    assert err is not None and err.kind == KIND_HANG


def test_no_false_positive_on_staggered_send():
    """A receiver blocked while its peer computes must not be diagnosed."""
    def prog(mpi):
        mpi.Init()
        if mpi.COMM_WORLD.Get_rank() == 0:
            got, _ = mpi.COMM_WORLD.Recv(source=1, tag=3)
            assert got == "late"
        else:
            time.sleep(0.3)   # several monitor polls with rank 0 blocked
            mpi.COMM_WORLD.Send("late", dest=0, tag=3)

    res = run_spmd(prog, size=2, timeout=TIMEOUT)
    assert res.ok
    assert res.deadlock is None


def test_real_error_not_masked_by_detector():
    """A rank raising while its sibling is blocked must classify as the
    rank's error, not as a deadlock of the unwinding sibling."""
    def prog(mpi):
        mpi.Init()
        if mpi.COMM_WORLD.Get_rank() == 0:
            time.sleep(0.1)
            raise AssertionError("real bug")
        mpi.COMM_WORLD.Recv(source=0, tag=1)

    res = run_spmd(prog, size=2, timeout=TIMEOUT)
    assert res.deadlock is None
    err = classify_run(res)
    assert err is not None and err.kind == "assertion"


def test_detection_can_be_disabled():
    def prog(mpi):
        mpi.Init()
        r = mpi.COMM_WORLD.Get_rank()
        mpi.COMM_WORLD.Recv(source=1 - r, tag=1)

    res = run_spmd(prog, size=2, timeout=0.4, detect_deadlocks=False)
    assert res.timed_out
    assert res.deadlock is None


# ----------------------------------------------------------------------
# find_cycle against a brute-force oracle
# ----------------------------------------------------------------------
def _has_cycle_oracle(edges):
    """Reachability closure: a cycle exists iff some node reaches itself."""
    nodes = set(edges)
    reach = {n: set(t for t in edges[n] if t in nodes) for n in nodes}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            new = set()
            for m in reach[n]:
                new |= reach[m]
            if not new <= reach[n]:
                reach[n] |= new
                changed = True
    return any(n in reach[n] for n in nodes)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 7),
                       st.sets(st.integers(0, 7), max_size=8),
                       max_size=8))
def test_find_cycle_matches_oracle(edges):
    cycle = find_cycle(edges)
    if _has_cycle_oracle(edges):
        assert cycle is not None
        # the returned walk must be a real closed path through the graph
        assert cycle[0] == cycle[-1] and len(cycle) >= 2
        for a, b in zip(cycle, cycle[1:]):
            assert b in edges[a]
    else:
        assert cycle is None
