"""Point-to-point communication: matching, ordering, wildcards, payloads."""

import numpy as np

from repro.mpi import ANY_SOURCE, ANY_TAG, run_spmd


def test_send_recv_roundtrip_object():
    received = {}

    def prog(mpi):
        mpi.Init()
        rank = mpi.Comm_rank(mpi.COMM_WORLD)
        if rank == 0:
            mpi.COMM_WORLD.Send({"a": 7, "b": [1, 2]}, dest=1, tag=11)
        else:
            data, st = mpi.COMM_WORLD.Recv(source=0, tag=11)
            received["data"] = data
            received["status"] = st

    res = run_spmd(prog, size=2, timeout=10)
    assert res.ok
    assert received["data"] == {"a": 7, "b": [1, 2]}
    assert received["status"].source == 0
    assert received["status"].tag == 11


def test_payload_is_copied_not_aliased():
    out = {}

    def prog(mpi):
        mpi.Init()
        rank = mpi.Comm_rank(mpi.COMM_WORLD)
        if rank == 0:
            buf = np.arange(4)
            mpi.COMM_WORLD.Send(buf, dest=1)
            buf[:] = -1  # mutate after send; receiver must not see this
        else:
            data, _ = mpi.COMM_WORLD.Recv(source=0)
            out["data"] = data

    res = run_spmd(prog, size=2, timeout=10)
    assert res.ok
    assert list(out["data"]) == [0, 1, 2, 3]


def test_fifo_order_per_source_tag():
    order = []

    def prog(mpi):
        mpi.Init()
        rank = mpi.Comm_rank(mpi.COMM_WORLD)
        if rank == 0:
            for i in range(5):
                mpi.COMM_WORLD.Send(i, dest=1, tag=3)
        else:
            for _ in range(5):
                v, _ = mpi.COMM_WORLD.Recv(source=0, tag=3)
                order.append(v)

    res = run_spmd(prog, size=2, timeout=10)
    assert res.ok
    assert order == [0, 1, 2, 3, 4]


def test_tag_selectivity():
    got = {}

    def prog(mpi):
        mpi.Init()
        rank = mpi.Comm_rank(mpi.COMM_WORLD)
        if rank == 0:
            mpi.COMM_WORLD.Send("low", dest=1, tag=1)
            mpi.COMM_WORLD.Send("high", dest=1, tag=2)
        else:
            # receive tag 2 first even though tag 1 was sent first
            v2, _ = mpi.COMM_WORLD.Recv(source=0, tag=2)
            v1, _ = mpi.COMM_WORLD.Recv(source=0, tag=1)
            got["order"] = [v2, v1]

    res = run_spmd(prog, size=2, timeout=10)
    assert res.ok
    assert got["order"] == ["high", "low"]


def test_any_source_any_tag():
    got = []

    def prog(mpi):
        mpi.Init()
        rank = mpi.Comm_rank(mpi.COMM_WORLD)
        if rank != 0:
            mpi.COMM_WORLD.Send(rank * 10, dest=0, tag=rank)
        else:
            for _ in range(2):
                v, st = mpi.COMM_WORLD.Recv(source=ANY_SOURCE, tag=ANY_TAG)
                got.append((v, st.source, st.tag))

    res = run_spmd(prog, size=3, timeout=10)
    assert res.ok
    assert sorted(got) == [(10, 1, 1), (20, 2, 2)]


def test_isend_irecv_wait():
    out = {}

    def prog(mpi):
        mpi.Init()
        rank = mpi.Comm_rank(mpi.COMM_WORLD)
        if rank == 0:
            req = mpi.COMM_WORLD.Isend([1, 2, 3], dest=1, tag=5)
            req.wait()
        else:
            req = mpi.COMM_WORLD.Irecv(source=0, tag=5)
            out["data"] = req.wait()
            out["status"] = req.status

    res = run_spmd(prog, size=2, timeout=10)
    assert res.ok
    assert out["data"] == [1, 2, 3]
    assert out["status"].source == 0


def test_sendrecv_exchange_no_deadlock():
    vals = {}

    def prog(mpi):
        mpi.Init()
        rank = mpi.Comm_rank(mpi.COMM_WORLD)
        peer = 1 - rank
        data, _ = mpi.COMM_WORLD.Sendrecv(rank, dest=peer, sendtag=0,
                                          source=peer, recvtag=0)
        vals[rank] = data

    res = run_spmd(prog, size=2, timeout=10)
    assert res.ok
    assert vals == {0: 1, 1: 0}


def test_iprobe_detects_pending_message():
    out = {}

    def prog(mpi):
        mpi.Init()
        rank = mpi.Comm_rank(mpi.COMM_WORLD)
        if rank == 0:
            mpi.COMM_WORLD.Send("x", dest=1, tag=7)
            mpi.COMM_WORLD.Barrier()
        else:
            mpi.COMM_WORLD.Barrier()  # after barrier the send has landed
            st = mpi.COMM_WORLD.Iprobe(source=0, tag=7)
            out["probe"] = st
            out["missing"] = mpi.COMM_WORLD.Iprobe(source=0, tag=99)
            mpi.COMM_WORLD.Recv(source=0, tag=7)

    res = run_spmd(prog, size=2, timeout=10)
    assert res.ok
    assert out["probe"] is not None and out["probe"].source == 0
    assert out["missing"] is None


def test_ring_pass_many_ranks():
    result = {}

    def prog(mpi):
        mpi.Init()
        rank = mpi.Comm_rank(mpi.COMM_WORLD)
        size = mpi.Comm_size(mpi.COMM_WORLD)
        if rank == 0:
            mpi.COMM_WORLD.Send(1, dest=1)
            total, _ = mpi.COMM_WORLD.Recv(source=size - 1)
            result["total"] = total
        else:
            v, _ = mpi.COMM_WORLD.Recv(source=rank - 1)
            mpi.COMM_WORLD.Send(v + 1, dest=(rank + 1) % size)

    res = run_spmd(prog, size=6, timeout=10)
    assert res.ok
    assert result["total"] == 6


def test_blocking_probe_waits_for_message():
    got = {}

    def prog(mpi):
        mpi.Init()
        rank = mpi.COMM_WORLD.Get_rank()
        if rank == 0:
            mpi.COMM_WORLD.Barrier()
            mpi.COMM_WORLD.Send("late", dest=1, tag=4)
        else:
            mpi.COMM_WORLD.Barrier()
            st = mpi.COMM_WORLD.Probe(source=0, tag=4)  # blocks until sent
            got["probe"] = (st.source, st.tag)
            got["data"], _ = mpi.COMM_WORLD.Recv(source=0, tag=4)

    res = run_spmd(prog, size=2, timeout=10)
    assert res.ok
    assert got["probe"] == (0, 4) and got["data"] == "late"


def test_blocking_probe_unwinds_on_shutdown():
    from repro.mpi.errors import MpiShutdown

    def prog(mpi):
        mpi.Init()
        mpi.COMM_WORLD.Probe(source=0, tag=99)  # nobody ever sends

    # the parked Probe is a provable deadlock (tests/test_deadlock.py);
    # with detection off, the watchdog's stop must unwind it
    res = run_spmd(prog, size=1, timeout=0.4, detect_deadlocks=False)
    assert res.timed_out
    assert isinstance(res.outcomes[0].error, MpiShutdown)


def _mixed_wildcard_prog(got):
    """Two senders interleave posts under one tag; the root drains them
    through ANY_SOURCE + concrete-tag receives."""

    def prog(mpi):
        mpi.Init()
        rank = mpi.Comm_rank(mpi.COMM_WORLD)
        if rank != 0:
            for i in range(4):
                mpi.COMM_WORLD.Send((rank, i), dest=0, tag=3)
            mpi.COMM_WORLD.Barrier()
        else:
            mpi.COMM_WORLD.Barrier()  # every send has landed: the match
            for _ in range(8):        # order is pure matching policy
                v, st = mpi.COMM_WORLD.Recv(source=ANY_SOURCE, tag=3)
                got.append((st.source, v[1]))

    return prog


def test_any_source_concrete_tag_preserves_per_sender_fifo():
    got = []
    res = run_spmd(_mixed_wildcard_prog(got), size=3, timeout=10)
    assert res.ok
    assert len(got) == 8
    for sender in (1, 2):
        assert [i for s, i in got if s == sender] == [0, 1, 2, 3]


def test_any_source_concrete_tag_fifo_under_schedule_policy():
    # the schedule controller's canonical choice (min (source, tag) pair,
    # then earliest seq) must never reorder one sender's stream
    from repro.schedules import ScheduleController

    got = []
    res = run_spmd(_mixed_wildcard_prog(got), size=3, timeout=10,
                   match_policy=ScheduleController())
    assert res.ok
    assert len(got) == 8
    for sender in (1, 2):
        assert [i for s, i in got if s == sender] == [0, 1, 2, 3]


def test_concrete_source_any_tag_preserves_send_order():
    got = []

    def prog(mpi):
        mpi.Init()
        rank = mpi.Comm_rank(mpi.COMM_WORLD)
        if rank == 0:
            for i, tag in enumerate([5, 2, 9, 2, 5]):
                mpi.COMM_WORLD.Send(i, dest=1, tag=tag)
            mpi.COMM_WORLD.Barrier()
        else:
            mpi.COMM_WORLD.Barrier()  # all five pending before matching
            for _ in range(5):
                v, st = mpi.COMM_WORLD.Recv(source=0, tag=ANY_TAG)
                got.append((v, st.tag))

    res = run_spmd(prog, size=2, timeout=10)
    assert res.ok
    # non-overtaking: one sender's messages arrive in send order even
    # though the receive matches every tag
    assert got == [(0, 5), (1, 2), (2, 9), (3, 2), (4, 5)]
