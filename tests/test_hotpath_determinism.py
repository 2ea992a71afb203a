"""Hot-path optimisations change *time*, never *results*.

Two optimisations share one determinism contract
(docs/PERFORMANCE.md), pinned by the golden campaign digests of
:mod:`tests.golden` rather than by a second implementation:

* **batched coverage probes** — concrete-only branch/function probes
  record into per-sink hit arrays flushed once per run, also for sinks
  built outside the runner.
* **persistent incremental solving** — one stem frame + prefix ladder
  alive across iterations; a resumed campaign rebuilds it and still
  commits the golden stream with the golden solver counters.
"""

import pytest

from repro.concolic import LightSink, merge_all, sink_scope
from repro.core import Compi, CompiConfig, TestSetup
from repro.core.persist import CampaignLog
from repro.core.runner import TestRunner
from repro.core.testcase import TestCase
from repro.instrument import instrument_program
from repro.mpi import run_job

from .golden import (GOLDEN, ITERATIONS, campaign_digest, golden_config,
                     tap_runs)


@pytest.fixture(scope="module")
def demo_program():
    prog = instrument_program(["repro.targets.demo"])
    yield prog
    prog.unload()


def _cfg(**kw):
    base = dict(seed=7, init_nprocs=3, nprocs_cap=4, test_timeout=10.0)
    base.update(kw)
    return CompiConfig(**base)


def test_sink_without_arrays_still_works(demo_program):
    """Sinks built outside the runner have no preallocated hit arrays:
    the probes allocate them from the program's site registry, and
    leaving ``sink_scope`` folds them into the coverage map."""
    tc = TestCase(inputs={"x": 5, "y": 7}, setup=TestSetup(2, 0))
    sinks = [LightSink(global_rank=r) for r in range(2)]

    def rank_entry(mpi):
        with sink_scope(mpi.sink):
            return demo_program.entry(mpi, dict(tc.inputs))

    assert run_job([rank_entry] * 2, sinks=sinks, timeout=10.0).ok
    assert all(s.branch_hits is not None for s in sinks)
    direct = merge_all(s.coverage for s in sinks)
    rec = TestRunner(demo_program, _cfg()).run(tc)
    assert direct.branches == rec.coverage.branches
    assert direct.functions == rec.coverage.functions


# ----------------------------------------------------------------------
# the persistent solve session across a checkpoint/resume boundary
# ----------------------------------------------------------------------
def test_persistent_session_across_resume(demo_program, tmp_path):
    """A resumed campaign rebuilds its stem frame from scratch; the
    stitched committed stream and solver counters must still be the
    uninterrupted campaign's golden digest."""
    runs = []
    part_log = tmp_path / "part.jsonl"
    with Compi(demo_program, golden_config("demo", 2)) as first:
        tap_runs(first, runs)
        with CampaignLog(part_log) as log:
            first.run(iterations=5, log=log)

    resumed_c = Compi.resume(demo_program, part_log)
    assert resumed_c._iteration == 5
    try:
        tap_runs(resumed_c, runs)
        with CampaignLog(part_log, mode="a") as log:
            resumed = resumed_c.run(iterations=ITERATIONS["demo"] - 5,
                                    log=log)
    finally:
        resumed_c.close()

    assert campaign_digest(resumed, runs) == GOLDEN[("demo", 2)]
