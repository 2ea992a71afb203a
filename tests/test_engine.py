"""Staged engine: one inline executor.

Every iteration executes the scheduler's pending candidate exactly once,
through ``TestRunner.run_with_retries``, and commits it before the next
one is derived.  Checkpoints written by older versions, whose config
snapshot still carries the retired process-pool keys, resume onto the
same trajectory.
"""

import pytest

from repro.core import Compi, CompiConfig
from repro.core.persist import CampaignLog, load_checkpoint, write_checkpoint
from repro.core.runner import TestRunner
from repro.instrument import instrument_program

#: config keys of the retired speculative process-pool executor
RETIRED_POOL_KEYS = {"workers": 2, "speculation_width": 4,
                     "speculation_depth": 4, "breaker_rebuilds": 3,
                     "heartbeat_stale": 15.0, "wedge_grace": 60.0}


@pytest.fixture(scope="module")
def seq_program():
    prog = instrument_program(["repro.targets.seq_demo"])
    yield prog
    prog.unload()


def _cfg(**kw):
    base = dict(seed=7, init_nprocs=2, nprocs_cap=4, test_timeout=5.0)
    base.update(kw)
    return CompiConfig(**base)


def _proj(result):
    return [(r.iteration, r.origin, r.nprocs, r.path_len, r.covered_after,
             r.error_kind, r.negated_site) for r in result.iterations]


def test_every_iteration_runs_once_through_run_with_retries(seq_program,
                                                             monkeypatch):
    executed = []
    run_with_retries = TestRunner.run_with_retries

    def counting(self, testcase, timeout=None):
        executed.append(testcase)
        return run_with_retries(self, testcase, timeout=timeout)

    monkeypatch.setattr(TestRunner, "run_with_retries", counting)
    with Compi(seq_program, _cfg()) as compi:
        result = compi.run(iterations=10)
    assert len(result.iterations) == 10
    assert len(executed) == 10
    assert [r.nprocs for r in result.iterations] == \
        [tc.setup.nprocs for tc in executed]


def test_checkpoint_with_retired_pool_keys_resumes_exactly(seq_program,
                                                           tmp_path):
    with Compi(seq_program, _cfg()) as reference:
        ref = reference.run(iterations=12)

    log_path = tmp_path / "part.jsonl"
    with Compi(seq_program, _cfg()) as first, CampaignLog(log_path) as log:
        first.run(iterations=5, log=log)
    state = load_checkpoint(log_path)
    state["config"].update(RETIRED_POOL_KEYS)
    write_checkpoint(log_path, state)

    resumed_c = Compi.resume(seq_program, log_path)
    assert resumed_c._iteration == 5
    with resumed_c, CampaignLog(log_path, mode="a") as log:
        resumed = resumed_c.run(iterations=7, log=log)

    assert _proj(resumed) == _proj(ref)
    assert resumed.coverage.branches == ref.coverage.branches
    assert {b.dedup_key for b in resumed.bugs} == \
        {b.dedup_key for b in ref.bugs}
