"""Engine hot-path benchmark (not a paper artifact).

Measures what the hot-path era bought (docs/PERFORMANCE.md) and writes
``benchmarks/out/BENCH_engine.json``:

* **executions/sec** — a demo campaign under the pre-PR engine
  (poll-quantized job monitor) vs the current engine.  The pre-PR
  monitor is restored faithfully by substituting the historical
  ``time.sleep`` poll for :func:`repro.mpi.runtime._monitor_wait`.
  The pre-PR per-call probes and rebuild-per-solve solving no longer
  exist, so both columns run the current probes and solve session.
* **probe overhead** — wall time of one fixed loop-heavy execution:
  uninstrumented vs instrumented (batched probes).
* **solver time share** — in-solver seconds over campaign seconds.

Asserted contracts:

* current engine reaches >= 1.5x the pre-PR executions/sec (the PR's
  acceptance gate);
* batched probes stay under a checked-in overhead ceiling vs
  uninstrumented execution (the CI ``engine-bench-smoke`` gate).

Trajectory determinism is pinned by the golden digests
(``tests/golden.py``), not here.
"""

import json
import statistics
import time

from conftest import OUT_DIR, scaled

import repro.mpi.runtime as mpi_runtime
from repro.core import Compi, CompiConfig, TestSetup
from repro.core.runner import TestRunner
from repro.core.testcase import TestCase
from repro.instrument import instrument_program
from repro.mpi import run_spmd
from repro.targets import demo as demo_module

CAMPAIGN_ITERS = 120
NPROCS = 6
#: acceptance gate: current vs pre-PR executions/sec on demo
SPEEDUP_FLOOR = 1.5
#: CI ceiling: batched-probe execution over uninstrumented execution.
#: Measured ~8-10x on the loop-heavy workload; the ceiling leaves noise
#: headroom while still catching a probe-path regression.
BATCHED_OVERHEAD_CEILING = 25.0
#: loop-heavy fixed workload for the probe-overhead measurement
PROBE_INPUTS = {"x": 1500, "y": 200}
PROBE_REPEATS = 9

_event_wait = mpi_runtime._monitor_wait


def _poll_wait(all_done, period):
    """The pre-PR monitor pause: sleep the full period regardless of
    completion (quantizes every execution up to the poll period)."""
    time.sleep(period)


def _cfg():
    return CompiConfig(seed=0, init_nprocs=NPROCS, nprocs_cap=8,
                       test_timeout=10.0)


def _campaign(iters, pre_pr_monitor=False):
    """One demo campaign; returns (result, wall_s)."""
    mpi_runtime._monitor_wait = _poll_wait if pre_pr_monitor \
        else _event_wait
    program = instrument_program(["repro.targets.demo"])
    try:
        with Compi(program, _cfg()) as compi:
            t0 = time.perf_counter()
            result = compi.run(iterations=iters)
            wall = time.perf_counter() - t0
        return result, wall
    finally:
        mpi_runtime._monitor_wait = _event_wait
        program.unload()


def _campaign_row(iters, result, wall):
    return {
        "wall_s": round(wall, 3),
        "execs_per_sec": round(iters / wall, 1),
        "solver_time_s": round(result.solver.solve_time, 4),
        "solver_share": round(result.solver.solve_time / wall, 4),
    }


def _uninstrumented_ms():
    """Median wall of the raw demo entry — no probes at all."""

    def entry(mpi):
        return demo_module.main(mpi, dict(PROBE_INPUTS))

    walls = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        job = run_spmd(entry, size=NPROCS, timeout=10.0)
        walls.append(time.perf_counter() - t0)
        assert job.ok
    return statistics.median(walls) * 1000.0


def _instrumented_ms():
    """Median wall of the same workload through the instrumented build."""
    program = instrument_program(["repro.targets.demo"])
    try:
        runner = TestRunner(program, _cfg())
        tc = TestCase(inputs=dict(PROBE_INPUTS), setup=TestSetup(NPROCS, 0))
        walls = []
        for _ in range(PROBE_REPEATS):
            rec = runner.run(tc)
            walls.append(rec.wall_time)
        return statistics.median(walls) * 1000.0
    finally:
        program.unload()


def _measure():
    iters = scaled(CAMPAIGN_ITERS)

    # -- executions/sec: pre-PR engine vs current ----------------------
    r_before, w_before = _campaign(iters, pre_pr_monitor=True)
    r_after, w_after = _campaign(iters)
    assert r_after.coverage.branches == r_before.coverage.branches
    assert ({b.dedup_key for b in r_after.bugs}
            == {b.dedup_key for b in r_before.bugs})

    # -- probe overhead vs uninstrumented ------------------------------
    plain_ms = _uninstrumented_ms()
    batched_ms = _instrumented_ms()

    return {
        "config": {
            "target": "demo",
            "iterations": iters,
            "nprocs": NPROCS,
            "probe_inputs": PROBE_INPUTS,
        },
        "campaign": {
            "before": _campaign_row(iters, r_before, w_before),
            "after": _campaign_row(iters, r_after, w_after),
            "speedup_execs_per_sec": round(w_before / w_after, 2),
        },
        "probe_overhead": {
            "uninstrumented_ms": round(plain_ms, 2),
            "batched_ms": round(batched_ms, 2),
            "batched_ratio": round(batched_ms / plain_ms, 2),
        },
    }


def test_engine_hotpath(once):
    results = once(_measure)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "BENCH_engine.json"
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\n{json.dumps(results, indent=2, sort_keys=True)}\n")

    speedup = results["campaign"]["speedup_execs_per_sec"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"engine only {speedup}x the pre-PR executions/sec "
        f"(floor {SPEEDUP_FLOOR}x)")

    probe = results["probe_overhead"]
    assert probe["batched_ratio"] <= BATCHED_OVERHEAD_CEILING, (
        f"batched probe overhead {probe['batched_ratio']}x uninstrumented "
        f"(ceiling {BATCHED_OVERHEAD_CEILING}x)")
