"""Golden trajectories: wall-clock-free digests of fixed-seed campaigns.

Every execution mode (uninterrupted, resumed from a checkpoint, solver
cache off) must reproduce the same committed campaign.  Instead of
running a second implementation next to the one under test and
comparing the two, each mode is checked against a digest recorded once
and committed here.

:func:`campaign_digest` returns two parts:

* the **trajectory**: a hash of every committed run (inputs, setup,
  schedule ID, per-run coverage), every iteration record (minus the
  wall-clock fields), the final coverage and the bugs;
* the twelve **deterministic solver counters** of the committed solve
  stream.  A mode that legitimately changes the solver's work (the
  counterexample cache switched off) compares the trajectory only.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib

from repro.__main__ import add_common, build_config
from repro.core import Compi
from repro.core.persist import CampaignLog

#: iterations per golden campaign
ITERATIONS = {"demo": 40, "hpl": 40, "race": 60, "susy": 60}

#: the ``repro run`` arguments of each golden campaign (plus ``--seed``)
CLI = {
    "demo": ("--target", "demo"),
    "hpl": ("--target", "hpl"),
    "race": ("--target", "race", "--explore-schedules"),
    "susy": ("--target", "susy", "--nprocs", "4",
             "--portfolio", "dfs2,bounded,random,cfg"),
}

#: campaigns run with a flat 30 s per-test timeout: their slowest inputs
#: run past the adaptive timeout's floor, where a hang verdict would
#: depend on the host
FLAT_TIMEOUT = {"demo", "hpl", "susy"}

#: (target, seed) → (trajectory digest, solver counters), recorded on
#: serial campaigns; each entry was confirmed identical across the
#: probe and solver implementations it pins
GOLDEN: dict[tuple[str, int], tuple[str, tuple[int, ...]]] = {
    ("demo", 0): ("44315ac9b293b741",
                  (38, 9, 12, 17, 0, 11, 6, 17, 19, 19, 148, 5)),
    ("demo", 1): ("0e7080bb328eea66",
                  (39, 9, 14, 16, 0, 11, 5, 16, 19, 19, 152, 5)),
    ("demo", 2): ("1399ce76a4c664be",
                  (35, 10, 12, 13, 0, 8, 5, 13, 13, 13, 136, 5)),
    ("hpl", 0): ("e7fb697dd3d2210c",
                 (41, 8, 0, 33, 0, 31, 2, 33, 42, 42, 109, 10)),
    ("hpl", 1): ("f6d396a36a96bb47",
                 (41, 8, 0, 33, 0, 31, 2, 33, 42, 42, 109, 10)),
    ("hpl", 2): ("fe90cc2ae3b052de",
                 (41, 8, 0, 33, 0, 31, 2, 33, 42, 42, 109, 10)),
    ("race", 0): ("4fbda8322dd486bf",
                  (16, 1, 1, 14, 0, 8, 6, 14, 11, 11, 69, 7)),
    ("race", 1): ("9dff643c9c5b5a54",
                  (17, 1, 1, 15, 0, 9, 6, 15, 12, 12, 70, 7)),
    ("race", 2): ("e76ec02dcc95d12c",
                  (17, 1, 1, 15, 0, 9, 6, 15, 12, 12, 70, 7)),
    ("susy", 0): ("9e28fa2e2d02cc40",
                  (109, 12, 65, 32, 0, 26, 6, 32, 26, 26, 320, 8)),
    ("susy", 1): ("9821b9e6c0c4dbab",
                  (106, 14, 58, 34, 0, 26, 8, 34, 26, 26, 305, 8)),
    ("susy", 2): ("9311b010d46aedcc",
                  (111, 13, 63, 35, 0, 27, 8, 35, 27, 27, 320, 8)),
}


def golden_config(target: str, seed: int, **overrides):
    """The config of the golden ``target`` campaign at ``seed``, with
    ``overrides`` (execution-mode fields) applied on top."""
    parser = argparse.ArgumentParser()
    add_common(parser)
    cfg = build_config(parser.parse_args(
        list(CLI[target]) + ["--seed", str(seed)]))
    if target in FLAT_TIMEOUT:
        overrides = {"adaptive_timeout": False, "test_timeout": 30.0,
                     **overrides}
    return dataclasses.replace(cfg, **overrides)


def tap_runs(compi: Compi, runs: list) -> None:
    """Append one entry per committed run of ``compi`` to ``runs``."""
    collector = compi.engine.collector
    absorb = collector.absorb

    def tap(cand, outcome, iteration):
        tc = cand.testcase
        runs.append((iteration, sorted(tc.inputs.items()), tc.setup.nprocs,
                     tc.setup.focus, outcome.schedule,
                     sorted(outcome.coverage.branches)))
        return absorb(cand, outcome, iteration)

    collector.absorb = tap


def solver_counters(s) -> tuple[int, ...]:
    """The deterministic counters of a :class:`SolverStats`."""
    return (s.solves, s.cache_hits, s.unsat_hits, s.cache_misses,
            s.stale_hits, s.sat_solves, s.unsat_solves, s.stores,
            s.nodes, s.propagations, s.slice_constraints, s.max_slice)


def campaign_digest(result, runs: list) -> tuple[str, tuple[int, ...]]:
    """``(trajectory digest, solver counters)`` of a finished campaign
    whose committed runs :func:`tap_runs` collected into ``runs``."""
    h = hashlib.sha256()
    for run in runs:
        h.update(repr(run).encode())
    for r in result.iterations:
        h.update(repr((r.iteration, r.origin, r.nprocs, r.focus, r.path_len,
                       r.event_count, r.covered_after, r.error_kind,
                       r.negated_site, r.arm, r.schedule, r.focus_log_size,
                       r.nonfocus_log_avg)).encode())
    h.update(repr(sorted(result.coverage.branches)).encode())
    h.update(repr(sorted({b.dedup_key for b in result.bugs})).encode())
    for b in result.bugs:
        h.update(repr((b.iteration, b.kind, b.signature, b.schedule,
                       b.pending_ops)).encode())
    return h.hexdigest()[:16], solver_counters(result.solver)


def run_golden(program, target: str, seed: int, log_path=None,
               **overrides):
    """Run the golden ``target`` campaign at ``seed``; returns
    ``(result, campaign_digest(result, runs))``.  With ``log_path`` the
    campaign streams a log there, so crash triage writes minimized
    reproducers under ``<log_path>.repro/``."""
    runs: list = []
    with contextlib.ExitStack() as stack:
        c = stack.enter_context(
            Compi(program, golden_config(target, seed, **overrides)))
        log = (None if log_path is None
               else stack.enter_context(CampaignLog(log_path)))
        tap_runs(c, runs)
        result = c.run(iterations=ITERATIONS[target], log=log)
    return result, campaign_digest(result, runs)
