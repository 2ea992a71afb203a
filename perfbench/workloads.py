"""The benchmark's workloads, the passes that run them, and their checks.

Every campaign runs a fixed iteration budget from a seed drawn from the
workload seed, so a run's work depends only on ``--seed`` and
``--seconds`` (which sets how many campaigns or sweeps a run holds),
never on how fast the host is.  Campaigns run inline and serially, in
this process, as ``repro run`` would run them with the same flags, save
for the flat timeout some workloads use (:data:`FLAT_TIMEOUT`).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import gc
import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: SUSY's four seeded bugs: (kind, "file:function") of the crash site
SUSY_BUGS = frozenset({
    ("segfault", "fields.py:alloc_warmup_sources"),
    ("segfault", "fields.py:alloc_multishift_solutions"),
    ("segfault", "fields.py:alloc_measurement_buffers"),
    ("floating-point-exception", "layout.py:setup_layout"),
})
#: the race target's two interleaving bugs
RACE_DEADLOCK = ("deadlock", "r0.0=s2.t1")
RACE_FOLD = ("assertion", "race.py:main")

#: fleet-warm: the shard matrix (seeds are drawn per sweep)
FLEET_TARGETS = ("demo", "seq_demo", "race", "susy")
FLEET_STRATEGIES = ("two-phase", "random-branch")
FLEET_SEEDS_PER_SWEEP = 2
FLEET_SHARD_ITERATIONS = 8
FLEET_WARM = 2
#: flat per-test timeout of susy-logged and the fleet shards, seconds:
#: SUSY's slowest inputs run 3-5 s, over the adaptive timeout's 2 s
#: floor, where a hang verdict depends on timing (see perfbench/README.md)
FLAT_TIMEOUT = 30.0


def cli_config(cli_args: list, seed: int):
    """The CompiConfig ``repro run <cli_args> --seed <seed>`` would use."""
    from repro.__main__ import add_common, build_config
    parser = argparse.ArgumentParser()
    add_common(parser)
    return build_config(parser.parse_args(
        list(cli_args) + ["--seed", str(seed)]))


@dataclass(frozen=True)
class Workload:
    name: str
    #: campaign workloads: the ``repro run`` flags (without ``--seed``)
    cli: tuple = ()
    iterations: int = 0
    #: stream a campaign log (JSONL + checkpoint, triage reproducers)
    logged: bool = False
    #: seconds of a run budgeted to one campaign or sweep; ``--seconds``
    #: divided by it gives the number per run.  Workloads whose campaigns
    #: vary more from seed to seed get more, shorter slots.
    budget_s: float = 1.0
    #: a flat per-test timeout in seconds in place of the CLI's adaptive
    #: one (None keeps the adaptive timeout)
    flat_timeout: Optional[float] = None

    @property
    def target(self) -> str:
        return self.cli[self.cli.index("--target") + 1]

    @property
    def fleet(self) -> bool:
        return not self.cli

    def config(self, seed: int):
        """The campaign's CompiConfig: ``repro run <cli> --seed <seed>``,
        with the flat timeout, when set, in place of the adaptive one."""
        config = cli_config(self.cli, seed)
        if self.flat_timeout is not None:
            config = dataclasses.replace(config, adaptive_timeout=False,
                                         test_timeout=self.flat_timeout)
        return config

    def units(self, seconds: float) -> int:
        """Campaigns (or sweeps) in one run of ``seconds``."""
        return max(2, round(seconds / self.budget_s))

    def seeds(self, seed: int, count: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.randrange(2 ** 31) for _ in range(count)]


#: why each workload was chosen: perfbench/README.md and BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("susy-logged",
             cli=("--target", "susy", "--nprocs", "4",
                  "--portfolio", "dfs2,bounded,random,cfg"),
             iterations=60, logged=True, budget_s=1.55,
             flat_timeout=FLAT_TIMEOUT),
    Workload("race-schedules",
             cli=("--target", "race", "--explore-schedules"),
             iterations=60, budget_s=1.8),
    Workload("fleet-warm", budget_s=2.4),
)}


# ----------------------------------------------------------------------
# campaign workloads


def reset_peak_rss() -> None:
    """Hand the heap earlier campaigns left back to the system, then lower
    this process's peak RSS (VmHWM) to its current RSS.  Without the
    trim, every campaign after one with a slow SUSY input started 6-10 MB
    higher, as a fresh ``repro run`` process would not."""
    gc.collect()
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """This process's peak RSS (VmHWM), MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


@dataclass
class Campaign:
    """What one campaign left behind, reduced to what the metrics use."""

    seed: int
    execs: int
    wall_s: float
    covered: int
    time_to_cov_s: float
    #: elapsed time when the last seeded bug was first committed (None
    #: when the target seeds none or not every seeded bug was found)
    time_to_bugs_s: Optional[float]
    found: frozenset
    hangs: int
    #: executions slower than the adaptive timeout's floor
    over_floor: int
    retries: int
    degraded: int
    fallbacks: int
    digest: str
    #: peak RSS of this process from the campaign's start to its end, MB
    peak_rss_mb: float
    solver: object
    supervision: dict
    schedules: dict
    span_id: Optional[int] = None


def _key(r) -> tuple:
    """One committed iteration, wall-clock excluded."""
    return (r.iteration, r.origin, r.nprocs, r.focus, r.path_len,
            r.event_count, r.covered_after, r.error_kind, r.negated_site,
            r.arm, r.schedule)


def _digest(records) -> str:
    """Digest of the committed iteration stream."""
    h = hashlib.sha256()
    for r in records:
        h.update(repr(_key(r)).encode())
    return h.hexdigest()[:16]


def timing_divergence(a: list, b: list) -> Optional[bool]:
    """Compare two committed iteration streams of the same campaign.

    ``None`` when they are identical; ``True`` when they first differ at
    one of the two known timing-dependent outputs — an execution that
    hit the adaptive timeout on either side (a spurious hang: where the
    timeout cuts the trace depends on timing), or the same crash
    recorded with a different path length (where an abort lands);
    ``False`` for any other difference."""
    for ra, rb in zip(a, b):
        ka, kb = _key(ra), _key(rb)
        if ka == kb:
            continue
        same_run = ka[:4] == kb[:4]
        hang = "hang" in (ra.error_kind, rb.error_kind)
        abort = (ra.error_kind is not None
                 and ra.error_kind == rb.error_kind
                 and ra.path_len != rb.path_len)
        return same_run and (hang or abort)
    return None if len(a) == len(b) else False


def _seeded(workload: Workload, bug):
    """The seeded-bug key ``bug`` matches, or None."""
    parts = bug.location.split(":")
    site = f"{parts[0]}:{parts[-1]}" if len(parts) > 1 else ""
    if workload.target == "susy" and (bug.kind, site) in SUSY_BUGS:
        return (bug.kind, site)
    if workload.target == "race":
        if bug.kind == "deadlock" and bug.schedule == RACE_DEADLOCK[1]:
            return RACE_DEADLOCK
        if (bug.kind, site) == RACE_FOLD and "fold" in bug.message:
            return RACE_FOLD
    return None


def expected_bugs(workload: Workload) -> frozenset:
    return {"susy": SUSY_BUGS,
            "race": frozenset({RACE_DEADLOCK, RACE_FOLD})}.get(
                workload.target, frozenset())


def run_campaign(workload: Workload, seed: int, tmp: Path,
                 tracer=None, iterations: Optional[int] = None) -> Campaign:
    """One ``repro run``-equivalent campaign, inline."""
    from repro.__main__ import load_target
    from repro.core import Compi, CompiConfig
    from repro.core.persist import CampaignLog

    floor = CompiConfig().timeout_floor
    reset_peak_rss()
    program = load_target(workload.target)
    compi = Compi(program, workload.config(seed))
    log_dir = tmp / f"campaign-{seed}"
    log_dir.mkdir(parents=True, exist_ok=True)
    log = (CampaignLog(log_dir / "campaign.jsonl", mode="w")
           if workload.logged else None)
    span = tracer.span("campaign") if tracer else contextlib.nullcontext()
    try:
        with log if log is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            with span as sp:
                result = compi.run(iterations=iterations or
                                   workload.iterations, log=log)
            wall = time.perf_counter() - t0
        rss_mb = peak_rss_mb()
    finally:
        compi.close()
        program.unload()
        shutil.rmtree(log_dir, ignore_errors=True)

    records = result.iterations
    final = result.covered
    t_cov = next(r.elapsed for r in records if r.covered_after == final)
    expected = expected_bugs(workload)
    first: dict = {}
    for b in result.bugs:
        key = _seeded(workload, b)
        if key is not None:
            first.setdefault(key, b.iteration)
    t_bugs = None
    if expected and set(first) == expected:
        last = max(first.values())
        t_bugs = next(r.elapsed for r in records if r.iteration == last)
    sched = result.schedules or {}
    return Campaign(
        seed=seed, execs=len(records), wall_s=wall, covered=final,
        time_to_cov_s=t_cov, time_to_bugs_s=t_bugs, found=frozenset(first),
        hangs=sum(1 for r in records if r.error_kind == "hang"),
        over_floor=sum(1 for r in records if r.wall_time >= floor),
        retries=sum(r.retries for r in records),
        degraded=sum(1 for r in records if r.degraded),
        fallbacks=int(sched.get("fallbacks", 0)),
        digest=_digest(records), peak_rss_mb=rss_mb, solver=result.solver,
        supervision=result.supervision or {}, schedules=sched,
        span_id=sp.id if tracer else None)


def check_campaigns(workload: Workload, campaigns: list) -> list:
    """Known-answer checks; returns the failures as messages."""
    problems = []
    expected = expected_bugs(workload)
    for c in campaigns:
        tag = f"{workload.name} seed {c.seed}"
        if c.execs != workload.iterations:
            problems.append(f"{tag}: {c.execs} of {workload.iterations} "
                            f"iterations committed")
        if c.covered <= 0:
            problems.append(f"{tag}: no branch covered")
        missing = expected - c.found
        if missing:
            problems.append(f"{tag}: seeded bug(s) not found: "
                            f"{sorted(missing)}")
    return problems


def campaign_failures(c: Campaign) -> int:
    """Harness failures among a campaign's executions: hangs (no target
    here seeds one), retries, degraded iterations, schedule fallbacks."""
    return c.hangs + c.retries + c.degraded + c.fallbacks


# ----------------------------------------------------------------------
# fleet-warm


@dataclass
class Sweep:
    wall_s: float
    inline_wall_s: float
    shards: int
    done: int
    attempts: int
    retries: int
    iterations: int
    time_to_cov_s: float
    #: shards whose sweep log holds a hang
    hangs: int
    #: executions in the sweep's logs slower than the adaptive floor
    over_floor: int
    #: shards whose sweep and inline iteration streams differ, and
    #: shards (or the merged report) whose report differs other than by
    #: a split at a timing-dependent output
    diverged: list
    unexplained: list
    #: peak RSS of the sweep, MB: the fleet process's while the sweep ran
    #: (the caller adds the warm daemons')
    peak_rss_mb: float
    #: per shard: the committed iteration stream of the sweep's log
    streams: dict = field(default_factory=dict)
    shard_walls: dict = field(default_factory=dict)
    span_id: Optional[int] = None


def fleet_spec(seeds: list) -> dict:
    """One fleet-warm sweep.  Crash minimization is off in the shards:
    triage of a seed-dependent handful of SUSY crashes would dominate
    small shards, and triage is measured on ``susy-logged``.  The shards
    use the flat timeout, as ``susy-logged`` does."""
    return {
        "fleet": "perfbench",
        "matrix": {"target": list(FLEET_TARGETS),
                   "strategy": list(FLEET_STRATEGIES),
                   "seed": list(seeds), "nprocs": [4]},
        "shard": {"iterations": FLEET_SHARD_ITERATIONS,
                  "config": {"minimize_crashes": False,
                             "adaptive_timeout": False,
                             "test_timeout": FLAT_TIMEOUT}},
        "workers": FLEET_WARM,
        "pool": {"warm": FLEET_WARM},
    }


def run_sweep(seeds: list, tmp: Path, index: int, tracer=None) -> Sweep:
    """One warm-pool sweep, then the same shards inline for the check."""
    import repro.fleet.service as service
    from repro.core import CompiConfig
    from repro.core.persist import load_campaign
    from repro.fleet import FleetSpec, fleet_paths, load_state
    from repro.fleet.manifest import DONE, FleetManifest
    from repro.fleet.results import merge_results, report_text
    from repro.fleet.worker import execute_shard

    tmp.mkdir(parents=True, exist_ok=True)
    spec_dict = fleet_spec(seeds)
    spec_path = tmp / f"sweep{index}.json"
    spec_path.write_text(json.dumps(spec_dict))
    root = tmp / f"sweep{index}"
    span = tracer.span("sweep") if tracer else contextlib.nullcontext()
    reset_peak_rss()
    t0 = time.perf_counter()
    with span as sp:
        service.fleet_run(spec_path, root, echo=lambda _msg: None)
    wall = time.perf_counter() - t0
    rss_mb = peak_rss_mb()
    state = load_state(root)
    report = merge_results(root, state)

    spec = FleetSpec.from_dict(spec_dict)
    inline_root = tmp / f"inline{index}"
    inline_span = (tracer.span("inline") if tracer
                   else contextlib.nullcontext())
    with FleetManifest.create(fleet_paths(inline_root), spec) as manifest:
        t0 = time.perf_counter()
        with inline_span:
            for shard in spec.expand():
                payload = execute_shard(inline_root, shard)
                manifest.shard_start(shard.shard_id, 1, 0)
                manifest.shard_done(shard.shard_id, 1, payload["summary"])
        inline_wall = time.perf_counter() - t0
    inline_report = merge_results(inline_root, load_state(inline_root))

    paths, inline_paths = fleet_paths(root), fleet_paths(inline_root)
    rows = {sh.shard_id: sh for sh in report.shards}
    inline_rows = {sh.shard_id: sh for sh in inline_report.shards}
    streams, shard_walls = {}, {}
    t_cov = 0.0
    hangs = over_floor = 0
    floor = CompiConfig().timeout_floor
    diverged, timing_splits = [], set()
    for sid in state.shard_ids():
        records = load_campaign(paths.shard_log(sid))["iterations"]
        streams[sid] = [_key(r) for r in records]
        if records:
            final = records[-1].covered_after
            t_cov += next(r.elapsed for r in records
                          if r.covered_after == final)
        hangs += any(r.error_kind == "hang" for r in records)
        over_floor += sum(1 for r in records if r.wall_time >= floor)
        split = timing_divergence(records, load_campaign(
            inline_paths.shard_log(sid))["iterations"])
        if split is not None:
            diverged.append(sid)
        if split:
            timing_splits.add(sid)
        result = paths.shard_result(sid)
        if result.exists():
            shard_walls[sid] = json.loads(result.read_text())["wall_time"]
    unexplained = []
    if (report_text(report, with_coverage=True)
            != report_text(inline_report, with_coverage=True)):
        differing = [sid for sid in rows
                     if rows[sid] != inline_rows.get(sid)]
        unexplained = ([sid for sid in differing if sid not in timing_splits]
                       if differing else ["merged report"])
    return Sweep(
        wall_s=wall, inline_wall_s=inline_wall,
        shards=len(state.shard_ids()), done=state.counts()[DONE],
        attempts=sum(st.attempts for st in state.shards.values()),
        retries=sum(st.failures for st in state.shards.values()),
        iterations=report.total_iterations, time_to_cov_s=t_cov,
        hangs=hangs, over_floor=over_floor, diverged=diverged,
        unexplained=unexplained, peak_rss_mb=rss_mb,
        streams=streams, shard_walls=shard_walls,
        span_id=sp.id if tracer else None)


def check_sweeps(sweeps: list) -> list:
    problems = []
    for i, s in enumerate(sweeps):
        if s.done != s.shards:
            problems.append(f"fleet-warm sweep {i}: {s.done} of {s.shards} "
                            f"shards done")
        if s.unexplained:
            problems.append(f"fleet-warm sweep {i}: merged report differs "
                            f"from the same shards run inline "
                            f"({', '.join(s.unexplained)})")
    return problems
