"""COMPI campaign benchmark.

    python3 perfbench/run.py --workload susy-logged --seed 3 --trace 0

Runs one workload (see ``perfbench/README.md``) from this process,
checks its outputs against known answers, prints every metric by name
with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of an untraced pass.
``--trace 1`` runs the same untraced pass, then a traced pass of the
same campaigns with spans around every layer's public functions, and
reports the per-layer metrics; the spans go to
``perfbench/out/spans-<workload>-s<seed>.json``.

Run it from the root of a repository checkout: it imports the package
from ``src/`` and exits with status 2 when that is missing.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: set-up measurements per run (median reported)
SETUP_REPEATS = {"campaign": 5, "fleet": 4}
#: repeats of the fixed test case behind ``probes.overhead_x``
PROBE_REPEATS = 9
#: seconds one set-up child may take before it counts as broken
SETUP_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# host context


def _cpu_times() -> tuple:
    """(steal jiffies, total jiffies) from the first line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def _process_cpu() -> float:
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (self_ru.ru_utime + self_ru.ru_stime
            + kids.ru_utime + kids.ru_stime)


class HostWindow:
    """Steal share and CPU-over-wall of the host during one pass."""

    def __enter__(self):
        self._steal, self._total = _cpu_times()
        self._cpu = _process_cpu()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        steal, total = _cpu_times()
        wall = time.perf_counter() - self._t0
        self.steal_frac = ((steal - self._steal) / (total - self._total)
                           if total > self._total else 0.0)
        self.cpu_per_wall = (_process_cpu() - self._cpu) / wall


class ChildRss:
    """Samples the peak RSS (VmHWM) of this process's children."""

    PERIOD_S = 0.1

    def __init__(self):
        self.peak_kb: dict = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _children(self) -> list:
        pids = []
        for task in os.listdir(f"/proc/{os.getpid()}/task"):
            try:
                with open(f"/proc/{os.getpid()}/task/{task}/children") as fh:
                    pids += fh.read().split()
            except OSError:
                pass
        return pids

    def _loop(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            for pid in self._children():
                try:
                    with open(f"/proc/{pid}/status") as fh:
                        for line in fh:
                            if line.startswith("VmHWM:"):
                                kb = int(line.split()[1])
                                self.peak_kb[pid] = max(
                                    kb, self.peak_kb.get(pid, 0))
                except (OSError, ValueError):
                    pass

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)


# ----------------------------------------------------------------------
# set-up


def setup_seconds(workload, tmp: Path, seeds: list) -> list:
    """Spawn-to-ready of :mod:`setup_probe`, repeated; one value each."""
    from workloads import fleet_spec
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    kind = "fleet" if workload.fleet else "campaign"
    times = []
    for i in range(SETUP_REPEATS[kind]):
        scratch = tmp / f"setup{i}"
        scratch.mkdir(parents=True)
        if workload.fleet:
            (scratch / "spec.json").write_text(json.dumps(fleet_spec(seeds)))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name,
             str(scratch)], stdout=subprocess.PIPE, env=env, cwd=str(ROOT))
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            rc = proc.wait(timeout=SETUP_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or rc != 0:
            raise RuntimeError(f"set-up child failed (exit {rc})")
        shutil.rmtree(scratch, ignore_errors=True)
    return times


# ----------------------------------------------------------------------
# passes


def campaign_pass(workload, seeds: list, tmp: Path, tracer=None) -> list:
    from workloads import run_campaign
    return [run_campaign(workload, s, tmp, tracer=tracer) for s in seeds]


def sweep_seeds(workload, seed: int, sweeps: int) -> list:
    from workloads import FLEET_SEEDS_PER_SWEEP
    flat = workload.seeds(seed, sweeps * FLEET_SEEDS_PER_SWEEP)
    return [flat[i::sweeps] for i in range(sweeps)]


def fleet_pass(seed_sets: list, tmp: Path, tracer=None) -> list:
    """The sweeps; each one's peak RSS includes its warm daemons'."""
    from workloads import run_sweep
    sweeps = []
    for i, seeds in enumerate(seed_sets):
        with ChildRss() as kids:
            sweep = run_sweep(seeds, tmp / ("traced" if tracer else "plain"),
                              i, tracer=tracer)
        sweep.peak_rss_mb += sum(kids.peak_kb.values()) / 1024.0
        sweeps.append(sweep)
    return sweeps


def warm_up(workload, tmp: Path) -> None:
    """A short untimed campaign: lazy imports and first-use costs land
    here instead of in the first measured campaign."""
    from workloads import WORKLOADS, run_campaign
    base = workload if not workload.fleet else WORKLOADS["susy-logged"]
    run_campaign(base, 0, tmp, iterations=3)


# ----------------------------------------------------------------------
# metrics


def m(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def interquartile_mean(values) -> float:
    """Mean of the middle half of ``values``."""
    xs = sorted(values)
    k = len(xs) // 4
    return statistics.fmean(xs[k:len(xs) - k])


def end_to_end(workload, units: list, setups: list) -> dict:
    """Rates, times and peak RSS: interquartile means over the run's
    campaigns, medians over its sweeps on the fleet.

    A total moved 20-40% with whether a run drew a campaign that hit a
    slow SUSY input, and a median jumped between the two groups that
    race campaigns reach full coverage in.  A sweep that holds a slow
    SUSY shard takes 3-4x as long, and about one sweep in ten holds one;
    the median of seven sweeps leaves up to three of them out."""
    if workload.fleet:
        rates = [s.iterations / s.wall_s for s in units]
        mid = statistics.median
    else:
        rates = [c.execs / c.wall_s for c in units]
        mid = interquartile_mean
    return {
        "execs_per_s": m(mid(rates), "1/s"),
        "time_to_cov_s": m(mid(u.time_to_cov_s for u in units), "s"),
        "setup_s": m(statistics.median(setups), "s"),
        "peak_rss_mb": m(mid(u.peak_rss_mb for u in units), "MB"),
    }


def failures(workload, units: list) -> tuple:
    """(attempted, failed) operations of an untraced pass."""
    from workloads import campaign_failures
    if workload.fleet:
        return (sum(s.attempts for s in units),
                sum(s.attempts - s.done + s.hangs for s in units))
    return (sum(c.execs for c in units),
            sum(campaign_failures(c) for c in units))


def tail(values: list) -> tuple:
    """(percentile, value): the highest of p50/p75/p90/p95/p99 that has
    at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    best = (50.0, statistics.median(xs) if xs else 0.0)
    for p in (75.0, 90.0, 95.0, 99.0):
        if n * (1 - p / 100.0) >= 10:
            best = (p, xs[min(n - 1, int(round(p / 100.0 * (n - 1))))])
    return best


def probe_overhead(workload) -> float:
    """One fixed test case (the target's declared defaults, 4 ranks,
    focus 0) through ``TestRunner.run`` over the uninstrumented entry
    via ``run_spmd``; medians of :data:`PROBE_REPEATS` runs each.
    Schedule exploration is off on both sides, so only probes differ."""
    from workloads import FLEET_TARGETS, cli_config

    from repro.__main__ import TARGETS, load_target
    from repro.core.conflicts import TestSetup
    from repro.core.runner import TestRunner
    from repro.core.testcase import default_testcase, specs_from_module
    from repro.mpi import run_spmd

    target = FLEET_TARGETS[0] if workload.fleet else workload.target
    modules, entry = TARGETS[target]
    if isinstance(modules, str):
        pkg = importlib.import_module(modules)
        entry = pkg.ENTRY
    raw = importlib.import_module(entry)
    tc = default_testcase(specs_from_module(raw), TestSetup(4, 0))

    def plain(mpi):
        return raw.main(mpi, dict(tc.inputs))

    base = (cli_config(("--target", target), 0) if workload.fleet
            else workload.config(0))
    config = dataclasses.replace(base, explore_schedules=False)
    program = load_target(target)
    raw_walls, walls = [], []
    try:
        runner = TestRunner(program, config)
        for _ in range(PROBE_REPEATS):   # alternate, so drift hits both
            t0 = time.perf_counter()
            run_spmd(plain, size=4, timeout=60.0)
            raw_walls.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            runner.run(tc, timeout=60.0)
            walls.append(time.perf_counter() - t0)
    finally:
        program.unload()
    return statistics.median(walls) / statistics.median(raw_walls)


def campaign_layers(tracer, containers: list) -> dict:
    """Per-layer metrics from the spans below ``containers`` (campaign
    spans, or the fleet's inline shard runs)."""
    ids = {c.id for c in containers}

    def spans(name):
        return tracer.named(name, ids)

    def total(name):
        return sum(s.duration for s in spans(name))

    def self_total(name):
        return sum(s.self_s for s in spans(name))

    runner = spans("runner")
    walls = [s.duration for s in runner]
    tail_pct, tail_s = tail(walls)
    margins = [s.info["margin"] for s in runner if s.info]
    container_wall = sum(c.duration for c in containers)
    attributed = sum(ch.duration for c in containers
                     for ch in tracer.children(c))
    instrument = tracer.named("instrument")
    ckpts = spans("persist.checkpoint")
    return {
        "instrument.program_s": m(statistics.median(
            s.duration for s in instrument) if instrument else 0.0, "s"),
        "instrument.sites": m(instrument[0].info if instrument else 0,
                              "count"),
        "mpi.run_job_s": m(total("mpi"), "s"),
        "mpi.jobs": m(len(spans("mpi")), "count"),
        "runner.run_s": m(total("runner"), "s"),
        "runner.harvest_s": m(self_total("runner"), "s"),
        "runner.exec_p50_ms": m(1000 * statistics.median(walls)
                                if walls else 0.0, "ms"),
        "runner.exec_tail_ms": m(1000 * tail_s, "ms"),
        "runner.exec_tail_pct": m(tail_pct, "%"),
        "runner.execs": m(len(walls), "count"),
        "runner.timeout_margin_min": m(min(margins) if margins else 0.0,
                                       "s"),
        "runner.hangs": m(sum(1 for s in runner
                              if s.info and s.info["hang"]), "count"),
        "solver.solve_s": m(total("solver"), "s"),
        "solver.solves": m(len(spans("solver")), "count"),
        "engine.advance_self_s": m(self_total("engine.advance"), "s"),
        "engine.collect_s": m(self_total("engine.collect"), "s"),
        "engine.other_s": m(container_wall - attributed, "s"),
        "persist.checkpoint_s": m(total("persist.checkpoint"), "s"),
        "persist.checkpoints": m(len(ckpts), "count"),
        "persist.bytes": m(sum(s.info for s in ckpts), "B"),
        "triage.minimize_s": m(total("triage"), "s"),
        "trace.attributed_frac": m(attributed / container_wall
                                   if container_wall else 0.0, "ratio"),
    }


def solver_counts(campaigns: list) -> dict:
    solves = sum(c.solver.solves for c in campaigns)
    hits = sum(c.solver.cache_hits + c.solver.unsat_hits for c in campaigns)
    return {
        "solver.nodes": m(sum(c.solver.nodes for c in campaigns), "count"),
        "solver.cache_hit_rate": m(hits / solves if solves else 0.0,
                                   "ratio"),
        "triage.probes": m(sum(c.supervision.get("minimize_probes", 0)
                               for c in campaigns), "count"),
        "schedules.explored": m(sum(c.schedules.get("explored", 0)
                                    for c in campaigns), "count"),
        "schedules.fallbacks": m(sum(c.fallbacks for c in campaigns),
                                 "count"),
        "runner.over_floor": m(sum(c.over_floor for c in campaigns),
                               "count"),
    }


def fleet_layers(tracer, plain: list, traced: list) -> dict:
    sweep_ids = {s.span_id for s in traced}
    spawns = tracer.named("fleet.spawn", sweep_ids)
    dispatch = []
    for sweep in traced:
        for lease in tracer.named("fleet.lease", {sweep.span_id}):
            wall = sweep.shard_walls.get(lease.info)
            if wall is not None:
                dispatch.append(lease.duration - wall)
    sweep_wall = sum(s.wall_s for s in plain)
    return {
        "fleet.pool_spawn_s": m(statistics.mean(
            s.duration for s in spawns) if spawns else 0.0, "s"),
        "fleet.dispatch_ms": m(1000 * statistics.median(dispatch)
                               if dispatch else 0.0, "ms"),
        "fleet.merge_s": m(sum(s.duration for s in
                               tracer.named("fleet.merge", sweep_ids)), "s"),
        "fleet.attempts": m(sum(s.attempts for s in plain), "count"),
        "fleet.retries": m(sum(s.retries for s in plain), "count"),
        "runner.over_floor": m(sum(s.over_floor for s in plain), "count"),
        "fleet.overhead_x": m(sweep_wall / sum(s.inline_wall_s
                                               for s in plain), "x"),
        "fleet.shards_per_min": m(60.0 * sum(s.shards for s in plain)
                                  / sweep_wall, "1/min"),
    }


def zero_layers(names: dict) -> dict:
    return {name: m(0.0, unit) for name, unit in names.items()}


#: per-layer metrics a workload does not exercise, reported as zero
FLEET_ONLY = {"fleet.pool_spawn_s": "s", "fleet.dispatch_ms": "ms",
              "fleet.merge_s": "s", "fleet.attempts": "count",
              "fleet.retries": "count", "fleet.overhead_x": "x",
              "fleet.shards_per_min": "1/min"}
CAMPAIGN_ONLY = {"solver.nodes": "count", "solver.cache_hit_rate": "ratio",
                 "triage.probes": "count", "schedules.explored": "count",
                 "schedules.fallbacks": "count"}


# ----------------------------------------------------------------------
# entry point


def layer_metrics(workload, seed: int, tmp: Path, inputs: list,
                  plain: list) -> tuple:
    """The traced pass over the same ``inputs`` (campaign seeds, or seed
    sets of sweeps) as the untraced pass ``plain``; returns the per-layer
    metrics it alone gives and the traced pass's check failures."""
    from tracing import Tracer
    from workloads import check_campaigns, check_sweeps, run_campaign

    tracer = Tracer()
    with tracer.installed():
        if workload.fleet:
            traced = fleet_pass(inputs, tmp, tracer=tracer)
        else:
            traced = campaign_pass(workload, inputs, tmp, tracer=tracer)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{workload.name}-s{seed}.json")
    plain_wall = sum(u.wall_s for u in plain)
    metrics = {
        "probes.overhead_x": m(probe_overhead(workload), "x"),
        "trace.overhead_x": m(sum(u.wall_s for u in traced) / plain_wall,
                              "x"),
    }
    if workload.fleet:
        problems = check_sweeps(traced)
        metrics.update(campaign_layers(tracer, tracer.named("inline")))
        metrics.update(fleet_layers(tracer, plain, traced))
        metrics.update(zero_layers(CAMPAIGN_ONLY))
        metrics["engine.divergent_campaigns"] = m(sum(
            len(set(a.diverged) | set(b.diverged)
                | {sid for sid in a.streams
                   if a.streams[sid] != b.streams.get(sid)})
            for a, b in zip(plain, traced)), "count")
        return metrics, problems

    problems = check_campaigns(workload, traced)
    metrics.update(campaign_layers(tracer, tracer.named("campaign")))
    metrics.update(solver_counts(plain))
    metrics.update(zero_layers(FLEET_ONLY))
    metrics["engine.divergent_campaigns"] = m(sum(
        a.digest != b.digest for a, b in zip(plain, traced)), "count")
    metrics["campaign.time_to_bugs_s"] = m(sum(
        c.time_to_bugs_s or 0.0 for c in plain), "s")
    if "--explore-schedules" in workload.cli:
        free = dataclasses.replace(workload, cli=tuple(
            a for a in workload.cli if a != "--explore-schedules"))
        base = [run_campaign(free, s, tmp) for s in inputs]
        metrics["schedules.exec_ratio"] = m(
            (sum(c.execs for c in base) / sum(c.wall_s for c in base))
            / (sum(c.execs for c in plain) / plain_wall), "x")
    return metrics, problems


def run(workload, seed: int, seconds: float, trace: bool, tmp: Path):
    from workloads import check_campaigns, check_sweeps

    count = workload.units(seconds)
    warm_up(workload, tmp)
    if workload.fleet:
        inputs = sweep_seeds(workload, seed, count)
        with HostWindow() as host:
            plain = fleet_pass(inputs, tmp)
        problems = check_sweeps(plain)
    else:
        inputs = workload.seeds(seed, count)
        with HostWindow() as host:
            plain = campaign_pass(workload, inputs, tmp)
        problems = check_campaigns(workload, plain)
    attempted, failed = failures(workload, plain)

    if trace:
        metrics = zero_layers({"schedules.exec_ratio": "x",
                               "campaign.time_to_bugs_s": "s"})
        layers, traced_problems = layer_metrics(workload, seed, tmp, inputs,
                                                plain)
        metrics.update(layers)
        problems += traced_problems
        metrics["harness.failed_frac"] = m(failed / attempted, "ratio")
        metrics["host.steal_frac"] = m(host.steal_frac, "ratio")
        metrics["host.cpu_per_wall"] = m(host.cpu_per_wall, "ratio")
    else:
        setups = setup_seconds(workload, tmp,
                               inputs[0] if workload.fleet else [])
        metrics = end_to_end(workload, plain, setups)

    unit = "sweep" if workload.fleet else "campaign"
    print(f"per {unit}: " + " ".join(
        f"{u.wall_s:.3f}s/{u.time_to_cov_s:.3f}s" for u in plain)
        + " (wall/time-to-coverage)")
    print(f"host: steal {100 * host.steal_frac:.2f}%, cpu/wall "
          f"{host.cpu_per_wall:.2f}; {count} {unit}s")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repro'}; run from the "
              f"root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)

    tmp = OUT / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, metric in sorted(result["metrics"].items()):
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
