"""Fleet throughput benchmark (not a paper artifact).

Runs one small sweep three ways and records the fleet's overheads in
``benchmarks/out/BENCH_fleet.json``:

* **serial baseline** — the same shard campaigns executed inline, one
  after another, in this process (no scheduler, no daemons);
* **fleet sweep** — the same shards through ``fleet run`` on 2 pool
  daemons (``workerd``) reused across shards, with manifest fsyncs and
  result publication;
* **faulty fleet sweep** — the sweep plus a poison shard (the killer
  target) that hard-kills its daemon on every attempt, measuring what
  retries + quarantine cost the healthy siblings.

Plus a direct per-attempt measurement: a daemon's start-up (spawn →
hello, i.e. interpreter + imports + spec load) versus its dispatch
overhead (run → done roundtrip minus the same shard executed inline).

Reported: shards/minute for each mode, scheduler overhead versus the
serial baseline, daemon start-up against dispatch cost, and the
retry/quarantine counts of the faulty sweep.

Asserted contracts:

* the fleet completes every healthy shard, and its merged report is
  byte-identical to the serial baseline's (the campaigns are
  deterministic);
* dispatching onto a running daemon costs less than starting one;
* the poison shard is quarantined after its retry budget while every
  healthy sibling still completes.
"""

import json
import os
import subprocess
import sys
import time

from conftest import OUT_DIR, scaled

from repro.core import format_table
from repro.fleet import FleetSpec, fleet_paths, load_state, merge_results
from repro.fleet.manifest import DONE, QUARANTINED, FleetManifest
from repro.fleet.pool import read_frame, write_frame
from repro.fleet.results import report_text
from repro.fleet.service import fleet_run
from repro.fleet.worker import execute_shard

ITERS = scaled(6)

SPEC = {
    "fleet": "bench",
    "matrix": {"target": ["demo", "seq_demo"],
               "strategy": ["two-phase", "random-branch"]},
    "shard": {"iterations": ITERS},
    "failure": {"max_failures": 2, "backoff": 0.05, "jitter": 0.0},
    "workers": 2,
}


def _write_spec(tmp_path, d, name):
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return p


def _serial_baseline(tmp_path):
    """Every shard campaign inline: the no-scheduler floor, recorded in
    a manifest so it merges into the reference report."""
    spec = FleetSpec.from_dict(SPEC)
    root = tmp_path / "serial"
    with FleetManifest.create(fleet_paths(root), spec) as manifest:
        t0 = time.monotonic()
        for shard in spec.expand():
            payload = execute_shard(root, shard)
            manifest.shard_start(shard.shard_id, 1, 0)
            manifest.shard_done(shard.shard_id, 1, payload["summary"])
        wall = time.monotonic() - t0
    return wall, len(spec.expand()), merge_results(root, load_state(root))


def _fleet_sweep(tmp_path, spec_dict, name):
    spec_path = _write_spec(tmp_path, spec_dict, f"{name}.json")
    root = tmp_path / name
    t0 = time.monotonic()
    fleet_run(spec_path, root, echo=lambda _msg: None)
    wall = time.monotonic() - t0
    state = load_state(root)
    return wall, state, merge_results(root, state)


def _daemon_costs(tmp_path):
    """Measure what a daemon costs to start against what it costs to use.

    * ``startup_s`` — spawn → hello on a fresh ``workerd``: the
      interpreter + import + spec-load bill a daemon pays once;
    * ``dispatch_overhead_s`` — a running daemon's run → done roundtrip
      for a 1-iteration shard, minus the same shard executed inline (so
      only the protocol + scheduling slack remains).
    """
    spec = FleetSpec.from_dict({
        "fleet": "bench-pool", "matrix": {"target": ["seq_demo"]},
        "shard": {"iterations": 1},
        "failure": {"max_failures": 2}, "workers": 1})
    (shard,) = spec.expand()

    inline_root = tmp_path / "pool-inline"
    fleet_paths(inline_root).ensure()
    execute_shard(inline_root, shard)       # warm this process's caches
    t0 = time.monotonic()
    execute_shard(inline_root, shard)
    inline_wall = time.monotonic() - t0

    daemon_root = tmp_path / "pool-daemon"
    paths = fleet_paths(daemon_root)
    FleetManifest.create(paths, spec).close()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "workerd",
         "--dir", str(daemon_root), "--worker", "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, env=env)
    try:
        hello = read_frame(proc.stdout)
        startup = time.monotonic() - t0
        assert hello["type"] == "hello"
        # first shard warms the daemon's own caches; time the second
        for _ in range(2):
            t0 = time.monotonic()
            write_frame(proc.stdin, {"type": "run",
                                     "shard": shard.shard_id})
            resp = read_frame(proc.stdout)
            roundtrip = time.monotonic() - t0
            assert resp["status"] == "ok"
        write_frame(proc.stdin, {"type": "exit"})
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return startup, max(roundtrip - inline_wall, 0.0)


def test_fleet_throughput(once, tmp_path):
    def experiment():
        serial_wall, n_shards, serial_report = _serial_baseline(tmp_path)

        fleet_wall, state, report = _fleet_sweep(tmp_path, SPEC, "fleet")
        counts = state.counts()
        assert counts[DONE] == n_shards, counts
        assert state.pool.spawns >= 1
        # the determinism bar: the daemons ran exactly the serial shards
        assert report_text(report) == report_text(serial_report)

        startup, dispatch = _daemon_costs(tmp_path)
        # the whole point of the pool: dispatching onto a running daemon
        # must cost less than standing one up
        assert dispatch < startup

        faulty = dict(SPEC, fleet="bench-faulty")
        faulty["matrix"] = dict(SPEC["matrix"],
                                target=["demo", "seq_demo", "killer"])
        faulty_wall, f_state, f_report = _fleet_sweep(tmp_path, faulty,
                                                      "faulty")
        f_counts = f_state.counts()
        retries = sum(st.failures for st in f_state.shards.values())
        quarantined = [sid for sid, st in f_state.shards.items()
                       if st.status == QUARANTINED]
        assert all(sid.startswith("killer--") for sid in quarantined)
        assert len(quarantined) == 2  # killer x both strategies
        assert f_counts[DONE] == n_shards  # healthy siblings all finish

        return {
            "shards": n_shards,
            "iterations_per_shard": ITERS,
            "serial": {
                "wall_s": round(serial_wall, 3),
                "shards_per_min": round(60 * n_shards / serial_wall, 2),
            },
            "fleet": {
                "workers": SPEC["workers"],
                "wall_s": round(fleet_wall, 3),
                "shards_per_min": round(60 * n_shards / fleet_wall, 2),
                "overhead_vs_serial": round(fleet_wall / serial_wall, 2),
                "daemons_spawned": state.pool.spawns,
                "report_byte_identical_to_serial": True,
            },
            "daemon": {
                "startup_s": round(startup, 3),
                "dispatch_overhead_s": round(dispatch, 4),
                "startup_over_dispatch": round(
                    startup / max(dispatch, 1e-4), 1),
            },
            "faulty_fleet": {
                "shards": len(f_state.shard_ids()),
                "wall_s": round(faulty_wall, 3),
                "retries": retries,
                "quarantined": len(quarantined),
                "done": f_counts[DONE],
            },
        }

    data = once(experiment)

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_fleet.json").write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n")

    rows = [
        ["serial inline", 1, data["serial"]["wall_s"],
         data["serial"]["shards_per_min"], "-", "-"],
        ["fleet", data["fleet"]["workers"], data["fleet"]["wall_s"],
         data["fleet"]["shards_per_min"],
         f'{data["fleet"]["overhead_vs_serial"]}x', "-"],
        ["fleet + poison shard", data["fleet"]["workers"],
         data["faulty_fleet"]["wall_s"], "-",
         f'{data["faulty_fleet"]["retries"]} retries',
         f'{data["faulty_fleet"]["quarantined"]} quarantined'],
    ]
    table = format_table(
        ["mode", "workers", "wall s", "shards/min", "overhead", "poison"],
        rows, title=f"fleet throughput ({data['shards']} shards x "
                    f"{ITERS} iterations)")
    daemon = data["daemon"]
    print(f"\n{table}\n"
          f"per daemon: start-up {daemon['startup_s']}s vs dispatch "
          f"overhead {daemon['dispatch_overhead_s']}s "
          f"({daemon['startup_over_dispatch']}x)\n")
