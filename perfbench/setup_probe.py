"""Child process of the set-up measurement.

    python3 perfbench/setup_probe.py <workload> <scratch-dir>

Does what ``repro run`` (or ``repro fleet run``) does before its first
execution, prints ``ready`` on stdout, then tears everything down and
exits.  The parent times spawn to ``ready``, so interpreter start-up and
imports count, as they do for a user.

* campaign workloads: import the CLI, instrument the target, build the
  campaign with the workload's flags, open its campaign log if it keeps
  one;
* ``fleet-warm``: import the fleet, load the sweep spec the parent wrote
  to ``<scratch-dir>/spec.json``, create the manifest, and bring up the
  warm pool's daemons (spawn to hello, concurrently, as the scheduler's
  first shard tasks do).
"""

from __future__ import annotations

import asyncio
import os
import sys
from pathlib import Path


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def campaign(workload, scratch: Path) -> None:
    from repro.__main__ import load_target
    from repro.core import Compi
    from repro.core.persist import CampaignLog

    program = load_target(workload.target)
    compi = Compi(program, workload.config(0))
    log = (CampaignLog(scratch / "setup.jsonl", mode="w")
           if workload.logged else None)
    if log is not None:
        log.__enter__()
    _ready()
    if log is not None:
        log.__exit__(None, None, None)
    compi.close()
    program.unload()


def fleet(scratch: Path) -> None:
    from repro.fleet import fleet_paths
    from repro.fleet.manifest import FleetManifest
    from repro.fleet.pool import WarmPool
    from repro.fleet.spec import load_spec

    spec = load_spec(scratch / "spec.json")
    paths = fleet_paths(scratch / "fleet")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    with FleetManifest.create(paths, spec) as manifest:
        pool = WarmPool(paths, spec.pool, manifest, env=env)

        async def bring_up() -> None:
            workers = await asyncio.gather(
                *(pool.try_acquire() for _ in range(spec.pool.warm)))
            if any(w is None for w in workers):
                raise RuntimeError("a warm daemon failed to start")
            _ready()
            for w in workers:
                await pool.release(w, {"tasks_done": 0})
            await pool.close()

        asyncio.run(bring_up())


def main(argv: list) -> int:
    from workloads import WORKLOADS
    workload, scratch = WORKLOADS[argv[0]], Path(argv[1])
    if workload.fleet:
        fleet(scratch)
    else:
        campaign(workload, scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
