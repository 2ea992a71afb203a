"""The CLI-facing fleet façade: run / resume / status / report / workerd.

Exit-code contract (shared with ``repro run``):

* ``0`` — the sweep completed, no fleet-level failures, no bugs found;
* ``1`` — the sweep completed and found bugs (bugs are the *product* of
  a bug-finding sweep, but scripts still deserve a signal);
* ``2`` — unrecoverable fleet trouble: shards quarantined, shards still
  pending after the run (interrupted, or stopped by the pool's circuit
  breaker), a bad spec, or a missing fleet directory.  Automation keying on ``repro fleet run && ...`` never
  mistakes a half-done or poisoned sweep for a clean one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Optional, Union

from .heartbeat import HeartbeatMonitor
from .manifest import (DONE, FleetManifest, FleetState, QUARANTINED,
                       fleet_paths, kill_orphans, load_state)
from .results import merge_results, report_text, status_text
from .scheduler import FleetScheduler
from .spec import FleetSpecError, load_spec

Echo = Callable[[str], None]

#: exit status for unrecoverable fleet-level trouble
EXIT_UNRECOVERABLE = 2


def _echo_to(stream) -> Echo:
    def echo(msg: str) -> None:
        print(msg, file=stream, flush=True)
    return echo


def _exit_code(state: FleetState, report) -> int:
    counts = state.counts()
    if counts[QUARANTINED] or counts[DONE] < len(state.shard_ids()):
        return EXIT_UNRECOVERABLE
    return 1 if report.fleet_bugs else 0


def _finish(root, state: FleetState, echo: Echo) -> int:
    report = merge_results(root, state)
    echo("")
    echo(report_text(report).rstrip("\n"))
    return _exit_code(state, report)


def fleet_run(spec_path: Union[str, Path], root: Union[str, Path],
              workers: Optional[int] = None, overwrite: bool = False,
              stop_after_shards: Optional[int] = None,
              echo: Optional[Echo] = None) -> int:
    """Expand a fleet spec and drive the whole sweep; returns exit code."""
    echo = echo or _echo_to(sys.stdout)
    try:
        spec = load_spec(spec_path)
    except (FleetSpecError, OSError, ValueError) as exc:
        print(f"repro fleet: bad spec {spec_path}: {exc}", file=sys.stderr)
        return EXIT_UNRECOVERABLE
    paths = fleet_paths(root)
    try:
        manifest = FleetManifest.create(paths, spec, overwrite=overwrite)
    except FileExistsError:
        print(f"repro fleet: {paths.manifest} already exists "
              f"(use `repro fleet resume {paths.root}`, or --force to "
              f"start over)", file=sys.stderr)
        return EXIT_UNRECOVERABLE
    with manifest:
        state = load_state(paths.root)
        scheduler = FleetScheduler(paths.root, state, manifest,
                                   workers=workers,
                                   stop_after_shards=stop_after_shards,
                                   echo=echo)
        scheduler.run()
    return _finish(paths.root, state, echo)


def fleet_resume(root: Union[str, Path], workers: Optional[int] = None,
                 stop_after_shards: Optional[int] = None,
                 echo: Optional[Echo] = None) -> int:
    """Continue a killed sweep: re-run only its incomplete shards."""
    echo = echo or _echo_to(sys.stdout)
    try:
        state = load_state(root)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro fleet: cannot resume {root}: {exc}", file=sys.stderr)
        return EXIT_UNRECOVERABLE
    orphans = kill_orphans(state)
    if orphans:
        echo(f"fleet: killed {orphans} orphaned worker(s) from the "
             f"previous run")
    # the dead run's heartbeat files go with its workers: a stale
    # heartbeat must never feed the new session's wedge detection
    stale = clear_heartbeats(root)
    if stale:
        echo(f"fleet: cleared {stale} stale heartbeat file(s)")
    echo(f"fleet: resuming {state.spec.name}: "
         f"{len(state.incomplete())} incomplete shard(s) of "
         f"{len(state.shard_ids())}")
    with FleetManifest.open_append(fleet_paths(root)) as manifest:
        scheduler = FleetScheduler(root, state, manifest, workers=workers,
                                   stop_after_shards=stop_after_shards,
                                   echo=echo)
        scheduler.run()
    return _finish(root, state, echo)


def clear_heartbeats(root: Union[str, Path]) -> int:
    """Delete every heartbeat file of a (dead) sweep session.

    Orphan workers are killed on resume, but their last heartbeats
    would otherwise survive on disk and could make the next session's
    wedge detector misread a dead worker's final sign of life as a
    fresh one.  Returns the number of files removed.
    """
    paths = fleet_paths(root)
    if not paths.heartbeats.is_dir():
        return 0
    return HeartbeatMonitor(str(paths.heartbeats)).cleanup()


def fleet_status(root: Union[str, Path],
                 echo: Optional[Echo] = None) -> int:
    """Print the operator view of a sweep (attempts, failures, orphans)."""
    echo = echo or _echo_to(sys.stdout)
    try:
        state = load_state(root)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro fleet: {exc}", file=sys.stderr)
        return EXIT_UNRECOVERABLE
    echo(status_text(state).rstrip("\n"))
    return 0


def fleet_report(root: Union[str, Path], as_json: bool = False,
                 with_coverage: bool = False,
                 echo: Optional[Echo] = None) -> int:
    """Print the deterministic merged report; exit code as for run.

    ``with_coverage`` adds the per-target branch-coverage union section
    (JSON reports always carry the union counts).
    """
    echo = echo or _echo_to(sys.stdout)
    try:
        state = load_state(root)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro fleet: {exc}", file=sys.stderr)
        return EXIT_UNRECOVERABLE
    report = merge_results(root, state)
    if as_json:
        echo(json.dumps(report.as_dict(), sort_keys=True, indent=2))
    else:
        echo(report_text(report, with_coverage=with_coverage).rstrip("\n"))
    return _exit_code(state, report)


def fleet_workerd(root: Union[str, Path], worker_id: int) -> int:
    """The pool daemon entry (spawned by the scheduler's pool)."""
    from .worker import serve_pool
    return serve_pool(root, worker_id)
