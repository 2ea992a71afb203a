"""Campaign fleet: declarative sharded sweeps with fleet-level robustness.

The paper evaluates one target × one strategy × one rank configuration
at a time; real MPI bug-finding sweeps *matrices* of configurations.
This package lifts the robustness-era guarantees from the run level to
the sweep level:

* :mod:`repro.fleet.spec` — declarative campaign specs (YAML/JSON): a
  matrix of targets × search strategies × process counts × seeds ×
  fault seeds expands into deterministic campaign **shards**;
* :mod:`repro.fleet.manifest` — the crash-safe fleet manifest: an
  append-only, torn-tail-tolerant JSONL ledger of shard lifecycle
  events (same discipline as the PR-1 campaign log, via
  :mod:`repro.core.atomicio`), so ``repro fleet resume`` continues a
  killed sweep exactly where it died;
* :mod:`repro.fleet.worker` — the shard worker daemon: runs one shard
  campaign at a time, rlimit-capped and heartbeat-instrumented, so a
  hard-dying shard takes down its own daemon, never the sweep;
* :mod:`repro.fleet.pool` — the worker pool: long-lived daemons reused
  across shards over a length-prefixed JSON pipe protocol, with
  per-shard leases, recycling (task budget / RSS growth), graceful
  drain on SIGTERM, and a circuit breaker that stops the sweep
  resumably when the pool itself misbehaves;
* :mod:`repro.fleet.scheduler` — the async fleet scheduler: leases
  shards to a bounded pool of supervised worker daemons with
  per-shard failure policy — bounded retries with exponential backoff
  and jitter, distinct ``shard-crash`` / ``shard-timeout`` /
  ``shard-oom`` outcomes, and poison-shard quarantine after the retry
  budget (persisted, honored across resume);
* :mod:`repro.fleet.results` — the results store: merges completed
  shards' JSONL campaign logs into one deterministic aggregate report
  (identical regardless of merge order, interruption, or retries);
* :mod:`repro.fleet.service` — the CLI-facing façade
  (``repro fleet run|resume|status|report``, and the internal
  ``workerd`` daemon entry).
"""

from .manifest import (FleetManifest, FleetState, PoolState, ShardState,
                       fleet_paths, load_state)
from .pool import WarmPool
from .results import FleetReport, ShardReport, merge_results, report_text
from .scheduler import FleetScheduler
from .spec import (FailurePolicy, FleetSpec, FleetSpecError, PoolPolicy,
                   ShardSpec, STRATEGIES, load_spec)

__all__ = [
    "FailurePolicy", "FleetManifest", "FleetReport", "FleetScheduler",
    "FleetSpec", "FleetSpecError", "FleetState", "PoolPolicy", "PoolState",
    "STRATEGIES", "ShardReport", "ShardSpec", "ShardState", "WarmPool",
    "fleet_paths", "load_spec", "load_state", "merge_results",
    "report_text",
]
