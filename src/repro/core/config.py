"""COMPI configuration: every knob the paper's evaluation turns.

The defaults mirror the paper's experiment setup (§VI): 8 initial
processes, focus at global rank 0, process count capped at 16 via input
capping, two-phase DFS with a per-program observation window, constraint
set reduction on, two-way instrumentation on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional


@dataclass
class CompiConfig:
    """Knobs for one testing campaign.

    Snapshots written by older versions may carry keys that no longer
    exist — ``probe_batching`` and ``persistent_solver`` once selected
    reference probe and solver paths that now have one implementation
    each, and ``workers``, ``speculation_width``, ``speculation_depth``,
    ``breaker_rebuilds``, ``heartbeat_stale`` and ``wedge_grace`` drove
    a speculative process-pool executor the engine no longer has, and
    the on/off switch, LRU size and disk-tier path of the retired
    counterexample cache configured a cache the solver no longer has;
    :meth:`from_dict` drops them.
    """

    # -- reproducibility ------------------------------------------------
    seed: int = 0

    # -- test setup (§III-D, §VI) ----------------------------------------
    init_nprocs: int = 8
    init_focus: int = 0
    #: cap on the derived number of processes ("restricted to no bigger
    #: than 16 via input capping")
    nprocs_cap: int = 16

    # -- search strategy (§II-B) -----------------------------------------
    #: pure-DFS iterations before switching to BoundedDFS
    observe_iterations: int = 50
    #: phase-2 depth bound; None derives it from the observed maximum
    fixed_depth_bound: Optional[int] = None
    #: multiplier over the observed maximum when deriving the bound
    bound_slack: float = 1.2

    # -- portfolio search (repro.portfolio) --------------------------------
    #: strategy arms run concurrently as one campaign over a shared
    #: execution-tree frontier, e.g. ``("dfs2", "bounded", "random",
    #: "cfg")``; a UCB bandit reallocates the iteration budget between
    #: them.  Empty = classic single-strategy campaign.
    portfolio: tuple[str, ...] = ()
    #: UCB exploration constant for the bandit budget allocator; higher
    #: spreads budget wider, lower exploits the best arm sooner
    portfolio_exploration: float = 0.5

    # -- schedule-space exploration (repro.schedules) ----------------------
    #: also explore message interleavings: wildcard receives become
    #: replayable decision points and a DFS frontier over unexplored
    #: match orders is interleaved with the input search.
    explore_schedules: bool = False
    #: total alternative schedules a campaign may execute
    schedule_budget: int = 64
    #: decisions per run considered for alternatives (DFS depth bound)
    schedule_depth: int = 8

    # -- cost controls (§IV) -----------------------------------------------
    #: constraint set reduction (§IV-C)
    reduction: bool = True
    #: two-way instrumentation (§IV-B); False = all ranks run heavy (1-way)
    two_way: bool = True
    #: heavy ranks keep a raw event log (the I/O measured in Table IV)
    log_events: bool = True

    # -- framework (§III); False = standard concolic testing (No_Fwk) ----
    framework: bool = True
    #: EXTENSION beyond the paper: also mark non-default communicator
    #: sizes symbolic (§III-A leaves them unmarked).  Adds `sc` variables
    #: with 1 <= s_i <= z0 and symbolic y_i < s_i bounds.
    mark_comm_sizes: bool = False

    # -- input generation ----------------------------------------------------
    #: default integer domain for marked inputs without tighter spec bounds
    input_min: int = -(2 ** 15)
    input_max: int = 2 ** 15

    # -- budgets & safety -------------------------------------------------
    #: wall-clock *ceiling* for a single test execution (hang detection);
    #: with ``adaptive_timeout`` the effective per-test timeout shrinks
    #: toward an EWMA of observed durations, never exceeding this value
    test_timeout: float = 10.0
    #: derive the per-test timeout from observed run durations
    adaptive_timeout: bool = True
    #: effective timeout = clamp(multiplier * EWMA, floor, test_timeout)
    timeout_multiplier: float = 10.0
    timeout_floor: float = 2.0
    #: EWMA smoothing factor for observed (non-hanging) run durations
    timeout_ewma_alpha: float = 0.3
    #: solver search-node budget per negation attempt
    solver_node_limit: int = 20_000
    #: restart with random inputs when an erroring execution produced a
    #: trivially short constraint set (paper: "redo the testing")
    trivial_path_threshold: int = 2
    #: alternate restarts between the target's declared default inputs (a
    #: known-good configuration, like a stock HPL.dat) and random inputs
    restart_with_defaults: bool = True
    #: mark a flip as tried when the follow-up execution does not actually
    #: take it (CREST's divergence handling).  Disabling this is only for
    #: the ablation benchmark: DFS then re-negates reduction-collapsed
    #: loop exits forever.
    divergence_detection: bool = True

    # -- supervised execution (repro.supervise) ----------------------------
    #: address-space rlimit per run, MB (None = unlimited).  Applied in
    #: the forked sandbox; an allocation failure under the cap
    #: classifies as the distinct ``oom`` kind.
    max_rss_mb: Optional[int] = None
    #: CPU-time rlimit per run, seconds (None = unlimited); a SIGXCPU
    #: death classifies as ``cpu-cap``.
    max_cpu_s: Optional[float] = None
    #: fork-isolate runs so a hard-dying target (``os._exit``, a
    #: fatal signal) kills a sandbox child, not the campaign.  ``None``
    #: auto-enables when an rlimit cap is set.
    sandbox: Optional[bool] = None
    #: confirmed hard kills from one canonical input before it is
    #: quarantined (skipped without execution, persisted in the log,
    #: honored across --resume)
    quarantine_kills: int = 1
    #: delta-debug each *new* crash signature down to a minimal
    #: reproducer artifact under ``<log>.repro/`` (needs a campaign log)
    minimize_crashes: bool = True
    #: re-runs (probes) the ddmin minimizer may spend per signature
    minimize_probes: int = 48

    # -- robustness / resilience ------------------------------------------
    #: structural deadlock detection via the wait-for graph (vs. relying
    #: on the watchdog timeout alone)
    detect_deadlocks: bool = True
    #: fault kinds to inject during the campaign (see ``repro.faults``);
    #: empty = no fault injection
    faults: tuple[str, ...] = ()
    #: seed for the deterministic fault streams (independent of ``seed``)
    fault_seed: int = 0
    #: per-iteration retries on transient internal (harness) errors
    retry_attempts: int = 2
    #: base of the exponential backoff between retries, seconds
    retry_backoff: float = 0.05

    def rng_seed(self, salt: int = 0) -> int:
        return (self.seed * 1_000_003 + salt) % (2 ** 31)

    def sandbox_enabled(self) -> bool:
        """Whether runs execute in the forked sandbox: explicit
        ``sandbox``, else auto-on when any resource cap is set."""
        if self.sandbox is not None:
            return bool(self.sandbox)
        return self.max_rss_mb is not None or self.max_cpu_s is not None

    def with_(self, **kwargs) -> "CompiConfig":
        """Functional update (used by the ablation benchmarks)."""
        return replace(self, **kwargs)

    @classmethod
    def from_dict(cls, d: dict) -> "CompiConfig":
        """Rebuild a config from a (possibly older) serialized snapshot.

        Unknown keys are dropped and missing ones take their defaults, so
        logs written by other versions of the tool still load.
        """
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in d.items() if k in known}
        if "faults" in kwargs and kwargs["faults"] is not None:
            kwargs["faults"] = tuple(kwargs["faults"])
        if "portfolio" in kwargs and kwargs["portfolio"] is not None:
            kwargs["portfolio"] = tuple(kwargs["portfolio"])
        return cls(**kwargs)
