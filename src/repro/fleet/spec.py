"""Declarative fleet specs: a matrix of campaigns, expanded into shards.

A spec names a sweep and the axes of its matrix; the cartesian product
of the axes is the shard list.  Expansion is pure and deterministic —
the same spec always yields the same shards with the same IDs, which is
what lets the manifest quarantine a shard in one session and honor that
quarantine in every later ``repro fleet resume``.

Example (YAML; JSON with the same shape is accepted too)::

    fleet: nightly-sweep
    seed: 0
    matrix:
      target: [demo, seq_demo]
      strategy: [two-phase, random-branch]
      nprocs: [2, 4]
    shard:
      iterations: 40
      config:
        nprocs_cap: 4
    failure:
      max_failures: 3
      backoff: 0.5
      jitter: 0.1
      shard_timeout: 300
    workers: 4

``matrix.target`` is the only required axis; every other axis defaults
to a single value (``strategy: two-phase``, ``nprocs: init_nprocs``,
``seed: [spec seed]``, ``fault_seed: [0]``).  ``shard.config`` takes raw
:class:`~repro.core.config.CompiConfig` field overrides applied to every
shard.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Union

from ..core.config import CompiConfig

#: search strategies a shard can name; "two-phase" is the COMPI default.
#: A shard can also name a *portfolio*: ``portfolio`` (the default arm
#: mix) or ``portfolio:dfs2+bounded+random+cfg`` (explicit arms, joined
#: with ``+`` so shard IDs stay comma-free).  Any non-portfolio strategy
#: takes a ``:schedules`` suffix (e.g. ``two-phase:schedules``) that
#: turns on message-schedule exploration for the shard.
STRATEGIES = ("two-phase", "bounded", "dfs", "random-branch",
              "uniform-random", "cfg")


def split_schedules(name: str) -> tuple[str, bool]:
    """Split a trailing ``:schedules`` suffix off a strategy string.

    Returns ``(base_strategy, explore_schedules)``.
    """
    if name.endswith(":schedules"):
        return name[:-len(":schedules")], True
    return name, False


def portfolio_arms_from_strategy(name: str):
    """Arms tuple when ``name`` is a portfolio strategy string, else None.

    Raises :class:`FleetSpecError` for a malformed arm list.
    """
    if name != "portfolio" and not name.startswith("portfolio:"):
        return None
    from ..portfolio import parse_portfolio
    spec = name.partition(":")[2]
    try:
        return parse_portfolio(spec)
    except ValueError as exc:
        raise FleetSpecError(str(exc)) from None


class FleetSpecError(ValueError):
    """A spec that cannot be expanded into a valid shard list."""


def known_targets() -> tuple[str, ...]:
    """The instrumentable target names (the CLI registry)."""
    from ..__main__ import TARGETS  # lazy: __main__ imports this package
    return tuple(sorted(TARGETS))


def build_strategy(name: str, config: CompiConfig, program):
    """Instantiate one named search strategy for a shard's campaign.

    Returns ``None`` for ``two-phase`` so :class:`~repro.core.Compi`
    builds its own default — keeping a two-phase shard bit-for-bit
    identical to a plain ``repro run`` of the same configuration — and
    for portfolio strategies, whose arms Compi builds from
    ``config.portfolio`` (set by :meth:`ShardSpec.to_config`).
    """
    import numpy as np

    from ..search import (BoundedDFS, CfgDirectedSearch, RandomBranchSearch,
                          UniformRandomSearch)
    rng = np.random.default_rng(config.rng_seed(3))
    name, _ = split_schedules(name)  # the suffix lives in the config
    if name == "two-phase":
        return None
    if portfolio_arms_from_strategy(name) is not None:
        return None
    if name == "bounded":
        return BoundedDFS(depth_bound=config.fixed_depth_bound or 500,
                          rng=rng)
    if name == "dfs":
        return BoundedDFS(depth_bound=None, rng=rng)
    if name == "random-branch":
        return RandomBranchSearch(rng=rng)
    if name == "uniform-random":
        return UniformRandomSearch(rng=rng)
    if name == "cfg":
        return CfgDirectedSearch(program.registry, rng=rng)
    raise FleetSpecError(f"unknown strategy {name!r}; "
                         f"pick from {', '.join(STRATEGIES)}")


@dataclass(frozen=True)
class FailurePolicy:
    """Per-shard failure handling for one sweep.

    A shard attempt that ends in ``shard-crash`` / ``shard-timeout`` /
    ``shard-oom`` / ``shard-error`` counts one failure.  Failed shards
    retry with exponential backoff (``backoff * 2**(failures-1)``,
    capped at ``backoff_cap``, plus up to ``jitter`` fraction of
    deterministic per-shard jitter); after ``max_failures`` total
    failures — counted *across* resumes — the shard is quarantined.
    """

    #: total failed attempts before the shard is quarantined
    max_failures: int = 3
    #: base of the exponential retry backoff, seconds
    backoff: float = 0.5
    #: ceiling on one backoff delay, seconds
    backoff_cap: float = 30.0
    #: extra random fraction of the delay (deterministic per shard+attempt)
    jitter: float = 0.1
    #: wall-clock cap for one shard attempt, seconds (None = uncapped)
    shard_timeout: Optional[float] = None
    #: address-space rlimit for the whole shard worker process, MB; a
    #: MemoryError under the cap classifies as ``shard-oom``
    max_rss_mb: Optional[int] = None
    #: a shard whose heartbeat (campaign-log progress) is older than this
    #: is considered wedged and killed as ``shard-timeout`` (None = off)
    wedge_grace: Optional[float] = None

    def as_dict(self) -> dict:
        return {"max_failures": self.max_failures, "backoff": self.backoff,
                "backoff_cap": self.backoff_cap, "jitter": self.jitter,
                "shard_timeout": self.shard_timeout,
                "max_rss_mb": self.max_rss_mb,
                "wedge_grace": self.wedge_grace}

    @classmethod
    def from_dict(cls, d: dict) -> "FailurePolicy":
        known = {f: d[f] for f in ("max_failures", "backoff", "backoff_cap",
                                   "jitter", "shard_timeout", "max_rss_mb",
                                   "wedge_grace") if f in d}
        unknown = set(d) - set(cls().as_dict())
        if unknown:
            raise FleetSpecError(
                f"unknown failure-policy key(s): {', '.join(sorted(unknown))}")
        policy = cls(**known)
        if policy.max_failures < 1:
            raise FleetSpecError("failure.max_failures must be >= 1")
        return policy


@dataclass(frozen=True)
class PoolPolicy:
    """Worker-pool lifecycle for one sweep (see :mod:`repro.fleet.pool`).

    Every shard attempt runs on a persistent ``workerd`` daemon.  A
    daemon is recycled after ``recycle_tasks`` shards or when its
    post-shard RSS self-check exceeds ``max_rss_mb``, and ``breaker``
    pool-level failures (spawn/handshake failures, idle deaths — not
    deaths under a shard lease) stop the sweep resumably.
    """

    #: daemons the pool holds: the sweep's shard concurrency
    #: (``FleetSpec.workers``), never read from a spec — a ``warm`` key
    #: in an older spec or manifest snapshot is accepted and ignored
    warm: int = 1
    #: shards one worker serves before being recycled
    recycle_tasks: int = 25
    #: post-shard RSS threshold, MB (None = no RSS-based recycling)
    max_rss_mb: Optional[int] = None
    #: pool failures before the circuit breaker opens
    breaker: int = 3
    #: seconds to wait for a spawned daemon's hello frame
    spawn_timeout: float = 60.0
    #: seconds a retiring worker gets to drain before SIGKILL
    drain_grace: float = 5.0

    def as_dict(self) -> dict:
        return {"recycle_tasks": self.recycle_tasks,
                "max_rss_mb": self.max_rss_mb, "breaker": self.breaker,
                "spawn_timeout": self.spawn_timeout,
                "drain_grace": self.drain_grace}

    @classmethod
    def from_dict(cls, d: dict) -> "PoolPolicy":
        d = {k: v for k, v in d.items() if k != "warm"}
        unknown = set(d) - set(cls().as_dict())
        if unknown:
            raise FleetSpecError(
                f"unknown pool key(s): {', '.join(sorted(unknown))}")
        policy = cls(**d)
        if policy.recycle_tasks < 1:
            raise FleetSpecError("pool.recycle_tasks must be >= 1")
        if policy.breaker < 1:
            raise FleetSpecError("pool.breaker must be >= 1")
        return policy


@dataclass(frozen=True)
class ShardSpec:
    """One fully resolved campaign shard of a sweep (pure data)."""

    target: str
    strategy: str
    nprocs: int
    seed: int
    fault_seed: int
    iterations: Optional[int] = None
    time_budget: Optional[float] = None
    overrides: tuple = ()          # sorted (CompiConfig field, value) pairs

    @property
    def shard_id(self) -> str:
        """Stable identity: the matrix coordinates, nothing session-bound."""
        return (f"{self.target}--{self.strategy}--np{self.nprocs}"
                f"--s{self.seed}--fs{self.fault_seed}")

    def budget_kwargs(self) -> dict:
        """The Compi.run budget (defaults to 50 iterations, as the CLI)."""
        if self.iterations is None and self.time_budget is None:
            return {"iterations": 50}
        out: dict = {}
        if self.iterations is not None:
            out["iterations"] = self.iterations
        if self.time_budget is not None:
            out["time_budget"] = self.time_budget
        return out

    def to_config(self) -> CompiConfig:
        """The shard's campaign configuration (pure function of the spec)."""
        base = dict(self.overrides)
        base.update(seed=self.seed, fault_seed=self.fault_seed,
                    init_nprocs=self.nprocs)
        base.setdefault("nprocs_cap", max(self.nprocs,
                                          CompiConfig().nprocs_cap))
        strategy, schedules = split_schedules(self.strategy)
        if schedules:
            base["explore_schedules"] = True
        arms = portfolio_arms_from_strategy(strategy)
        if arms is not None:
            base["portfolio"] = arms
        return CompiConfig.from_dict(base)

    def as_dict(self) -> dict:
        return {"target": self.target, "strategy": self.strategy,
                "nprocs": self.nprocs, "seed": self.seed,
                "fault_seed": self.fault_seed,
                "iterations": self.iterations,
                "time_budget": self.time_budget,
                "overrides": [list(p) for p in self.overrides]}

    @classmethod
    def from_dict(cls, d: dict) -> "ShardSpec":
        return cls(target=d["target"], strategy=d["strategy"],
                   nprocs=d["nprocs"], seed=d["seed"],
                   fault_seed=d["fault_seed"],
                   iterations=d.get("iterations"),
                   time_budget=d.get("time_budget"),
                   overrides=tuple((k, _dejson(v))
                                   for k, v in d.get("overrides", [])))


def _dejson(value):
    """JSON round-trips tuples as lists; CompiConfig wants tuples back."""
    return tuple(value) if isinstance(value, list) else value


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


@dataclass
class FleetSpec:
    """One declarative sweep: the matrix, shard defaults, failure policy."""

    name: str
    seed: int = 0
    targets: list = field(default_factory=list)
    strategies: list = field(default_factory=lambda: ["two-phase"])
    nprocs: list = field(default_factory=lambda: [CompiConfig().init_nprocs])
    seeds: Optional[list] = None          # None → [self.seed]
    fault_seeds: list = field(default_factory=lambda: [0])
    iterations: Optional[int] = None
    time_budget: Optional[float] = None
    config_overrides: dict = field(default_factory=dict)
    failure: FailurePolicy = field(default_factory=FailurePolicy)
    pool: PoolPolicy = field(default_factory=PoolPolicy)
    #: shards dispatched concurrently, one pool daemon each
    workers: int = 2

    def __post_init__(self):
        self.pool = replace(self.pool, warm=self.workers)

    # ------------------------------------------------------------------
    def expand(self) -> list[ShardSpec]:
        """The shard list, in deterministic matrix-product order."""
        overrides = tuple(sorted(self.config_overrides.items()))
        shards = [
            ShardSpec(target=t, strategy=st, nprocs=np_, seed=s,
                      fault_seed=fs, iterations=self.iterations,
                      time_budget=self.time_budget, overrides=overrides)
            for t in self.targets
            for st in self.strategies
            for np_ in self.nprocs
            for s in (self.seeds if self.seeds is not None else [self.seed])
            for fs in self.fault_seeds
        ]
        seen: set[str] = set()
        for sh in shards:
            if sh.shard_id in seen:
                raise FleetSpecError(
                    f"duplicate shard {sh.shard_id!r}: matrix axes repeat "
                    f"a value")
            seen.add(sh.shard_id)
        return shards

    def shard(self, shard_id: str) -> ShardSpec:
        for sh in self.expand():
            if sh.shard_id == shard_id:
                return sh
        raise KeyError(f"no shard {shard_id!r} in fleet {self.name!r}")

    # ------------------------------------------------------------------
    def validate(self) -> "FleetSpec":
        if not self.name:
            raise FleetSpecError("spec needs a non-empty 'fleet' name")
        if not self.targets:
            raise FleetSpecError("matrix.target must list at least one "
                                 "target")
        targets = known_targets()
        for t in self.targets:
            if t not in targets:
                raise FleetSpecError(
                    f"unknown target {t!r}; pick from {', '.join(targets)}")
        for st in self.strategies:
            base, schedules = split_schedules(st)
            if schedules and portfolio_arms_from_strategy(base) is not None:
                raise FleetSpecError(
                    f"strategy {st!r}: ':schedules' cannot ride a "
                    f"portfolio (the schedule frontier lives on the "
                    f"single-strategy scheduler — make it its own shard)")
            if base not in STRATEGIES and \
                    portfolio_arms_from_strategy(base) is None:
                raise FleetSpecError(
                    f"unknown strategy {st!r}; pick from "
                    f"{', '.join(STRATEGIES)} (optionally with a "
                    f"':schedules' suffix), 'portfolio', or "
                    f"'portfolio:<arm+arm+...>'")
        for np_ in self.nprocs:
            if not isinstance(np_, int) or np_ < 1:
                raise FleetSpecError(f"matrix.nprocs entries must be "
                                     f"positive integers, got {np_!r}")
        if self.workers < 1:
            raise FleetSpecError("workers must be >= 1")
        known = {f.name for f in
                 __import__("dataclasses").fields(CompiConfig)}
        unknown = set(self.config_overrides) - known
        if unknown:
            raise FleetSpecError(
                f"unknown shard.config key(s): {', '.join(sorted(unknown))}")
        return self

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """Round-trippable snapshot (embedded in the fleet manifest)."""
        return {
            "fleet": self.name, "seed": self.seed,
            "matrix": {"target": list(self.targets),
                       "strategy": list(self.strategies),
                       "nprocs": list(self.nprocs),
                       "seed": (list(self.seeds)
                                if self.seeds is not None else None),
                       "fault_seed": list(self.fault_seeds)},
            "shard": {"iterations": self.iterations,
                      "time_budget": self.time_budget,
                      "config": dict(self.config_overrides)},
            "failure": self.failure.as_dict(),
            "pool": self.pool.as_dict(),
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FleetSpec":
        unknown = set(d) - {"fleet", "seed", "matrix", "shard", "failure",
                            "pool", "workers"}
        if unknown:
            raise FleetSpecError(
                f"unknown top-level spec key(s): {', '.join(sorted(unknown))}")
        matrix = d.get("matrix") or {}
        if not isinstance(matrix, dict):
            raise FleetSpecError("'matrix' must be a mapping of axes")
        unknown = set(matrix) - {"target", "strategy", "nprocs", "seed",
                                 "fault_seed"}
        if unknown:
            raise FleetSpecError(
                f"unknown matrix axis(es): {', '.join(sorted(unknown))}")
        shard = d.get("shard") or {}
        unknown = set(shard) - {"iterations", "time_budget", "config"}
        if unknown:
            raise FleetSpecError(
                f"unknown shard key(s): {', '.join(sorted(unknown))}")
        seed = int(d.get("seed", 0))
        seeds = matrix.get("seed")
        spec = cls(
            name=str(d.get("fleet", "")),
            seed=seed,
            targets=_as_list(matrix.get("target", [])),
            strategies=_as_list(matrix.get("strategy", ["two-phase"])),
            nprocs=_as_list(matrix.get("nprocs",
                                       [CompiConfig().init_nprocs])),
            seeds=None if seeds is None else _as_list(seeds),
            fault_seeds=_as_list(matrix.get("fault_seed", [0])),
            iterations=shard.get("iterations"),
            time_budget=shard.get("time_budget"),
            config_overrides=dict(shard.get("config") or {}),
            failure=FailurePolicy.from_dict(d.get("failure") or {}),
            pool=PoolPolicy.from_dict(d.get("pool") or {}),
            workers=int(d.get("workers", 2)),
        )
        return spec.validate()


def load_spec(path: Union[str, Path]) -> FleetSpec:
    """Parse a fleet spec file: YAML when PyYAML is available, JSON
    always.  A ``.json`` suffix skips the YAML attempt entirely, so the
    tool works on images without PyYAML."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return FleetSpec.from_dict(json.loads(text))
    try:
        import yaml
    except ImportError:
        try:
            return FleetSpec.from_dict(json.loads(text))
        except json.JSONDecodeError:
            raise FleetSpecError(
                f"{path}: PyYAML is not installed and the file is not "
                f"JSON; install PyYAML or rewrite the spec as .json"
            ) from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise FleetSpecError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise FleetSpecError(f"{path}: spec must be a mapping, "
                             f"got {type(data).__name__}")
    return FleetSpec.from_dict(data)
