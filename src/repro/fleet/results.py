"""The fleet results store: merge shard campaign logs into one report.

Each shard attempt streams a PR-1 campaign log to
``shards/<id>.jsonl``; the results store folds those logs — plus the
manifest's shard statuses — into one aggregate fleet report.

The merge is **deterministic**: shards are always folded in shard-id
order regardless of the order they finished, retried, or resumed in,
and the report carries no wall-clock, attempt, or retry data.  Two
sweeps of the same spec — one uninterrupted, one killed mid-flight and
``fleet resume``-d — therefore render byte-identical reports.  Partial
logs are first-class inputs: a quarantined shard contributes the
torn-tail-tolerant read of its final attempt's log, and bugs it found
before dying still reach the fleet-wide bug list.

Shards still ``pending`` (a sweep interrupted before they finished) are
listed but contribute **no** data — an interrupted sweep's report never
shows half-done work that the uninterrupted sweep would render
differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.persist import load_campaign
from ..core.report import format_table
from .manifest import DONE, FleetState, PENDING, QUARANTINED, fleet_paths


@dataclass(frozen=True)
class ShardReport:
    """One shard's deterministic contribution to the fleet report."""

    shard_id: str
    target: str
    strategy: str
    nprocs: int
    status: str
    #: iterations recorded in the shard's campaign log
    iterations: int = 0
    covered: int = 0
    total_branches: int = 0
    #: reachable-branch estimate; only a *finished* campaign records it
    reachable: Optional[int] = None
    #: sorted unique (kind, location) bug keys from this shard's log
    unique_bugs: tuple = ()
    has_log: bool = False
    #: sorted (site, outcome) branch pairs this shard covered — the raw
    #: material of the fleet-wide per-target coverage union
    cov_branches: tuple = ()

    def as_dict(self) -> dict:
        return {
            "shard": self.shard_id,
            "target": self.target,
            "strategy": self.strategy,
            "nprocs": self.nprocs,
            "status": self.status,
            "iterations": self.iterations,
            "covered": self.covered,
            "total_branches": self.total_branches,
            "reachable": self.reachable,
            "unique_bugs": [list(k) for k in self.unique_bugs],
            "has_log": self.has_log,
        }


@dataclass(frozen=True)
class FleetReport:
    """The merged sweep: per-shard rows plus fleet-wide aggregates."""

    fleet: str
    shards: tuple

    def counts(self) -> dict:
        out = {PENDING: 0, DONE: 0, QUARANTINED: 0}
        for sh in self.shards:
            out[sh.status] = out.get(sh.status, 0) + 1
        return out

    @property
    def total_iterations(self) -> int:
        return sum(sh.iterations for sh in self.shards)

    @property
    def fleet_bugs(self) -> list:
        """Unique (target, kind, location) triples across every shard.

        The cross-shard dedup is what makes overlapping shards (same
        target under several strategies/rank counts) merge cleanly: a
        bug three shards all hit is one fleet-level bug.
        """
        seen = set()
        for sh in self.shards:
            for kind, loc in sh.unique_bugs:
                seen.add((sh.target, kind, loc))
        return sorted(seen)

    def coverage_union(self) -> dict:
        """Per-target union of covered (site, outcome) branch pairs.

        Shards of one target under different strategies, rank counts or
        seeds explore different corners of the execution tree; their
        union is the fleet's real coverage headroom over any single
        campaign.  Only shards that contributed a log count — pending
        shards stay invisible here exactly as they do everywhere else.
        """
        union: dict = {}
        for sh in self.shards:
            if sh.has_log:
                union.setdefault(sh.target, set()).update(sh.cov_branches)
        return {t: tuple(sorted(pairs)) for t, pairs in sorted(union.items())}

    def coverage_rows(self) -> list[list]:
        """[target, shards-with-logs, union, best-single-shard, headroom]
        rows for the ``--coverage`` report section."""
        union = self.coverage_union()
        rows = []
        for target, pairs in union.items():
            contributing = [sh for sh in self.shards
                            if sh.target == target and sh.has_log]
            best = max((sh.covered for sh in contributing), default=0)
            rows.append([target, len(contributing), len(pairs), best,
                         len(pairs) - best])
        return rows

    def as_dict(self) -> dict:
        return {
            "fleet": self.fleet,
            "counts": self.counts(),
            "total_iterations": self.total_iterations,
            "fleet_bugs": [list(t) for t in self.fleet_bugs],
            "coverage_union": {t: len(p)
                               for t, p in self.coverage_union().items()},
            "shards": [sh.as_dict() for sh in self.shards],
        }


# ----------------------------------------------------------------------


def _shard_report_from_log(shard, status: str, log_path) -> ShardReport:
    """Fold one shard's campaign log (possibly partial, possibly absent)."""
    base = dict(shard_id=shard.shard_id, target=shard.target,
                strategy=shard.strategy, nprocs=shard.nprocs, status=status)
    if status == PENDING or not log_path.exists():
        # pending shards contribute nothing even if a killed attempt
        # left a partial log — their data is not part of the sweep yet
        return ShardReport(**base)
    data = load_campaign(log_path)
    meta = data["meta"] or {}
    coverage = data["coverage"]
    if coverage is not None:
        covered = len(coverage["branches"])
        reachable = coverage.get("reachable")
    else:
        # partial log: the per-iteration coverage deltas still tell us
        # what the attempt covered before it died
        covered = len(data["cov_branches"])
        reachable = None
    unique = tuple(sorted({b.dedup_key for b in data["bugs"]}))
    # cov_branches accumulates per-iteration deltas plus the final
    # coverage record, so partial and finished logs rank equally here
    pairs = tuple(sorted((s, int(d)) for s, d in data["cov_branches"]))
    return ShardReport(
        iterations=len(data["iterations"]), covered=covered,
        total_branches=int(meta.get("total_branches", 0)),
        reachable=reachable, unique_bugs=unique, has_log=True,
        cov_branches=pairs, **base)


def merge_results(root, state: FleetState) -> FleetReport:
    """Merge every shard's log into the deterministic fleet report."""
    paths = fleet_paths(root)
    rows = []
    for sid in sorted(state.shard_ids()):
        shard = state.spec.shard(sid)
        rows.append(_shard_report_from_log(
            shard, state.shards[sid].status, paths.shard_log(sid)))
    return FleetReport(fleet=state.spec.name, shards=tuple(rows))


# ----------------------------------------------------------------------
# rendering


def report_text(report: FleetReport, with_coverage: bool = False) -> str:
    """Render the merged report (deterministic: no times, no attempts).

    ``with_coverage`` appends the per-target branch-coverage union
    section (``repro fleet report --coverage``): how many distinct
    branches the whole sweep covered per target, the best any single
    shard managed, and the headroom the union buys over it.
    """
    headers = ["shard", "status", "iters", "cov", "total", "reach", "bugs"]
    rows = []
    for sh in report.shards:
        rows.append([
            sh.shard_id, sh.status, sh.iterations, sh.covered,
            sh.total_branches,
            "-" if sh.reachable is None else sh.reachable,
            len(sh.unique_bugs),
        ])
    counts = report.counts()
    lines = [
        format_table(headers, rows, title=f"fleet report: {report.fleet}"),
        "",
        (f"shards: {len(report.shards)} "
         f"({counts[DONE]} done, {counts[QUARANTINED]} quarantined, "
         f"{counts[PENDING]} pending)"),
        f"iterations: {report.total_iterations}",
        f"fleet-wide unique bugs: {len(report.fleet_bugs)}",
    ]
    for target, kind, loc in report.fleet_bugs:
        lines.append(f"  {target}: {kind} @ {loc}")
    if with_coverage:
        lines += ["", format_table(
            ["target", "shards", "union", "best shard", "headroom"],
            report.coverage_rows(),
            title="coverage union across shards")]
    return "\n".join(lines) + "\n"


def status_text(state: FleetState) -> str:
    """Render the live sweep status (attempts/failures ARE shown here —
    this is the operator view, not the deterministic report)."""
    headers = ["shard", "status", "attempts", "failures", "last failure"]
    rows = []
    for sid in state.shard_ids():
        st = state.shards[sid]
        last = f"{st.last_kind}: {st.last_detail}"[:60] if st.last_kind \
            else "-"
        rows.append([sid, st.status, st.attempts, st.failures, last])
    counts = state.counts()
    lines = [
        format_table(headers, rows,
                     title=f"fleet status: {state.spec.name}"),
        "",
        (f"{counts[DONE]} done, {counts[QUARANTINED]} quarantined, "
         f"{counts[PENDING]} pending"),
    ]
    orphans = state.orphan_pids()
    if orphans:
        lines.append(f"in-flight/orphaned worker pids: "
                     f"{sorted(orphans)}")
    pool = state.pool
    breaker = "OPEN (sweep stopped; resume starts a fresh pool)" \
        if pool.breaker_open else "closed"
    lines.append(f"pool: {pool.alive} alive, {len(pool.leased)} "
                 f"leased, {pool.spawns} spawned, {pool.recycled} "
                 f"recycled, breaker {breaker}")
    if pool.leased:
        lines.append(f"pool leases: {', '.join(pool.leased)}")
    return "\n".join(lines) + "\n"
