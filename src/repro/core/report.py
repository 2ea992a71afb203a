"""Plain-text reporting for campaigns (what the benchmarks print)."""

from __future__ import annotations

from typing import Iterable, Sequence

from .compi import CampaignResult


def campaign_summary(result: CampaignResult) -> str:
    """Human-readable multi-line summary of one campaign."""
    lines = [
        f"program            : {result.program_name}",
        f"iterations         : {len(result.iterations)}",
        f"wall time          : {result.wall_time:.2f}s",
        f"covered branches   : {result.covered}",
        f"total branches     : {result.total_branches}",
        f"reachable branches : {result.reachable_branches}",
        f"coverage rate      : {100 * result.coverage_rate:.1f}% of reachable",
        f"unique bugs        : {len(result.unique_bugs())}",
        f"divergences        : {result.divergences}",
        f"stragglers         : {result.stragglers}",
    ]
    s = result.solver
    if s is not None and s.solves:
        lines += [
            f"solver             : {s.solves} solves, "
            f"{s.nodes} nodes, {s.propagations} propagations, "
            f"{s.exhaustions} exhaustions",
            f"solver cache       : {s.cache_hits} hits, "
            f"{s.unsat_hits} unsat-hits, {s.cache_misses} misses "
            f"({100 * s.hit_rate:.1f}% hit rate)",
            f"solver latency     : {1000 * s.latency_ewma:.2f} ms EWMA, "
            f"avg slice {s.avg_slice:.1f} (max {s.max_slice})",
        ]
        if s.stale_hits:
            lines.append(f"stale cache hits   : {s.stale_hits} "
                         f"(model failed re-check; solved fresh)")
    sup = result.supervision
    if sup:
        if sup.get("sandboxed_runs") or sup.get("worker_kills"):
            lines.append(
                f"supervision        : {sup.get('sandboxed_runs', 0)} "
                f"sandboxed runs, {sup.get('worker_kills', 0)} worker kills")
        if sup.get("quarantined"):
            lines.append(
                f"quarantine         : {sup['quarantined']} input(s) "
                f"quarantined, {sup.get('quarantine_skips', 0)} skips")
        if sup.get("unique_signatures"):
            lines.append(
                f"crash triage       : {sup['unique_signatures']} unique "
                f"signature(s), {sup.get('minimized_crashes', 0)} minimized "
                f"({sup.get('minimize_probes', 0)} probes)")
    pf = result.portfolio
    if pf and pf.get("arms"):
        lines.append(f"portfolio          : "
                     f"{len(pf['arms'])} arms, active={pf.get('active', '?')}"
                     f", exploration={pf.get('exploration', 0)}")
        for a in pf["arms"]:
            score = a.get("ucb_score")
            lines.append(
                f"  arm[{a['name']}]: {a['pulls']} iterations "
                f"({100 * a.get('share', 0):.1f}% share), "
                f"+{a['coverage_gained']} branches, "
                f"{a.get('solver_time', 0):.2f}s solver "
                f"({a.get('solver_solves', 0)} solves), "
                f"ucb={'—' if score is None else f'{score:.3f}'}")
    sch = result.schedules
    if sch:
        lines.append(
            f"schedules          : {sch.get('explored', 0)} explored "
            f"({sch.get('schedules_seen', 0)} distinct), "
            f"frontier {sch.get('frontier', 0)}, "
            f"{sch.get('decision_nodes', 0)} decision node(s)")
        if sch.get("divergences"):
            lines.append(
                f"  replay fidelity  : {sch['divergences']} divergence(s)")
    if result.degraded_iterations:
        lines.append(f"degraded iterations: {result.degraded_iterations} "
                     f"(coverage-only; trace harvest failed)")
    if result.retries:
        lines.append(f"transient retries  : {result.retries}")
    if result.stragglers:
        lines.append(f"WARNING: {result.stragglers} hung rank thread(s) were "
                     f"abandoned and still hold an OS thread each; a long "
                     f"campaign accumulating these may exhaust thread limits")
    for b in result.unique_bugs():
        lines.append(f"  bug[{b.kind}] rank {b.global_rank}: {b.message[:90]}")
        lines.append(f"    inputs: {b.testcase.describe()}")
        if b.schedule:
            lines.append(f"    schedule: {b.schedule}")
        if b.pending_ops:
            lines.append("    pending: " + ", ".join(
                f"rank {r} in {op}" for r, op in b.pending_ops))
    return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Fixed-width text table used by every benchmark's output."""
    srows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in srows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def size_histogram(sizes: Sequence[int],
                   edges: Sequence[int] = (0, 100, 300, 500, 1000, 2000, 5000,
                                           10 ** 9)) -> list[tuple[str, int]]:
    """Bucket constraint-set sizes for the Fig. 9 distribution."""
    out = []
    for lo, hi in zip(edges, edges[1:]):
        label = f"[{lo},{hi})" if hi < 10 ** 9 else f">={lo}"
        out.append((label, sum(1 for s in sizes if lo <= s < hi)))
    return out
