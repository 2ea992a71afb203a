"""Command-line interface: run COMPI campaigns from a shell.

Examples::

    python -m repro targets
    python -m repro run --target demo --iterations 40
    python -m repro run --target hpl --time-budget 20 --seed 3 --nprocs 4
    python -m repro compare --target imb --variants R,Random --iterations 50
"""

from __future__ import annotations

import argparse
import importlib
import sys

from .baselines import VARIANTS, make_variant
from .core import CompiConfig, campaign_summary, format_table
from .instrument import instrument_program

#: name → (modules..., entry) resolved lazily from the target packages
TARGETS = {
    "demo": (["repro.targets.demo"], "repro.targets.demo"),
    "seq_demo": (["repro.targets.seq_demo"], "repro.targets.seq_demo"),
    "killer": (["repro.targets.killer"], "repro.targets.killer"),
    "race": (["repro.targets.race"], "repro.targets.race"),
    "susy": ("repro.targets.susy", None),
    "hpl": ("repro.targets.hpl", None),
    "imb": ("repro.targets.imb", None),
}


def load_target(name: str):
    """Instrument and load one named target."""
    try:
        spec = TARGETS[name]
    except KeyError:
        raise SystemExit(f"unknown target {name!r}; run `python -m repro "
                         f"targets` for the list") from None
    modules, entry = spec
    if isinstance(modules, str):
        pkg = importlib.import_module(modules)
        modules, entry = pkg.MODULES, pkg.ENTRY
    return instrument_program(list(modules), entry_module=entry)


def build_config(args: argparse.Namespace) -> CompiConfig:
    """Map parsed CLI flags onto a CompiConfig.

    Robustness flags use ``getattr`` defaults so a namespace built
    without them (tests, embedding code) still maps cleanly.
    """
    faults = getattr(args, "faults", None) or ""
    fault_kinds = tuple(f.strip() for f in faults.split(",") if f.strip())
    from .faults import ALL_FAULT_KINDS
    unknown = [k for k in fault_kinds if k not in ALL_FAULT_KINDS]
    if unknown:
        raise SystemExit(f"unknown fault kind(s): {', '.join(unknown)} "
                         f"(valid: {', '.join(ALL_FAULT_KINDS)})")
    portfolio_arms: tuple[str, ...] = ()
    portfolio_spec = getattr(args, "portfolio", None)
    if portfolio_spec:
        from .portfolio import parse_portfolio
        try:
            portfolio_arms = parse_portfolio(portfolio_spec)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    return CompiConfig(
        seed=args.seed,
        init_nprocs=args.nprocs,
        nprocs_cap=args.nprocs_cap,
        test_timeout=args.test_timeout,
        reduction=not args.no_reduction,
        two_way=not args.one_way,
        framework=not args.no_framework,
        faults=fault_kinds,
        fault_seed=getattr(args, "fault_seed", 0),
        solver_cache=getattr(args, "solver_cache", True),
        solver_cache_path=getattr(args, "solver_cache_path", None),
        max_rss_mb=getattr(args, "max_rss", None),
        max_cpu_s=getattr(args, "max_cpu", None),
        sandbox=getattr(args, "sandbox", None),
        minimize_crashes=getattr(args, "minimize", True),
        quarantine_kills=getattr(args, "quarantine_kills", 1),
        portfolio=portfolio_arms,
        portfolio_exploration=getattr(args, "portfolio_exploration", 0.5),
        explore_schedules=getattr(args, "explore_schedules", False),
        schedule_budget=getattr(args, "schedule_budget", 64),
        schedule_depth=getattr(args, "schedule_depth", 8),
    )


def add_common(p: argparse.ArgumentParser) -> None:
    """Attach the flags shared by run/compare/replay."""
    p.add_argument("--target", required=True, choices=sorted(TARGETS))
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nprocs", type=int, default=4,
                   help="initial process count (paper default: 8)")
    p.add_argument("--nprocs-cap", type=int, default=8,
                   help="cap on derived process counts (paper: 16)")
    p.add_argument("--test-timeout", type=float, default=10.0,
                   help="per-test hang timeout in seconds")
    p.add_argument("--no-reduction", action="store_true",
                   help="disable constraint set reduction (§IV-C)")
    p.add_argument("--one-way", action="store_true",
                   help="one-way instrumentation: every rank runs heavy")
    p.add_argument("--no-framework", action="store_true",
                   help="standard concolic testing (fixed focus/nprocs)")
    p.add_argument("--faults", default="", metavar="KINDS",
                   help="comma list of fault kinds to inject "
                        "(delay, drop, corrupt, crash, jitter, "
                        "solver-timeout)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the deterministic fault streams")
    p.add_argument("--solver-cache", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="counterexample cache between the solve session "
                        "and the solver (--no-solver-cache disables)")
    p.add_argument("--solver-cache-path", default=None, metavar="PATH",
                   help="JSONL disk tier for the solver cache; persists "
                        "verdicts across --resume and campaigns")
    p.add_argument("--max-rss", type=int, default=None, metavar="MB",
                   help="address-space rlimit per test run; allocation "
                        "failures classify as the distinct 'oom' kind")
    p.add_argument("--max-cpu", type=float, default=None, metavar="SECONDS",
                   help="CPU-time rlimit per test run; SIGXCPU deaths "
                        "classify as 'cpu-cap'")
    p.add_argument("--sandbox", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="fork-isolate inline test runs so a hard-dying "
                        "target cannot kill the campaign (auto-on when "
                        "--max-rss/--max-cpu is set)")
    p.add_argument("--minimize", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="ddmin-minimize each new crash signature into a "
                        "reproducer artifact under <log>.repro/ "
                        "(--no-minimize disables)")
    p.add_argument("--quarantine-kills", type=int, default=1,
                   metavar="N",
                   help="confirmed worker kills from one input before it "
                        "is quarantined (default: 1)")
    p.add_argument("--portfolio", default="", metavar="ARMS",
                   help="run several strategies as bandit arms over one "
                        "shared frontier, e.g. dfs2,bounded,random,cfg "
                        "('default' = that mix; empty = single strategy)")
    p.add_argument("--portfolio-exploration", type=float, default=0.5,
                   metavar="C",
                   help="UCB exploration constant for the portfolio "
                        "bandit (default: 0.5)")
    p.add_argument("--explore-schedules", action="store_true",
                   help="also search message-interleaving space: every "
                        "wildcard-receive match becomes a decision point "
                        "and unexplored alternatives are replayed "
                        "depth-first (forces the inline executor; "
                        "incompatible with --portfolio)")
    p.add_argument("--schedule-budget", type=int, default=64, metavar="N",
                   help="max alternative schedules explored per campaign "
                        "(default: 64)")
    p.add_argument("--schedule-depth", type=int, default=8, metavar="D",
                   help="match decisions per run eligible for forking "
                        "(default: 8)")


def budget_kwargs(args: argparse.Namespace) -> dict:
    """Budget kwargs for Compi.run from the CLI flags (default: 50 iterations)."""
    if args.iterations is None and args.time_budget is None:
        return {"iterations": 50}
    out = {}
    if args.iterations is not None:
        out["iterations"] = args.iterations
    if args.time_budget is not None:
        out["time_budget"] = args.time_budget
    return out


def cmd_targets(_args: argparse.Namespace) -> int:
    """`targets` subcommand: list the available targets."""
    rows = []
    for name, spec in sorted(TARGETS.items()):
        modules = spec[0]
        if isinstance(modules, str):
            modules = importlib.import_module(modules).MODULES
        rows.append([name, len(modules), modules[-1]])
    print(format_table(["target", "modules", "entry"], rows,
                       title="available targets"))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """`run` subcommand: one COMPI campaign.

    Exit codes: 0 = clean campaign, 1 = campaign completed and found
    bugs, 2 = unrecoverable harness error (the campaign itself died).
    """
    if args.resume and not args.save_log:
        raise SystemExit("--resume needs --save-log PATH "
                         "(the log of the campaign to continue)")
    try:
        return _run_campaign(args)
    except (SystemExit, KeyboardInterrupt):
        raise
    except Exception as exc:
        import traceback
        traceback.print_exc()
        print(f"repro run: unrecoverable error: {exc!r}", file=sys.stderr)
        return 2


def _run_campaign(args: argparse.Namespace) -> int:
    program = load_target(args.target)
    try:
        from .core import Compi
        from .core.persist import CampaignLog

        config = build_config(args)
        if args.resume:
            from pathlib import Path
            if not Path(args.save_log).exists():
                raise SystemExit(f"no campaign log at {args.save_log}; "
                                 f"start one with --save-log (no --resume)")
            compi = Compi.resume(program, args.save_log)
            log = CampaignLog(args.save_log, mode="a")
        else:
            compi = Compi(program, config)
            log = (CampaignLog(args.save_log,
                               mode="w" if args.overwrite_log else "x")
                   if args.save_log else None)
        try:
            if log is not None:
                try:
                    with log:
                        result = compi.run(**budget_kwargs(args), log=log)
                except FileExistsError:
                    raise SystemExit(
                        f"campaign log {log.path} already exists; pass "
                        f"--overwrite-log to replace it or --resume to "
                        f"continue it") from None
                print(f"campaign log: {log.path}")
            else:
                result = compi.run(**budget_kwargs(args))
        finally:
            compi.close()
        print(campaign_summary(result))
        return 0 if not result.unique_bugs() else 1
    finally:
        program.unload()


def cmd_faults(args: argparse.Namespace) -> int:
    """`faults` subcommand: bug reproducibility under a fault matrix."""
    from .faults import ALL_FAULT_KINDS, FaultCampaign

    if args.list:
        print(format_table(["kind"], [[k] for k in ALL_FAULT_KINDS],
                           title="injectable fault kinds"))
        return 0
    if not args.log:
        raise SystemExit("give --log PATH (a campaign log with bugs) "
                         "or --list")
    from .core.persist import load_campaign

    bugs = load_campaign(args.log)["bugs"]
    seen: set = set()
    unique = [b for b in bugs
              if b.dedup_key not in seen and not seen.add(b.dedup_key)]
    if not unique:
        print("no bugs recorded in this log")
        return 0
    kinds = None
    if args.kinds:
        kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    program = load_target(args.target)
    try:
        campaign = FaultCampaign(program, build_config(args),
                                 seed=args.fault_seed, kinds=kinds)
        reports = campaign.run(unique)
    finally:
        program.unload()
    headers = ["bug", "baseline"] + list(campaign.kinds) + ["repro rate"]
    rows = []
    for bug, rep in zip(unique, reports):
        label = f"{bug.kind}@{bug.location}" if bug.location else bug.kind
        cells = [t.cell() for t in rep.trials]
        rows.append([label] + cells + [f"{100 * rep.reproducibility:.0f}%"])
    print(format_table(headers, rows,
                       title=f"{args.target}: bug reproducibility under "
                             f"faults (seed={args.fault_seed})"))
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a bug from a campaign log: the §V workflow's last mile —
    the logged error-inducing input is re-executed for analysis."""
    from .core.persist import load_campaign
    from .core.runner import TestRunner

    loaded = load_campaign(args.log)
    bugs = loaded["bugs"]
    if not bugs:
        print("no bugs recorded in this log")
        return 0
    if args.bug >= len(bugs):
        raise SystemExit(f"log has {len(bugs)} bugs; --bug {args.bug} "
                         f"is out of range")
    bug = bugs[args.bug]
    print(f"replaying bug #{args.bug}: {bug.kind} "
          f"(np={bug.testcase.setup.nprocs}, focus={bug.testcase.setup.focus})")
    print(f"inputs: {dict(sorted(bug.testcase.inputs.items()))}")
    if bug.schedule:
        # load_campaign already re-pinned the testcase: the runner will
        # replay the recorded wildcard match decisions
        print(f"schedule: {bug.schedule}")

    program = load_target(args.target)
    try:
        rec = TestRunner(program, build_config(args)).run(bug.testcase)
        if rec.error is None:
            print("replay did NOT reproduce the error "
                  "(fixed, or environment-dependent)")
            return 1
        print(f"reproduced: {rec.error.kind} on rank {rec.error.global_rank}")
        print(f"  {rec.error.message}")
        if rec.error.location:
            print(f"  at {rec.error.location}")
        if args.traceback and rec.error.traceback:
            print(rec.error.traceback)
        return 0
    finally:
        program.unload()


def cmd_cache(args: argparse.Namespace) -> int:
    """`cache` subcommand: inspect a solver-cache disk tier."""
    from pathlib import Path

    from .solvercache import CounterexampleCache

    if args.action == "stats":
        path = Path(args.path)
        if not path.exists():
            raise SystemExit(f"no solver-cache tier at {path}")
        cache = CounterexampleCache(capacity=2 ** 31, path=path)
        sat = cache.sat_entries
        unsat = cache.unsat_entries
        rows = [
            ["entries", len(cache)],
            ["sat models", sat],
            ["unsat verdicts", unsat],
            ["file size (bytes)", path.stat().st_size],
        ]
        print(format_table(["metric", "value"], rows,
                           title=f"solver cache tier: {path}"))
        return 0
    path = Path(args.path)
    if not path.exists():
        raise SystemExit(f"no solver-cache tier at {path}")
    path.unlink()
    print(f"cleared solver cache tier {path}")
    return 0


def _pick_artifact(artifacts: list[dict], signature: str | None,
                   index: int) -> dict:
    if signature:
        hits = [a for a in artifacts if signature in a["signature"]]
        if not hits:
            raise SystemExit(f"no reproducer artifact matching {signature!r}")
        if len(hits) > 1:
            names = ", ".join(a["signature"] for a in hits)
            raise SystemExit(f"--signature {signature!r} is ambiguous "
                             f"({names})")
        return hits[0]
    if index >= len(artifacts):
        raise SystemExit(f"{len(artifacts)} artifact(s) recorded; "
                         f"--index {index} is out of range")
    return artifacts[index]


def cmd_triage(args: argparse.Namespace) -> int:
    """`triage` subcommand: inspect / replay minimized crash reproducers."""
    import json

    from .supervise import load_artifacts, repro_dir

    directory = repro_dir(args.log)
    artifacts = load_artifacts(directory)
    if args.action == "list":
        if not artifacts:
            print(f"no reproducer artifacts under {directory}")
            return 0
        rows = [[a["signature"], a["kind"], a["iteration"],
                 "yes" if a["minimized"] else "no",
                 len(a.get("removed_inputs", [])),
                 dict(sorted(a["minimized_inputs"].items()))]
                for a in artifacts]
        print(format_table(
            ["signature", "kind", "iter", "minimized", "dropped", "inputs"],
            rows, title=f"crash reproducers: {directory}"))
        return 0

    art = _pick_artifact(artifacts, args.signature, args.index)
    if args.action == "show":
        shown = {k: v for k, v in art.items() if k != "_path"}
        print(json.dumps(shown, indent=2, sort_keys=True))
        print(f"# artifact: {art['_path']}")
        return 0

    # replay: re-execute the (minimized) reproducer in the sandbox
    if not args.target:
        raise SystemExit("triage replay needs --target (the artifact "
                         f"records program {art['program']!r})")
    from .core.conflicts import TestSetup
    from .core.runner import ErrorInfo, TestRunner
    from .core.testcase import TestCase
    from .supervise import ResourceLimits, crash_signature, run_sandboxed

    inputs = art["inputs"] if args.original else art["minimized_inputs"]
    limits = ResourceLimits(max_rss_mb=art["limits"]["max_rss_mb"],
                            max_cpu_s=art["limits"]["max_cpu_s"])
    config = CompiConfig(seed=art.get("seed", 0),
                         max_rss_mb=limits.max_rss_mb,
                         max_cpu_s=limits.max_cpu_s, sandbox=True)
    schedule: tuple = ()
    if art.get("schedule"):
        from .schedules import decode_schedule
        schedule = decode_schedule(art["schedule"])
    tc = TestCase(inputs={k: int(v) for k, v in inputs.items()},
                  setup=TestSetup(art["nprocs"], art["focus"]),
                  schedule=schedule)
    print(f"replaying {art['signature']} "
          f"(np={art['nprocs']}, focus={art['focus']})")
    print(f"inputs: {dict(sorted(tc.inputs.items()))}")
    if art.get("schedule"):
        print(f"schedule: {art['schedule']}")
    program = load_target(args.target)
    try:
        runner = TestRunner(program, config)
        outcome, death = run_sandboxed(runner, tc, config.test_timeout,
                                       limits)
    finally:
        program.unload()
    if death is not None:
        err = ErrorInfo(kind=death.kind, global_rank=-1,
                        message=death.message(limits))
    elif outcome is not None and outcome.error is not None:
        err = outcome.error
    else:
        print("replay did NOT reproduce the crash "
              "(fixed, or environment-dependent)")
        return 1
    got = crash_signature(err)
    print(f"reproduced: {err.kind} — {err.message[:90]}")
    if err.location:
        print(f"  at {err.location}")
    if got == art["signature"]:
        print(f"signature match: {got}")
        return 0
    print(f"DIFFERENT signature: got {got}, artifact has "
          f"{art['signature']}")
    return 1


def _add_pool_flags(p: argparse.ArgumentParser) -> None:
    """Warm-pool overrides shared by `fleet run` and `fleet resume`."""
    p.add_argument("--warm-pool", type=int, default=None, metavar="N",
                   help="keep N persistent warm workers instead of "
                        "spawning one process per shard attempt "
                        "(default: spec's pool.warm, 0 = disabled)")
    p.add_argument("--pool-recycle-tasks", type=int, default=None,
                   metavar="K",
                   help="recycle each warm worker after K shards "
                        "(default: spec's pool.recycle_tasks)")
    p.add_argument("--pool-max-rss", type=int, default=None, metavar="MB",
                   help="recycle a warm worker whose RSS self-check "
                        "exceeds MB (default: spec's pool.max_rss_mb)")


def cmd_fleet(args: argparse.Namespace) -> int:
    """`fleet` subcommand group: declarative sharded campaign sweeps."""
    from .fleet import service

    if args.fleet_command == "run":
        return service.fleet_run(args.spec, args.dir, workers=args.workers,
                                 overwrite=args.force,
                                 stop_after_shards=args.stop_after,
                                 warm_pool=args.warm_pool,
                                 pool_recycle_tasks=args.pool_recycle_tasks,
                                 pool_max_rss=args.pool_max_rss)
    if args.fleet_command == "resume":
        return service.fleet_resume(args.dir, workers=args.workers,
                                    stop_after_shards=args.stop_after,
                                    warm_pool=args.warm_pool,
                                    pool_recycle_tasks=args.pool_recycle_tasks,
                                    pool_max_rss=args.pool_max_rss)
    if args.fleet_command == "status":
        return service.fleet_status(args.dir)
    if args.fleet_command == "report":
        return service.fleet_report(args.dir, as_json=args.json,
                                    with_coverage=args.coverage)
    if args.fleet_command == "workerd":
        # internal: one persistent warm-pool daemon (see fleet/pool.py)
        return service.fleet_workerd(args.dir, args.worker)
    # worker: internal per-shard entry, dispatched by the scheduler
    return service.fleet_worker(args.dir, args.shard)


def cmd_compare(args: argparse.Namespace) -> int:
    """`compare` subcommand: run several variants with a common denominator."""
    names = [v.strip() for v in args.variants.split(",") if v.strip()]
    for v in names:
        if v not in VARIANTS:
            raise SystemExit(f"unknown variant {v!r}; choose from {VARIANTS}")
    results = {}
    for v in names:
        program = load_target(args.target)
        try:
            tester = make_variant(program, v, build_config(args))
            results[v] = tester.run(**budget_kwargs(args))
        finally:
            program.unload()
    reachable = max(r.reachable_branches for r in results.values()) or 1
    rows = [[v, len(r.iterations), r.coverage.covered_static,
             f"{100 * r.coverage.covered_static / reachable:.1f}%",
             len(r.unique_bugs())]
            for v, r in results.items()]
    print(format_table(
        ["variant", "tests", "covered", "of reachable", "bugs"],
        rows, title=f"{args.target}: variant comparison"))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="COMPI (IPDPS 2018) reproduction — concolic testing "
                    "for MPI applications")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("targets", help="list available targets")

    p_run = sub.add_parser("run", help="run a COMPI campaign")
    add_common(p_run)
    p_run.add_argument("--save-log", default=None, metavar="PATH",
                       help="stream the campaign to a JSONL log (plus a "
                            "checkpoint sidecar for --resume)")
    p_run.add_argument("--overwrite-log", action="store_true",
                       help="allow --save-log to replace an existing file")
    p_run.add_argument("--resume", action="store_true",
                       help="continue the campaign recorded at --save-log")

    p_cmp = sub.add_parser("compare", help="compare testing variants")
    add_common(p_cmp)
    p_cmp.add_argument("--variants", default="R,Random",
                       help=f"comma list from {', '.join(VARIANTS)}")

    p_rep = sub.add_parser("replay",
                           help="replay a logged error-inducing input")
    add_common(p_rep)
    p_rep.add_argument("--log", required=True,
                       help="campaign JSONL log (see repro.core.persist)")
    p_rep.add_argument("--bug", type=int, default=0,
                       help="bug index within the log")
    p_rep.add_argument("--traceback", action="store_true",
                       help="print the full recorded traceback")

    p_flt = sub.add_parser("faults",
                           help="re-check logged bugs under a fault matrix")
    add_common(p_flt)
    p_flt.add_argument("--log", default=None,
                       help="campaign JSONL log whose bugs to re-check")
    p_flt.add_argument("--kinds", default=None,
                       help="comma subset of fault kinds (default: all)")
    p_flt.add_argument("--list", action="store_true",
                       help="list the injectable fault kinds and exit")

    p_tri = sub.add_parser("triage",
                           help="inspect / replay minimized crash "
                                "reproducer artifacts")
    p_tri.add_argument("action", choices=("list", "show", "replay"),
                       help="list artifacts; show one as JSON; replay one "
                            "in the sandbox and re-check its signature")
    p_tri.add_argument("--log", required=True,
                       help="campaign JSONL log (artifacts live in "
                            "<log>.repro/)")
    p_tri.add_argument("--signature", default=None,
                       help="signature (or unique substring) to select")
    p_tri.add_argument("--index", type=int, default=0,
                       help="artifact index when --signature is not given")
    p_tri.add_argument("--target", default=None, choices=sorted(TARGETS),
                       help="target to replay against (replay only)")
    p_tri.add_argument("--original", action="store_true",
                       help="replay the original crashing inputs instead "
                            "of the minimized ones")

    p_fleet = sub.add_parser(
        "fleet", help="declarative sharded campaign sweeps (fault-tolerant)")
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)

    p_fr = fleet_sub.add_parser(
        "run", help="expand a fleet spec and run every shard")
    p_fr.add_argument("spec", help="fleet spec file (YAML, or JSON when "
                                   "PyYAML is unavailable)")
    p_fr.add_argument("--dir", required=True, metavar="DIR",
                      help="fleet state directory (manifest + shard logs)")
    p_fr.add_argument("--workers", type=int, default=None,
                      help="concurrent shard workers (default: spec's)")
    p_fr.add_argument("--force", action="store_true",
                      help="replace an existing sweep in --dir")
    p_fr.add_argument("--stop-after", type=int, default=None,
                      help=argparse.SUPPRESS)  # test hook: die mid-sweep
    _add_pool_flags(p_fr)

    p_fres = fleet_sub.add_parser(
        "resume", help="continue a killed sweep (incomplete shards only)")
    p_fres.add_argument("dir", help="fleet state directory")
    p_fres.add_argument("--workers", type=int, default=None,
                        help="concurrent shard workers (default: spec's)")
    p_fres.add_argument("--stop-after", type=int, default=None,
                        help=argparse.SUPPRESS)
    _add_pool_flags(p_fres)

    p_fst = fleet_sub.add_parser(
        "status", help="show shard statuses, attempts, and failures")
    p_fst.add_argument("dir", help="fleet state directory")

    p_frep = fleet_sub.add_parser(
        "report", help="merge shard logs into the deterministic report")
    p_frep.add_argument("dir", help="fleet state directory")
    p_frep.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    p_frep.add_argument("--coverage", action="store_true",
                        help="include the per-target branch-coverage "
                             "union across shards")

    p_fw = fleet_sub.add_parser("worker")  # internal: one shard attempt
    p_fw.add_argument("--dir", required=True)
    p_fw.add_argument("--shard", required=True)

    p_fwd = fleet_sub.add_parser("workerd")  # internal: warm-pool daemon
    p_fwd.add_argument("--dir", required=True)
    p_fwd.add_argument("--worker", type=int, required=True)

    p_cache = sub.add_parser("cache",
                             help="inspect the solver-cache disk tier")
    p_cache.add_argument("action", choices=("stats", "clear"),
                         help="stats: summarize a tier; clear: delete it")
    p_cache.add_argument("--path", required=True,
                         help="JSONL tier written via --solver-cache-path")

    args = parser.parse_args(argv)
    if args.command == "targets":
        return cmd_targets(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "replay":
        return cmd_replay(args)
    if args.command == "faults":
        return cmd_faults(args)
    if args.command == "cache":
        return cmd_cache(args)
    if args.command == "triage":
        return cmd_triage(args)
    if args.command == "fleet":
        return cmd_fleet(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
