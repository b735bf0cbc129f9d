"""Command-line interface: ``python -m repro`` / ``shmem-switch``.

Subcommands
-----------
``list``
    Show all experiments (Fig. 5 panels and theorem validations).
``policies``
    Show all registered buffer-management policies.
``run EXPERIMENT``
    Run a Fig. 5 panel (prints the ratio table, optionally writes CSV) or
    a theorem validation (prints measured vs. predicted ratio).
``scenario THM``
    Run an adversarial construction with custom ``--k/--buffer`` sizes.
``golden``
    Check the committed golden fixture (``--check``, the default):
    decision streams on the reference engine, metrics on both engines.
    ``--update`` regenerates it.
``trace``
    Record a pinned bench panel as a JSONL event trace, or replay-verify
    a recorded trace (conservation laws + byte-equal metrics).
``profile``
    Run a sweep experiment and print the per-stage wall-clock breakdown
    (trace generation vs. policy runs vs. OPT surrogate).
``cache``
    Verify the sweep result cache (checksum every entry) or garbage-
    collect corrupt/legacy/quarantined entries.
``check``
    Run the contract-aware static analyzer (determinism lint, hot-path
    allocation audit, policy-API conformance, IO hygiene) over source
    paths. See ``docs/STATIC_ANALYSIS.md``.

Resilience (see ``docs/RESILIENCE.md``): ``run`` accepts
``--timeout/--retries`` (supervised worker execution) and
``--inject-faults SPEC`` (deterministic chaos for testing). An
interrupted run (SIGINT/SIGTERM) exits 130; every cell it completed is
in the sweep cache, so rerunning the same command continues where it
stopped.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.competitive import run_scenario
from repro.analysis.sweep import SweepResult
from repro.core.errors import (
    ConfigError,
    ReproError,
    SweepExecutionError,
    SweepInterrupted,
)
from repro.experiments.registry import (
    describe_experiment,
    list_experiments,
    run_experiment,
)
from repro.policies import available_policies


def _cmd_list(_args: argparse.Namespace) -> int:
    for experiment_id in list_experiments():
        print(f"{experiment_id:10s} {describe_experiment(experiment_id)}")
    return 0


def _cmd_policies(_args: argparse.Namespace) -> int:
    for entry in available_policies():
        models = "/".join(sorted(entry.models))
        print(f"{entry.name:8s} [{models:16s}] {entry.summary}")
    return 0


def _sweep_cache_dir(args: argparse.Namespace) -> Optional[str]:
    """Resolve the cache directory from --cache-dir / --no-cache."""
    if getattr(args, "no_cache", False):
        return None
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    from repro.analysis.cache import default_cache_dir

    return str(default_cache_dir())


def _resilience_options(args: argparse.Namespace):
    """SupervisorOptions from --timeout/--retries (None = defaults)."""
    from repro.resilience import SupervisorOptions

    options = SupervisorOptions()
    if getattr(args, "timeout", None) is not None:
        options.timeout = args.timeout
    if getattr(args, "retries", None) is not None:
        options.retries = args.retries
    return options


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.resilience import FaultInjector

    experiment = args.experiment
    progress = None
    if args.progress:
        progress = lambda line: print(line, file=sys.stderr)  # noqa: E731
    injector = (
        FaultInjector.parse(args.inject_faults)
        if args.inject_faults
        else None
    )
    cache_dir = _sweep_cache_dir(args)
    try:
        result = run_experiment(
            experiment,
            n_slots=args.slots,
            seeds=args.seeds,
            jobs=args.jobs,
            cache_dir=cache_dir,
            progress=progress,
            resilience=_resilience_options(args),
            fault_injector=injector,
        )
    except SweepInterrupted as exc:
        print(f"# interrupted: {exc}", file=sys.stderr)
        if cache_dir is None:
            print(
                "# --no-cache: nothing was kept; rerunning the same "
                "command starts over",
                file=sys.stderr,
            )
        else:
            print(
                f"# {exc.completed} cells completed by this run are in "
                f"the cache at {cache_dir}; rerun the same command to "
                f"continue",
                file=sys.stderr,
            )
        return 130
    except SweepExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        partial = exc.result
        if partial is not None and partial.points:
            print(
                f"# partial result "
                f"({len(exc.failures)} cells quarantined):"
            )
            print(partial.format_table())
            print(f"# {partial.stats.summary()}")
        return 1
    if isinstance(result, SweepResult):
        print(f"# {experiment}: {describe_experiment(experiment)}")
        print(result.format_table())
        print(f"# {result.stats.summary()}")
        if args.plot:
            from repro.viz import render_sweep

            print()
            print(render_sweep(result))
        if args.out:
            result.to_csv(args.out)
            print(f"# wrote {args.out}")
    elif hasattr(result, "format_table"):
        print(f"# {experiment}: {describe_experiment(experiment)}")
        print(result.format_table())
    else:
        scenario, outcome = result
        print(f"# {scenario.name} ({scenario.theorem})")
        print(f"target policy   : {scenario.target_policy}")
        print(f"predicted ratio : {scenario.predicted_ratio:.4f}")
        print(f"measured ratio  : {outcome.ratio:.4f}")
        print(f"notes           : {scenario.notes}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    """Run the Theorem 7 mapping certificate on an adversarial trace."""
    from repro.analysis.mapping import certify_lwd
    from repro.opt.scripted import ScriptedPolicy
    from repro.traffic.adversarial import ALL_SCENARIOS

    builder = ALL_SCENARIOS.get(args.theorem)
    if builder is None:
        print(
            f"unknown theorem {args.theorem!r}; known: "
            + ", ".join(ALL_SCENARIOS),
            file=sys.stderr,
        )
        return 2
    kwargs = {"buffer_size": args.buffer}
    if args.theorem not in {"thm6", "thm11"}:
        kwargs["k"] = args.k
    scenario = builder(**kwargs)
    if scenario.by_value or scenario.config.speedup != 1:
        print(
            "the Theorem 7 certificate applies to processing-model "
            "scenarios with C = 1",
            file=sys.stderr,
        )
        return 2
    report = certify_lwd(scenario.trace, scenario.config, ScriptedPolicy())
    print(f"# Theorem 7 certificate on {scenario.name}")
    print(report.summary())
    for violation in report.violations:
        print(f"  {violation}")
    return 0 if report.certified else 1


def _cmd_probe(args: argparse.Namespace) -> int:
    """Probe a value-model policy against the exhaustive true OPT."""
    from repro.analysis.conjecture import adversarial_search, probe_policy

    report = probe_policy(
        args.policy, trials=args.trials, seed=args.seed
    )
    print(report.summary())
    if args.climb:
        found = adversarial_search(
            args.policy,
            restarts=args.restarts,
            steps_per_restart=args.steps,
            seed=args.seed,
        )
        print(
            f"hill-climb worst ratio: {found.ratio:.4f} "
            f"(instance: {found.arrivals})"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Generate the full reproduction report."""
    from repro.experiments.report import ReportOptions, write_report

    options = ReportOptions(
        n_slots=args.slots,
        seeds=tuple(args.seeds),
        include_panels=args.panels,
        jobs=args.jobs,
        cache_dir=_sweep_cache_dir(args),
        progress=(
            (lambda line: print(line, file=sys.stderr))
            if args.progress
            else None
        ),
    )
    write_report(args.out, options)
    print(f"# wrote {args.out}")
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    """Check or regenerate the golden decision-stream fixture."""
    from repro.goldens import (
        DEFAULT_GOLDEN_PATH,
        check_goldens,
        update_goldens,
    )

    if args.path is None:
        args.path = DEFAULT_GOLDEN_PATH
    if args.update:
        path = update_goldens(args.path, panel_names=args.panels)
        print(f"# wrote {path}")
        return 0
    problems = check_goldens(args.path, panel_names=args.panels)
    if problems:
        print(f"# GOLDEN MISMATCH vs {args.path}:", file=sys.stderr)
        for problem in problems:
            print(f"#   {problem}", file=sys.stderr)
        return 1
    print(
        "# goldens hold: streams on reference, metrics on "
        f"reference/vectorized (fixture {args.path})"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Record a bench panel to JSONL, or replay-verify a recorded file."""
    from repro.obs import replay_trace

    if args.verify:
        result = replay_trace(args.verify)
        print(f"# {args.verify}")
        print(result.summary())
        result.verify()
        print(
            "# verified: conservation laws hold and replayed metrics are "
            "byte-equal to the recorded run"
        )
        return 0

    if not args.scenario or not args.out:
        print(
            "trace needs either --verify FILE or --scenario PANEL "
            "--out FILE",
            file=sys.stderr,
        )
        return 2
    from repro.bench import PANELS
    from repro.obs import record_trace
    from repro.policies import make_policy

    panel = PANELS.get(args.scenario)
    if panel is None:
        print(
            f"unknown bench panel {args.scenario!r}; known: "
            + ", ".join(PANELS),
            file=sys.stderr,
        )
        return 2
    policy_name = args.policy or panel.policies[0]
    config = panel.config()
    trace = panel.trace(args.slots_scale)
    metrics = record_trace(
        make_policy(policy_name),
        trace,
        config,
        args.out,
        header={
            "panel": panel.name,
            "slots_scale": args.slots_scale,
            "seed": panel.seed,
        },
    )
    print(
        f"# recorded {panel.name} [{policy_name}] -> {args.out}: "
        f"{metrics.slots_elapsed} slots, {metrics.arrived} arrivals, "
        f"{metrics.transmitted_packets} transmitted"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run a sweep experiment and print its hot-stage breakdown."""
    progress = None
    if args.progress:
        progress = lambda line: print(line, file=sys.stderr)  # noqa: E731
    result = run_experiment(
        args.experiment,
        n_slots=args.slots,
        seeds=args.seeds,
        jobs=args.jobs,
        cache_dir=None,  # caching would hide the cost being measured
        progress=progress,
    )
    if not isinstance(result, SweepResult):
        print(
            f"profile applies to sweep experiments (fig5-1..fig5-9); "
            f"{args.experiment!r} is a single replay",
            file=sys.stderr,
        )
        return 2
    stats = result.stats
    print(f"# {args.experiment}: {describe_experiment(args.experiment)}")
    print(f"# {stats.summary()}")
    ranked = stats.ranked_stages()
    print(f"{'stage':12s} {'seconds':>10s} {'share':>7s}")
    for index, (name, seconds, share) in enumerate(ranked):
        flag = "  <- dominant" if index == 0 and seconds > 0 else ""
        print(f"{name:12s} {seconds:10.4f} {share:6.1%}{flag}")
    if stats.jobs == 1:
        other = stats.elapsed_seconds - sum(s for _, s, _ in ranked)
        print(f"{'other':12s} {max(other, 0.0):10.4f}")
    else:
        # Workers overlap, so stage seconds may exceed the wall clock
        # and elapsed minus their sum means nothing.
        print(
            f"# stage seconds are worker seconds summed over "
            f"{stats.jobs} jobs; the wall clock is in the summary line"
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Verify or garbage-collect the sweep result cache."""
    from pathlib import Path

    from repro.analysis.cache import SweepCache, default_cache_dir

    root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    cache = SweepCache(root)
    if args.action == "verify":
        report = cache.verify()
        print(f"# {root}: {report.summary()}")
        for path in report.corrupt:
            print(f"corrupt: {path}")
        return 0 if report.clean else 1
    report = cache.gc()
    print(f"# {root}: {report.summary()}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the static analyzer; exit 0 clean, 1 findings, 2 bad usage."""
    from repro.check import all_rules, run_check

    if args.list_rules:
        for entry in all_rules():
            if entry.kind == "project":
                scope = "project"
            else:
                scope = ",".join(entry.scope) if entry.scope else "all modules"
            print(f"{entry.code} {entry.name:28s} [{scope}]")
            print(f"      {entry.summary}")
        return 0
    codes = None
    if args.rules:
        codes = [
            code.strip().upper()
            for chunk in args.rules
            for code in chunk.split(",")
            if code.strip()
        ]
    try:
        report = run_check(
            args.paths,
            rules=codes,
            fix_suppressions=args.fix_suppressions,
            project=args.project,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_human())
    return report.exit_code()


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.traffic.adversarial import ALL_SCENARIOS

    builder = ALL_SCENARIOS.get(args.theorem)
    if builder is None:
        print(
            f"unknown theorem {args.theorem!r}; known: "
            + ", ".join(ALL_SCENARIOS),
            file=sys.stderr,
        )
        return 2
    kwargs = {}
    if args.theorem in {"thm6", "thm11"}:
        kwargs["buffer_size"] = args.buffer
    else:
        kwargs["k"] = args.k
        kwargs["buffer_size"] = args.buffer
    scenario = builder(**kwargs)
    outcome = run_scenario(scenario)
    print(f"# {scenario.name} ({scenario.theorem})")
    print(f"target policy   : {scenario.target_policy}")
    print(f"predicted ratio : {scenario.predicted_ratio:.4f}")
    print(f"measured ratio  : {outcome.ratio:.4f}")
    print(f"notes           : {scenario.notes}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shmem-switch",
        description=(
            "Shared-memory switch buffer management (ICDCS 2014 "
            "reproduction): run experiments and validations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(
        func=_cmd_list
    )
    sub.add_parser("policies", help="list policies").set_defaults(
        func=_cmd_policies
    )

    run_parser = sub.add_parser("run", help="run an experiment by id")
    run_parser.add_argument("experiment", help="e.g. fig5-1 or thm6")
    run_parser.add_argument(
        "--slots", type=int, default=None,
        help="simulation length in slots (Fig. 5 panels)",
    )
    run_parser.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="replication seeds (Fig. 5 panels)",
    )
    run_parser.add_argument("--out", default=None, help="CSV output path")
    run_parser.add_argument(
        "--plot", action="store_true",
        help="render the sweep as an ASCII chart after the table",
    )
    _add_sweep_engine_flags(run_parser)
    _add_resilience_flags(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    cache_parser = sub.add_parser(
        "cache", help="verify or garbage-collect the sweep result cache"
    )
    cache_parser.add_argument(
        "action", choices=("verify", "gc"),
        help=(
            "verify: checksum every entry (exit 1 on corruption); "
            "gc: delete corrupt/legacy/quarantined entries"
        ),
    )
    cache_parser.add_argument(
        "--cache-dir", default=None,
        help=(
            "cache directory (default: $SHMEM_CACHE_DIR or "
            "results/sweep-cache)"
        ),
    )
    cache_parser.set_defaults(func=_cmd_cache)

    check_parser = sub.add_parser(
        "check",
        help=(
            "static analysis: determinism/hot-path/policy-API/IO/"
            "trace-schema rules"
        ),
    )
    check_parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    check_parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (default human; json is the CI artifact)",
    )
    check_parser.add_argument(
        "--project", action=argparse.BooleanOptionalAction, default=True,
        help=(
            "run the cross-module phase (RC6xx trace-schema "
            "conformance) over the whole analyzed tree (default on; "
            "--no-project = per-module rules only)"
        ),
    )
    check_parser.add_argument(
        "--rules", action="append", default=None, metavar="RCxxx",
        help=(
            "restrict to these rule codes (comma-separated; "
            "repeatable)"
        ),
    )
    check_parser.add_argument(
        "--fix-suppressions", action="store_true",
        help="delete stale allow[] pragmas (RC902) from the files",
    )
    check_parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    check_parser.set_defaults(func=_cmd_check)

    scen_parser = sub.add_parser(
        "scenario", help="run an adversarial construction at custom sizes"
    )
    scen_parser.add_argument(
        "theorem",
        help="thm1/thm3/thm4/thm5/thm6/thm9/thm10/thm11/greedy",
    )
    scen_parser.add_argument("--k", type=int, default=12)
    scen_parser.add_argument("--buffer", type=int, default=240)
    scen_parser.set_defaults(func=_cmd_scenario)

    certify_parser = sub.add_parser(
        "certify",
        help="run the Theorem 7 mapping certificate on a theorem trace",
    )
    certify_parser.add_argument(
        "theorem", help="a processing-model construction, e.g. thm4 or thm6"
    )
    certify_parser.add_argument("--k", type=int, default=9)
    certify_parser.add_argument("--buffer", type=int, default=108)
    certify_parser.set_defaults(func=_cmd_certify)

    probe_parser = sub.add_parser(
        "probe",
        help="probe a value-model policy against the exhaustive true OPT",
    )
    probe_parser.add_argument("policy", help="e.g. MRD, MVD, LQD-V, Greedy")
    probe_parser.add_argument("--trials", type=int, default=200)
    probe_parser.add_argument("--seed", type=int, default=0)
    probe_parser.add_argument(
        "--climb", action="store_true",
        help="also run the adversarial hill-climb",
    )
    probe_parser.add_argument("--restarts", type=int, default=5)
    probe_parser.add_argument("--steps", type=int, default=60)
    probe_parser.set_defaults(func=_cmd_probe)

    report_parser = sub.add_parser(
        "report",
        help="run everything and write a Markdown reproduction report",
    )
    report_parser.add_argument("--out", default="report.md")
    report_parser.add_argument("--slots", type=int, default=1000)
    report_parser.add_argument(
        "--seeds", type=int, nargs="+", default=[0]
    )
    report_parser.add_argument(
        "--panels", type=int, nargs="*", default=None,
        help="restrict to these Fig. 5 panels (default: all nine)",
    )
    _add_sweep_engine_flags(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    golden_parser = sub.add_parser(
        "golden",
        help=(
            "check the committed goldens (streams on the reference "
            "engine, metrics on both engines), or regenerate them"
        ),
    )
    golden_parser.add_argument(
        "--check", action="store_true",
        help="verify the fixture (the default action)",
    )
    golden_parser.add_argument(
        "--update", action="store_true",
        help=(
            "recompute the fixture on the reference engine and write "
            "it (with --panels: replace only those panels)"
        ),
    )
    golden_parser.add_argument(
        "--path", default=None,
        help="fixture path (default benchmarks/GOLDEN_streams.json)",
    )
    golden_parser.add_argument(
        "--panels", nargs="*", default=None,
        help="restrict to these bench panels (default: all committed)",
    )
    golden_parser.set_defaults(func=_cmd_golden)

    trace_parser = sub.add_parser(
        "trace",
        help="record a bench panel as a JSONL event trace, or verify one",
    )
    # The panel names are spelled out rather than read from
    # repro.bench.PANELS, which would import the panel module on every
    # CLI start; an unknown name is answered with the full list.
    trace_parser.add_argument(
        "--scenario", default=None,
        help=(
            "bench panel to record: {uniform,mmpp,adversarial}-proc-"
            "{small,large}, adversarial-value-{small,large}, "
            "dynamic-flap-small or dynamic-split-small"
        ),
    )
    trace_parser.add_argument(
        "--policy", default=None,
        help="policy to drive (default: the panel's first pinned policy)",
    )
    trace_parser.add_argument(
        "--out", default=None, help="output JSONL path for recording"
    )
    trace_parser.add_argument(
        "--slots-scale", type=float, default=1.0,
        help="scale the panel's slot count (recorded in the header)",
    )
    trace_parser.add_argument(
        "--verify", default=None, metavar="FILE",
        help=(
            "replay FILE, check conservation laws, and require replayed "
            "metrics byte-equal to the recorded footer"
        ),
    )
    trace_parser.set_defaults(func=_cmd_trace)

    profile_parser = sub.add_parser(
        "profile",
        help="run a sweep experiment and print per-stage timings",
    )
    profile_parser.add_argument("experiment", help="e.g. fig5-1")
    profile_parser.add_argument(
        "--slots", type=int, default=None,
        help="simulation length in slots",
    )
    profile_parser.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="replication seeds",
    )
    profile_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (stage times sum worker wall-clock)",
    )
    profile_parser.add_argument(
        "--progress", action="store_true",
        help="report per-cell progress on stderr",
    )
    profile_parser.set_defaults(func=_cmd_profile)

    return parser


def _add_sweep_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Parallel/caching knobs shared by ``run`` and ``report``.

    They configure the Fig. 5 sweep engine and are ignored by theorem
    replays (single deterministic traces). Parallel and cached runs are
    byte-identical to serial uncached runs — see docs/REPRODUCTION.md.
    """
    parser.add_argument(
        "--jobs", type=int, default=1,
        help=(
            "worker processes for sweep cells (0 = one per CPU this "
            "process may run on; default 1)"
        ),
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help=(
            "sweep result cache directory, which an interrupted run "
            "resumes from (default: $SHMEM_CACHE_DIR or "
            "results/sweep-cache)"
        ),
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the sweep result cache for this run",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="report per-cell sweep progress on stderr",
    )


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Supervision knobs of ``run`` (docs/RESILIENCE.md).

    Like the sweep-engine flags they apply to Fig. 5 panels only; none
    of them changes the sweep's output bytes.
    """
    parser.add_argument(
        "--timeout", type=float, default=None,
        help=(
            "per-cell wall-clock budget in seconds (parallel runs only; "
            "default: none)"
        ),
    )
    parser.add_argument(
        "--retries", type=int, default=None,
        help=(
            "extra attempts per cell before it is quarantined "
            "(default 2)"
        ),
    )
    parser.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help=(
            "deterministic chaos spec for testing, e.g. "
            "'crash@0;hang@2;delay=0.2' (also: $REPRO_FAULTS; see "
            "docs/RESILIENCE.md)"
        ),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
