"""One-command reproduction report.

``shmem-switch report`` (or :func:`generate_report`) runs the whole
reproduction — every theorem construction, every Fig. 5 panel, and the
extension studies — at a configurable scale and renders a single
Markdown document in the style of EXPERIMENTS.md, with this machine's
measured numbers. Useful for checking a fork or an environment end to
end, and as the artifact to attach when reporting results.
"""

from __future__ import annotations

import io
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.analysis.cache import SweepCache
from repro.analysis.competitive import run_scenario
from repro.resilience import ResilienceStats, atomic_write_text
from repro.experiments.architecture import run_architecture_comparison
from repro.experiments.fig5 import PANELS, run_panel
from repro.experiments.registry import THEOREM_EXPERIMENTS
from repro.experiments.robustness import run_robustness_study
from repro.experiments.skewed import run_skew_sweep


@dataclass
class ReportOptions:
    """Scale knobs for a report run.

    ``jobs`` and ``cache_dir`` configure the parallel sweep engine for
    the Fig. 5 panels (see :mod:`repro.analysis.sweep`); one cache is
    shared across all panels so an interrupted report resumes where it
    stopped. Neither changes a single output byte of the tables.
    """

    n_slots: int = 1000
    seeds: Sequence[int] = (0,)
    include_panels: Optional[Sequence[int]] = None  # default: all nine
    include_theorems: bool = True
    include_extensions: bool = True
    jobs: Optional[int] = None
    cache_dir: Optional[str] = None
    progress: Optional[Callable[[str], None]] = None


def generate_report(options: Optional[ReportOptions] = None) -> str:
    """Run everything and return the Markdown report."""
    options = options or ReportOptions()
    out = io.StringIO()
    started = time.perf_counter()

    out.write("# Reproduction report\n\n")
    out.write(
        f"Scale: {options.n_slots} slots/point, seeds "
        f"{list(options.seeds)}. Competitive ratio = OPT / ALG.\n\n"
    )

    if options.include_theorems:
        out.write("## Lower-bound theorems\n\n")
        out.write("| experiment | policy | predicted | measured | err |\n")
        out.write("|---|---|---|---|---|\n")
        for experiment in THEOREM_EXPERIMENTS.values():
            scenario = experiment.build()
            outcome = run_scenario(scenario)
            err = 100 * (outcome.ratio / scenario.predicted_ratio - 1)
            out.write(
                f"| {scenario.theorem} | {scenario.target_policy} | "
                f"{scenario.predicted_ratio:.4f} | {outcome.ratio:.4f} | "
                f"{err:+.1f}% |\n"
            )
        out.write("\n")

    panels = (
        list(options.include_panels)
        if options.include_panels is not None
        else sorted(PANELS)
    )
    if panels:
        cache = (
            SweepCache(options.cache_dir)
            if options.cache_dir is not None
            else None
        )
        out.write("## Fig. 5 panels\n\n")
        panel_stats = []
        for panel in panels:
            spec = PANELS[panel]
            result = run_panel(
                panel,
                n_slots=options.n_slots,
                seeds=options.seeds,
                jobs=options.jobs,
                cache=cache,
                progress=options.progress,
            )
            panel_stats.append((panel, result.stats))
            out.write(f"### Panel ({panel}): {spec.title}\n\n")
            out.write("```\n")
            out.write(result.format_table())
            out.write(f"\n```\n\n*{result.stats.summary()}*\n\n")
        out.write("### Sweep engine throughput\n\n")
        out.write(
            "| panel | cells | executed | cells/s | cache hit rate "
            "| trace gen | policy runs | OPT runs | dominant |\n"
        )
        out.write("|---|---|---|---|---|---|---|---|---|\n")
        for panel, stats in panel_stats:
            ranked = stats.ranked_stages()
            by_stage = {name: (s, share) for name, s, share in ranked}
            cells = [
                "{:.2f}s ({:.0%})".format(*by_stage.get(stage, (0.0, 0.0)))
                for stage in ("trace_gen", "policy_run", "opt_run")
            ]
            dominant = ranked[0][0] if ranked else "-"
            out.write(
                f"| {panel} | {stats.cells_total} | {stats.cells_executed} "
                f"| {stats.cells_per_second:.2f} "
                f"| {100 * stats.cache_hit_rate:.0f}% "
                f"| {cells[0]} | {cells[1]} | {cells[2]} "
                f"| {dominant} |\n"
            )
        out.write(
            "\nStage columns sum per-cell wall-clock (worker time under "
            "`--jobs`) with each stage's share of the cell total; "
            "`dominant` names the stage the sweep actually spends its "
            "time in. Cached cells contribute nothing.\n\n"
        )
        # Resilience totals across all panels — only worth a line when
        # the supervised executor actually had to absorb something.
        counts: Counter[str] = Counter()
        for _, stats in panel_stats:
            counts.update(stats.resilience.as_dict())
        totals = ResilienceStats(**counts)
        if totals.any():
            out.write(
                f"Resilience: {totals.summary()} across "
                f"{len(panel_stats)} panels (see docs/RESILIENCE.md).\n\n"
            )

    if options.include_extensions:
        out.write("## Extension studies\n\n")
        out.write("### Architecture comparison (Fig. 1)\n\n```\n")
        arch = run_architecture_comparison(n_slots=options.n_slots)
        out.write(arch.format_table())
        out.write("\n```\n\n")
        out.write("### Ranking robustness across traffic families\n\n```\n")
        robust = run_robustness_study(n_slots=options.n_slots)
        out.write(robust.format_table())
        out.write("\n```\n\n")
        out.write("### Skewed port-value distributions\n\n```\n")
        skew = run_skew_sweep(n_slots=options.n_slots)
        out.write(skew.format_table())
        out.write("\n```\n\n")

    elapsed = time.perf_counter() - started
    out.write(f"---\nGenerated in {elapsed:.1f}s.\n")
    return out.getvalue()


def write_report(path: str, options: Optional[ReportOptions] = None) -> str:
    """Generate the report and write it to ``path``; returns the text.

    Published atomically — a report interrupted mid-write leaves the
    previous file intact rather than a truncated document.
    """
    text = generate_report(options)
    atomic_write_text(path, text)
    return text
