#!/usr/bin/env python3
"""Fig. 5 sweep benchmark: end-to-end throughput of ``repro run fig5-N``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload proc-buffer --seed 1 --seconds 40 --trace 0

Each workload is one Fig. 5 panel, run through the program's own CLI
entry point (``repro.cli.main``) in this process with the CLI's default
execution settings -- serial, reference engine, object traces, a result
cache -- as a user's ``repro run fig5-N --slots S --seeds s --out
points.csv`` would. Every sweep gets a fresh cache directory, so every
point is computed and stored. One *point* is one (parameter value,
policy, seed) measurement: an ALG replay and an OPT-surrogate replay of
the cell's MMPP trace.

Inputs: ``--seed n`` selects the sweep seeds ``16n .. 16n+15``. One
sweep runs the whole panel for one of them; the run takes them in order
until the next sweep would end after ``--seconds`` (one sweep at
least). Work per point differs from seed to seed, so the headline rate
counts the arrivals the ALG replays consumed -- every packet of a
point's trace, once per point.

Host speed. On a shared host the same sweep runs up to twice as long
when neighbours are busy, in spells from a fraction of a second to
minutes. The benchmark therefore runs a fixed calibration chunk (a
pure-Python queue workload frozen in this file, unrelated to the
program) right before every replay the sweep makes, and rescales each
sweep's own time by ``REFERENCE_CHUNK_S`` over the mean chunk time seen
during that sweep. The chunk time is left out of the sweep time. The
result, ``packets_per_s``, is packets per second on a host as fast as
the reference one, and a change to the program moves it exactly as it
moves the sweep's wall time.

Set-up (``setup_s``): ``SETUP_RUNS`` fresh interpreters each run the
panel at one slot -- interpreter start, imports (numpy is most of
them), panel factories and per-cell construction, the fixed cost every
``repro run`` pays. Start-up time does not follow the calibration chunk,
so each of them is paired instead with a bare interpreter that only
imports numpy, started just before it; the reported time is the median
of their ratios times ``REFERENCE_START_S``. A change that moves work
into set-up raises it exactly as it raises the wall time.

Correctness: every timed sweep's CSV holds exactly the panel's grid,
every point has a finite ratio with ``OPT >= ALG > 0`` (the OPT
surrogate dominates every feasible schedule), and an untimed sweep of
seed 0 at ``GOLDEN_SLOTS`` slots must reproduce, byte for byte, the CSV
whose sha256 is pinned per workload below: a change to any policy's
admission or push-out decisions fails the run.

With ``--trace 1`` the same sweeps run without calibration under the
outside-in layer trace of ``layers.py``, and the per-layer metrics are
printed instead; the spans of the last sweep are written to
``perfbench/.work/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the
program's sources under ``src/`` the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: Sweep seeds per run, taken in order.
SEEDS_PER_RUN = 16
#: Fresh-interpreter set-up runs per benchmark run (median reported).
SETUP_RUNS = 11
#: The bare interpreter each set-up run is paired with.
REFERENCE_START = ["-c", "import numpy"]
#: Its wall time on the reference host.
REFERENCE_START_S = 0.15
#: Rounds of the calibration workload in one chunk.
CHUNK_ROUNDS = 10_000
#: One chunk's time on an idle 2-vCPU Intel Xeon VM (Python 3.11), the
#: reference host the reported times are rescaled to.
REFERENCE_CHUNK_S = 0.011
#: Trace length of the pinned correctness sweep (seed 0).
GOLDEN_SLOTS = 100


@dataclass(frozen=True)
class Workload:
    panel: str
    #: Trace length of the timed sweeps.
    slots: int
    #: Points per sweep: the panel's parameter values x policies.
    points: int
    #: sha256 of ``repro run <panel> --slots GOLDEN_SLOTS --seeds 0``'s CSV.
    golden_sha256: str


#: Two Fig. 5 panels, one per buffer model, one of them with trace
#: sharing a later trace-reuse change would exploit and one without.
WORKLOADS: Dict[str, Workload] = {
    # Processing model vs B at the CLI's default 2000 slots: FIFO queues
    # of mixed work, buffers up to 768 packets make them long, and one
    # trace content serves the whole row (no generator reads B).
    "proc-buffer": Workload(
        "fig5-2",
        slots=2000,
        points=6 * 9,
        golden_sha256=(
            "326853152c63bf8496625581fe6740b26a8f0d17756b6c067cfe84894f566346"
        ),
    ),
    # Value model, uniform values vs k: priority queues and the value
    # policies' per-packet dispatch, and a trace per cell (the port
    # layout changes with k), so trace reuse cannot help. 500 slots
    # keep a sweep near ten seconds; the stage shares of the CLI footer
    # (policy_run / opt_run / trace_gen) are 70/20/10 % here and 71/20/9 %
    # at 2000 slots.
    "value-uniform": Workload(
        "fig5-4",
        slots=500,
        points=6 * 9,
        golden_sha256=(
            "fca6f54ed2faed2983aab84de680a552fc896e5ef2925450cc617399fc16ac8d"
        ),
    ),
}


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _load_program():
    """Import the program from the checkout's ``src``; exit 2 if absent."""
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    from repro import cli

    return cli


class _Packet:
    __slots__ = ("port", "value", "work")

    def __init__(self, port: int, value: float, work: int) -> None:
        self.port = port
        self.value = value
        self.work = work


def calibration_chunk(rounds: int = CHUNK_ROUNDS) -> float:
    """Run the fixed calibration workload; return its wall time.

    A pure-Python shared-buffer toy -- per-port deques of slotted packet
    objects, a dict of occupancies, longest-queue push-out -- so that
    host contention slows it the way it slows the program's replays.
    It is frozen: changing it changes every reported time.
    """
    started = time.perf_counter()
    queues = [deque() for _ in range(16)]
    occupancy: Dict[int, int] = {}
    state = 12345
    total = 0.0
    for i in range(rounds):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        port = state & 15
        queue = queues[port]
        value, work = (state >> 4) % 97 / 7.0, 1 + (state >> 11) % 3
        queue.append(_Packet(port, value, work))
        occupancy[port] = occupancy.get(port, 0) + 1
        if len(queue) > 8:
            packet = queue.popleft()
            total += packet.value * packet.work
            occupancy[port] -= 1
        if i % 7 == 0:
            longest = max(range(16), key=lambda j: len(queues[j]))
            if queues[longest]:
                queues[longest].pop()
                occupancy[longest] -= 1
    if total <= 0:
        raise AssertionError("calibration chunk did no work")
    return time.perf_counter() - started


def _timed_interpreter(args: List[str], env: Dict[str, str]) -> float:
    """Wall time of one fresh interpreter; exit if it fails."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable] + args,
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=120,
        check=False,
    )
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace"))
        raise SystemExit(f"perfbench: set-up run exited {done.returncode}")
    return elapsed


def measure_setup(workload: Workload, seed: int) -> float:
    """Median set-up time of fresh interpreters, in reference seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    argv = [
        "-m", "repro", "run", workload.panel,
        "--slots", "1", "--seeds", str(seed), "--no-cache",
    ]
    ratios = []
    for _ in range(SETUP_RUNS):
        reference = _timed_interpreter(REFERENCE_START, env)
        ratios.append(_timed_interpreter(argv, env) / reference)
    return REFERENCE_START_S * statistics.median(ratios)


class ReplayHook:
    """The benchmark's one wrapper on ``competitive.run_system``.

    Every point's ALG and OPT replay goes through that function. Per
    call the wrapper adds the trace's packet count when the system is a
    ``PolicySystem`` (an ALG replay), runs one calibration chunk first
    when ``calibrate`` is set, and opens an ``alg_run`` / ``opt_run``
    span when a tracer is given.
    """

    def __init__(self, calibrate: bool, tracer=None) -> None:
        from repro.analysis import competitive

        self.packets = 0
        self.chunk_seconds = 0.0
        self.chunks = 0
        self._module = competitive
        self._original = original = competitive.run_system
        policy_system = competitive.PolicySystem

        def run_system(system, trace, *args, **kwargs):
            is_alg = isinstance(system, policy_system)
            if is_alg:
                self.packets += trace.total_packets
            if calibrate:
                self.chunk_seconds += calibration_chunk()
                self.chunks += 1
            if tracer is None:
                return original(system, trace, *args, **kwargs)
            return tracer.span(
                "alg_run" if is_alg else "opt_run",
                original, system, trace, *args, **kwargs,
            )

        competitive.run_system = run_system

    def uninstall(self) -> None:
        self._module.run_system = self._original


@dataclass
class Sweep:
    csv: bytes
    #: ALG arrivals replayed.
    packets: int
    #: Wall time without the calibration chunks run inside it.
    seconds: float
    #: Mean calibration chunk time during the sweep (0 if none ran).
    chunk_s: float


def run_sweep(
    cli,
    panel: str,
    slots: int,
    seed: int,
    hook: ReplayHook,
    wrap=None,
    cache: bool = True,
) -> Sweep:
    """One in-process ``repro run`` of the panel with a fresh cache.

    ``wrap`` wraps the CLI call (the tracer's root span).
    """
    sweep_dir = WORK / "sweep"
    shutil.rmtree(sweep_dir, ignore_errors=True)
    sweep_dir.mkdir(parents=True)
    out = sweep_dir / "points.csv"
    argv = ["run", panel, "--slots", str(slots), "--seeds", str(seed)]
    argv += (
        ["--cache-dir", str(sweep_dir / "cache")] if cache else ["--no-cache"]
    )
    argv += ["--out", str(out)]
    packets, chunks = hook.packets, hook.chunks
    chunk_seconds = hook.chunk_seconds
    with contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        code = wrap(cli.main, argv) if wrap is not None else cli.main(argv)
        elapsed = time.perf_counter() - started
    data = out.read_bytes() if code == 0 and out.is_file() else b""
    shutil.rmtree(sweep_dir, ignore_errors=True)
    chunk_seconds = hook.chunk_seconds - chunk_seconds
    chunks = hook.chunks - chunks
    return Sweep(
        csv=data,
        packets=hook.packets - packets,
        seconds=elapsed - chunk_seconds,
        chunk_s=chunk_seconds / chunks if chunks else 0.0,
    )


def bad_points(data: bytes, workload: Workload, seed: int) -> int:
    """Points of one sweep's CSV that fail the checks (all if unusable)."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if len(rows) != workload.points + 1:
        return workload.points
    bad = 0
    cells = set()
    for row in rows[1:]:
        try:
            value, policy, row_seed = float(row[0]), row[1], int(row[2])
            ratio, alg, opt = (float(x) for x in row[3:6])
        except (ValueError, IndexError):
            bad += 1
            continue
        cells.add((value, policy))
        if (
            row_seed != seed
            or not all(math.isfinite(x) for x in (ratio, alg, opt))
            or not 0 < alg <= opt
            or ratio < 1.0 - 1e-6
        ):
            bad += 1
    if len(cells) != workload.points:
        return workload.points
    return bad


def main(argv: List[str]) -> int:
    args = _parse_args(argv)
    workload = WORKLOADS[args.workload]
    cli = _load_program()
    WORK.mkdir(exist_ok=True)
    seeds = [SEEDS_PER_RUN * args.seed + i for i in range(SEEDS_PER_RUN)]

    setup_s = None if args.trace else measure_setup(workload, seeds[0])

    tracer = None
    if args.trace:
        from layers import Tracer, per_layer_metrics

        tracer = Tracer()
        tracer.install()
    hook = ReplayHook(calibrate=tracer is None, tracer=tracer)

    # Warm-up, untimed: lazy imports happen in a one-slot sweep.
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(
            ["run", workload.panel, "--slots", "1", "--no-cache"]
            + ["--seeds", str(seeds[0])]
        )
    wrap = None
    if tracer is not None:
        tracer.spans.clear()
        wrap = functools.partial(tracer.span, "sweep")

    # Seeds in order until the next sweep would end past --seconds.
    sweeps: List[Sweep] = []
    attempted = failed = 0
    started = time.perf_counter()
    for seed in seeds:
        if tracer is not None:
            tracer.request = len(sweeps) + 1
        sweep_started = time.perf_counter()
        sweep = run_sweep(
            cli, workload.panel, workload.slots, seed, hook, wrap
        )
        sweeps.append(sweep)
        attempted += workload.points
        failed += bad_points(sweep.csv, workload, seed)
        now = time.perf_counter()
        if now - started + (now - sweep_started) > args.seconds:
            break
    timed_s = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
    hook.uninstall()

    # Decisions pinned: seed 0 at GOLDEN_SLOTS must give the pinned CSV.
    golden = run_sweep(
        cli, workload.panel, GOLDEN_SLOTS, 0, hook, cache=False
    )
    attempted += workload.points
    if hashlib.sha256(golden.csv).hexdigest() != workload.golden_sha256:
        print("perfbench: pinned sweep's CSV differs", file=sys.stderr)
        failed += workload.points
    print(
        f"# {args.workload}: {workload.panel} at {workload.slots} slots, "
        f"seeds {seeds[0]}..{seeds[len(sweeps) - 1]}, {len(sweeps)} timed "
        f"sweeps in {timed_s:.1f}s",
        file=sys.stderr,
    )

    correct = failed == 0
    packets = sum(sweep.packets for sweep in sweeps)
    metrics: Dict[str, Tuple[float, str]] = {}
    if tracer is not None:
        tracer.write_spans(
            WORK / f"spans-{args.workload}-{args.seed}.jsonl", len(sweeps)
        )
        if correct:
            metrics = per_layer_metrics(
                tracer,
                len(sweeps),
                workload.points,
                packets / len(sweeps),
                sum(sweep.seconds for sweep in sweeps) / len(sweeps),
            )
    elif correct:
        if not all(sweep.chunk_s for sweep in sweeps):
            raise SystemExit("perfbench: a sweep made no run_system replay")
        reference_s = sum(
            sweep.seconds * REFERENCE_CHUNK_S / sweep.chunk_s
            for sweep in sweeps
        )
        metrics = {
            "packets_per_s": (packets / reference_s, "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
            "setup_s": (setup_s, "s"),
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
