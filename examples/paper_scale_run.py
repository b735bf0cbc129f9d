#!/usr/bin/env python3
"""Run a Fig. 5 measurement at (or toward) the paper's 2*10^6-slot scale.

The default examples use a few thousand slots; this one shows how to go
all the way. The run is cut into windows of one flushout period (500
slots): each window is built from the recipe's chunk iterator
(repro.traffic.workloads.processing_chunks) at its first slot and
replayed through the same policy and OPT-surrogate systems, which carry
their slot clock from one window to the next. Only one window is in
memory at a time, so memory stays flat whatever the horizon, and the
cumulative ratio at each window's end traces its convergence.

Run:  python examples/paper_scale_run.py [n_slots]
      (default 50,000 — seconds; pass 2000000 for the full paper
       horizon, about 2 minutes per policy)
"""

import sys
import time
from itertools import islice

from repro.analysis.convergence import convergence_profile
from repro.core.config import SwitchConfig
from repro.policies import make_policy
from repro.traffic.trace import Trace
from repro.traffic.workloads import processing_chunks
from repro.viz import sparkline

WINDOW = 500  # one flushout period


def windows(config: SwitchConfig, n_slots: int):
    """The run's consecutive windows, built one at a time."""
    chunks = processing_chunks(config, n_slots, load=3.0, seed=7)
    for first_slot in range(0, n_slots, WINDOW):
        yield Trace.from_chunks(islice(chunks, WINDOW), first_slot)


def main() -> None:
    n_slots = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    config = SwitchConfig.contiguous(k=12, buffer_size=96)
    print(f"switch : {config.describe()}")
    print(f"horizon: {n_slots} slots (paper: 2,000,000)")

    for name in ("LWD", "LQD", "BPD"):
        start = time.perf_counter()
        profile = convergence_profile(
            make_policy(name),
            windows(config, n_slots),
            config,
            flush_every=WINDOW,
        )
        elapsed = time.perf_counter() - start
        # The cumulative ratio at the end of each twentieth of the run.
        ratios = [point.ratio for point in profile.points]
        step = max(1, len(ratios) // 20)
        print(
            f"{name:4s}: ratio {profile.final_ratio:.4f}  "
            f"({elapsed:6.1f}s, {n_slots / elapsed:,.0f} slots/s)  "
            f"convergence {sparkline(ratios[step - 1::step])}"
        )


if __name__ == "__main__":
    main()
