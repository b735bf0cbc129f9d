"""Traffic generation: traces, MMPP sources, workloads, adversarial inputs.

The theorem constructions (:mod:`repro.traffic.adversarial`), the dynamic
scenarios and the extra traffic patterns are imported when one of their
names is first read.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.traffic.mmpp import MmppFleet, MmppParams, MmppSource
from repro.traffic.trace import Trace, burst
from repro.traffic.workloads import (
    DEFAULT_SOURCES,
    processing_capacity,
    processing_chunks,
    processing_workload,
    value_capacity,
    value_port_chunks,
    value_port_workload,
    value_uniform_chunks,
    value_uniform_workload,
)

if TYPE_CHECKING:
    from repro.traffic.adversarial import (
        ALL_SCENARIOS,
        AdversarialScenario,
        thm1_nhst,
        thm3_nhdt,
        thm4_lqd,
        thm5_bpd,
        thm6_lwd,
        thm9_lqd_value,
        thm10_mvd,
        thm11_mrd,
    )
    from repro.traffic.dynamic import (
        DYNAMIC_SCENARIOS,
        lqd_churn_collapse,
        lqd_oversubscription_squeeze,
        oversubscription_spike_workload,
        port_flap_workload,
    )
    from repro.traffic.patterns import (
        heavy_tailed_workload,
        mixed_trace,
        periodic_burst_workload,
        poisson_workload,
        thin_trace,
    )

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "adversarial": (
            "ALL_SCENARIOS",
            "AdversarialScenario",
            "thm1_nhst",
            "thm3_nhdt",
            "thm4_lqd",
            "thm5_bpd",
            "thm6_lwd",
            "thm9_lqd_value",
            "thm10_mvd",
            "thm11_mrd",
        ),
        "dynamic": (
            "DYNAMIC_SCENARIOS",
            "lqd_churn_collapse",
            "lqd_oversubscription_squeeze",
            "oversubscription_spike_workload",
            "port_flap_workload",
        ),
        "mmpp": ("MmppFleet", "MmppParams", "MmppSource"),
        "patterns": (
            "heavy_tailed_workload",
            "mixed_trace",
            "periodic_burst_workload",
            "poisson_workload",
            "thin_trace",
        ),
        "trace": ("Trace", "burst"),
        "workloads": (
            "DEFAULT_SOURCES",
            "processing_capacity",
            "processing_chunks",
            "processing_workload",
            "value_capacity",
            "value_port_chunks",
            "value_port_workload",
            "value_uniform_chunks",
            "value_uniform_workload",
        ),
    },
)
