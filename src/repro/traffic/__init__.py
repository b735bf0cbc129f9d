"""Traffic generation: traces, MMPP sources, workloads, adversarial inputs."""

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
from repro.traffic.mmpp import MmppFleet, MmppParams, MmppSource
from repro.traffic.patterns import (
    heavy_tailed_workload,
    mixed_trace,
    periodic_burst_workload,
    poisson_workload,
    thin_trace,
)
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

__all__ = [
    "ALL_SCENARIOS",
    "AdversarialScenario",
    "DEFAULT_SOURCES",
    "DYNAMIC_SCENARIOS",
    "MmppFleet",
    "MmppParams",
    "MmppSource",
    "Trace",
    "burst",
    "heavy_tailed_workload",
    "lqd_churn_collapse",
    "lqd_oversubscription_squeeze",
    "mixed_trace",
    "oversubscription_spike_workload",
    "periodic_burst_workload",
    "poisson_workload",
    "port_flap_workload",
    "processing_capacity",
    "processing_chunks",
    "processing_workload",
    "thin_trace",
    "thm10_mvd",
    "thm11_mrd",
    "thm1_nhst",
    "thm3_nhdt",
    "thm4_lqd",
    "thm5_bpd",
    "thm6_lwd",
    "thm9_lqd_value",
    "value_capacity",
    "value_port_chunks",
    "value_port_workload",
    "value_uniform_chunks",
    "value_uniform_workload",
]
