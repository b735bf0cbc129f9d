"""shmem-switch: shared memory buffer management for heterogeneous packet
processing.

A complete reproduction of Eugster, Kogan, Nikolenko & Sirotkin,
*"Shared Memory Buffer Management for Heterogeneous Packet Processing"*
(ICDCS 2014): the slotted shared-memory switch model, every buffer-
management policy the paper analyzes (including the 2-competitive
Longest-Work-Drop policy and the conjectured-constant Maximal-Ratio-Drop
policy), the OPT references, MMPP traffic generation, the adversarial
lower-bound constructions of Theorems 1-11, and the Fig. 5 simulation
study.

Quickstart
----------
>>> from repro import (
...     SwitchConfig, LWD, processing_workload, measure_competitive_ratio,
... )
>>> config = SwitchConfig.contiguous(k=8, buffer_size=64)
>>> trace = processing_workload(config, n_slots=500, load=2.0, seed=1)
>>> result = measure_competitive_ratio(LWD(), trace, config)
>>> result.ratio >= 1.0
True

Every name below is served on first access: ``import repro`` imports no
subpackage, and reading a name imports only the modules that define it.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis import (
        CompetitiveResult,
        PolicySystem,
        SweepResult,
        measure_competitive_ratio,
        run_scenario,
        run_sweep,
        run_system,
    )
    from repro.core import (
        ACCEPT,
        DROP,
        Action,
        ConfigError,
        Decision,
        Packet,
        PolicyError,
        PortSpec,
        QueueDiscipline,
        ReproError,
        ResilienceError,
        SharedMemorySwitch,
        SweepExecutionError,
        SweepInterrupted,
        SwitchConfig,
        SwitchMetrics,
        SwitchView,
        TraceError,
        push_out,
    )
    from repro.opt import (
        MaxValueSurrogate,
        ScriptedPolicy,
        SrptSurrogate,
        TinyInstance,
        exhaustive_opt,
        make_surrogate,
    )
    from repro.policies import (
        BPD,
        BPD1,
        LQD,
        LWD,
        MRD,
        MVD,
        MVD1,
        NEST,
        NHDT,
        NHST,
        GreedyNonPushOut,
        LQDValue,
        NHSTValue,
        Policy,
        available_policies,
        make_policy,
    )
    from repro.resilience import (
        FaultInjector,
        InjectedFault,
        ResilienceStats,
        SupervisorOptions,
    )
    from repro.traffic import (
        AdversarialScenario,
        MmppFleet,
        MmppParams,
        MmppSource,
        Trace,
        burst,
        processing_workload,
        value_port_workload,
        value_uniform_workload,
    )

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "analysis": (
            "CompetitiveResult",
            "PolicySystem",
            "SweepResult",
            "measure_competitive_ratio",
            "run_scenario",
            "run_sweep",
            "run_system",
        ),
        "core": (
            "ACCEPT",
            "DROP",
            "Action",
            "ConfigError",
            "Decision",
            "Packet",
            "PolicyError",
            "PortSpec",
            "QueueDiscipline",
            "ReproError",
            "ResilienceError",
            "SharedMemorySwitch",
            "SweepExecutionError",
            "SweepInterrupted",
            "SwitchConfig",
            "SwitchMetrics",
            "SwitchView",
            "TraceError",
            "push_out",
        ),
        "opt": (
            "MaxValueSurrogate",
            "ScriptedPolicy",
            "SrptSurrogate",
            "TinyInstance",
            "exhaustive_opt",
            "make_surrogate",
        ),
        "policies": (
            "BPD",
            "BPD1",
            "LQD",
            "LWD",
            "MRD",
            "MVD",
            "MVD1",
            "NEST",
            "NHDT",
            "NHST",
            "GreedyNonPushOut",
            "LQDValue",
            "NHSTValue",
            "Policy",
            "available_policies",
            "make_policy",
        ),
        "resilience": (
            "FaultInjector",
            "InjectedFault",
            "ResilienceStats",
            "SupervisorOptions",
        ),
        "traffic": (
            "AdversarialScenario",
            "MmppFleet",
            "MmppParams",
            "MmppSource",
            "Trace",
            "burst",
            "processing_workload",
            "value_port_workload",
            "value_uniform_workload",
        ),
    },
)
__all__.append("__version__")
