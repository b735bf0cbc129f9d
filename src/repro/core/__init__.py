"""Core model: packets, queues, configuration, and the switch engine.

The reference engine (:mod:`repro.core.switch`, :mod:`repro.core.queues`)
is imported when one of its names is first read.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.core.config import BufferModel, PortSpec, QueueDiscipline, SwitchConfig
from repro.core.decisions import ACCEPT, DROP, Action, Decision, push_out
from repro.core.errors import (
    ConfigError,
    ExperimentError,
    PolicyError,
    ReproError,
    ResilienceError,
    SweepExecutionError,
    SweepInterrupted,
    TraceError,
)
from repro.core.hotpath import hot_path, is_hot_path
from repro.core.metrics import SwitchMetrics
from repro.core.packet import Packet

if TYPE_CHECKING:
    from repro.core.queues import FifoQueue, OutputQueue, ValuePriorityQueue
    from repro.core.switch import (
        AdmissionPolicy,
        SharedMemorySwitch,
        SwitchView,
    )

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "config": ("BufferModel", "PortSpec", "QueueDiscipline", "SwitchConfig"),
        "decisions": ("ACCEPT", "DROP", "Action", "Decision", "push_out"),
        "errors": (
            "ConfigError",
            "ExperimentError",
            "PolicyError",
            "ReproError",
            "ResilienceError",
            "SweepExecutionError",
            "SweepInterrupted",
            "TraceError",
        ),
        "hotpath": ("hot_path", "is_hot_path"),
        "metrics": ("SwitchMetrics",),
        "packet": ("Packet",),
        "queues": ("FifoQueue", "OutputQueue", "ValuePriorityQueue"),
        "switch": ("AdmissionPolicy", "SharedMemorySwitch", "SwitchView"),
    },
)
