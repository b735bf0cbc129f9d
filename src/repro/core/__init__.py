"""Core model: packets, queues, configuration, and the switch engine."""

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
from repro.core.queues import FifoQueue, OutputQueue, ValuePriorityQueue
from repro.core.switch import AdmissionPolicy, SharedMemorySwitch, SwitchView

__all__ = [
    "ACCEPT",
    "DROP",
    "Action",
    "AdmissionPolicy",
    "BufferModel",
    "ConfigError",
    "Decision",
    "ExperimentError",
    "FifoQueue",
    "OutputQueue",
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
    "ValuePriorityQueue",
    "hot_path",
    "is_hot_path",
    "push_out",
]
