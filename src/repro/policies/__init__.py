"""Buffer-management policies from the paper, plus the policy registry.

Processing model (Section III): NHST, NEST, NHDT, LQD, BPD, BPD1, LWD.
Value model (Section IV): Greedy, NEST, NHDT, NHST-V, LQD-V, MVD, MVD1, MRD.

Use :func:`make_policy` / :func:`available_policies` to construct policies
by the names used in the paper's figures.
"""

from repro.policies.base import (
    Policy,
    PolicyEntry,
    PushOutPolicy,
    StaticThresholdPolicy,
    ThresholdPolicy,
    available_policies,
    make_policy,
    policy_entry,
    register_policy,
)
from repro.policies.nonpushout import (
    NEST,
    NHDT,
    NHST,
    GreedyNonPushOut,
    NHSTValue,
)
from repro.policies.dynamic import DynamicThreshold, Harmonic
from repro.policies.extensions import LWD1, MRD1, NHDTW, RandomPushOut
from repro.policies.processing import BPD, BPD1, LQD, LWD
from repro.policies.value import MRD, MVD, MVD1, LQDValue

__all__ = [
    "BPD",
    "BPD1",
    "DynamicThreshold",
    "GreedyNonPushOut",
    "Harmonic",
    "LQD",
    "LQDValue",
    "LWD",
    "LWD1",
    "MRD1",
    "NHDTW",
    "RandomPushOut",
    "MRD",
    "MVD",
    "MVD1",
    "NEST",
    "NHDT",
    "NHST",
    "NHSTValue",
    "Policy",
    "PolicyEntry",
    "PushOutPolicy",
    "StaticThresholdPolicy",
    "ThresholdPolicy",
    "available_policies",
    "make_policy",
    "policy_entry",
    "register_policy",
]


def _register_defaults() -> None:
    register_policy(
        "NHST",
        NHST,
        {"processing"},
        "static thresholds inversely proportional to required work "
        "(Theorem 1: kZ-competitive)",
    )
    register_policy(
        "NEST",
        NEST,
        {"processing", "value"},
        "equal static thresholds B/n — complete partitioning "
        "(Theorem 2: n-competitive)",
    )
    register_policy(
        "NHDT",
        NHDT,
        {"processing", "value"},
        "harmonic dynamic thresholds of Kesselman & Mansour "
        "(Theorem 3: ~(1/2)sqrt(k ln k) under heterogeneous work)",
    )
    register_policy(
        "NHST-V",
        NHSTValue,
        {"value"},
        "NHST with reversed thresholds for port-determined values "
        "(Section V-C)",
    )
    register_policy(
        "Greedy",
        GreedyNonPushOut,
        {"value"},
        "greedy non-push-out baseline (at least k-competitive in the "
        "value model)",
    )
    register_policy(
        "LQD",
        LQD,
        {"processing"},
        "Longest-Queue-Drop (Theorem 4: ~sqrt(k) under heterogeneous work)",
    )
    register_policy(
        "BPD",
        BPD,
        {"processing"},
        "Biggest-Packet-Drop (Theorem 5: at least ln k + gamma)",
    )
    register_policy(
        "BPD1",
        BPD1,
        {"processing"},
        "BPD that never empties a queue (Section V-B)",
    )
    register_policy(
        "LWD",
        LWD,
        {"processing"},
        "Longest-Work-Drop, the paper's main policy (Theorem 7: at most "
        "2-competitive)",
    )
    register_policy(
        "LQD-V",
        LQDValue,
        {"value"},
        "Longest-Queue-Drop in the value model (Theorem 9: ~cbrt(k))",
    )
    register_policy(
        "MVD",
        MVD,
        {"value"},
        "Minimal-Value-Drop (Theorem 10: at least (m-1)/2)",
    )
    register_policy(
        "MVD1",
        MVD1,
        {"value"},
        "MVD that never empties a queue (Section V-C)",
    )
    register_policy(
        "MRD",
        MRD,
        {"value"},
        "Maximal-Ratio-Drop, conjectured O(1)-competitive (Theorem 11: "
        "at least 4/3 for port-determined values)",
    )
    register_policy(
        "NHDT-W",
        NHDTW,
        {"processing"},
        "[extension] work-weighted NHDT — a candidate answer to the "
        "paper's open NHDT-generalization problem",
    )
    register_policy(
        "LWD1",
        LWD1,
        {"processing"},
        "[extension] LWD that never empties a queue (the BPD1/MVD1 "
        "refinement applied to the paper's main policy)",
    )
    register_policy(
        "MRD1",
        MRD1,
        {"value"},
        "[extension] MRD that never empties a queue",
    )
    register_policy(
        "Random",
        RandomPushOut,
        {"processing", "value"},
        "[extension] uniformly random victim — control baseline",
    )
    register_policy(
        "Harmonic",
        Harmonic,
        {"processing", "value"},
        "[scenario] rank-harmonic dynamic thresholds, (2 + ln n)-"
        "competitive for shared-buffer throughput (arXiv:2511.06514)",
    )
    register_policy(
        "DT",
        DynamicThreshold,
        {"processing", "value"},
        "[scenario] Choudhury-Hahne alpha dynamic threshold "
        "(alpha=1 default; SONiC-style shared-pool admission)",
    )


_register_defaults()
