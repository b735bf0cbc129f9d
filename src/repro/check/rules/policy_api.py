"""Policy-API conformance (RC3xx): policies read views, return decisions.

Scope: ``repro.policies``. The engine/policy contract (docs/POLICIES.md,
CONTRIBUTING.md) is strict: a policy receives a read-only
:class:`~repro.core.switch.SwitchView` plus the arriving
:class:`~repro.core.packet.Packet` template and must express *all*
effects through the returned :class:`~repro.core.decisions.Decision`.
The engine validates and applies; a policy that pokes switch internals
or mutates what it was handed silently corrupts competitive ratios —
the exact failure class the differential suites exist to catch, moved
here to before-first-run.

``self``/``cls`` access stays legal (policies keep private helpers and
seeded RNG state of their own), as do references to classes defined in
the same module (naive-selector staticmethods are called via the class
name).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.check.context import ModuleContext
from repro.check.registry import rule

POLICY_PACKAGES = ("repro.policies",)

#: Engine methods that mutate simulation state. A policy calling one of
#: these on anything it did not construct itself is rewriting history.
_ENGINE_MUTATORS = {
    "admit",
    "drop_tail",
    "process",
    "clear",
    "flush",
    "run_slot",
    "run_span",
    "set_port_state",
    "offer",
    "apply",
    "arrival_phase",
    "transmission_phase",
    "fast_forward",
    "attach_observer",
    "record_arrival",
    "record_drop",
    "record_accept",
    "record_push_out",
}


def _local_classes(tree: ast.Module) -> Set[str]:
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }


def _base_name(node: ast.expr) -> Optional[str]:
    """The root Name of an attribute access, or None for call results."""
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_self_like(node: ast.expr, local_classes: Set[str]) -> bool:
    """self/cls, a same-module class, or super() — all own-state access."""
    name = _base_name(node)
    if name is not None:
        return name in ("self", "cls") or name in local_classes
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name) and node.func.id == "super"
        )
    return False


@rule(
    "RC301",
    "policy-private-access",
    "policies may not touch _private attributes of engine objects",
    scope=POLICY_PACKAGES,
)
def policy_private_access(
    ctx: ModuleContext,
) -> Iterator[Tuple[ast.AST, str]]:
    local = _local_classes(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Attribute):
            continue
        attr = node.attr
        if not attr.startswith("_") or attr.startswith("__"):
            continue
        if _is_self_like(node.value, local):
            continue
        yield node, (
            f"access to private attribute .{attr} bypasses the public "
            "SwitchView surface; policies must base decisions on "
            "observable state only"
        )


@rule(
    "RC302",
    "policy-foreign-mutation",
    "policies may not assign to attributes of objects they were handed",
    scope=POLICY_PACKAGES,
)
def policy_foreign_mutation(
    ctx: ModuleContext,
) -> Iterator[Tuple[ast.AST, str]]:
    local = _local_classes(ctx.tree)

    def offending(target: ast.expr) -> Optional[ast.Attribute]:
        if isinstance(target, ast.Attribute) and not _is_self_like(
            target.value, local
        ):
            return target
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                hit = offending(element)
                if hit is not None:
                    return hit
        return None

    for node in ast.walk(ctx.tree):
        targets: Tuple[ast.expr, ...]
        if isinstance(node, ast.Assign):
            targets = tuple(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = (node.target,)
        elif isinstance(node, ast.Delete):
            targets = tuple(node.targets)
        else:
            continue
        for target in targets:
            hit = offending(target)
            if hit is not None:
                yield hit, (
                    f"assignment to .{hit.attr} mutates an object the "
                    "policy does not own (packets and snapshots are "
                    "frozen; the view is read-only); express effects "
                    "through the returned Decision"
                )


@rule(
    "RC303",
    "policy-engine-mutator",
    "policies may not call engine mutators (admit/drop_tail/process/...)",
    scope=POLICY_PACKAGES,
)
def policy_engine_mutator(
    ctx: ModuleContext,
) -> Iterator[Tuple[ast.AST, str]]:
    local = _local_classes(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in _ENGINE_MUTATORS:
            continue
        if _is_self_like(func.value, local):
            continue
        yield node, (
            f".{func.attr}() mutates engine state; the switch applies "
            "decisions, policies only return them"
        )
