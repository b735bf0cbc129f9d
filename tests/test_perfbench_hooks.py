"""Every program attribute the perfbench harness wraps or reads exists.

``perfbench/layers.py`` skips a hook whose target is missing, so a
moved name would silently drop a layer from ``--trace 1``, and
``perfbench/run.py`` wraps ``competitive.run_system`` for its packet
count. This reads both files (it never changes them), resolves each
``repro`` import they make, and requires every attribute they patch or
read on it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FILES = ("layers.py", "run.py")


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _repro_imports(tree: ast.Module) -> Dict[str, object]:
    """Local name -> object, for every ``from repro... import`` in a file."""
    bound: Dict[str, object] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        if node.module.split(".")[0] != "repro":
            continue
        module = importlib.import_module(node.module)
        for alias in node.names:
            if hasattr(module, alias.name):
                value = getattr(module, alias.name)
            else:
                value = importlib.import_module(f"{node.module}.{alias.name}")
            bound[alias.asname or alias.name] = value
    return bound


def _patched(tree: ast.Module) -> List[Tuple[str, str]]:
    """``(owner, attribute)`` of every ``_patch``/``_hook`` call whose
    attribute is a string literal."""
    targets = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("_patch", "_hook")
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and isinstance(node.args[1], ast.Constant)
        ):
            targets.append((node.args[0].id, node.args[1].value))
    return targets


def _read(tree: ast.Module, names) -> List[Tuple[str, str]]:
    """``(name, attribute)`` of every ``name.attribute`` in a file."""
    return [
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in names
    ]


def test_every_layer_hook_target_exists():
    tree = _tree("layers.py")
    bound = _repro_imports(tree)
    targets = _patched(tree)
    # to_csv, the two cache calls, the cell, arrival and transmission.
    assert len(targets) >= 6
    for owner, attribute in targets:
        assert owner in bound, owner
        assert callable(getattr(bound[owner], attribute, None)), (
            f"{owner}.{attribute}"
        )


def test_trace_generators_are_wrapped_in_the_fig5_namespace():
    """The layer tracer wraps fig5's ``*_workload`` names; the panel
    factories must resolve their generators there."""
    from repro.experiments import fig5

    names = {
        name
        for name in dir(fig5)
        if name.endswith("_workload") and callable(getattr(fig5, name))
    }
    assert {
        "processing_workload",
        "value_port_workload",
        "value_uniform_workload",
    } <= names


@pytest.mark.parametrize("name", FILES)
def test_every_attribute_read_exists(name):
    tree = _tree(name)
    bound = _repro_imports(tree)
    assert bound
    reads = _read(tree, bound)
    if name == "run.py":
        assert ("competitive", "run_system") in reads
        assert ("competitive", "PolicySystem") in reads
    for owner, attribute in reads:
        assert hasattr(bound[owner], attribute), f"{owner}.{attribute}"
