"""The exported surface of ``repro`` and its subpackages.

Package inits serve most names on first access (``repro._lazy``), so
an export is only checked when something reads it. These tests read
every one: each ``__all__`` name resolves through ``getattr`` and
``from pkg import *``, ``dir()`` lists it, an unknown name raises
``AttributeError``, and every exported name is also imported, eagerly
or under ``TYPE_CHECKING``, where type checkers and linters see it.
The quickstart in ``repro``'s docstring runs as written.
"""

from __future__ import annotations

import ast
import doctest
import importlib
from pathlib import Path

import pytest

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.check",
    "repro.core",
    "repro.experiments",
    "repro.obs",
    "repro.opt",
    "repro.policies",
    "repro.resilience",
    "repro.singlequeue",
    "repro.traffic",
)


@pytest.fixture(params=PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def test_every_name_resolves(package):
    assert package.__all__
    assert len(set(package.__all__)) == len(package.__all__)
    lazy = getattr(package, "__getattr__", None)
    for name in package.__all__:
        value = getattr(package, name)
        if lazy is not None and name != "__version__":
            # The table itself, whether or not the name is cached yet.
            assert lazy(name) is value, name


def test_star_import_binds_every_name(package):
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)


def test_dir_lists_every_name(package):
    assert set(package.__all__) <= set(dir(package))


def test_unknown_name_raises_attribute_error(package):
    unknown = "no_such_name"
    with pytest.raises(AttributeError, match=unknown):
        getattr(package, unknown)
    assert unknown not in dir(package)


def _imported_names(init: Path) -> set:
    """Names an init imports at module level or under TYPE_CHECKING."""
    names = set()
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == (
            "TYPE_CHECKING"
        ):
            body = node.body
        else:
            body = [node]
        for stmt in body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module not in (
                "typing",
                "repro._lazy",
                "__future__",
            ):
                names.update(alias.asname or alias.name for alias in stmt.names)
    return names


def test_lazy_exports_are_visible_to_type_checkers():
    lazy = [
        package
        for package in map(importlib.import_module, PACKAGES)
        if hasattr(package, "__getattr__")
    ]
    assert len(lazy) == 8
    for package in lazy:
        exported = set(package.__all__) - {"__version__"}
        assert _imported_names(Path(package.__file__)) == exported, (
            package.__name__
        )


def test_quickstart_runs_as_written():
    pytest.importorskip("numpy", exc_type=ImportError)
    import repro

    results = doctest.testmod(repro)
    assert results.attempted > 0
    assert results.failed == 0
