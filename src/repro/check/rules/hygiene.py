"""Exception and IO hygiene (RC4xx): fail loudly, publish atomically.

Scope: all of ``repro``. Two failure classes bit this repo's ancestors
hard enough to earn rules:

* **Swallowed exceptions.** The resilience layer's whole design is that
  worker failures *surface* — get retried, quarantined, and reported.
  A bare ``except:`` (or a ``BaseException`` handler that does not
  re-raise) anywhere else eats ``KeyboardInterrupt``/``SystemExit``
  and turns a clean 130-exit into a hung sweep. Only
  ``repro.resilience.supervisor`` may catch ``BaseException`` without
  re-raising: catching worker death in all forms is its job.

* **Torn writes.** Every durable artifact (reports, traces, cache
  entries, CSV) must go through :mod:`repro.resilience.atomic` so a
  crash mid-write leaves the previous file, never half a file. The
  JSONL trace writer, which streams to the atomic module's temp path
  and publishes it itself, and the cache's deliberately torn chaos
  write carry justified inline suppressions — which is exactly what
  the suppression mechanism is for.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Tuple

from repro.check.context import ModuleContext
from repro.check.registry import rule

REPRO_PACKAGES = ("repro",)

#: The one module allowed to catch BaseException without re-raising.
_SUPERVISOR_MODULE = "repro.resilience.supervisor"

#: Modules exempt from RC403: the atomic-write primitive itself.
_ATOMIC_MODULES = ("repro.resilience.atomic",)

_WRITE_MODES = frozenset("wax")

#: A string that plausibly IS a file mode (filters out path literals
#: passed positionally to builtin ``open``).
_MODE_RE = re.compile(r"^[rwaxbt+U]+$")


@rule(
    "RC401",
    "bare-except",
    "no bare except clauses",
    scope=REPRO_PACKAGES,
)
def bare_except(ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield node, (
                "bare except catches SystemExit/KeyboardInterrupt; "
                "name the exceptions you can actually handle"
            )


def _reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler re-raises (any ``raise`` in its body)."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    return False


def _catches_base_exception(ctx: ModuleContext, handler: ast.ExceptHandler) -> bool:
    kind = handler.type
    if kind is None:
        return True
    if isinstance(kind, ast.Tuple):
        return any(
            ctx.resolve(element) == "BaseException"
            for element in kind.elts
        )
    return ctx.resolve(kind) == "BaseException"


@rule(
    "RC402",
    "swallowed-base-exception",
    "BaseException handlers must re-raise (supervisor excepted)",
    scope=REPRO_PACKAGES,
)
def swallowed_base_exception(
    ctx: ModuleContext,
) -> Iterator[Tuple[ast.AST, str]]:
    if ctx.module == _SUPERVISOR_MODULE:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            continue  # RC401's finding; don't double-report
        if _catches_base_exception(ctx, node) and not _reraises(node):
            yield node, (
                "except BaseException without re-raise swallows "
                "KeyboardInterrupt/SystemExit; only the resilience "
                "supervisor may do that"
            )


def _literal_mode(node: ast.Call) -> str:
    """The call's file-mode argument if it is a string literal.

    Checks the first positional (after the path for builtin ``open``
    this is position 1, for ``Path.open`` position 0 — both covered)
    and the ``mode=`` keyword. Non-literal modes return ``""``
    (unknowable statically; not flagged).
    """
    candidates = []
    for arg in node.args[:2]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            candidates.append(arg.value)
    for kw in node.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            if isinstance(kw.value.value, str):
                candidates.append(kw.value.value)
    for mode in candidates:
        if _MODE_RE.match(mode) and _WRITE_MODES.intersection(mode):
            return mode
    return ""


@rule(
    "RC403",
    "non-atomic-write",
    "result files are published via repro.resilience.atomic only",
    scope=REPRO_PACKAGES,
)
def non_atomic_write(ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    if ctx.module in _ATOMIC_MODULES:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = ctx.call_target(node)
        if target == "open" or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "open"
        ):
            mode = _literal_mode(node)
            if mode:
                yield node, (
                    f"open(..., {mode!r}) writes in place; a crash "
                    "mid-write leaves a torn file — use "
                    "repro.resilience.atomic (atomic_write_text/json)"
                )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "write_text"
        ):
            yield node, (
                ".write_text() writes in place; use "
                "repro.resilience.atomic (atomic_write_text/json)"
            )
