"""Hot-path allocation audit (RC2xx): keep the per-packet paths lean.

The engines' per-packet paths are fast because they *do not allocate*:
the column kernels update preallocated arrays, ``fresh_copy`` skips
``__init__``, and the transmission phase walks a cached active set.
Those wins erode one innocent-looking allocation at a time — a closure
captured per call, a comprehension temporary per loop iteration, an
f-string built for a log line that is never read.

Functions opt in with the :func:`repro.core.hotpath.hot_path` marker
decorator (a no-op at runtime); these rules then audit the marked
bodies. Error paths are exempt where that is sound: formatting inside a
``raise`` statement only runs when the simulation is already dead.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.check.context import ModuleContext
from repro.check.registry import rule

#: Same-chain occurrences inside one loop body before RC204 fires.
_CHAIN_THRESHOLD = 3

#: Attribute hops before a chain counts as "deep" (``a.b.c`` = 2).
_CHAIN_MIN_DEPTH = 2


def _is_hot_path_marker(decorator: ast.expr) -> bool:
    """Whether a decorator expression is the ``hot_path`` marker."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Name):
        return decorator.id == "hot_path"
    if isinstance(decorator, ast.Attribute):
        return decorator.attr == "hot_path"
    return False


def hot_functions(tree: ast.Module) -> List[ast.FunctionDef]:
    """Every function in ``tree`` carrying the ``@hot_path`` marker."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_is_hot_path_marker(d) for d in node.decorator_list)
    ]


@rule(
    "RC201",
    "hot-path-closure",
    "no nested functions or lambdas inside @hot_path functions",
)
def hot_path_closure(ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    for fn in hot_functions(ctx.tree):
        for node in ast.walk(fn):
            if node is fn:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                kind = "lambda" if isinstance(node, ast.Lambda) else "def"
                yield node, (
                    f"{kind} inside @hot_path {fn.name}() allocates a "
                    "function object per call; hoist it to module or "
                    "class scope"
                )


def _loops_in(fn: ast.FunctionDef) -> Iterator[ast.stmt]:
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.While)):
            yield node


@rule(
    "RC202",
    "hot-path-loop-temporary",
    "no comprehension/generator temporaries inside loops of @hot_path "
    "functions",
)
def hot_path_loop_temporary(
    ctx: ModuleContext,
) -> Iterator[Tuple[ast.AST, str]]:
    for fn in hot_functions(ctx.tree):
        for loop in _loops_in(fn):
            # The loop's own iterable evaluates once per loop entry,
            # not per iteration — exempt that whole subtree.
            iter_nodes = {
                id(sub)
                for sub in ast.walk(getattr(loop, "iter", loop))
            } if isinstance(loop, ast.For) else set()
            for node in ast.walk(loop):
                if id(node) in iter_nodes:
                    continue
                if isinstance(node, (ast.ListComp, ast.SetComp,
                                     ast.DictComp, ast.GeneratorExp)):
                    yield node, (
                        f"comprehension inside a loop of @hot_path "
                        f"{fn.name}() builds a fresh container every "
                        "iteration; hoist or accumulate imperatively"
                    )


def _nodes_inside_raise(fn: ast.FunctionDef) -> Set[int]:
    """ids of AST nodes that sit inside a ``raise`` statement."""
    inside: Set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Raise):
            for sub in ast.walk(node):
                inside.add(id(sub))
    return inside


@rule(
    "RC203",
    "hot-path-format",
    "no string formatting on the hot path (except inside raise)",
)
def hot_path_format(ctx: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
    for fn in hot_functions(ctx.tree):
        exempt = _nodes_inside_raise(fn)
        for node in ast.walk(fn):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.JoinedStr):
                yield node, (
                    f"f-string in @hot_path {fn.name}() formats on every "
                    "call; error paths may format inside raise, "
                    "everything else must not"
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "format"
            ):
                yield node, (
                    f".format() in @hot_path {fn.name}(); move "
                    "formatting off the hot path"
                )
            elif (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Mod)
                and isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)
            ):
                yield node, (
                    f"%-formatting in @hot_path {fn.name}(); move "
                    "formatting off the hot path"
                )


def _attribute_chain(node: ast.Attribute) -> Tuple[str, int, str]:
    """(chain text, attribute hops, root name) of a pure dotted chain.

    Returns ``("", 0, "")`` for chains rooted in calls/subscripts,
    which cannot be safely hoisted.
    """
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return "", 0, ""
    parts.append(current.id)
    parts.reverse()
    return ".".join(parts), len(parts) - 1, parts[0]


def _assigned_names(loop: ast.stmt) -> Set[str]:
    """Names (re)bound anywhere inside the loop, including its target."""
    names: Set[str] = set()
    for node in ast.walk(loop):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
    return names


@rule(
    "RC204",
    "hot-path-attr-in-loop",
    "hoist attribute chains repeated >= 3 times inside a hot loop",
)
def hot_path_attr_in_loop(
    ctx: ModuleContext,
) -> Iterator[Tuple[ast.AST, str]]:
    for fn in hot_functions(ctx.tree):
        seen_loops: Set[int] = set()
        for loop in _loops_in(fn):
            # Nested loops: only audit the outermost occurrence so one
            # hot chain is reported once, at the widest hoisting scope.
            if id(loop) in seen_loops:
                continue
            for sub in ast.walk(loop):
                if sub is not loop and isinstance(sub, (ast.For, ast.While)):
                    seen_loops.add(id(sub))
            rebound = _assigned_names(loop)
            # Count only *maximal* chains: for x.y.z, the inner x.y node
            # is a sub-expression of the same lookup, not a second one.
            inner = {
                id(node.value)
                for node in ast.walk(loop)
                if isinstance(node, ast.Attribute)
            }
            first: Dict[str, ast.Attribute] = {}
            counts: Dict[str, int] = {}
            for node in ast.walk(loop):
                if not isinstance(node, ast.Attribute):
                    continue
                if id(node) in inner or not isinstance(node.ctx, ast.Load):
                    continue
                chain, depth, root = _attribute_chain(node)
                if depth < _CHAIN_MIN_DEPTH or root in rebound:
                    continue
                counts[chain] = counts.get(chain, 0) + 1
                first.setdefault(chain, node)
            for chain, count in counts.items():
                if count >= _CHAIN_THRESHOLD:
                    yield first[chain], (
                        f"attribute chain {chain} looked up {count}x "
                        f"inside a loop of @hot_path {fn.name}(); bind "
                        "it to a local before the loop"
                    )
