"""Phase-1 fact collection for project-scope (cross-module) rules.

Module rules see one file at a time; the RC6xx family needs to relate
*sites in different files* — an event dict written in
``repro.obs.trace_io`` against a ``event["t"] == ...`` dispatch in
``repro.obs.replay``, or a schema version declared in one module and
its supported set in another. This module extracts those per-module
facts into plain frozen records (:func:`collect_facts`), and
:class:`ProjectContext` holds the merged table that phase 2's project
rules query.

Facts are deliberately shallow — syntactic sites plus the enclosing
function — so the rules stay useful without simulating execution:
dict literals with a ``"t": "<kind>"`` entry and ``var["t"] = "<kind>"``
stores are producers; ``var["t"] == "kind"`` / ``var.get("t") ==
"kind"`` comparisons (including through a single local alias like
``kind = event.get("t")``) are consumer-side kind tests.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.check.context import ModuleContext

#: The JSONL discriminator key of the repro.obs trace schema.
WIRE_KIND_KEY = "t"


# ----------------------------------------------------------------------
# Fact records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WireLiteral:
    """A dict literal carrying ``"t": "<kind>"`` (an event producer)."""

    func: str
    kind: str
    line: int
    col: int


@dataclass(frozen=True)
class KindStore:
    """A ``var["t"] = "<kind>"`` subscript store (producer, unknown keys)."""

    func: str
    kind: str
    line: int
    col: int


@dataclass(frozen=True)
class KindTest:
    """A comparison of a kind expression against a string constant."""

    func: str
    var: str
    kind: str
    line: int
    col: int


@dataclass
class ModuleFacts:
    """Everything phase 1 extracted from one module."""

    wire_literals: List[WireLiteral] = field(default_factory=list)
    kind_stores: List[KindStore] = field(default_factory=list)
    kind_tests: List[KindTest] = field(default_factory=list)
    #: Module-level ``NAME = <int>`` constants (name -> (value, line)).
    int_constants: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Module-level ``NAME = (<int>, ...)`` constants.
    tuple_constants: Dict[str, Tuple[Tuple[int, ...], int]] = field(
        default_factory=dict
    )


# ----------------------------------------------------------------------
# Expression helpers
# ----------------------------------------------------------------------


def _const_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def kind_expr_var(node: ast.expr) -> str:
    """Variable name when ``node`` reads the wire discriminator key.

    Matches ``var["t"]`` and ``var.get("t")`` / ``var.get("t", d)`` on
    a plain local name; returns ``""`` otherwise.
    """
    if isinstance(node, ast.Subscript) and isinstance(
        node.value, ast.Name
    ):
        if _const_str(node.slice) == WIRE_KIND_KEY:
            return node.value.id
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and isinstance(node.func.value, ast.Name)
        and node.args
        and not node.keywords
        and _const_str(node.args[0]) == WIRE_KIND_KEY
    ):
        return node.func.value.id
    return ""


def dict_literal_kind(node: ast.Dict) -> Optional[str]:
    """The ``"t"`` value of a wire dict literal, if constant."""
    for key, value in zip(node.keys, node.values):
        if key is not None and _const_str(key) == WIRE_KIND_KEY:
            return _const_str(value)
    return None


# ----------------------------------------------------------------------
# The collector
# ----------------------------------------------------------------------


class _Collector:
    """Single recursive pass gathering every fact kind at once."""

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.facts = ModuleFacts()
        self._class_stack: List[str] = []
        self._func_stack: List[str] = []
        #: Per-function ``alias -> var`` map for ``k = msg.get("t")``.
        self._kind_aliases: Dict[str, str] = {}

    # -- naming helpers ------------------------------------------------

    @property
    def _qualname(self) -> str:
        parts = self._class_stack + self._func_stack
        return ".".join(parts) if parts else "<module>"

    # -- traversal -----------------------------------------------------

    def run(self) -> ModuleFacts:
        self._collect_module_constants()
        for node in self.ctx.tree.body:
            self._visit(node)
        return self.facts

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.ClassDef):
            self._class_stack.append(node.name)
            saved_funcs, self._func_stack = self._func_stack, []
            for child in node.body:
                self._visit(child)
            self._class_stack.pop()
            self._func_stack = saved_funcs
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._visit_function(node)
            return
        self._visit_expr_facts(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        for dec in node.decorator_list:
            self._visit(dec)
        self._func_stack.append(node.name)
        saved_aliases = self._kind_aliases
        self._kind_aliases = dict(saved_aliases)
        self._prescan_kind_aliases(node)
        for child in node.body:
            self._visit(child)
        self._func_stack.pop()
        self._kind_aliases = saved_aliases

    def _prescan_kind_aliases(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        """Record ``alias = msg.get("t")`` assignments in this function.

        Only direct statements of the function body tree are scanned
        (nested defs re-scan their own bodies on entry), and only plain
        single-name targets are tracked.
        """
        for stmt in fn.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        var = kind_expr_var(node.value)
                        if var:
                            self._kind_aliases[target.id] = var

    # -- per-node facts ------------------------------------------------

    def _visit_expr_facts(self, node: ast.AST) -> None:
        if isinstance(node, ast.Dict):
            self._fact_wire_literal(node)
        elif isinstance(node, ast.Compare):
            self._fact_kind_test(node)
        elif isinstance(node, ast.Assign):
            self._fact_kind_store(node)

    def _fact_wire_literal(self, node: ast.Dict) -> None:
        kind = dict_literal_kind(node)
        if kind is None:
            return
        self.facts.wire_literals.append(
            WireLiteral(
                func=self._qualname,
                kind=kind,
                line=node.lineno,
                col=node.col_offset,
            )
        )

    def _fact_kind_store(self, node: ast.Assign) -> None:
        if len(node.targets) != 1:
            return
        target = node.targets[0]
        if not (
            isinstance(target, ast.Subscript)
            and _const_str(target.slice) == WIRE_KIND_KEY
        ):
            return
        kind = _const_str(node.value)
        if kind is None:
            return
        self.facts.kind_stores.append(
            KindStore(
                func=self._qualname,
                kind=kind,
                line=node.lineno,
                col=node.col_offset,
            )
        )

    def _fact_kind_test(self, node: ast.Compare) -> None:
        if len(node.ops) != 1:
            return
        var = kind_expr_var(node.left)
        if not var and isinstance(node.left, ast.Name):
            var = self._kind_aliases.get(node.left.id, "")
        if not var:
            return
        op = node.ops[0]
        comparator = node.comparators[0]
        kinds: List[str] = []
        if isinstance(op, (ast.Eq, ast.NotEq)):
            text = _const_str(comparator)
            if text is not None:
                kinds.append(text)
        elif isinstance(op, (ast.In, ast.NotIn)) and isinstance(
            comparator, (ast.Tuple, ast.List, ast.Set)
        ):
            for elt in comparator.elts:
                text = _const_str(elt)
                if text is not None:
                    kinds.append(text)
        for kind in kinds:
            self.facts.kind_tests.append(
                KindTest(
                    func=self._qualname,
                    var=var,
                    kind=kind,
                    line=node.lineno,
                    col=node.col_offset,
                )
            )

    # -- module-level scans --------------------------------------------

    def _collect_module_constants(self) -> None:
        for node in self.ctx.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or len(targets) != 1:
                continue
            target = targets[0]
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if isinstance(value, ast.Constant) and isinstance(
                value.value, int
            ) and not isinstance(value.value, bool):
                self.facts.int_constants[name] = (value.value, node.lineno)
            elif isinstance(value, (ast.Tuple, ast.List)):
                ints: List[int] = []
                for elt in value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(
                        elt.value, int
                    ) and not isinstance(elt.value, bool):
                        ints.append(elt.value)
                    else:
                        break
                else:
                    self.facts.tuple_constants[name] = (
                        tuple(ints),
                        node.lineno,
                    )


def collect_facts(ctx: ModuleContext) -> ModuleFacts:
    """Extract the phase-1 fact table for one parsed module."""
    return _Collector(ctx).run()


# ----------------------------------------------------------------------
# The merged, project-wide view
# ----------------------------------------------------------------------


@dataclass
class ProjectContext:
    """Phase-2 input: every analyzed module plus its collected facts."""

    units: List[Tuple[ModuleContext, ModuleFacts]] = field(
        default_factory=list
    )

    @classmethod
    def build(
        cls, contexts: Sequence[ModuleContext]
    ) -> "ProjectContext":
        return cls(units=[(ctx, collect_facts(ctx)) for ctx in contexts])

    def in_packages(
        self, *prefixes: str
    ) -> Iterator[Tuple[ModuleContext, ModuleFacts]]:
        """Units whose module lives under any of the dotted prefixes."""
        for ctx, facts in self.units:
            if ctx.in_package(*prefixes):
                yield ctx, facts
