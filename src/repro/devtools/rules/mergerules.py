"""Merge-canonicality rules (M102–M103).

The parallel ingest's identity contract (``jobs=N`` byte-equals
``jobs=1``) survives sharding only because every merge step is
canonical: nothing iterates an unordered container across shard
boundaries (M102), and ``merge_from``-style ledger folds are
commutative by construction — the accumulator is only ever updated by
operations whose result does not depend on merge order (M103, checked
structurally over the fold body).  Each rule encodes one way a merge
refactor can silently re-introduce shard-order dependence while every
test on a 1-core machine still passes.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.devtools.base import (
    Finding,
    ImportMap,
    Project,
    Rule,
    SourceModule,
    call_name,
    register,
)
from repro.devtools.flow.cfg import iter_scopes
from repro.devtools.flow.dataflow import (
    EMPTY,
    Env,
    Tags,
    TagEvaluator,
    analyze_scope,
)
from repro.devtools.rules.determinism import _body_is_order_sensitive
from repro.devtools.rules.flowrules import module_constant_env

#: Packages whose modules perform shard merges.
MERGE_PACKAGES = ("parallel", "fleet", "faults", "service", "columnar")

#: Accumulator methods whose effect depends on call order.
_ORDER_DEPENDENT_METHODS = frozenset(
    {"append", "appendleft", "extend", "insert"}
)

_DICT = frozenset({"dict"})


class DictEvaluator(TagEvaluator):
    """Tags values that are dicts (not views — F002's territory)."""

    def __init__(self, imports: ImportMap, module_env: Env) -> None:
        super().__init__(imports)
        self.module_env = module_env

    def name_constant(self, dotted: str) -> Tags:
        return self.module_env.get(dotted, EMPTY)

    def evaluate(self, node: ast.AST, env: Env) -> Tags:
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return _DICT
        return super().evaluate(node, env)

    def call(self, node: ast.Call, env: Env) -> Tags:
        dotted = call_name(node, self.imports)
        if dotted in (
            "dict",
            "collections.defaultdict",
            "collections.OrderedDict",
            "collections.Counter",
        ):
            return _DICT
        return EMPTY

    def annotation(self, node: Optional[ast.AST]) -> Tags:
        if node is None:
            return EMPTY
        for child in ast.walk(node):
            name = None
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.Constant) and isinstance(
                child.value, str
            ):
                name = child.value.rsplit(".", 1)[-1].split("[", 1)[0]
            if name and name.lower() in (
                "dict",
                "defaultdict",
                "ordereddict",
                "counter",
                "mapping",
                "mutablemapping",
            ):
                return _DICT
        return EMPTY


@register
class UnsortedDictIterationRule(Rule):
    id = "M102"
    name = "merge-iterates-unsorted-mapping"
    rationale = (
        "An order-sensitive loop directly over a dict merges entries "
        "in insertion order — which, across shard boundaries, is the "
        "order shards happened to arrive.  Iterate `sorted(d)` (the "
        "canonical key) instead."
    )
    scope = MERGE_PACKAGES

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        imports = ImportMap.from_tree(module.tree)
        module_env = module_constant_env(module, DictEvaluator, imports)
        for scope in iter_scopes(module.tree):
            evaluator = DictEvaluator(imports, module_env)
            cfg, in_envs = analyze_scope(scope, evaluator)
            for node_id, statement in cfg.nodes():
                if not isinstance(statement, (ast.For, ast.AsyncFor)):
                    continue
                env = in_envs.get(node_id, {})
                if "dict" not in evaluator.evaluate(statement.iter, env):
                    continue
                if not _body_is_order_sensitive(statement.body):
                    continue
                yield module.finding(
                    self.id,
                    statement,
                    "order-sensitive loop directly over a mapping; "
                    "across shard boundaries the insertion order is the "
                    "shard arrival order — iterate `sorted(...)` by the "
                    "canonical key",
                )


@register
class NonCommutativeFoldRule(Rule):
    id = "M103"
    name = "merge-fold-not-commutative"
    rationale = (
        "A `merge_from`-style ledger fold must give the same "
        "accumulator whatever order shards are folded in.  Plain "
        "overwrites of accumulator attributes and positional appends "
        "encode 'last shard wins' / 'arrival order' — fold through "
        "operations that read the accumulator's own state (`+=`, "
        "`min`/`max`, keyed sums) or justify the order contract."
    )
    scope = MERGE_PACKAGES

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        if module.tree is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if (
                    isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    and member.name == "merge_from"
                ):
                    yield from self._check_fold(module, member)

    def _check_fold(
        self, module: SourceModule, fold: ast.AST
    ) -> Iterator[Finding]:
        for node in ast.walk(fold):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    attribute = self._self_attribute(target)
                    if attribute is None:
                        continue
                    if self._reads_own_attribute(node.value, attribute):
                        continue
                    yield module.finding(
                        self.id,
                        node,
                        f"`merge_from` overwrites `self.{attribute}` "
                        f"without reading its prior value; the result "
                        f"depends on fold order — fold through the "
                        f"accumulator's own state or document the order "
                        f"contract with a suppression",
                    )
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Store
            ):
                attribute = self._self_attribute(node.value)
                if attribute is None:
                    continue
                parent = self._assign_parent(fold, node)
                if parent is not None and self._reads_own_attribute(
                    parent.value, attribute
                ):
                    continue
                yield module.finding(
                    self.id,
                    node,
                    f"`merge_from` stores into `self.{attribute}[...]` "
                    f"without reading the prior entry; colliding keys "
                    f"resolve to whichever shard folded last",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ORDER_DEPENDENT_METHODS
            ):
                attribute = self._self_attribute(node.func.value)
                if attribute is None:
                    continue
                yield module.finding(
                    self.id,
                    node,
                    f"`merge_from` `{node.func.attr}`s onto "
                    f"`self.{attribute}`; the accumulated order is the "
                    f"fold order — merge into a keyed structure and "
                    f"sort canonically, or justify the order contract",
                )

    @staticmethod
    def _self_attribute(node: ast.expr) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    @staticmethod
    def _reads_own_attribute(value: ast.expr, attribute: str) -> bool:
        for node in ast.walk(value):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == attribute
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return True
        return False

    @staticmethod
    def _assign_parent(
        fold: ast.AST, subscript: ast.Subscript
    ) -> Optional[ast.Assign]:
        for node in ast.walk(fold):
            if isinstance(node, ast.Assign) and any(
                target is subscript for target in node.targets
            ):
                return node
        return None
