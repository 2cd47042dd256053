"""Project-wide index built once per analysis run.

The passes need cross-module knowledge: which dataclasses exist (and which
are frozen), what fields/properties/methods each declares, and which
attribute names are ever written anywhere in the analyzed tree.  One AST
walk per file collects all of it up front so individual rules stay cheap.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple


class ModuleInfo:
    """One source file and its parsed AST."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        #: as given (repo-relative when invoked from the repo root)
        self.path = path
        self.tree = tree

    @property
    def basename(self) -> str:
        return os.path.basename(self.path)

    @property
    def parts(self) -> Tuple[str, ...]:
        """Normalized path components (for package-membership tests)."""
        return tuple(os.path.normpath(self.path).split(os.sep))


@dataclass
class DataclassInfo:
    """Declared shape of one ``@dataclass`` in the analyzed tree."""

    name: str
    path: str
    line: int
    frozen: bool
    #: field name -> annotation source text ("int", "Dict[FUClass, int]", ...)
    fields: Dict[str, str] = field(default_factory=dict)
    #: line number of each field declaration (for dead-counter reports)
    field_lines: Dict[str, int] = field(default_factory=dict)
    properties: Set[str] = field(default_factory=set)
    methods: Set[str] = field(default_factory=set)

    @property
    def members(self) -> Set[str]:
        return set(self.fields) | self.properties | self.methods

    def int_fields(self) -> Dict[str, int]:
        """Scalar ``int`` counters (dead-counter candidates) -> decl line."""
        return {
            name: self.field_lines[name]
            for name, annotation in self.fields.items()
            if annotation == "int"
        }


def _decorator_dataclass_frozen(node: ast.ClassDef) -> Optional[bool]:
    """None if not a dataclass; otherwise whether it is frozen."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name != "dataclass":
            continue
        if isinstance(deco, ast.Call):
            for kw in deco.keywords:
                if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                    return bool(kw.value.value)
        return False
    return None


def _collect_dataclass(node: ast.ClassDef, path: str, frozen: bool) -> DataclassInfo:
    info = DataclassInfo(name=node.name, path=path, line=node.lineno, frozen=frozen)
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            info.fields[stmt.target.id] = ast.unparse(stmt.annotation)
            info.field_lines[stmt.target.id] = stmt.lineno
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            is_property = any(
                (isinstance(deco, ast.Name) and deco.id == "property")
                or (isinstance(deco, ast.Attribute) and deco.attr == "property")
                for deco in stmt.decorator_list
            )
            (info.properties if is_property else info.methods).add(stmt.name)
    return info


class _WriteCollector(ast.NodeVisitor):
    """Record every attribute name that is ever the target of a store.

    Class-body ``AnnAssign`` declarations are *not* stores — they are the
    declarations the dead-counter check verifies against — so this visitor
    only looks at ``Assign`` / ``AugAssign`` targets and ``setattr`` calls.
    """

    def __init__(self, writes: Set[str]) -> None:
        self.writes = writes

    def _record_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Attribute):
            self.writes.add(target.attr)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # setattr(obj, "name", value) with a literal name counts as a write.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            self.writes.add(node.args[1].value)
        self.generic_visit(node)


@dataclass
class ProjectIndex:
    """Everything the rules need to know about the analyzed tree."""

    dataclasses: Dict[str, DataclassInfo] = field(default_factory=dict)
    #: attribute names stored (assigned / aug-assigned / setattr'd) anywhere
    attr_writes: Set[str] = field(default_factory=set)

    @classmethod
    def build(cls, modules: Iterable[ModuleInfo]) -> "ProjectIndex":
        """Collect dataclass shapes and attribute writes from parsed modules.

        Modules are visited in sorted path order, so when two files declare
        a dataclass of the same name the later path's declaration wins.
        """
        index = cls()
        for module in sorted(modules, key=lambda m: m.path):
            _WriteCollector(index.attr_writes).visit(module.tree)
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    frozen = _decorator_dataclass_frozen(node)
                    if frozen is not None:
                        info = _collect_dataclass(node, module.path, frozen)
                        index.dataclasses[info.name] = info
        return index

    # -- derived views --------------------------------------------------

    def stats_classes(self) -> Dict[str, DataclassInfo]:
        """Dataclasses whose name ends in ``Stats`` (counter bundles)."""
        return {
            name: info
            for name, info in self.dataclasses.items()
            if name.endswith("Stats")
        }

    def config_classes(self) -> Dict[str, DataclassInfo]:
        """Dataclasses whose name ends in ``Config`` (parameter bundles)."""
        return {
            name: info
            for name, info in self.dataclasses.items()
            if name.endswith("Config")
        }

    def frozen_classes(self) -> Dict[str, DataclassInfo]:
        return {
            name: info for name, info in self.dataclasses.items() if info.frozen
        }


def _expand(paths: Iterable[str]) -> List[str]:
    """Resolve files/directories to a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d
                    for d in dirs
                    if d not in ("__pycache__", ".git") and not d.endswith(".egg-info")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        elif path.endswith(".py"):
            out.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return out
