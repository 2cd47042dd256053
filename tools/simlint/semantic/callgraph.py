"""Class hierarchy, symbol resolution and call-site resolution.

Everything works over :class:`~.summary.ModuleSummary` facts — no AST.
Resolution is deliberately conservative: a call site resolves to the set
of project functions it *may* reach (virtual dispatch includes subclass
overrides), and resolves to nothing when the receiver is unknown.

Receiver resolution handles the idioms this codebase actually uses:

* ``self.m(...)``            — method lookup through the MRO, plus
  overrides in subclasses (virtual dispatch);
* ``self.attr.m(...)``       — ``attr`` typed via ``self.attr = Cls(...)``
  bindings collected in the class summaries;
* ``x.m(...)``               — when ``x`` is a hot-loop alias of
  ``self.x`` (``stats = self.stats`` / ``checker = self.checker``), the
  attribute type of the same name is used;
* ``f(...)`` / ``mod.f(...)`` — module-level functions through the
  import maps, following re-exports (``from .die import DIEPipeline``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .summary import CallSite, ClassSummary, FunctionSummary, ModuleSummary

ClassKey = Tuple[str, str]  # (module, class name)


class CallGraph:
    """Project-wide resolution index over module summaries."""

    def __init__(self, summaries: Dict[str, "ModuleSummary"]) -> None:
        self.summaries = summaries
        self.classes: Dict[ClassKey, ClassSummary] = {}
        self.functions: Dict[str, FunctionSummary] = {}
        self._methods: Dict[Tuple[str, str, str], FunctionSummary] = {}
        self._module_funcs: Dict[Tuple[str, str], FunctionSummary] = {}
        self._class_by_name: Dict[str, List[ClassKey]] = {}
        for module, summary in summaries.items():
            for cls in summary.classes:
                self.classes[(module, cls.name)] = cls
                self._class_by_name.setdefault(cls.name, []).append((module, cls.name))
            for fn in summary.functions:
                self.functions[fn.qualname] = fn
                if fn.cls:
                    self._methods[(module, fn.cls, fn.name)] = fn
                else:
                    self._module_funcs[(module, fn.name)] = fn
        self._bases_cache: Dict[ClassKey, List[ClassKey]] = {}
        self._subclasses: Dict[ClassKey, Set[ClassKey]] = {}
        self._build_subclasses()
        self._counters_cache: Dict[str, Set[str]] = {}

    # -- symbols ---------------------------------------------------------

    def module_of(self, fn: FunctionSummary) -> str:
        suffix = f".{fn.cls}.{fn.name}" if fn.cls else f".{fn.name}"
        return fn.qualname[: -len(suffix)]

    def path_of(self, fn: FunctionSummary) -> str:
        summary = self.summaries.get(self.module_of(fn))
        return summary.path if summary is not None else "<unknown>"

    def resolve_symbol(
        self, module: str, name: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[Tuple[str, str]]:
        """Resolve ``name`` in ``module`` to its defining ``(module, name)``.

        Follows import chains (including package re-exports) until a
        module that actually defines the symbol is found.
        """
        seen = _seen if _seen is not None else set()
        if (module, name) in seen:
            return None
        seen.add((module, name))
        summary = self.summaries.get(module)
        if summary is None:
            return None
        if (module, name) in self.classes or (module, name) in self._module_funcs:
            return (module, name)
        target = summary.imports.get(name)
        if not target:
            return None
        owner, _, symbol = target.rpartition(".")
        if owner and owner in self.summaries and symbol:
            return self.resolve_symbol(owner, symbol, seen)
        if target in self.summaries:
            # ``import x.y as name`` — a module alias, not a symbol.
            return None
        return None

    def resolve_class(self, module: str, dotted: str) -> Optional[ClassKey]:
        """Resolve a class-name expression (``DIEPipeline``,
        ``die.DIEPipeline``) appearing in ``module``."""
        name = dotted.rsplit(".", 1)[-1]
        hit = self.resolve_symbol(module, name)
        if hit is not None and hit in self.classes:
            return hit
        # Fall back to a unique global name match (fixtures, single tree).
        candidates = self._class_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- hierarchy -------------------------------------------------------

    def bases_of(self, key: ClassKey) -> List[ClassKey]:
        if key in self._bases_cache:
            return self._bases_cache[key]
        self._bases_cache[key] = []  # cycle guard
        cls = self.classes.get(key)
        resolved: List[ClassKey] = []
        if cls is not None:
            for base in cls.bases:
                base_key = self.resolve_class(key[0], base)
                if base_key is not None:
                    resolved.append(base_key)
        self._bases_cache[key] = resolved
        return resolved

    def mro(self, key: ClassKey) -> List[ClassKey]:
        """Linearised ancestry (the class itself first; simple DFS)."""
        order: List[ClassKey] = []
        stack = [key]
        seen: Set[ClassKey] = set()
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            order.append(current)
            stack.extend(self.bases_of(current))
        return order

    def _build_subclasses(self) -> None:
        for key in self.classes:
            for ancestor in self.mro(key)[1:]:
                self._subclasses.setdefault(ancestor, set()).add(key)

    def subclasses_of(self, key: ClassKey) -> Set[ClassKey]:
        return set(self._subclasses.get(key, set()))

    def inherited_int_attr(self, key: ClassKey, attr: str) -> Optional[int]:
        for ancestor in self.mro(key):
            cls = self.classes.get(ancestor)
            if cls is not None and attr in cls.int_attrs:
                return cls.int_attrs[attr]
        return None

    def inherited_attr_type(self, key: ClassKey, attr: str) -> Optional[ClassKey]:
        for ancestor in self.mro(key):
            cls = self.classes.get(ancestor)
            if cls is not None and attr in cls.attr_types:
                return self.resolve_class(ancestor[0], cls.attr_types[attr])
        return None

    def find_method(self, key: ClassKey, name: str) -> Optional[FunctionSummary]:
        """Nearest definition of ``name`` through the MRO."""
        for ancestor in self.mro(key):
            fn = self._methods.get((ancestor[0], ancestor[1], name))
            if fn is not None:
                return fn
        return None

    def method_candidates(self, key: ClassKey, name: str) -> List[FunctionSummary]:
        """Virtual dispatch: nearest definition plus subclass overrides."""
        out: List[FunctionSummary] = []
        nearest = self.find_method(key, name)
        if nearest is not None:
            out.append(nearest)
        for sub in sorted(self.subclasses_of(key)):
            fn = self._methods.get((sub[0], sub[1], name))
            if fn is not None and fn not in out:
                out.append(fn)
        return out

    # -- call resolution -------------------------------------------------

    def owning_class(self, fn: FunctionSummary) -> Optional[ClassKey]:
        if not fn.cls:
            return None
        return (self.module_of(fn), fn.cls)

    def resolve_call(self, caller: FunctionSummary, call: CallSite) -> List[FunctionSummary]:
        """Project functions a call site may reach (empty if external)."""
        module = self.module_of(caller)
        callee = call.callee
        if callee == "<dynamic>":
            return []
        parts = callee.split(".")
        cls_key = self.owning_class(caller)
        # self.m(...)
        if len(parts) == 2 and parts[0] == "self" and cls_key is not None:
            return self.method_candidates(cls_key, parts[1])
        # self.attr.m(...)
        if len(parts) == 3 and parts[0] == "self" and cls_key is not None:
            attr_cls = self.inherited_attr_type(cls_key, parts[1])
            if attr_cls is not None:
                return self.method_candidates(attr_cls, parts[2])
            return []
        # x.m(...) — alias of self.x, a known class, or a module alias.
        if len(parts) == 2:
            receiver, method = parts
            if cls_key is not None:
                attr_cls = self.inherited_attr_type(cls_key, receiver)
                if attr_cls is not None:
                    return self.method_candidates(attr_cls, method)
            class_hit = self.resolve_class(module, receiver)
            if class_hit is not None:
                fn = self.find_method(class_hit, method)
                return [fn] if fn is not None else []
            # module alias: ``from .. import keys; keys.job_key(...)``
            summary = self.summaries.get(module)
            if summary is not None:
                target = summary.imports.get(receiver)
                if target and target in self.summaries:
                    fn2 = self._module_funcs.get((target, method))
                    return [fn2] if fn2 is not None else []
            return []
        # f(...)
        if len(parts) == 1:
            local = self._module_funcs.get((module, callee))
            if local is not None:
                return [local]
            hit = self.resolve_symbol(module, callee)
            if hit is not None:
                fn3 = self._module_funcs.get(hit)
                if fn3 is not None:
                    return [fn3]
                if hit in self.classes:
                    # Constructor: flows land in __init__.
                    init = self.find_method(hit, "__init__")
                    return [init] if init is not None else []
            return []
        return []

    # -- derived analyses ------------------------------------------------

    def transitive_counters(self, qualname: str) -> Set[str]:
        """Stats counters bumped by ``qualname`` or anything it may call.

        Fixed point over the (possibly cyclic) call graph.
        """
        if qualname in self._counters_cache:
            return self._counters_cache[qualname]
        # Iterative worklist so recursion depth and cycles are non-issues.
        result: Dict[str, Set[str]] = {}
        stack = [qualname]
        visiting: List[str] = []
        order: List[str] = []
        seen: Set[str] = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            order.append(current)
            fn = self.functions.get(current)
            if fn is None:
                continue
            for call in fn.calls:
                for callee in self.resolve_call(fn, call):
                    if callee.qualname not in seen:
                        stack.append(callee.qualname)
        del visiting
        # Initialise with direct counters, then iterate to fixpoint.
        for name in order:
            fn = self.functions.get(name)
            result[name] = {inc.counter for inc in fn.stat_incs} if fn else set()
        changed = True
        while changed:
            changed = False
            for name in order:
                fn = self.functions.get(name)
                if fn is None:
                    continue
                for call in fn.calls:
                    for callee in self.resolve_call(fn, call):
                        extra = result.get(callee.qualname)
                        if extra and not extra <= result[name]:
                            result[name] |= extra
                            changed = True
        self._counters_cache.update(result)
        return self._counters_cache[qualname]

    def all_functions(self) -> Iterable[FunctionSummary]:
        for qualname in sorted(self.functions):
            yield self.functions[qualname]
