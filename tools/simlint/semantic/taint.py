"""Forward taint propagation over the interprocedural supergraph.

The lattice is a small tag set per node:

* ``pair_obj``  — a reference to the duplicate-stream :class:`DynInst`
  (obtained by reading ``.pair``);
* ``irb_obj``   — a reference to an :class:`IRBEntry` (read of
  ``.irb_entry`` or an ``IRBEntry``-annotated parameter);
* ``dup_value`` — a *value* extracted from the duplicate stream
  (``pair_obj`` → ``.result``/``.mem_addr``/``.output()``);
* ``irb_value`` — a value extracted from an IRB entry
  (``irb_obj`` → ``.result``).

A finding is a ``dup_value``/``irb_value`` tag reaching a sink — a store
into primary-stream architectural state (``inst.result = ...``,
``inst.mem_addr = ...``) — outside a sanctioned channel.  Comparisons
deliberately do not propagate taint: *observing* both streams is the
checker's job and is policed separately (SL004).

Propagation is context-insensitive over the supergraph whose nodes are
``(function qualname, local dataflow node)`` pairs; interprocedural
edges bind call-site arguments to callee parameters and callee returns
to call results.  Each ``(node, tag)`` state records the edge that first
produced it, so every finding carries a replayable witness path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .callgraph import CallGraph
from .summary import (
    FunctionSummary,
    IRB_VALUE_ATTRS,
    PAIR_VALUE_ATTRS,
    PAIR_VALUE_METHODS,
)

TAG_PAIR_OBJ = "pair_obj"
TAG_IRB_OBJ = "irb_obj"
TAG_DUP_VALUE = "dup_value"
TAG_IRB_VALUE = "irb_value"

_OBJ_TAGS = (TAG_PAIR_OBJ, TAG_IRB_OBJ)
_VALUE_TAGS = (TAG_DUP_VALUE, TAG_IRB_VALUE)

Node = Tuple[str, str]  # (function qualname, local dataflow node)
State = Tuple[Node, str]  # (node, tag)


@dataclass(frozen=True)
class WitnessStep:
    """One hop of a taint witness: where, and what happened there."""

    path: str
    line: int
    note: str


@dataclass
class TaintFinding:
    """A duplicate-stream value reaching primary architectural state."""

    function: str  # qualname of the function containing the sink
    path: str
    line: int  # sink line
    sink_attr: str  # "result" | "mem_addr"
    sink_text: str
    tag: str  # dup_value | irb_value
    witness: List[WitnessStep] = field(default_factory=list)

    def describe(self) -> str:
        stream = "duplicate-stream" if self.tag == TAG_DUP_VALUE else "IRB-entry"
        return (
            f"{stream} value flows into primary architectural state "
            f"`.{self.sink_attr}` ({self.sink_text}) outside a sanctioned "
            f"checker channel"
        )


def _transform_tags(tags: Set[str], transform: str) -> Set[str]:
    """Apply an edge transform to a tag set."""
    if not transform:
        return set(tags)
    kind, _, name = transform.partition(":")
    out: Set[str] = set()
    for tag in tags:
        if kind == "attr":
            if tag == TAG_PAIR_OBJ and name in PAIR_VALUE_ATTRS:
                out.add(TAG_DUP_VALUE)
            elif tag == TAG_IRB_OBJ and name in IRB_VALUE_ATTRS:
                out.add(TAG_IRB_VALUE)
            # Attribute reads off a tainted *value* (or bookkeeping attrs
            # off a tainted object) yield untainted scalars: drop.
        elif kind == "method":
            if tag == TAG_PAIR_OBJ and name in PAIR_VALUE_METHODS:
                out.add(TAG_DUP_VALUE)
        elif kind == "store":
            # Storing a tainted value into a container does not taint the
            # container object; sinks observe the store directly.
            pass
        else:
            out.add(tag)
    return out


class TaintEngine:
    """Interprocedural forward taint over summarised facts.

    ``sanctioned`` lists qualname suffixes (``Class.method``) of the
    registered SoR crossing channels: sinks inside them are permitted and
    taint is not propagated *into* them through calls (values handed to
    the checker may legitimately meet the primary stream there).
    """

    def __init__(self, graph: CallGraph, sanctioned: Sequence[str] = ()) -> None:
        self.graph = graph
        self.sanctioned = tuple(sanctioned)
        # (caller qualname, node) -> [(callee qualname, node, line, note)]
        self._calls_out: Dict[Node, List[Tuple[Node, int, str]]] = {}
        self._edges: Dict[Node, List[Tuple[Node, str, int]]] = {}
        self._build_supergraph()

    def is_sanctioned(self, qualname: str) -> bool:
        return any(
            qualname == suffix or qualname.endswith("." + suffix)
            for suffix in self.sanctioned
        )

    # -- graph construction ---------------------------------------------

    def _add_edge(self, src: Node, dst: Node, transform: str, line: int) -> None:
        self._edges.setdefault(src, []).append((dst, transform, line))

    def _build_supergraph(self) -> None:
        for fn in self.graph.all_functions():
            q = fn.qualname
            for edge in fn.flows:
                self._add_edge((q, edge.src), (q, edge.dst), edge.transform, edge.line)
            for call in fn.calls:
                callees = [
                    c
                    for c in self.graph.resolve_call(fn, call)
                    if not self.is_sanctioned(c.qualname)
                ]
                for callee in callees:
                    self._bind_call(fn, call.index, call.line, callee)
                if not callees:
                    # External call: conservatively assume arguments may
                    # flow into the result (``min(a, b)``-style helpers).
                    for j in range(call.nargs):
                        self._add_edge(
                            (q, f"arg:{call.index}:{j}"),
                            (q, f"call:{call.index}"),
                            "",
                            call.line,
                        )
                    for kw in call.keywords:
                        self._add_edge(
                            (q, f"arg:{call.index}:k={kw}"),
                            (q, f"call:{call.index}"),
                            "",
                            call.line,
                        )

    def _bind_call(
        self, caller: FunctionSummary, index: int, line: int, callee: FunctionSummary
    ) -> None:
        q, cq = caller.qualname, callee.qualname
        params = list(callee.params)
        if callee.cls and params and params[0] in ("self", "cls"):
            params = params[1:]
        fn = self.graph.functions[q]
        call = fn.calls[index] if index < len(fn.calls) else None
        nargs = call.nargs if call is not None else 0
        keywords = call.keywords if call is not None else ()
        for j in range(nargs):
            if j < len(params):
                self._add_edge(
                    (q, f"arg:{index}:{j}"), (cq, f"local:{params[j]}"), "", line
                )
        for kw in keywords:
            if kw in params:
                self._add_edge(
                    (q, f"arg:{index}:k={kw}"), (cq, f"local:{kw}"), "", line
                )
        self._add_edge((cq, "ret"), (q, f"call:{index}"), "", line)

    # -- propagation -----------------------------------------------------

    def run(self) -> List[TaintFinding]:
        parents: Dict[State, Tuple[Optional[State], str, int]] = {}
        worklist: List[State] = []

        def discover(
            state: State, parent: Optional[State], note: str, line: int
        ) -> None:
            if state not in parents:
                parents[state] = (parent, note, line)
                worklist.append(state)

        for fn in self.graph.all_functions():
            for node, tag, line, text in fn.sources:
                discover(((fn.qualname, node), tag), None, f"source: {text}", line)

        while worklist:
            state = worklist.pop()
            node, tag = state
            for dst, transform, line in self._edges.get(node, ()):
                for new_tag in _transform_tags({tag}, transform):
                    if dst[0] != node[0]:
                        note = (
                            f"returns to {dst[0]}"
                            if node[1] == "ret"
                            else f"passed to {dst[0]}"
                        )
                    elif transform.startswith("attr:"):
                        note = f"reads .{transform.partition(':')[2]}"
                    elif transform.startswith("method:"):
                        note = f"calls .{transform.partition(':')[2]}()"
                    else:
                        note = "flows"
                    discover((dst, new_tag), state, note, line)

        findings: List[TaintFinding] = []
        for fn in self.graph.all_functions():
            if self.is_sanctioned(fn.qualname):
                continue
            path = self.graph.path_of(fn)
            for node, attr, line, text in fn.sinks:
                for tag in _VALUE_TAGS:
                    state = ((fn.qualname, node), tag)
                    if state in parents:
                        findings.append(
                            TaintFinding(
                                function=fn.qualname,
                                path=path,
                                line=line,
                                sink_attr=attr,
                                sink_text=text,
                                tag=tag,
                                witness=self._witness(parents, state, path, line, text),
                            )
                        )
        findings.sort(key=lambda f: (f.path, f.line, f.sink_attr, f.tag))
        return findings

    def _witness(
        self,
        parents: Dict[State, Tuple[Optional[State], str, int]],
        sink_state: State,
        sink_path: str,
        sink_line: int,
        sink_text: str,
    ) -> List[WitnessStep]:
        # Walk back to the seed, then emit the interesting hops forward.
        chain: List[Tuple[State, str, int]] = []
        state: Optional[State] = sink_state
        seen: Set[State] = set()
        while state is not None and state not in seen:
            seen.add(state)
            parent, note, line = parents[state]
            chain.append((state, note, line))
            state = parent
        chain.reverse()
        steps: List[WitnessStep] = []
        last_tag: Optional[str] = None
        prev_path: Optional[str] = None
        for (node, tag), note, line in chain:
            qualname = node[0]
            fn = self.graph.functions.get(qualname)
            path = self.graph.path_of(fn) if fn is not None else sink_path
            if note.startswith(("passed to", "returns to")) and prev_path:
                # Interprocedural hops record the call line, which lives
                # in the *previous* function's file.
                path = prev_path
            prev_path = self.graph.path_of(fn) if fn is not None else path
            interesting = (
                note.startswith("source:")
                or note.startswith("passed to")
                or note.startswith("returns to")
                or tag != last_tag
            )
            if interesting:
                where = qualname.rsplit(".", 2)
                short = ".".join(where[-2:]) if len(where) >= 2 else qualname
                steps.append(WitnessStep(path, line, f"[{short}] {note} ({tag})"))
            last_tag = tag
        steps.append(
            WitnessStep(sink_path, sink_line, f"sink: {sink_text}")
        )
        return steps


def trace_flows(
    graph: CallGraph, sanctioned: Iterable[str] = ()
) -> List[TaintFinding]:
    """Convenience wrapper: build the engine and return sorted findings."""
    return TaintEngine(graph, tuple(sanctioned)).run()
