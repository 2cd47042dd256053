"""In-memory span recorder for the traced benchmark run.

A span records a name, start and end times, the id of the span that was
open when it began (its parent) and the op it belongs to.  Spans stay in
memory; the benchmark aggregates them when it ends.

Spans are recorded from the benchmark's own files only: :class:`Patcher`
replaces a layer's public callables with wrappers that open and close a
span around each call, and :meth:`Patcher.restore` puts the original
objects back.  Nothing in the program under test changes.

This module does not import ``repro``, so its arithmetic is testable on
its own.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Called after a wrapped call returns: ``(span, args, kwargs, result)``.
OnReturn = Callable[["Span", tuple, dict, Any], None]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs")

    def __init__(
        self,
        id: int,
        name: str,
        start: float,
        end: float = 0.0,
        parent: Optional[int] = None,
        op: Optional[int] = None,
    ):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        #: Counts read at the boundary (cycles, sites, ...), set by ``on_return``.
        self.attrs: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while ``active``; a no-op otherwise.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack (an HTTP handler thread of the server
    under test) takes as parent the innermost open span of the thread
    that created the recorder, which is the client blocked on that
    request: the benchmark drives one request at a time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.active = False
        #: Op id stamped on every span opened while it is set.
        self.op: Optional[int] = None
        self._local = threading.local()
        self._main_stack = self._stack()
        # next() on a count and list.append are single bytecode-level
        # operations under the interpreter lock: threads need no lock here.
        self._ids = itertools.count()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent: Optional[Span] = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(
            next(self._ids), name, self.clock(),
            parent=parent.id if parent is not None else None, op=self.op,
        )
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()

    def innermost(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str) -> "_SpanContext":
        """``with recorder.span(name):`` — records only while active."""
        return _SpanContext(self, name)


class _SpanContext:
    __slots__ = ("_recorder", "_name", "_span")

    def __init__(self, recorder: Recorder, name: str):
        self._recorder = recorder
        self._name = name
        self._span: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        if self._recorder.active:
            self._span = self._recorder.open(self._name)
        return self._span

    def __exit__(self, *exc: object) -> None:
        if self._span is not None:
            self._recorder.close(self._span)


class Patcher:
    """Installs span wrappers on module or class attributes, and undoes it.

    ``wrap(owner, attr, name)`` replaces ``owner.attr``.  For a method,
    pass the class; for a function bound into another module by
    ``from ... import``, pass the importing module, since that is the name
    the caller looks up.  A call made while the innermost open span has
    the same name (a re-entrant call, or a wrapped method calling another
    wrapped method of the same layer) records no second span.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        # (owner, attr, original own attribute or _ABSENT)
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_return: Optional[OnReturn] = None,
    ) -> None:
        own = vars(owner).get(attr, _ABSENT)
        original = getattr(owner, attr)
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            top = recorder.innermost()
            if not recorder.active or (top is not None and top.name == name):
                return original(*args, **kwargs)
            span = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        self._saved.append((owner, attr, own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every original attribute, newest wrapper first."""
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _ABSENT:
                delattr(owner, attr)  # the class inherited it
            else:
                setattr(owner, attr, own)


_ABSENT = object()


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }
