"""Tests of the traced run's span arithmetic and wrappers.

Run from the root of a checkout: ``python3 -m pytest e2ebench/tests -q``.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Patcher, Recorder, Span, covered, self_times  # noqa: E402


def span(id, start, end, parent=None, name="s"):
    return Span(id=id, name=name, start=start, end=end, parent=parent)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 6.0, parent=0),
        span(2, 2.0, 3.0, parent=1),  # grandchild: counts against 1, not 0
    ]
    assert self_times(spans) == {0: 5.0, 1: 4.0, 2: 1.0}


def test_self_time_back_to_back_children():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 2.0, 4.0, parent=0),
        span(2, 4.0, 7.0, parent=0),  # starts where 1 ends
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_self_time_overlapping_children_count_once():
    # Children on another thread can overlap each other.
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 5.0, parent=0),
        span(2, 3.0, 6.0, parent=0),
        span(3, 5.5, 5.8, parent=0),  # inside 2
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_covered_clips_to_the_parent_interval():
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([], 0.0, 10.0) == 0.0


def test_recorder_parents_and_op_ids():
    clock = FakeClock()
    recorder = Recorder(clock)
    recorder.active = True
    recorder.op = 7
    with recorder.span("op"):
        clock.now = 1.0
        with recorder.span("child"):
            clock.now = 3.0
        clock.now = 4.0
    op, child = recorder.spans
    assert (op.parent, child.parent) == (None, op.id)
    assert (op.op, child.op) == (7, 7)
    assert (child.start, child.end, op.end) == (1.0, 3.0, 4.0)


def test_inactive_recorder_records_nothing():
    recorder = Recorder()
    with recorder.span("op"):
        pass
    assert recorder.spans == []


def test_span_on_another_thread_is_parented_to_the_client():
    recorder = Recorder()
    recorder.active = True
    with recorder.span("route") as route:
        worker = threading.Thread(target=lambda: recorder.span("server").__enter__())
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    server = next(s for s in recorder.spans if s.name == "server")
    assert server.parent == route.id


class Base:
    def run(self, x):
        return x + 1


class Child(Base):
    pass


def test_wrappers_restore_the_original_callables():
    module = types.ModuleType("fake")

    def load(x):
        return x * 2

    module.load = load
    original_run = Base.__dict__["run"]
    recorder = Recorder()
    patcher = Patcher(recorder)
    patcher.wrap(module, "load", "layer.load")
    patcher.wrap(Base, "run", "layer.run")
    patcher.wrap(Child, "run", "layer.run")  # inherited: must be deleted again
    assert module.load is not load and Base.__dict__["run"] is not original_run
    recorder.active = True
    assert module.load(2) == 4 and Child().run(1) == 2
    # Child's wrapper calls Base's: the same-name call records one span.
    assert [s.name for s in recorder.spans] == ["layer.load", "layer.run"]
    patcher.restore()
    assert module.load is load
    assert Base.__dict__["run"] is original_run
    assert "run" not in Child.__dict__


def test_wrapper_closes_its_span_when_the_call_raises():
    module = types.ModuleType("fake")

    def boom():
        raise ValueError("boom")

    module.boom = boom
    recorder = Recorder()
    patcher = Patcher(recorder)
    patcher.wrap(module, "boom", "layer.boom")
    recorder.active = True
    with pytest.raises(ValueError):
        module.boom()
    assert recorder.innermost() is None
    assert recorder.spans[0].end >= recorder.spans[0].start
    patcher.restore()
    assert module.boom is boom


def test_on_return_sees_the_result():
    module = types.ModuleType("fake")
    module.count = lambda n: list(range(n))
    recorder = Recorder()
    patcher = Patcher(recorder)
    patcher.wrap(module, "count", "layer.count",
                 on_return=lambda s, args, kwargs, result: s.attrs.update(n=len(result)))
    recorder.active = True
    module.count(3)
    assert recorder.spans[0].attrs == {"n": 3}
    patcher.restore()
