"""Tests of the span arithmetic, the recorder and the layer wrappers.

    python3 -m pytest -q perfbench
"""

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import (Recorder, self_intervals, self_times,  # noqa: E402
                   union_length)


class TickClock:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


# ------------------------------------------------------------ arithmetic --

def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_nested_spans_subtract_children_only():
    # parent [0,10] > child [2,5] > grandchild [3,4]
    start, end = [0, 2, 3], [10, 5, 4]
    assert self_times(start, end, [-1, 0, 1]) == [7.0, 2.0, 1.0]


def test_sibling_spans_subtract_their_union():
    start, end = [0, 1, 4], [10, 3, 6]
    assert self_times(start, end, [-1, 0, 0])[0] == 6.0
    # Overlapping siblings are not subtracted twice.
    start, end = [0, 1, 3], [10, 5, 7]
    assert self_times(start, end, [-1, 0, 0])[0] == 4.0


def test_child_is_clipped_to_its_parent():
    assert self_times([0, 3], [5, 8], [-1, 0])[0] == 3.0


def test_self_intervals_are_the_gaps_between_children():
    start, end = [0, 2, 6], [10, 4, 7]
    pieces = self_intervals(start, end, [-1, 0, 0], keep=lambda i: i == 0)
    assert pieces == [(0, 2), (4, 6), (7, 10)]
    assert sum(e - s for s, e in pieces) == \
        self_times(start, end, [-1, 0, 0])[0]


# -------------------------------------------------------------- recorder --

def _flat(rec, until=1e9):
    return [a.tolist() for a in rec.arrays(until)]


def test_recorder_nests_calls_on_one_thread():
    rec = Recorder(clock=TickClock())
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: (inner(), inner()))
    outer()
    name, start, end, parent, thread = _flat(rec)
    assert [rec.names[n] for n in name] == ["outer", "inner", "inner"]
    assert parent == [-1, 0, 0]
    assert rec.calls("inner") == 2
    # outer: [1, 6], inners: [2, 3] and [4, 5].
    assert self_times(start, end, parent) == [3.0, 1.0, 1.0]


def test_cross_thread_child_does_not_cut_parent_self_time():
    # A span on another thread, caused by this thread's span, is that
    # thread's root: both threads' wall is their own.
    rec = Recorder(clock=TickClock())
    inner = rec.wrap("inner", lambda: None)

    def body():
        t = threading.Thread(target=inner)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    rec.wrap("outer", body)()
    name, start, end, parent, thread = _flat(rec)
    by_name = {rec.names[n]: i for i, n in enumerate(name)}
    o, i = by_name["outer"], by_name["inner"]
    assert parent[i] == -1 and thread[i] != thread[o]
    per_thread = [self_times(*(a.tolist() for a in arrays[1:]))
                  for arrays in rec.thread_arrays(until=1e9)]
    assert per_thread == [[3.0], [1.0]]


def test_generator_spans_cover_resumes_not_suspensions():
    rec = Recorder(clock=TickClock())

    def gen(x):
        got = yield x
        got2 = yield got + 1
        return got2 * 2

    g = rec.wrap("op", gen)(1)
    assert rec.calls("op") == 1
    assert next(g) == 1
    assert g.send(5) == 6
    with pytest.raises(StopIteration) as stop:
        g.send(7)
    assert stop.value.value == 14
    # One span for the call, one per resume.
    assert len(rec.buffers[0].start) == 4


def test_generator_wrapper_forwards_throw():
    rec = Recorder()

    def gen():
        try:
            yield 1
        except KeyError:
            yield "caught"

    g = rec.wrap("op", gen)()
    next(g)
    assert g.throw(KeyError()) == "caught"


def test_patch_and_uninstall_restore_members():
    class Thing:
        def method(self):
            return "m"

        @staticmethod
        def static(x):
            return x + 1

    rec = Recorder()
    orig = Thing.__dict__["method"], Thing.__dict__["static"]
    rec.patch(Thing, "method", "thing.method")
    rec.patch(Thing, "static", "thing.static")
    assert Thing().method() == "m" and Thing.static(1) == 2
    assert rec.calls("thing.method") == 1 and rec.calls("thing.static") == 1
    rec.uninstall()
    assert (Thing.__dict__["method"], Thing.__dict__["static"]) == orig


# ---------------------------------------------------------------- layers --

def _small_pipeline_op():
    from repro import api
    from repro.apps import pipeline

    reg = pipeline.build_pipeline_registry(3, [1, 2, 3, 4])
    return api.make_vm(n_clusters=2, slots=4, registry=reg).run("COORD")


def test_wrapped_run_matches_program_counters_and_output():
    plain = _small_pipeline_op()
    rec = Recorder()
    layers.install(rec)
    try:
        traced = _small_pipeline_op()
    finally:
        rec.uninstall()
    assert traced.value == plain.value == [4, 5, 6, 7]
    assert traced.elapsed == plain.elapsed
    assert layers.self_checks(rec) == []
    assert rec.calls("engine.slice") == traced.vm.engine.dispatch_count


@pytest.mark.parametrize("module, attr, span", [
    ("repro.core.vm", "allocate_message", "msg.alloc"),
    ("repro.core.controllers", "release_message", "msg.release"),
])
def test_a_wrapper_missing_at_a_call_site_shows_as_a_mismatch(
        module, attr, span):
    import importlib

    mod = importlib.import_module(module)
    rec = Recorder()
    layers.install(rec)
    # Undo only this call-site binding, as if the wrapper had been
    # bound at the defining module alone.
    traced = getattr(mod, attr)
    setattr(mod, attr, traced.__wrapped__)
    try:
        _small_pipeline_op()
    finally:
        setattr(mod, attr, traced)
        rec.uninstall()
    problems = layers.self_checks(rec)
    assert any(p.startswith(f"{span}:") for p in problems)


def test_benchmark_json_lists_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [tuple(x) for x in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
