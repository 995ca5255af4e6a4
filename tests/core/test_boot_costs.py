"""Per-op boot and sizing shortcuts return exactly what the general
code returns: memoised tasktype code sizes (the section-13 storage
numbers depend on them) and the exact-type ``packed_size`` path."""

import enum
import functools
import gc
import inspect

import numpy as np
import pytest

from repro.apps import fortran_programs, jacobi, pipeline
from repro.core import task as task_mod
from repro.core.sizes import (
    DEFAULT_TASKTYPE_CODE_BYTES,
    _packed_size_general,
    packed_size,
)
from repro.core.task import TaskRegistry, TaskType
from repro.core.taskid import TaskId
from repro.core.windows import WindowTxn, WindowTxnReply, make_window
from tests.properties.test_dispatch_equivalence import APP_CASES


def uncached_code_bytes(fn):
    try:
        return max(DEFAULT_TASKTYPE_CODE_BYTES // 2,
                   len(inspect.getsource(fn)))
    except (OSError, TypeError):
        return DEFAULT_TASKTYPE_CODE_BYTES


def _registry(name):
    if name.startswith("fortran_"):
        return fortran_programs.load(name[len("fortran_"):]).registry
    return APP_CASES[name]()[0]


PROGRAMS = sorted(APP_CASES) + [f"fortran_{n}"
                                for n in fortran_programs.names()]


class TestCodeBytes:
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_memoised_value_equals_getsource(self, name):
        # Build twice: the second build is served from the memo.
        for registry in (_registry(name), _registry(name)):
            for tt_name in registry.names():
                tt = registry.get(tt_name)
                want = uncached_code_bytes(tt.fn)
                assert tt.code_bytes == want, (name, tt_name)
                assert TaskType.estimate_code_bytes(tt.fn) == want

    def test_wrappers_sharing_code_are_told_apart(self):
        def deco(fn):
            @functools.wraps(fn)
            def wrapper(ctx):
                return fn(ctx)
            return wrapper

        # Sources of 1669 and 1962 bytes: above the 1 KB floor, so the
        # two sizes differ.
        a = deco(jacobi.build_windows_registry)
        b = deco(pipeline.build_pipeline_registry)
        assert a.__code__ is b.__code__
        assert uncached_code_bytes(a) != uncached_code_bytes(b)
        for fn in (a, b, a):
            assert (TaskType.estimate_code_bytes(fn)
                    == uncached_code_bytes(fn))

    def test_sourceless_callables_keep_the_fallback(self):
        part = functools.partial(print, "x")
        assert TaskType.estimate_code_bytes(part) \
            == DEFAULT_TASKTYPE_CODE_BYTES

    def test_entries_go_with_their_code(self):
        # Every preprocess compiles fresh code objects; the memo must
        # not keep them alive.
        gc.collect()
        before = len(task_mod._CODE_BYTES)
        for _ in range(5):
            fortran_programs.load("ring_token")
        gc.collect()
        assert len(task_mod._CODE_BYTES) == before

    def test_registry_build_uses_the_memo(self):
        reg = TaskRegistry()

        @reg.tasktype("T")
        def t(ctx):
            pass

        assert reg.get("T").code_bytes == uncached_code_bytes(t)
        assert id(t.__code__) in task_mod._CODE_BYTES


class Color(enum.IntEnum):
    RED = 1


SAMPLES = [
    0, -7, 2**40, 2.5, float("inf"),
    True, False, Color.RED,
    np.int64(3), np.int32(-1), np.float32(1.5), np.float64(2.0),
    None, "abc", b"abcde", 3 + 4j,
    (1, 2.0), (1, (2.0, (True, None)), [Color.RED, "xy"]),
    {"k": 1, 2: (3.0, None)},
    TaskId(1, 2, 3), np.arange(6, dtype=np.int16),
]


class TestPackedSize:
    @pytest.mark.parametrize("value", SAMPLES, ids=repr)
    def test_fast_path_agrees_with_general_path(self, value):
        assert packed_size(value) == _packed_size_general(value)

    def test_window_values(self):
        w = make_window(TaskId(1, 2, 3), "A", np.zeros((4, 4)))
        for value in (w,
                      WindowTxn("read", w),
                      WindowTxn("write", w, data=np.ones(4)),
                      WindowTxnReply("data", data=np.ones(3)),
                      (w, WindowTxn("read", w, cached_generation=2))):
            assert packed_size(value) == _packed_size_general(value)

    def test_subclasses_of_int_keep_their_sizes(self):
        assert packed_size(True) == 4          # a logical, not a number
        assert packed_size(Color.RED) == 8
        assert packed_size(np.float32(1.0)) == 8
