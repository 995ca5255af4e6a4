"""Checkpointing overhead: zero virtual time, bounded wall time.

The periodic checkpointer (an engine observer on ``engine.observers``,
see :mod:`repro.checkpoint.policy`) runs between dispatches and
serializes the VM through the same digest pipeline restore-validation
uses.  It must be a pure observer; this benchmark proves the contract
per workload:

* **virtual identity** -- elapsed ticks, dispatch count *and the full
  trace-event stream* are bit-identical with periodic checkpointing on
  and off, on every workload, unconditionally;
* **wall clock** -- checkpointing-on wall time is bounded at x1.15 on
  the ``large-grain`` workload, whose members do real numpy work per
  scheduling event (the grain PISCES targets; the access-dense micro
  workloads time bundle serialization against zero-wall virtual
  compute and are reported, not bounded).

Sizes are FIXED (no smoke shrink): the committed
``BENCH_checkpoint_overhead.json`` gate carries the virtual-tick
fingerprints, and CI regenerates and compares them with
``benchmarks/compare.py``.  ``CKPT_BENCH_SMOKE=1`` only drops the
timing repetitions and skips the wall-clock assertion.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from _bench_schema import make_record, write_bench
from test_races_overhead import build_grain_registry

from repro.api import make_vm
from repro.apps.jacobi import build_windows_registry
from repro.apps.matmul import build_tasks_registry
from repro.checkpoint import find_latest_checkpoint, load_bundle
from repro.config.configuration import simple_configuration

SMOKE = bool(os.environ.get("CKPT_BENCH_SMOKE"))
OUT_PATH = (Path(__file__).resolve().parent.parent
            / "BENCH_checkpoint_overhead.json")

#: Allowed checkpointing-on wall-clock overhead at large grain.
MAX_WALL_OVERHEAD = 1.15

REPS = 1 if SMOKE else 3

#: Fixed sizes -- the gate fingerprints depend on them.
N, SWEEPS = 16, 2
GRAIN_N, GRAIN_SWEEPS = 512, 2

TRACE = ("TASK_INIT", "MSG_SEND", "MSG_ACCEPT", "TASK_TERM")

#: (name, tasktype, args, registry builder, shape kwargs,
#:  checkpoint interval in virtual ticks, wall-bounded?)
WORKLOADS = [
    ("large-grain", "GRAIN", (),
     lambda: build_grain_registry(GRAIN_N, GRAIN_SWEEPS),
     dict(n_clusters=1, force_pes_per_cluster=3), 80_000, True),
    ("jacobi-windows", "JMASTER", (),
     lambda: build_windows_registry(N, SWEEPS, 3), {}, 500, False),
    ("matmul-tasks", "MMASTER", (),
     lambda: build_tasks_registry(N, 3), {}, 500, False),
]


def _run(ttype, args, build, shape, every, ckpt_dir):
    cfg = replace(
        simple_configuration(name="ckpt-bench", **shape),
        trace_events=TRACE,
        checkpoint_every=(every if ckpt_dir else 0),
        checkpoint_dir=str(ckpt_dir) if ckpt_dir else "",
        checkpoint_keep=2)
    vm = make_vm(config=cfg, registry=build())
    t0 = time.perf_counter()
    r = vm.run(ttype, *args)
    wall = time.perf_counter() - t0
    trace = [e.line() for e in vm.tracer.events]
    return wall, r, trace, vm.engine.dispatch_count


def _timed(fn):
    best = out = None
    for _ in range(REPS):
        wall, *rest = fn()
        out = rest
        best = wall if best is None else min(best, wall)
    return best, out


def test_checkpointing_charges_no_virtual_time(report):
    rows = []
    virtual = {}
    ratios = {}
    walls = {}
    report("checkpoint overhead: virtual time and trace stream identical "
           "on every workload;")
    report(f"checkpoint-on wall < x{MAX_WALL_OVERHEAD} at large grain "
           f"(best of {REPS})")
    header = (f"{'workload':<16} {'vtime':>8} {'disp':>6} {'ckpts':>6} "
              f"{'bytes':>8} {'off_s':>8} {'on_s':>8} {'ratio':>6} "
              f"{'wall bound':>11}")
    report(header)
    report("-" * len(header))

    for name, ttype, args, build, shape, every, bounded in WORKLOADS:
        off_wall, (off, off_trace, off_disp) = _timed(
            lambda: _run(ttype, args, build, shape, every, None))

        with tempfile.TemporaryDirectory() as d:
            on_wall, (on, on_trace, on_disp) = _timed(
                lambda: _run(ttype, args, build, shape, every, d))
            latest = find_latest_checkpoint(d)
            assert latest is not None, f"{name}: no bundle written"
            manifest, state, _ = load_bundle(latest)
            assert state["now"] == manifest["now"]

        assert on.elapsed == off.elapsed, (
            f"{name}: checkpointing perturbed virtual time "
            f"{off.elapsed} -> {on.elapsed}")
        assert on_disp == off_disp, (
            f"{name}: checkpointing perturbed the dispatch count")
        assert on_trace == off_trace, (
            f"{name}: checkpointing perturbed the trace stream")
        assert on.stats.checkpoints_written > 0

        ratio = on_wall / off_wall
        virtual[name] = int(off.elapsed)
        walls[name] = off_wall
        if bounded:
            ratios[name] = ratio
        rows.append({
            "workload": name, "virtual_elapsed": int(off.elapsed),
            "dispatches": off_disp, "checkpoint_every": every,
            "checkpoints_written": on.stats.checkpoints_written,
            "checkpoint_bytes": on.stats.checkpoint_bytes,
            "wall_s": {"off": round(off_wall, 4), "on": round(on_wall, 4)},
            "ratio": round(ratio, 3), "wall_bounded": bounded,
        })
        bound = f"x{MAX_WALL_OVERHEAD}" if bounded else "reported"
        report(f"{name:<16} {off.elapsed:>8} {off_disp:>6} "
               f"{on.stats.checkpoints_written:>6} "
               f"{on.stats.checkpoint_bytes:>8} {off_wall:>8.4f} "
               f"{on_wall:>8.4f} {ratio:>6.3f} {bound:>11}")
        if bounded and not SMOKE:
            assert ratio <= MAX_WALL_OVERHEAD, (
                f"{name}: checkpointing wall overhead x{ratio:.3f} "
                f"(> x{MAX_WALL_OVERHEAD})")

    write_bench(make_record(
        "checkpoint_overhead", smoke=SMOKE,
        virtual=virtual, wall_ratios=ratios, wall_seconds=walls,
        max_wall_overhead=MAX_WALL_OVERHEAD,
        wall_checked=not SMOKE, reps=REPS, workloads=rows), OUT_PATH)
    report(f"\nwritten: {OUT_PATH.name}")
