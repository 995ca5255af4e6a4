"""Wall-clock throughput of the scheduler/messaging fast path.

The repo's perf trajectory point for the engine (``BENCH_*.json``):
for each workload and size, run the identical program under every
relevant dispatcher leg of the coop engine --

* ``scan``    -- the seed's O(n) linear scan, kept as the reference
  for the heap;
* ``indexed`` -- the two-level stale-free heap picker (O(log n) per
  dispatch) --

measure dispatches/second and end-to-end wall time, assert the virtual
times and dispatch counts are **bit-identical** across every leg (the
determinism contract), and write ``BENCH_engine_throughput.json`` at
the repo root.

Sizes shrink when ``ENGINE_BENCH_SMOKE`` is set (the CI smoke job);
smoke gate keys carry an ``@smoke`` suffix so the committed full-size
record can also carry the smoke-size virtual expectations -- that way
the CI smoke run still gets an exact virtual-time gate against the
committed baseline even though its wall times are not comparable.

Gates on a full-size run:

* indexed vs scan on ``sched_stress/large``: >= 2x wall speedup
  (median of 5 walls per leg);
* indexed on ``sched_stress/large``: >= 10x dispatches/s over the
  committed rate of the retired thread-per-process core (16,414/s, the
  number the coroutine-core work set out to beat);
* ``inqueue_backlog/large``: indexed must not be slower than scan
  (ratio <= 1.0, best-of-3 walls) on a shape that fans 16 flooders
  into one receiver.

``sched_stress_xl`` (1024 processes on 64 PEs) and
``task_runtime/stress`` (a whole application on coroutine task
bodies) are recorded ungated.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import pytest

from _bench_schema import make_record, write_bench

from repro.apps.jacobi import run_jacobi_windows
from repro.apps.matmul import run_matmul_tasks
from repro.apps.pipeline import run_pipeline
from repro.config.configuration import ClusterSpec, Configuration
from repro.core.accept import ALL_RECEIVED
from repro.core.task import TaskRegistry
from repro.core.taskid import ANY, PARENT
from repro.core.vm import PiscesVM
from repro.flex.presets import small_flex
from repro.mmos.process import co_block, co_charge, co_preempt
from repro.mmos.scheduler import create_engine

SMOKE = bool(os.environ.get("ENGINE_BENCH_SMOKE"))
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine_throughput.json"

#: Minimum indexed-vs-scan speedup demanded on the largest scheduler
#: stress configuration (full sizes; the smoke run only sanity-checks).
MIN_SPEEDUP = 2.0 if not SMOKE else 1.2

#: The committed indexed rate of the retired thread-per-process core on
#: sched_stress/large (BENCH_engine_throughput.json, before the coop
#: core landed).  The engine's acceptance bar is 10x this number.
BASELINE_THREADED_DPS = 16_414.2
MIN_COOP_VS_BASELINE = 10.0


# ------------------------------------------------------------- workloads --

def sched_stress(n_procs: int, switches: int, dispatcher: str,
                 n_pes: int = 8, trials: int = 1):
    """Pure engine churn: ``n_procs`` coroutine processes on ``n_pes``
    PEs, each cycling charge/preempt with a periodic deadline nap (the
    heap re-key path).  Returns the median wall of ``trials`` runs."""
    walls, histories = [], set()
    for _ in range(trials):
        eng = create_engine(small_flex(n_pes), dispatcher=dispatcher)
        pes = sorted(eng.machine.pes)

        def body(eng=eng):
            for i in range(switches):
                yield co_charge(3)
                yield co_preempt(2)
                if i % 5 == 4:
                    yield co_block("nap", deadline=eng.now() + 7)

        for k in range(n_procs):
            eng.spawn(f"w{k}", pes[k % len(pes)], body)
        t0 = time.perf_counter()
        eng.run()
        walls.append(time.perf_counter() - t0)
        histories.add((eng.dispatch_count, eng.machine.elapsed()))
        eng.shutdown()
    assert len(histories) == 1, f"sched_stress trials diverged: {histories}"
    dispatches, elapsed = histories.pop()
    return statistics.median(walls), dispatches, elapsed


def build_backlog_registry(flooders: int, rounds: int,
                           backlog: int) -> TaskRegistry:
    """The section-13 hazard at fan-in: ``flooders`` senders pile LOG
    messages up unaccepted while the receiver repeatedly ACCEPTs a
    different type (GO)."""
    reg = TaskRegistry()

    @reg.tasktype("FLOOD")
    def flood(ctx):
        for _ in range(rounds):
            for i in range(backlog):
                ctx.send(PARENT, "LOG", i)
            ctx.send(PARENT, "GO")

    @reg.tasktype("BMAIN")
    def bmain(ctx):
        for _ in range(flooders):
            ctx.initiate("FLOOD", on=ANY)
        for _ in range(rounds * flooders):
            ctx.accept("GO")         # must skip the growing LOG backlog
        drained = ctx.accept(("LOG", ALL_RECEIVED))
        return drained.count

    return reg


def inqueue_backlog(flooders: int, rounds: int, backlog: int,
                    dispatcher: str, trials: int = 1):
    """Best-of-``trials`` wall time for the fan-in backlog program."""
    os.environ["PISCES_DISPATCHER"] = dispatcher
    try:
        best = None
        for _ in range(trials):
            reg = build_backlog_registry(flooders, rounds, backlog)
            config = Configuration(
                clusters=(ClusterSpec(1, 3, 8), ClusterSpec(2, 4, 8),
                          ClusterSpec(3, 5, 8)),
                name="inqueue-backlog")
            vm = PiscesVM(config, registry=reg)
            t0 = time.perf_counter()
            r = vm.run("BMAIN")
            wall = time.perf_counter() - t0
            assert r.value == flooders * rounds * backlog, \
                "backlog drain lost messages"
            dispatches, elapsed = vm.engine.dispatch_count, r.elapsed
            vm.shutdown()
            if best is None or wall < best[0]:
                best = (wall, dispatches, elapsed)
        return best
    finally:
        os.environ.pop("PISCES_DISPATCHER", None)


def build_task_runtime_registry(n_workers: int, rounds: int) -> TaskRegistry:
    """Whole-application dispatch stress: ``n_workers`` coroutine tasks
    each cycle ``rounds`` unit computes (one engine dispatch per round,
    through ``TaskContext`` and the KernelOp seam), then report DONE to
    a master blocked in a counted ACCEPT.  The compute loop dominates,
    so dispatches/second here measures the *task runtime's* per-slice
    cost -- the app-level counterpart of ``sched_stress``."""
    reg = TaskRegistry()

    @reg.tasktype("TRWORKER")
    def trworker(ctx, k):
        for _ in range(rounds):
            yield from ctx.compute(1)
        ctx.send(PARENT, "DONE", k)

    @reg.tasktype("TRMASTER")
    def trmaster(ctx):
        for k in range(n_workers):
            ctx.initiate("TRWORKER", k, on=ANY)
        res = yield from ctx.accept("DONE", count=n_workers)
        return res.count

    return reg


def task_runtime(n_workers: int, rounds: int, dispatcher: str,
                 trials: int = 1):
    """Best-of-``trials`` wall time for the task-runtime stress app."""
    os.environ["PISCES_DISPATCHER"] = dispatcher
    try:
        best = None
        for _ in range(trials):
            reg = build_task_runtime_registry(n_workers, rounds)
            config = Configuration(
                clusters=(ClusterSpec(1, 3, 16), ClusterSpec(2, 4, 16)),
                name="task-runtime")
            vm = PiscesVM(config, registry=reg)
            t0 = time.perf_counter()
            r = vm.run("TRMASTER")
            wall = time.perf_counter() - t0
            assert r.value == n_workers, "task_runtime lost workers"
            dispatches, elapsed = vm.engine.dispatch_count, r.elapsed
            vm.shutdown()
            if best is None or wall < best[0]:
                best = (wall, dispatches, elapsed)
        return best
    finally:
        os.environ.pop("PISCES_DISPATCHER", None)


def app_workload(fn, dispatcher: str):
    """Run one app under a dispatcher leg; (wall, dispatches, vt)."""
    os.environ["PISCES_DISPATCHER"] = dispatcher
    try:
        t0 = time.perf_counter()
        r = fn()
        wall = time.perf_counter() - t0
        dispatches = r.vm.engine.dispatch_count
        elapsed = int(r.elapsed)
        r.vm.shutdown()
        return wall, dispatches, elapsed
    finally:
        os.environ.pop("PISCES_DISPATCHER", None)


def _matrix(smoke: bool):
    """Entries: (workload, size, runner(dispatcher), params, legs,
    trials).  ``legs`` names the dispatchers to run."""
    if smoke:
        stress_small, stress_large = (10, 8), (40, 12)
        stress_xl = (96, 4, 10)        # n_procs, switches, n_pes
        jac_small, jac_large = (8, 2, 3), (12, 2, 6)
        mm_small, mm_large = (8, 3), (12, 6)
        pipe_small, pipe_large = (3, 8), (5, 20)
        back_small, back_large = (3, 3, 10), (4, 4, 25)
        tr_small, tr_stress = (4, 20), (6, 40)
        trials = stress_trials = 1
    else:
        stress_small, stress_large = (24, 15), (120, 30)
        stress_xl = (1024, 10, 66)     # 1024 procs across 64 MMOS PEs
        jac_small, jac_large = (12, 2, 4), (24, 4, 10)
        mm_small, mm_large = (10, 4), (24, 10)
        pipe_small, pipe_large = (3, 12), (8, 48)
        back_small, back_large = (6, 4, 12), (16, 8, 30)
        tr_small, tr_stress = (12, 200), (24, 1000)
        trials = 3
        # The MIN_COOP_VS_BASELINE gate rests on this ~20 ms wall: a
        # median of five keeps one noisy run from deciding it.
        stress_trials = 5
    ab = ("scan", "indexed")
    return [
        ("sched_stress", "small",
         lambda d: sched_stress(*stress_small, d),
         {"n_procs": stress_small[0]}, ab, 1),
        ("sched_stress", "large",
         lambda d, t=stress_trials: sched_stress(*stress_large, d, trials=t),
         {"n_procs": stress_large[0]}, ab, stress_trials),
        ("sched_stress_xl", "xl",
         lambda d: sched_stress(stress_xl[0], stress_xl[1], d,
                                n_pes=stress_xl[2]),
         {"n_procs": stress_xl[0], "n_pes": stress_xl[2] - 2},
         ("indexed",), 1),
        ("jacobi_windows", "small",
         lambda d: app_workload(lambda: run_jacobi_windows(
             n=jac_small[0], sweeps=jac_small[1], n_workers=jac_small[2]),
             d),
         {"n": jac_small[0], "workers": jac_small[2]}, ab, 1),
        ("jacobi_windows", "large",
         lambda d: app_workload(lambda: run_jacobi_windows(
             n=jac_large[0], sweeps=jac_large[1], n_workers=jac_large[2]),
             d),
         {"n": jac_large[0], "workers": jac_large[2]}, ab, 1),
        ("matmul_tasks", "small",
         lambda d: app_workload(lambda: run_matmul_tasks(
             n=mm_small[0], n_workers=mm_small[1]), d),
         {"n": mm_small[0], "workers": mm_small[1]}, ab, 1),
        ("matmul_tasks", "large",
         lambda d: app_workload(lambda: run_matmul_tasks(
             n=mm_large[0], n_workers=mm_large[1]), d),
         {"n": mm_large[0], "workers": mm_large[1]}, ab, 1),
        ("pipeline", "small",
         lambda d: app_workload(lambda: run_pipeline(
             n_stages=pipe_small[0], items=list(range(pipe_small[1]))), d),
         {"stages": pipe_small[0], "items": pipe_small[1]}, ab, 1),
        ("pipeline", "large",
         lambda d: app_workload(lambda: run_pipeline(
             n_stages=pipe_large[0], items=list(range(pipe_large[1])),
             slots=8), d),
         {"stages": pipe_large[0], "items": pipe_large[1]}, ab, 1),
        ("task_runtime", "small",
         lambda d: task_runtime(*tr_small, d),
         {"workers": tr_small[0], "rounds": tr_small[1]},
         ("indexed",), 1),
        ("task_runtime", "stress",
         lambda d, t=trials: task_runtime(*tr_stress, d, trials=t),
         {"workers": tr_stress[0], "rounds": tr_stress[1]},
         ("indexed",), trials),
        ("inqueue_backlog", "small",
         lambda d, t=1: inqueue_backlog(*back_small, d, trials=t),
         {"flooders": back_small[0], "rounds": back_small[1],
          "backlog": back_small[2]}, ab, 1),
        ("inqueue_backlog", "large",
         lambda d, t=trials: inqueue_backlog(*back_large, d, trials=t),
         {"flooders": back_large[0], "rounds": back_large[1],
          "backlog": back_large[2]}, ab, trials),
    ]


def _run_matrix(smoke: bool, suffix: str, report, legs_override=None):
    """Run one size matrix; returns (rows, virtual, ratios, walls)."""
    rows, virtual, ratios, walls = [], {}, {}, {}
    for workload, size, runner, params, legs, _trials in _matrix(smoke):
        if legs_override is not None:
            legs = tuple(l for l in legs if l in legs_override)
        key = f"{workload}/{size}{suffix}"
        per, vts, disp = {}, {}, {}
        for leg in legs:
            wall, n_disp, vt = runner(leg)
            per[leg] = {
                "wall_s": round(wall, 4),
                "dispatches_per_s":
                    round(n_disp / wall, 1) if wall > 0 else None,
            }
            vts[leg], disp[leg] = vt, n_disp
        # The determinism contract: every dispatcher leg replays the
        # exact same virtual history.
        for leg in legs:
            assert vts[leg] == vts[legs[0]], (
                f"{key}: virtual time diverged on {leg} "
                f"({vts[leg]} vs {legs[0]}={vts[legs[0]]})")
            assert disp[leg] == disp[legs[0]], (
                f"{key}: dispatch count diverged on {leg}")
        row = {
            "workload": workload, "size": size + suffix, "params": params,
            "dispatches": disp[legs[0]], "virtual_elapsed": vts[legs[0]],
            **{leg: per[leg] for leg in legs},
        }
        anchor = "indexed" if "indexed" in per else legs[0]
        if "scan" in per and "indexed" in per:
            row["speedup"] = round(
                per["scan"]["wall_s"] / per["indexed"]["wall_s"], 2) \
                if per["indexed"]["wall_s"] > 0 else None
            if per["scan"]["wall_s"] > 0:
                ratios[key] = per["indexed"]["wall_s"] / per["scan"]["wall_s"]
        virtual[key] = vts[legs[0]]
        walls[key] = per[anchor]["wall_s"]
        rows.append(row)
    return rows, virtual, ratios, walls


# ------------------------------------------------------------ the bench --

def test_engine_throughput(report):
    suffix = "@smoke" if SMOKE else ""
    rows, virtual, ratios, walls = _run_matrix(SMOKE, suffix, report)
    if not SMOKE:
        # Stamp the smoke-size virtual expectations into the committed
        # record too (indexed leg only -- virtual time is leg-invariant,
        # asserted above), so the CI smoke run keeps an exact
        # determinism gate against this baseline.
        _, smoke_virtual, _, _ = _run_matrix(
            True, "@smoke", report, legs_override=("indexed",))
        virtual.update(smoke_virtual)

    write_bench(make_record(
        "engine_throughput", smoke=SMOKE,
        virtual=virtual, wall_ratios=ratios, wall_seconds=walls,
        min_speedup_required=MIN_SPEEDUP,
        baseline_threaded_dps=BASELINE_THREADED_DPS,
        min_coop_vs_baseline=MIN_COOP_VS_BASELINE,
        workloads=rows), BENCH_PATH)

    header = (f"{'workload':<16} {'size':<12} {'disp':>6} {'vtime':>8} "
              f"{'scan /s':>10} {'indexed /s':>11} {'idx x':>6}")
    report("engine throughput: dispatcher legs per workload")
    report(header)
    report("-" * len(header))
    for r in rows:
        def rate(leg):
            d = r.get(leg)
            return f"{d['dispatches_per_s']:>{10 + (leg == 'indexed')},.0f}" \
                if d else " " * (10 + (leg == "indexed"))
        report(f"{r['workload']:<16} {r['size']:<12} {r['dispatches']:>6} "
               f"{r['virtual_elapsed']:>8} {rate('scan')} {rate('indexed')} "
               f"{r.get('speedup') or '':>6}")
    report(f"\nwritten: {BENCH_PATH.name}")

    def row_for(workload, size):
        return next(r for r in rows if r["workload"] == workload
                    and r["size"] == size + suffix)

    largest = row_for("sched_stress", "large")
    assert largest["speedup"] >= MIN_SPEEDUP, (
        f"sched_stress/large indexed-vs-scan speedup {largest['speedup']}x "
        f"is below the required {MIN_SPEEDUP}x (scan {largest['scan']}, "
        f"indexed {largest['indexed']})")

    if not SMOKE:
        # >= 10x dispatch throughput over the retired core's committed
        # indexed rate on sched_stress/large.
        dps = largest["indexed"]["dispatches_per_s"]
        assert dps >= MIN_COOP_VS_BASELINE * BASELINE_THREADED_DPS, (
            f"indexed leg {dps:,.0f} dispatches/s is below "
            f"{MIN_COOP_VS_BASELINE}x the committed threaded baseline "
            f"({BASELINE_THREADED_DPS:,.0f}/s)")
        # The reworked fan-in shape must not leave indexed slower than
        # scan (the old 36-dispatch shape gated timer noise instead).
        back = row_for("inqueue_backlog", "large")
        ratio = back["indexed"]["wall_s"] / back["scan"]["wall_s"]
        assert ratio <= 1.0, (
            f"inqueue_backlog/large: indexed dispatcher slower than scan "
            f"(ratio {ratio:.3f}; scan {back['scan']}, "
            f"indexed {back['indexed']})")
