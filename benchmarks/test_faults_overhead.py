"""Zero-fault overhead: a VM with no fault plan must be free.

The fault layer is threaded through the scheduler (`_fault_pump`), the
message path (checksum stamping, per-delivery decisions) and the task
controller; every hook is guarded so that a plan-less run takes none of
them.  This benchmark proves it two ways:

* **history identity** -- each workload of the engine-throughput
  benchmark, re-run today with no plan on the indexed leg, replays the
  *bit-identical* virtual time and dispatch count recorded in the
  committed ``BENCH_engine_throughput.json`` baseline;
* **wall-clock** -- the largest scheduler-stress configuration must not
  regress more than 5% against the baseline's wall time (best of 3).

``ENGINE_BENCH_SMOKE`` shrinks sizes; the baseline was recorded at full
size, so the smoke run checks self-identity (two plan-less runs agree)
instead of baseline identity.  As in the engine-throughput record,
smoke gate keys carry an ``@smoke`` suffix and a full-size run stamps
the smoke-size virtual times into its record too, so ``compare.py``
gates a smoke run exactly against the committed full-size record.
Writes ``BENCH_faults_overhead.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import test_engine_throughput as eng_bench
from _bench_schema import make_record, write_bench

SMOKE = bool(os.environ.get("ENGINE_BENCH_SMOKE"))
ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = ROOT / "BENCH_engine_throughput.json"
OUT_PATH = ROOT / "BENCH_faults_overhead.json"

#: Allowed wall-clock regression for the plan-less fast path.
MAX_WALL_REGRESSION = 1.05


def test_no_plan_is_bit_identical_to_baseline(report):
    baseline = (json.loads(BASELINE_PATH.read_text())
                if BASELINE_PATH.exists() else None)
    compare_baseline = (baseline is not None and not SMOKE
                        and not baseline.get("smoke"))
    by_key = ({(r["workload"], r["size"]): r
               for r in baseline["workloads"]} if compare_baseline else {})

    rows = []
    report("zero-fault overhead: plan-less VM vs pre-faults baseline")
    header = (f"{'workload':<16} {'size':<6} {'vtime':>8} {'disp':>6} "
              f"{'baseline':>9} {'verdict':>10}")
    report(header)
    report("-" * len(header))
    matrix = eng_bench._matrix(SMOKE)
    for workload, size, runner, params, _legs, _trials in matrix:
        wall, dispatches, vt = runner("indexed")
        if compare_baseline:
            base = by_key[(workload, size)]
            assert vt == base["virtual_elapsed"], (
                f"{workload}/{size}: virtual time {vt} != baseline "
                f"{base['virtual_elapsed']} -- the plan-less path "
                f"perturbed the engine history")
            assert dispatches == base["dispatches"], (
                f"{workload}/{size}: dispatch count diverged from baseline")
            verdict, base_vt = "identical", base["virtual_elapsed"]
        else:
            # Smoke / no baseline: two plan-less runs must agree.
            wall2, dispatches2, vt2 = runner("indexed")
            assert (vt, dispatches) == (vt2, dispatches2)
            verdict, base_vt = "self-id", vt2
        rows.append({"workload": workload, "size": size, "params": params,
                     "virtual_elapsed": vt, "dispatches": dispatches,
                     "wall_s": round(wall, 4), "verdict": verdict})
        report(f"{workload:<16} {size:<6} {vt:>8} {dispatches:>6} "
               f"{base_vt:>9} {verdict:>10}")

    # Wall-clock tripwire on the workload large enough to time reliably.
    wall_row = None
    if compare_baseline:
        base = by_key[("sched_stress", "large")]
        stress = next(m[2] for m in matrix
                      if m[:2] == ("sched_stress", "large"))
        best = min(stress("indexed")[0] for _ in range(3))
        ratio = best / base["indexed"]["wall_s"]
        wall_row = {"workload": "sched_stress", "size": "large",
                    "wall_s_best_of_3": round(best, 4),
                    "baseline_wall_s": base["indexed"]["wall_s"],
                    "ratio": round(ratio, 3)}
        report(f"\nsched_stress/large wall: {best:.4f}s vs baseline "
               f"{base['indexed']['wall_s']:.4f}s (x{ratio:.3f}, "
               f"limit x{MAX_WALL_REGRESSION})")
        assert ratio <= MAX_WALL_REGRESSION, (
            f"plan-less wall clock regressed x{ratio:.3f} "
            f"(> x{MAX_WALL_REGRESSION}) on sched_stress/large")

    suffix = "@smoke" if SMOKE else ""
    virtual = {f"{r['workload']}/{r['size']}{suffix}": r["virtual_elapsed"]
               for r in rows}
    if not SMOKE:
        virtual.update({f"{w}/{size}@smoke": runner("indexed")[2]
                        for w, size, runner, *_ in eng_bench._matrix(True)})
    write_bench(make_record(
        "faults_overhead", smoke=SMOKE,
        virtual=virtual,
        wall_ratios=({"sched_stress/large": wall_row["ratio"]}
                     if wall_row else {}),
        wall_seconds={f"{r['workload']}/{r['size']}{suffix}": r["wall_s"]
                      for r in rows},
        compared_to_baseline=compare_baseline,
        max_wall_regression=MAX_WALL_REGRESSION,
        workloads=rows, wall_check=wall_row), OUT_PATH)
    report(f"\nwritten: {OUT_PATH.name}")
