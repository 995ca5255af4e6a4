"""Run one benchmark workload: one process, one result line.

    python3 perfbench/run.py --workload lib_pipeline --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the traced run: half the time untraced, then the
layers are wrapped (see ``layers.py``) for the other half; it prints
the per-layer metrics and checks span counts against the program's own
counters.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit and record the provenance.
Spans and the full result are written under ``.perfbench/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

def pin_to_one_cpu():
    """Pin this process, and every thread and process it starts, to one
    CPU; returns the CPU (None where affinity is not supported).

    The engine runs one thread at a time, handing the machine from
    thread to thread.  On a virtual machine each handoff to a thread
    parked on another vCPU waits for the hypervisor to run that vCPU,
    and under host contention that wait swung op times threefold
    between runs.  On one CPU the handoffs stay local and the
    benchmark measures the program rather than the host's scheduling.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


#: Setup repetitions per run, and import timings per run (this
#: process's own and fresh interpreters' on the same CPU); ``setup_s``
#: is the median import time plus the median setup.  One import timing
#: swings with the host as much as the whole setup does.
SETUP_REPS = 5
IMPORT_REPS = 5
#: p90 needs at least ten ops beyond it.
MIN_OPS = 100
#: Ops each half of a traced run makes at least.
MIN_TRACE_OPS = 10

END_TO_END = [("setup_s", "s"), ("op_ms.p50", "ms"), ("op_ms.p90", "ms"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB")]


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def import_times(first: float):
    """``first`` (this process's import time) and the import times of
    ``IMPORT_REPS - 1`` fresh interpreters loading the same modules."""
    code = ("import time; t = time.perf_counter(); import sys; "
            f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; "
            "import workloads; print(time.perf_counter() - t)")
    times = [first]
    for _ in range(IMPORT_REPS - 1):
        p = subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True, timeout=120)
        times.append(float(p.stdout))
    return times


def _ms_quantiles(walls):
    """Median and p90 in ms (zeros when too few ops succeeded; the run
    is then reported incorrect through its failed ops)."""
    if len(walls) < 2:
        return 0.0, 0.0
    ms = [1000.0 * w for w in walls]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[8]


def untraced(wl, seconds: float):
    phase = wl.run_phase(seconds, MIN_OPS)
    p50, p90 = _ms_quantiles([o.wall_s for o in phase.good])
    metrics = {
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "ops_per_s": len(phase.good) / phase.wall_s,
    }
    return phase.ops, metrics, []


def traced(wl, seconds: float, spans_path: Path):
    import layers
    from spans import Recorder

    plain = wl.run_phase(seconds / 2, MIN_TRACE_OPS)
    rec = Recorder()
    layers.install(rec)
    try:
        phase = wl.run_phase(seconds / 2, MIN_TRACE_OPS)
    finally:
        rec.uninstall()
    problems = layers.self_checks(rec)
    metrics = layers.layer_metrics(
        rec, windows=phase.windows, n_ops=len(phase.ops),
        op_wall_s=sum(o.wall_s for o in phase.ops))
    metrics.update(wl.record_metrics(plain))
    p50_plain, _ = _ms_quantiles([o.wall_s for o in plain.good])
    p50_traced, _ = _ms_quantiles([o.wall_s for o in phase.good])
    metrics["tracing.overhead_frac"] = (p50_traced / p50_plain - 1.0
                                        if p50_plain else 0.0)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    rec.save(spans_path, until=phase.windows[-1][1])
    return plain.ops + phase.ops, metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    set_vars = sorted(k for k in os.environ if k.startswith("PISCES_"))
    if set_vars:
        print(f"refusing to run: {', '.join(set_vars)} set; every execution "
              f"axis must stay at its default", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    t_imported = time.perf_counter()
    imports = import_times(t_imported - T_START)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        t = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        construct_s = time.perf_counter() - t
        reps = []
        for i in range(SETUP_REPS):
            if i:
                wl.teardown()
            t = time.perf_counter()
            wl.setup()
            reps.append(time.perf_counter() - t)
        setup_s = statistics.median(imports) + statistics.median(reps)
        try:
            if args.trace:
                ops, metrics, problems = traced(
                    wl, args.seconds, OUT / "spans" / f"{args.workload}.npz")
            else:
                ops, metrics, problems = untraced(wl, args.seconds)
        finally:
            wl.teardown()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [o for o in ops if not o.ok]
    for o in failed[:5]:
        print(f"failed op: {o.detail}", file=sys.stderr)
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)

    if args.trace:
        import layers
        units = [(n, u) for n, u, _ in layers.PER_LAYER]
    else:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    result = {
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {n: {"value": float(metrics[n]), "unit": u}
                    for n, u in units},
    }
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": {"cpu": _cpu_model(), "cpus": os.cpu_count(),
                 "pinned_to_cpu": cpu,
                 "nproc": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "platform": platform.platform()},
        "commit": _git_commit(),
        "axes": [dict(zip(workloads.AXES, a)) for a in sorted(wl.axes_seen)],
        "import_s": imports, "setup_reps_s": reps,
        "construct_s": construct_s,
        "error_rate": len(failed) / max(len(ops), 1),
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with (OUT / "results" / f"{tag}.json").open("w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    for n, u in units:
        print(f"{args.workload:20s} {n:30s} {metrics[n]:14.6g} {u}")
    print(f"{args.workload:20s} {'error_rate':30s} "
          f"{provenance['error_rate']:14.6g} ratio")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
