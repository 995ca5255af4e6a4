#!/usr/bin/env python3
"""Two body forms on the coop engine: coroutines and plain callables.

PISCES processes are discrete-event coroutines on a single-threaded
event loop.  A process body can take two forms:

* a **generator** that yields *kernel operations* -- resumed by one
  ``gen.send()`` on the engine thread, no OS thread at all:

  - ``co_charge(n)``   -- charge n ticks of virtual work
  - ``co_preempt(n)``  -- yield the PE, rejoin the ready queue
  - ``co_block(kind)`` -- block until woken (optionally with a deadline)

* a **plain callable** that makes the blocking calls ``charge`` /
  ``preempt`` / ``block`` -- run on a pinned worker thread that hands
  the machine back and forth with the engine at every kernel point.

The contract demonstrated below: virtual time, dispatch counts, and
per-process results are **bit-identical** across body forms.  Only
wall time differs; the coroutine form is the fast one
(BENCH_engine_throughput.json).

Run:  python examples/coop_core.py
"""

import threading
import time

from repro.flex.presets import small_flex
from repro.mmos.process import co_block, co_charge, co_preempt
from repro.mmos.scheduler import create_engine

N_PROCS, SWITCHES, N_PES = 60, 40, 8


def run_form(coroutine):
    """Run the identical program with generator or callable bodies."""
    eng = create_engine(small_flex(N_PES), dispatcher="indexed")
    pes = sorted(eng.machine.pes)

    def gen_body():
        acc = 0
        for i in range(SWITCHES):
            yield co_charge(3)
            acc += i
            yield co_preempt(2)
            if i % 5 == 4:                       # periodic deadline nap
                yield co_block("nap", deadline=eng.now() + 7)
        return acc

    def fn_body():
        acc = 0
        for i in range(SWITCHES):
            eng.charge(3)
            acc += i
            eng.preempt(2)
            if i % 5 == 4:
                eng.block("nap", deadline=eng.now() + 7)
        return acc

    body = gen_body if coroutine else fn_body
    threads_before = threading.active_count()
    procs = [eng.spawn(f"w{k}", pes[k % len(pes)], body)
             for k in range(N_PROCS)]
    threads = threading.active_count() - threads_before

    t0 = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t0
    fp = (eng.machine.elapsed(), eng.dispatch_count,
          tuple(sorted((p.name, p.result) for p in procs)))
    eng.shutdown()
    return fp, wall, threads


def main():
    (vt_fn, disp_fn, res_fn), wall_fn, thr_fn = run_form(coroutine=False)
    (vt_co, disp_co, res_co), wall_co, thr_co = run_form(coroutine=True)

    # The determinism contract: everything virtual is bit-identical.
    assert vt_co == vt_fn, (vt_co, vt_fn)
    assert disp_co == disp_fn, (disp_co, disp_fn)
    assert res_co == res_fn
    assert thr_co == 0, "coroutine bodies must not start threads"

    expected = sum(range(SWITCHES))
    assert all(r == expected for _, r in res_co)

    print(f"{N_PROCS} processes x {SWITCHES} switches on {N_PES} PEs")
    print(f"  virtual time   : {vt_co} ticks in both forms (bit-identical)")
    print(f"  dispatches     : {disp_co} in both forms")
    print(f"  callable bodies: {wall_fn * 1e3:8.1f} ms "
          f"({disp_fn / wall_fn:10,.0f} dispatches/s, {thr_fn} threads)")
    print(f"  coroutines     : {wall_co * 1e3:8.1f} ms "
          f"({disp_co / wall_co:10,.0f} dispatches/s, {thr_co} threads)")
    if wall_co < wall_fn:
        print(f"  speedup        : {wall_fn / wall_co:.1f}x wall")


if __name__ == "__main__":
    main()
