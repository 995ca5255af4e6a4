"""Run every workload on fresh seeds, twice, and record how steady the
end-to-end metrics are.

    python3 perfbench/steadiness.py --seeds 1001-1010 \
        --out perfbench/steadiness.json

For each set, workload and metric it records the ten values, their
median and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median; for
the second set, also the shift of the median from the first set's.
Runs go one at a time, in seed order, workload by workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Sets of runs of the same code whose medians are compared.
SETS = 2


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t = time.time()
    p = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                       timeout=600)
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {p.returncode}: "
                         f"{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    return {"seed": seed, "wall_s": time.time() - t,
            "provenance": json.loads(lines[-2])["provenance"],
            "result": json.loads(lines[-1])}


def summarize(runs, names):
    out = {}
    for n in names:
        vals = [r["result"]["metrics"][n]["value"] for r in runs]
        q = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        out[n] = {"values": vals, "median": med,
                  "iqr_frac": (q[2] - q[0]) / med}
    return out


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 1001-1010")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    names = [m["name"] for m in spec["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = []
    for k in range(SETS):
        per_wl = {}
        for wl in (w["name"] for w in spec["workloads"]):
            runs = [run_once(wl, s, spec["run_seconds"])
                    for s in _seeds(args.seeds)]
            summary = summarize(runs, names)
            if sets:
                for n, m in summary.items():
                    first = sets[0]["workloads"][wl]["metrics"][n]["median"]
                    m["median_shift"] = m["median"] / first - 1.0
            per_wl[wl] = {"runs": runs, "metrics": summary}
            print(f"set {k + 1} {wl}: " + ", ".join(
                f"{n} {m['median']:.4g} iqr {m['iqr_frac']:.3f}"
                for n, m in summary.items()), flush=True)
        sets.append({"set": k + 1, "workloads": per_wl})
    Path(args.out).write_text(json.dumps(
        {"run_seconds": spec["run_seconds"], "bounds": bounds,
         "sets": sets}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
