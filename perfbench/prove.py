"""Run the benchmark on several seeds and report how steady it is.

    python3 perfbench/prove.py --workloads compile-maj,machine-mix --seeds 1-10

For each workload and end-to-end metric this prints the median over the
seeds and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. A spread
is flagged when it is not below a third of the metric's bound in
BENCHMARK.json. Run it from the repository root; runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=900)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    doc["exit"] = out.returncode
    doc["run_s"] = time.perf_counter() - t0
    return doc


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in contract["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="a range such as 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write the medians and spreads here")
    args = ap.parse_args(argv)
    metrics = contract["per_layer" if args.trace else "end_to_end"]
    summary, ok = {}, True
    for wl in args.workloads.split(","):
        runs = [one_run(wl, s, contract["run_seconds"], args.trace)
                for s in seeds(args.seeds)]
        bad = [r for r in runs if not r["correct"] or r["exit"]]
        print(f"{wl}: {len(runs)} runs, {len(bad)} incorrect, run time "
              f"{min(r['run_s'] for r in runs):.1f}-"
              f"{max(r['run_s'] for r in runs):.1f} s")
        ok = ok and not bad
        summary[wl] = {}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ("" if bound is None or spread < bound / 3
                    else "  <-- not below a third of the bound")
            summary[wl][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                      "spread": spread}
            print(f"  {m['name']:28s} median {med:14.6g} {m['unit']:6s} "
                  f"spread {spread:7.2%}"
                  + (f" (bound {bound:.0%})" if bound is not None else "")
                  + flag)
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
