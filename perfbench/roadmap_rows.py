"""Time plan_widths and compile_saturated separately for majority, the
rows of the ROADMAP baseline table.

    python3 perfbench/roadmap_rows.py --n-list 16,32 --repeats 3

Prints, per n, the circuit's size, depth and theta count and the median
wall time of each stage over the repeats. Run it from the repository root.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from satcirc import builtin_spec, compile_saturated, metrics, plan_widths  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n-list", default="16,32")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    spec = builtin_spec("maj")
    print("| spec | n | size | depth | θ | compile | plan_widths |")
    print("|---|---|---|---|---|---|---|")
    for n in map(int, args.n_list.split(",")):
        plan_s, comp_s = [], []
        for _ in range(args.repeats):
            gc.collect()
            t0 = time.perf_counter()
            plan = plan_widths(spec, n)
            t1 = time.perf_counter()
            c = compile_saturated(spec, n, plan)
            t2 = time.perf_counter()
            plan_s.append(t1 - t0)
            comp_s.append(t2 - t1)
        m = metrics(c)
        print(f"| maj | {n} | {m.size} | {m.depth} | {m.theta_count} | "
              f"{statistics.median(comp_s):.2f} s | "
              f"{statistics.median(plan_s):.2f} s |")


if __name__ == "__main__":
    main()
