"""Run one workload of the satcirc benchmark and print its metrics.

    python3 perfbench/run.py --workload compile-maj --seed 1 --seconds 25 --trace 0

Run it from the repository root. Workloads, metric names and units are
those in BENCHMARK.json. Human-readable lines come first: every metric
with its unit and sample count, the error rate, the circuit identity
record, the negative controls and a stamp of the Python version, nproc,
git commit and seed. The last line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Everything the
run measured is also written to .bench_out/.

Exit status: 0 when every operation and check passed, 1 when one failed,
2 when satcirc cannot be loaded from src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3  # timed set-ups before the loop, and again after it

# the name under which each workload's operation time is printed
OP_NAMES = {"compile-maj": "compile_s", "family-hard": "complexity_s",
            "verify-maj": "verify_s", "machine-mix": "recognize"}


def load_satcirc():
    """Import satcirc from this checkout's src/, or explain why not."""
    if not (SRC / "satcirc" / "__init__.py").is_file():
        return f"no satcirc package under {SRC}"
    sys.path.insert(0, str(SRC))
    try:
        import satcirc
    except ImportError as e:
        return f"cannot import satcirc: {e}"
    where = Path(satcirc.__file__).resolve().parent
    if where != (SRC / "satcirc").resolve():
        return f"satcirc was imported from {where}, not {SRC}"
    return None


def setup_seconds(workload: str, probes: int) -> list[float]:
    """Set-up seconds measured in ``probes`` fresh processes."""
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def git_commit():
    """HEAD's commit when the checkout is a git work tree, read from .git
    itself so that nothing outside the checkout is consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "satcirc").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def end_to_end(res: dict, setups: list) -> dict:
    """Operation times at the reference host speed (see calib.py); set-up
    time as measured."""
    import calib
    norm = res["normalized"]
    return {"ops_per_s": len(norm) / (sum(norm) * calib.REF_S),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups)}


def trace_parts(lm: dict) -> float:
    """Layer self times plus the harness's remainder, per operation: by
    construction the traced wall time."""
    return sum(v for k, v in lm.items() if k.startswith("layer.")) \
        + lm["harness.self_s"]


def report(res: dict, setups: list, stamp: dict):
    import stats as ST
    wl = res["workload"]
    print(f"perfbench {wl}: " + ", ".join(f"{k} {v}" for k, v in stamp.items()))
    d = res["durations"]
    if res["trace"]:
        print(f"traced run: {len(d)} operations, the first "
              f"{len(d) - res['traced_ops']} untraced")
    elif wl == "machine-mix":
        print(f"recognize_words_per_s: {len(d) / sum(d):.2f} 1/s, "
              f"samples {len(d)}")
        print(f"recognize_ms: {ST.describe(d, 'ms', 1000)}")
    else:
        print(f"{OP_NAMES[wl]}: {ST.describe(d, 's')}")
    if not res["trace"]:
        e2e = end_to_end(res, setups)
        print(f"ops_per_s at the reference host speed: "
              f"{e2e['ops_per_s']:.6g} 1/s (raw {len(d) / sum(d):.6g} 1/s); "
              f"calibration median "
              f"{statistics.median(res['calibration_s']) * 1000:.3f} ms over "
              f"{len(res['calibration_s'])} blocks")
        print(f"peak_rss_mb: {res['peak_rss_mb']:.2f} MB, 1 sample "
              f"(this process)")
        print(f"setup_s: median {statistics.median(setups):.4f} s over "
              f"{len(setups)} fresh processes, before and after the run: "
              + " ".join(f"{t:.4f}" for t in setups))
    print(f"error_rate: {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:g}"
          + "".join(f"\n  failed: {r}" for r in res["reasons"]))
    for p in res["problems"]:
        print(f"  check failed: {p}")
    for key, f in res["identity"].items():
        print(f"circuit {key}: size {f.get('size')} depth {f.get('depth')} "
              f"theta {f.get('theta')} sha256 "
              f"{f.get('circuit_sha256', '-')[:16]}"
              + (f" manifest {f['manifest_sha256'][:16]}"
                 if "manifest_sha256" in f else ""))
    if wl == "family-hard" and res["identity"]:
        depths = {k.split("/n")[1]: f["depth"]
                  for k, f in res["identity"].items()}
        print("circuit_depth by n: " + ", ".join(
            f"n={n}: {v}" for n, v in depths.items())
              + ("" if len(set(depths.values())) == 1 else
                 " (not constant in n)"))
    print("identity: " + ("repeats agree with .bench_out/identity.json"
                          if not res["identity_conflicts"] else
                          "CONFLICT " + "; ".join(res["identity_conflicts"])))
    ref = HERE / "reference_identity.json"
    if ref.exists() and res["identity"]:
        known = json.loads(ref.read_text())
        same = [k for k, f in res["identity"].items()
                if known.get(k, {}).get("circuit_sha256")
                == f.get("circuit_sha256") and known.get(k, {}).get(
                    "size") == f.get("size")]
        print(f"identity vs perfbench/reference_identity.json: "
              f"{len(same)}/{len(res['identity'])} keys the same")
    print("negative controls: " + ", ".join(
        f"{k} {'caught' if v else 'NOT CAUGHT'}"
        for k, v in res["controls"].items()))
    if res["trace"]:
        lm = res["layers"]
        parts = trace_parts(lm)
        print(f"trace: wall {lm['trace.wall_s']:.4f} s per op = layer self "
              f"times + harness {parts:.4f} s; overhead "
              f"{lm['trace.overhead_s']:.4f} s per op over an untraced "
              f"{lm['trace.untraced_s']:.4f} s")
        for k, v in lm.items():
            print(f"  {k}: {v:.6g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in contract["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    problem = load_satcirc()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import bench

    # set-up probes before the run (after one warm-up) and after it, so
    # that their median spans the run as the operations' median does
    setups = [] if args.trace else setup_seconds(
        args.workload, SETUP_PROBES + 1)[1:]
    res = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if not args.trace:
        setups += setup_seconds(args.workload, SETUP_PROBES)
    stamp = {"python": platform.python_version(), "nproc": os.cpu_count(),
             "commit": git_commit(), "src_sha256": src_digest()[:16],
             "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        values = res["layers"]
        wanted = contract["per_layer"]
    else:
        values = end_to_end(res, setups)
        wanted = contract["end_to_end"]
    report(res, setups, stamp)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    correct = res["correct"] and not missing
    if args.trace:
        lm = res["layers"]
        correct = correct and abs(trace_parts(lm) - lm["trace.wall_s"]) <= \
            1e-9 * max(1.0, lm["trace.wall_s"])
    bench.OUT.mkdir(exist_ok=True)
    (bench.OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
     ).write_text(json.dumps({**res, "stamp": stamp, "setup_s": setups,
                              "metrics": values}, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
