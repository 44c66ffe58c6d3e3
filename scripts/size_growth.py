#!/usr/bin/env python3
"""Machine-side value-size growth: trace sample inputs across n and fit
the a + b*log2(n) envelope. No circuits are built, so n can go far past
what compilation handles.

PYTHONPATH=src python3 scripts/size_growth.py --builtin maj --n-list 8,16,64,256,512
"""

import argparse
import os
import sys

from satcirc.cli import (USER_ERRORS, _int_list, _load, _out_dir,
                         _write_csv)
from satcirc.compile import default_samples
from satcirc.machine import instrument_sizes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--spec")
    p.add_argument("--builtin")
    p.add_argument("--pred")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--samples", type=int, default=8,
                   help="traced words per n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir")
    a = p.parse_args(argv)
    try:
        return report(a)
    except USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def report(a) -> int:
    spec = _load(a)
    inputs = {n: default_samples(spec, n, count=a.samples, seed=a.seed)
              for n in a.n_list}
    rep = instrument_sizes(spec, inputs)
    for r in rep.rows:
        print(f"n={r.n} max_bits={r.overall} per_layer={r.per_layer}")
    print(f"envelope: {rep.a:.2f} + {rep.b:.2f}*log2(n)  "
          f"head-sum bounds {'hold' if rep.ok else 'VIOLATED'}")
    _write_csv(os.path.join(_out_dir(a), "size_growth.csv"),
               ["n", "max_value_bits"] +
               [f"layer{t}_bits" for t in range(len(rep.rows[0].per_layer))],
               ([r.n, r.overall] + list(r.per_layer) for r in rep.rows))
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
