"""Time one set-up of a workload in a fresh process: import satcirc from
src/ and build the specs the workload uses. Prints the seconds.

    python3 perfbench/setup_probe.py compile-maj
"""

import sys
import time
from pathlib import Path

import oracles as O


def main(workload: str):
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import satcirc.cli  # noqa: F401  (the CLI's imports are part of set-up)
    from satcirc import builtin_spec

    for key in O.WORKLOAD_SPECS[workload]:
        name, pred, _ = O.SPECS[key]
        builtin_spec(name, pred)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1])
