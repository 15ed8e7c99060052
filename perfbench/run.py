"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain-deep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` next
to this directory, never from an installed copy. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it say how each metric was
taken. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run, whose spans are also written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "ipkpq" / "__init__.py").is_file():
        print(f"error: no ipkpq sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # one thread per process for numerical libraries, set before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import ipkpq

    if Path(ipkpq.__file__).resolve().parent != SRC / "ipkpq":
        print(f"error: imported ipkpq from {ipkpq.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    out = CHECKOUT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           trace_path=out if args.trace else None)
    for note in result.notes:
        print(note)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
