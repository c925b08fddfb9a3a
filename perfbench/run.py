"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload bulk-splice --seed 1501 \
        --seconds 10 --trace 0

Run from the repository root: the program is imported from ``src``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced query sets and prints the per-layer metrics.  The
last line of standard output is the result object; the traced run's
self-time table goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the regime's own seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import bench

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(bench.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    seed = workload.default_seed if args.seed is None else args.seed
    result = bench.run(args.workload, seed, args.seconds, bool(args.trace))
    if args.trace:
        layers = result["metrics"]
        self_times = [n for n in bench.SPAN_METRICS.values() if n in layers]
        print("self time per query set:", file=sys.stderr)
        for name in sorted(self_times, key=lambda n: -layers[n]["value"]):
            print(f"  {name:36s} {layers[name]['value']:10.4f} s",
                  file=sys.stderr)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
