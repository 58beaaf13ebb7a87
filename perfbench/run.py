"""Decode benchmark: per-variant latency and quality, or a traced layer split.

Run from the repository root:

    python3 perfbench/run.py --workload forecast-aligned --seed 1 --seconds 20 --trace 0

Workloads: forecast-aligned, forecast-sharp, mc-sessions (see workloads.py).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics and the tracing overhead. The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it carries the checks and the run environment. The full result is
also written under .perfbench/, with the recorded spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# BLAS threads must be fixed before numpy is imported anywhere.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "speccast", "__init__.py")):
        print(f"error: no speccast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import speccast

    if not os.path.abspath(speccast.__file__).startswith(SRC + os.sep):
        print(f"error: speccast imported from {speccast.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import bench
    from perfbench.workloads import FULL, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; options: {', '.join(WORKLOADS)}")
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), FULL)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}")
    spans = result.pop("spans")
    if spans is not None:
        spans.save(stem + "-spans.npz")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for name, ok in result["checks"].items():
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)
    detail = {k: result[k] for k in ("checks", "check_values", "environment")}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
