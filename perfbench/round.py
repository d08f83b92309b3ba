"""One round of one workload, in a fresh interpreter.

``run.py`` starts this script once per round and reads the JSON object it
prints as its last line.  The round imports ``leibniz`` from the
checkout's ``src``, makes the workload's inputs from the seed, times one
pass over its operations, and then documents every result for checking.

    python3 perfbench/round.py --workload squares-q --seed 1 \
        --spawned <time.monotonic() of the caller> [--trace] [--oracle]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def peak_rss_mb() -> float:
    """VmHWM, the peak resident memory of this process's address space.

    Unlike ``ru_maxrss``, which keeps the peak of the process that spawned
    this one across ``exec``, VmHWM starts afresh with the new program.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the caller just before it started this round")
    parser.add_argument("--trace", action="store_true", help="install the per-layer tracer")
    parser.add_argument("--spans", help="write the traced spans to this file")
    parser.add_argument("--oracle", action="store_true",
                        help="also run the exhaustive subspace oracle on the results")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import leibniz

    if not os.path.abspath(leibniz.__file__).startswith(SRC + os.sep):
        print(f"error: leibniz was imported from {leibniz.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    ops = workload.operations()

    start = time.monotonic()
    results, failures = [], []
    for op in ops:
        try:
            results.append(op.run())
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append(None)
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
    end = time.monotonic()
    rss_mb = peak_rss_mb()

    layers = tracer.metrics() if tracer else None
    if tracer and args.spans:
        tracer.write_spans(args.spans)
    docs, oracle = [], []
    for op, result in zip(ops, results):
        ok = result is not None
        docs.append(op.document(result) if ok else {"kind": "failed", "label": op.label})
        oracle.append(op.oracle(result) if ok and args.oracle else None)
    print(json.dumps({
        "setup_s": start - args.spawned,
        "round_s": end - start,
        "rss_mb": rss_mb,
        "attempted": len(ops),
        "failures": failures,
        "docs": docs,
        "oracle": oracle if args.oracle else None,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
