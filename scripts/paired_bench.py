"""Paired, alternating benchmark runs of a parent checkout and this tree.

Runs ``perfbench/run.py`` on each of the four workloads at a fixed seed,
once in the parent checkout and once in the working tree per pair, for ten
pairs, swapping which side goes first from one pair to the next.  Writes
every result line to ``BENCH_<pr>.json`` at the root of the repository,
with the seed, the line count of ``src/leibniz/*.py`` on each side, and per
workload and metric the median and quartiles of each side, the number of
pairs the change wins, the parent's interquartile distance, ``gain_shown``
(the change wins at least 9 of 10 pairs and its median is lower than the
parent's by more than that distance) and ``within_bound`` (the change's
median is higher than the parent's by at most the metric's bound in
``BENCHMARK.json``)::

    git clone -q . ../parent && git -C ../parent checkout -q <parent commit>
    python3 scripts/paired_bench.py --parent ../parent --pr <number> [--seed 1]

Each side runs its own ``perfbench/``.  This script never imports
``leibniz``.  A run that reports an incorrect output or a failed operation,
or whose last line of output is not JSON, stops it with exit 1 and one line
naming the side, pair and workload, and no BENCH file is written.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("suite", "squares-q", "modules-fp", "envelope")
METRICS = ("round_s", "setup_s", "peak_rss_mb")
PAIRS = 10
SEED = 1
SECONDS = 30
MIN_WINS_OF_TEN = 9


def load_bounds() -> dict:
    """The bound of each end-to-end metric in ``BENCHMARK.json``; every one
    of them is better when lower."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def commit(tree: str) -> str:
    return subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()


def src_lines(tree: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "leibniz", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def run_once(tree: str, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: no result from {tree} ({workload}): {proc.stderr.strip()}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"error: no JSON result from {tree} ({workload}): "
                         f"last line {lines[-1][:200]!r}") from None
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{m: result["metrics"][m]["value"] for m in METRICS}}


def summary(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        out[workload] = {}
        for m in METRICS:
            side = {s: [r[m] for r in runs if r["workload"] == workload and r["side"] == s]
                    for s in ("parent", "change")}
            pairs = list(zip(side["parent"], side["change"]))
            stats = {s: {"median": statistics.median(v), "quartiles": statistics.quantiles(v, n=4)}
                     for s, v in side.items()}
            before, after = stats["parent"]["median"], stats["change"]["median"]
            q1, _, q3 = stats["parent"]["quartiles"]
            wins, spread = sum(c < p for p, c in pairs), q3 - q1
            out[workload][m] = {
                **stats,
                "change_wins": wins,
                "pairs": len(pairs),
                "parent_iqr": spread,
                "gain_shown": wins * 10 >= MIN_WINS_OF_TEN * len(pairs) and before - after > spread,
                "within_bound": after <= before * (1 + bounds[m]),
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--seed", type=int, default=SEED, help="workload seed of every run")
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    runs = []
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in WORKLOADS:
            for side in order:
                line = {"pair": pair, "side": side, "first": side == order[0], "seed": args.seed,
                        "workload": workload, **run_once(sides[side], workload, args.seed)}
                print(json.dumps(line), flush=True)
                if not line["correct"] or line["failed"]:
                    raise SystemExit(f"error: {side} run of pair {pair} on {workload}: correct "
                                     f"{line['correct']}, {line['failed']} failed operations")
                runs.append(line)
    doc = {"command": f"perfbench/run.py --seed {args.seed} --seconds {SECONDS} --trace 0",
           "seed": args.seed,
           "parent": commit(sides["parent"]), "change": "working tree of " + commit(ROOT),
           "src_lines": {side: src_lines(tree) for side, tree in sides.items()},
           "runs": runs, "summary": summary(runs, load_bounds())}
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
