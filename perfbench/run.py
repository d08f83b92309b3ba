"""Benchmark of the exact-arithmetic layers of ``leibniz``.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload for about ``--seconds`` seconds.  Each
round is a fresh interpreter (``round.py``), so nothing cached in one
round can speed up the next.  The results of the first round are checked
against computations made apart from the program (``checks.py``); every
later round must give the same results.  The last line of standard output
is one JSON object:

  --trace 0   setup_s (median over rounds), round_s (median over rounds)
              and peak_rss_mb (maximum over rounds)
  --trace 1   the per-layer metrics of ``tracer.METRICS`` (medians over
              the traced rounds) and trace.overhead_s, the median traced
              round_s minus the median untraced round_s; traced and
              untraced rounds alternate.

The exit code is 0 when every output is correct, 1 when one is not, and
2 when the benchmark cannot run (no ``src/leibniz`` in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite", "squares-q", "modules-fp", "envelope")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 120
OUT_DIR = os.path.join(HERE, "out")


class RoundError(RuntimeError):
    pass


def run_round(workload: str, seed: int, trace: bool, oracle: bool, spans: str | None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "round.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    if oracle:
        cmd.append("--oracle")
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], capture_output=True,
                          text=True, cwd=ROOT, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RoundError(f"round exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - spawned
    return result


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Whole rounds until the next one would end after ``seconds``; at
    least ``MIN_ROUNDS``, or one traced and one untraced round."""
    os.makedirs(OUT_DIR, exist_ok=True)
    rounds = []
    start = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 0
        spans = None
        if traced and not rounds:
            spans = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
        r = run_round(workload, seed, traced, oracle=not rounds, spans=spans)
        r["traced"] = traced
        rounds.append(r)
        elapsed = time.monotonic() - start
        # the next round is of the same kind as the one before the last
        following = rounds[-2] if trace and len(rounds) > 1 else r
        if len(rounds) >= (2 if trace else MIN_ROUNDS) and elapsed + following["wall_s"] > seconds:
            return rounds


def verify(rounds: list, seed: int) -> list:
    """Checks the first round in full; later rounds must repeat it."""
    from checks import check

    first = rounds[0]
    problems = []
    for doc, oracle in zip(first["docs"], first["oracle"]):
        if doc["kind"] != "failed":
            problems += [f"{doc['kind']}: {p}" for p in check(doc, oracle, seed)]
    for k, r in enumerate(rounds[1:], 1):
        if r["docs"] != first["docs"]:
            problems.append(f"round {k} gave other results than round 0")
    return problems


def metrics(rounds: list, trace: bool) -> dict:
    from tracer import METRICS

    def median(key, rs):
        return statistics.median(r[key] for r in rs)

    if not trace:
        return {
            "setup_s": {"value": median("setup_s", rounds), "unit": "s"},
            "round_s": {"value": median("round_s", rounds), "unit": "s"},
            "peak_rss_mb": {"value": max(r["rss_mb"] for r in rounds), "unit": "MB"},
        }
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    # counts and sizes repeat exactly, so their median is one of the values
    out = {name: {"value": (statistics.median if unit == "s" else statistics.median_low)(
                      r["layers"][name] for r in traced),
                  "unit": unit}
           for name, unit in METRICS.items()}
    out["trace.overhead_s"] = {"value": median("round_s", traced) - median("round_s", plain),
                               "unit": "s"}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "leibniz", "__init__.py")):
        print(f"error: no leibniz sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RoundError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = verify(rounds, args.seed)
    for p in problems:
        print(f"INCORRECT {p}", file=sys.stderr)
    failures = [f for r in rounds for f in r["failures"]]
    for f in sorted(set(failures)):
        print(f"FAILED {f}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": len(failures),
        "metrics": metrics(rounds, bool(args.trace)),
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "rounds": [{k: r[k] for k in ("setup_s", "round_s", "rss_mb",
                                                            "wall_s", "traced")}
                                        for r in rounds]}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
