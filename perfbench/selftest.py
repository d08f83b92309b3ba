"""Shows that the checks can fail: each perturbed answer must be rejected.

    python3 perfbench/selftest.py

Runs one round of every workload with seed ``SEED`` (and the subspace
oracle), confirms that ``checks.check`` accepts the real results, then
changes one answer at a time (a factor dimension, a side, a rank, a
verdict, a witness) and confirms that the check rejects each change.  Exit code 0 when every
perturbation is caught.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check  # noqa: E402
from run import WORKLOADS, run_round  # noqa: E402

SEED = 1


def _set(path, value):
    """A perturbation that replaces ``doc[path[0]][path[1]]...`` by ``value``
    (a callable receives the old value)."""

    def apply(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        old = target[path[-1]]
        target[path[-1]] = value(old) if callable(value) else value

    return apply


def _witness(doc):
    for c in doc["report"]["checks"]:
        if c["id"].startswith("10a"):
            c["details"] = "k=1 alternative fails at (S(1)+S(2), S(1))"


PERTURBATIONS = {
    ("sl2-square", True): [
        ("wrong factor dimensions", _set(["chop", "dims"], lambda d: [sum(d) - 2, 1, 1][:len(d)])),
        ("factor on the wrong side", _set(["chop", "symmetric"], lambda s: [not x for x in s])),
        ("uncertified report", _set(["chop", "certified"], False)),
        ("T not inside T0", _set(["contained"], False)),
    ],
    ("sl2-square", False): [
        ("nonzero mixed-side product", _set(["bar_dim"], 1)),
        ("wrong rank of T0", _set(["T0"], lambda rows: rows[:-1])),
    ],
    ("random-pair", None): [
        ("wrong rank of T", _set(["T"], lambda rows: rows[:-1])),
        ("wrong dim of the under product", _set(["under_dim"], lambda d: d + 1)),
        ("wrong defect span", _set(["S"], lambda rows: rows[:-1])),
    ],
    ("spin-chop", None): [
        ("spin did not run", _set(["chop", "strategy"], "weight")),
        ("disagrees with the subspace oracle", _set(["chop", "dims"], lambda d: d[:-1] + [d[-1] + 1])),
    ],
    ("envelope", None): [
        ("wrong filtered dimension", _set(["ulweak", "dims"], lambda d: d[:-1] + [d[-1] + 1])),
        ("wrong ideal rank", _set(["ul", "ideal_rank"], lambda r: r - 1)),
        ("wrong PBW dims", _set(["ulie", "dims"], lambda d: d[:-1] + [d[-1] - 1])),
        ("Hopf verdict false", _set(["ulweak", "hopf", "coideal"], False)),
        ("section identity false", _set(["sections", "d0_s0"], False)),
    ],
    ("suite", None): [
        ("a passing check reported red", _set(["report", "checks", 6, "ok"], False)),
        ("check 10a reported green", _set(["report", "checks", 9, "ok"], True)),
        ("a 10a witness that is no witness", _witness),
        ("exit code 0 with a red check", _set(["exit_code"], 0)),
    ],
}


def key(doc):
    if doc["kind"] == "sl2-square":
        return ("sl2-square", doc["left_side"] == doc["right_side"])
    return (doc["kind"], None)


def main() -> int:
    missed, tried = [], 0
    for workload in WORKLOADS:
        first = run_round(workload, SEED, trace=False, oracle=True, spans=None)
        seen = set()
        for doc, oracle in zip(first["docs"], first["oracle"]):
            problems = check(doc, oracle, SEED)
            if problems:
                print(f"{workload}: real result rejected: {problems}")
                return 1
            k = key(doc)
            if k in seen or k not in PERTURBATIONS:
                continue
            if doc["kind"] == "random-pair" and not doc["T"]:
                continue  # needs a nonzero T to perturb
            seen.add(k)
            for name, perturb in PERTURBATIONS[k]:
                bad = copy.deepcopy(doc)
                perturb(bad)
                tried += 1
                caught = check(bad, oracle, SEED)
                print(f"{'caught' if caught else 'MISSED'}  {workload} {k[0]}: {name}")
                if not caught:
                    missed.append(name)
        unused = [k for k in PERTURBATIONS if k not in seen and
                  any(key(d) == k for d in first["docs"])]
        if unused:
            print(f"{workload}: no document to perturb for {unused}")
            return 1
    print(f"{tried - len(missed)} of {tried} perturbations caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
