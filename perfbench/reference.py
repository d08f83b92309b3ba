"""Reference figures measured once, outside the workloads (too long for a round).

    python3 perfbench/reference.py

Times, one after another in this interpreter (no case reuses another's
objects):
  chop(trunc_bar(L4, L4)) for the symmetric sl2 module L4, over Q and F_101;
  filtered_dims(3) of the ``ulweak`` and ``ul`` presentations of
  hemi-sl2-L1 over Q at cutoff 3.
Prints each figure and its answer, then one JSON object of the seconds.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from leibniz import builtin_algebra, chop, make_sl2, symmetrize, trunc_bar  # noqa: E402
from leibniz.algebra import sl2_module_matrices  # noqa: E402
from leibniz.envelope import build_presentation  # noqa: E402
from leibniz.fields import FF, QQ  # noqa: E402


def chop_square(field):
    m = symmetrize(make_sl2(field), sl2_module_matrices(field, 4))
    return lambda: [f.dim for f in chop(trunc_bar(m, m)).factors]


def hemi_dims(which):
    pres = build_presentation(builtin_algebra("hemi-sl2-L1", QQ), which, 3)
    return lambda: pres.filtered_dims(3)


CASES = {
    "chop_L4xL4_Q_s": lambda: chop_square(QQ),
    "chop_L4xL4_F101_s": lambda: chop_square(FF(101)),
    "hemi_ulweak_cutoff3_Q_s": lambda: hemi_dims("ulweak"),
    "hemi_ul_cutoff3_Q_s": lambda: hemi_dims("ul"),
}


def main() -> int:
    figures = {}
    for name, prepare in CASES.items():
        run = prepare()
        start = time.perf_counter()
        answer = run()
        figures[name] = time.perf_counter() - start
        print(f"{name}: {figures[name]:.2f} s  {answer}", file=sys.stderr)
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
