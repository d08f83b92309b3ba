#!/usr/bin/env python3
"""Search for a gap between the two truncation kernels.

The action-closure kernel T(M, N) can be strictly smaller than the coarse
kernel T0(M, N) = M0 (x) NL + ML (x) N0: a non-split extension W over A
with T < T0 for W (x) W is pinned in tests/test_tensor.py
(TestStrictTruncation).  This experiment samples random full bimodules
over several algebras and fields, compares the two kernels, and reports
any strict inclusion as a research finding.  Its sampler builds only
conjugated direct sums of symmetric, anti-symmetric and trivial blocks,
where no gap has been observed on the default seeds.

Usage: python scripts/explore_truncations.py [--samples N] [--seed S] [--max-dim D]
"""

import argparse
import random

from leibniz.algebra import make_A, make_N, make_e
from leibniz.fields import FF, QQ
from leibniz.samples import random_full_bimodule
from leibniz.tensor import truncation_data


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-dim", type=int, default=3)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    algebras = [
        make_e(QQ), make_A(QQ), make_N(QQ),
        make_e(FF(3)), make_A(FF(5)), make_N(FF(2)),
    ]
    gaps = []
    histogram: dict[tuple, int] = {}
    for i in range(args.samples):
        alg = rng.choice(algebras)
        m = random_full_bimodule(alg, rng.randint(1, args.max_dim), rng)
        n = random_full_bimodule(alg, rng.randint(1, args.max_dim), rng)
        data = truncation_data(m, n)
        assert data.containment_verified, "containment chain broke"
        key = (data.t.dim, data.t0.dim)
        histogram[key] = histogram.get(key, 0) + 1
        if not data.t_equals_t0:
            gaps.append((i, alg.basis_names, alg.field.spec, key))
            print(
                f"RESEARCH FINDING at sample {i}: dim T = {data.t.dim} "
                f"< dim T0 = {data.t0.dim} over {alg.field.spec}"
            )
    print(f"samples: {args.samples}")
    print("observed (dim T, dim T0) pairs:")
    for key in sorted(histogram):
        print(f"  {key}: {histogram[key]}")
    if not gaps:
        print("no strict inclusion T < T0 among these samples "
              "(the known strict case, W (x) W, needs a non-split extension)")
    return 1 if gaps else 0


if __name__ == "__main__":
    raise SystemExit(main())
