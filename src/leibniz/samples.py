"""Seeded generators of random (weak/full) bimodules for property suites.

Weakness and fullness are guaranteed by construction, not by rejection:
1-dimensional building blocks with the functional constraints of the
chosen algebra, symmetrizations/anti-symmetrizations of random left
modules, direct sums, tensor products, hom spaces and duals, and a final
change of basis.  The axiom reports of the results are still asserted by
the callers, so a construction bug cannot silently weaken a test.
"""

from __future__ import annotations

import functools
import random

from .algebra import LeibnizAlgebra, products_and_series
from .bimodule import (
    Bimodule,
    antisymmetrize,
    conjugate,
    direct_sum,
    dual,
    hom_bimodule,
    one_dim_bimodule,
    symmetrize,
    trivial_bimodule,
)
from .linalg import LinAlgError, Matrix, invert, nullspace
from .tensor import vanishing_functional


def random_invertible(field, n: int, rng: random.Random) -> Matrix:
    while True:
        m = Matrix.from_ints(field, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        try:
            invert(m)
            return m
        except LinAlgError:
            continue


def random_one_dim_weak(alg: LeibnizAlgebra, rng: random.Random) -> Bimodule:
    """Random 1-dim weak bimodule: both functionals vanish on products."""
    f = alg.field
    funcs = nullspace(products_and_series(alg)["product_span"].basis).basis

    def combo():
        coeffs = [rng.randint(-2, 2) for _ in range(funcs.nrows)]
        return (Matrix.from_ints(f, [coeffs]) * funcs).rows[0]

    return one_dim_bimodule(alg, combo(), combo())


def random_left_module_matrices(alg: LeibnizAlgebra, dim: int, rng: random.Random):
    """Left action matrices satisfying LLM: one random matrix X, scaled at
    each basis element by ``tensor.vanishing_functional``.  Products then
    act by zero and the matrices commute, so LLM holds; a perfect algebra
    has no such functional and raises ``BimoduleError``."""
    x = Matrix.from_ints(alg.field, [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
    return [x.scale(c) for c in vanishing_functional(alg)]


def random_full_bimodule(
    alg: LeibnizAlgebra, dim: int, rng: random.Random
) -> Bimodule:
    """Random full bimodule of exactly the given dimension."""
    blocks = []
    remaining = dim
    while remaining > 0:
        size = rng.randint(1, min(2, remaining))
        lam = random_left_module_matrices(alg, size, rng)
        kind = rng.random()
        if kind < 0.42:
            blocks.append(symmetrize(alg, lam, size))
        elif kind < 0.84:
            blocks.append(antisymmetrize(alg, lam, size))
        else:
            blocks.append(trivial_bimodule(alg, size))
        remaining -= size
    return conjugate(functools.reduce(direct_sum, blocks), random_invertible(alg.field, dim, rng))


def random_weak_bimodule(
    alg: LeibnizAlgebra, dim: int, rng: random.Random
) -> Bimodule:
    """Random weak bimodule of exactly the given dimension; mixes genuinely
    non-full 1-dim blocks with full blocks, hom spaces and duals."""
    blocks = []
    remaining = dim
    while remaining > 0:
        roll = rng.random()
        if roll < 0.45:
            blocks.append(random_one_dim_weak(alg, rng))
            remaining -= 1
        elif roll < 0.7:
            size = rng.randint(1, min(2, remaining))
            blocks.append(random_full_bimodule(alg, size, rng))
            remaining -= size
        elif roll < 0.85:
            a = random_one_dim_weak(alg, rng)
            b = random_one_dim_weak(alg, rng)
            blocks.append(hom_bimodule(a, b))
            remaining -= 1
        else:
            blocks.append(dual(random_one_dim_weak(alg, rng)))
            remaining -= 1
    return conjugate(functools.reduce(direct_sum, blocks), random_invertible(alg.field, dim, rng))
