"""Field change as an oracle for the layers above ``linalg``.

Integer data (the builtin algebras, their adjoints, the sl2 modules L(n) and
small-integer random full bimodules) defines the same objects over Q and over
F_P for the large prime P = 65521, and every dimension below must agree:
the Leibniz kernel, the envelope slices ``filtered_dims(3)``, the four
subspaces of ``kernels_and_invariants``, and S, T, T0 and both truncated
products.  A mismatch passes only when sympy's ``DomainMatrix``, given the
integer spanning set that defines the dimension, loses exactly that rank mod
P (a bad prime).  T, ``trunc_bar`` and ``filtered_dims`` come from closure
and elimination, with no fixed spanning set, so a mismatch there fails.
Composition factors are not compared: they may split further over F_P.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, QQ as SQQ
from sympy.polys.matrices import DomainMatrix

from leibniz.algebra import builtin_algebra, leibniz_kernel
from leibniz.bimodule import Bimodule, adjoint, kernels_and_invariants, sl2_irreducible
from leibniz.envelope import build_presentation
from leibniz.fields import FF, QQ
from leibniz.linalg import Matrix
from leibniz.samples import random_full_bimodule
from leibniz.tensor import (coarse_kernel, mll_defect_span, trunc_bar, trunc_under,
                            truncation_kernel)

P = 65521
FP = FF(P)
BUILTINS = ["A", "N", "e", "sl2", "hemi-sl2-L1", "abelian:2"]
SL2_FAMILY = ["sl2", "hemi-sl2-L1"]
SOLVABLE = ["A", "N", "e", "abelian:2"]  # those with random full bimodules


def integer_rows(vectors) -> list:
    """Each rational vector scaled by the lcm of its denominators."""
    out = []
    for v in vectors:
        scale = lcm(1, *(Fraction(x).denominator for x in v))
        out.append([int(Fraction(x) * scale) for x in v])
    return out


def sympy_rank(rows, width, domain) -> int:
    if not rows:
        return 0
    return DomainMatrix([[domain(x) for x in r] for r in rows], (len(rows), width), domain).rank()


def agree(name, over_q, over_p, spanning=None, width=0, sign=1):
    """``over_q == over_p``, or a bad prime: the quantity is a constant plus
    ``sign`` times the rank of the integer rows ``spanning``, and sympy finds
    exactly the rank drop mod P that the two dimensions show."""
    if over_q == over_p:
        return
    assert spanning is not None, f"{name}: dim {over_q} over Q but {over_p} over F_{P}"
    rows = integer_rows(spanning)
    drop = sympy_rank(rows, width, SQQ) - sympy_rank(rows, width, GF(P))
    assert drop and sign * drop == over_q - over_p, (
        f"{name}: dim {over_q} over Q but {over_p} over F_{P}, rank drop mod P is {drop}")


def reduce_mod_p(mod: Bimodule, alg_p) -> Bimodule:
    red = lambda x: FP.div(FP.from_int(x.numerator), FP.from_int(x.denominator))
    to_p = lambda m: Matrix(FP, [[red(x) for x in row] for row in m.rows], m.ncols)
    return Bimodule(alg_p, map(to_p, mod.lam), map(to_p, mod.rho), mod.dim)


def columns(mats):
    return [c for m in mats for c in m.columns()]


def kron_vectors(us, ws):
    return [[x * y for x in u for y in w] for u in us for w in ws]


@st.composite
def module_pairs(draw):
    """A builtin name and two modules over it, built over Q and over F_P."""
    name = draw(st.sampled_from(BUILTINS))
    alg_q, alg_p = builtin_algebra(name, QQ), builtin_algebra(name, FP)
    kinds = ["adjoint"] + ["sl2"] * (name in SL2_FAMILY) + ["random"] * (name in SOLVABLE)

    def module():
        kind = draw(st.sampled_from(kinds))
        if kind == "adjoint":
            return adjoint(alg_q), adjoint(alg_p)
        if kind == "sl2":
            n, side = draw(st.integers(0, 3)), draw(st.sampled_from(["sym", "anti"]))
            return sl2_irreducible(alg_q, n, side), sl2_irreducible(alg_p, n, side)
        rng = random.Random(draw(st.integers(0, 10**6)))
        mod = random_full_bimodule(alg_q, draw(st.integers(1, 3)), rng)
        return mod, reduce_mod_p(mod, alg_p)

    return name, module(), module()


class TestFieldChange:
    def test_bad_prime_excuses_only_its_rank_drop(self):
        agree("bad prime", 1, 0, [[P, 0]], 2)
        agree("bad prime, corank", 1, 2, [[P, 0]], 2, sign=-1)
        for over_p, rows in ((0, [[1, 0]]), (0, [[P, 1]]), (2, [[P, 0]])):
            with pytest.raises(AssertionError):
                agree("no excuse", 1, over_p, rows, 2)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_algebra_dims_agree(self, name):
        alg_q, alg_p = builtin_algebra(name, QQ), builtin_algebra(name, FP)
        t = alg_q.table
        squares = [t[i][i] for i in range(alg_q.dim)]
        squares += [[x + y for x, y in zip(t[i][j], t[j][i])]
                    for i in range(alg_q.dim) for j in range(i + 1, alg_q.dim)]
        agree(f"leibniz_kernel({name})", leibniz_kernel(alg_q).dim, leibniz_kernel(alg_p).dim,
              squares, alg_q.dim)
        for which in ("ul", "ulweak", "ulie"):
            dims = [build_presentation(alg, which, 3).filtered_dims(3) for alg in (alg_q, alg_p)]
            agree(f"{which}({name}).filtered_dims(3)", *dims)

    @given(module_pairs())
    @settings(max_examples=40, deadline=None)
    def test_module_and_product_dims_agree(self, drawn):
        name, (m_q, m_p), (n_q, n_p) = drawn
        assert m_q.is_full() and m_p.is_full() and n_q.is_full() and n_p.is_full()
        for label, (q, p) in (("M", (m_q, m_p)), ("N", (n_q, n_p))):
            kq, kp = kernels_and_invariants(q), kernels_and_invariants(p)
            d = q.dim
            gens = {"M0": columns(q.sums()), "MR": columns(q.rho), "LM": columns(q.lam)}
            for key, rows in gens.items():
                agree(f"{key}({label})", kq[key].dim, kp[key].dim, rows, d)
            rho_rows = [r for m in q.rho for r in m.rows]
            agree(f"Minv({label})", kq["Minv"].dim, kp["Minv"].dim, rho_rows, d, sign=-1)
        width = m_q.dim * n_q.dim
        defect = columns(sa.kron(ry) + ra.kron(sb) for sa, sb in zip(m_q.sums(), n_q.sums())
                         for ra, ry in zip(m_q.rho, n_q.rho))
        agree("S", mll_defect_span(m_q, n_q).dim, mll_defect_span(m_p, n_p).dim, defect, width)
        agree("T", truncation_kernel(m_q, n_q).dim, truncation_kernel(m_p, n_p).dim)
        agree("trunc_bar", trunc_bar(m_q, n_q).dim, trunc_bar(m_p, n_p).dim)
        coarse = (kron_vectors(columns(m_q.sums()), columns(n_q.rho))
                  + kron_vectors(columns(m_q.rho), columns(n_q.sums())))
        agree("T0", coarse_kernel(m_q, n_q).dim, coarse_kernel(m_p, n_p).dim, coarse, width)
        agree("trunc_under", trunc_under(m_q, n_q).dim, trunc_under(m_p, n_p).dim,
              coarse, width, sign=-1)
