"""Natural and truncated tensor products of (weak) bimodules.

The tensor space of factors of dimensions m and n carries the fixed basis
ordering (i, j) -> i*n + j.  On it the actions are

  lam_i = lam^M_i (x) I + I (x) lam^N_i
  rho_i = rho^M_i (x) I + I (x) rho^N_i

which satisfy LLM and LML for weak factors, as the cross terms cancel: the
product is marked weak.  For full factors the MLL defect is the span S of

  (x.m + m.x) (x) (n.y) + (m.y) (x) (x.n + n.x)

over basis quadruples; the product becomes a genuine bimodule after
factoring the action-closure T of S (bar truncation) or the coarser space
T0 = M0 (x) NL + ML (x) N0 (under truncation).  T is contained in T0 whenever
both factors are full, and can be strictly smaller: tests/test_tensor.py
``TestStrictTruncation`` pins a full W over A with dim T = 2 < 3 = dim T0.

The data of an ordered pair (M, N) -- M (x) N, S, T, T0 and both truncated
products -- is computed once and kept on the left factor M, keyed by N; so a
hom space N (x) M* (``bimodule.hom_bimodule``) is kept on its target N.
Structure morphisms are checked by ``bimodule.intertwines``; the collapse of
T and T0 for a symmetric or anti-symmetric factor is one table of its four
cases, and distributivity over direct sums one loop over the products.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LeibnizAlgebra, _memo, products_and_series
from .bimodule import (
    Bimodule,
    BimoduleError,
    _mark_weak,
    antisymmetrize,
    classify_flags,
    column_span,
    direct_sum,
    intertwines,
    kernels_and_invariants,
    quotient,
    subbimodule_closure,
    symmetrize,
    trivial_bimodule,
)
from .linalg import Matrix, Subspace, nullspace


@_memo
def tensor_bimodule(a: Bimodule, b: Bimodule) -> Bimodule:
    if a.algebra != b.algebra:
        raise BimoduleError("tensor product needs a common algebra")
    if not (a.is_weak() and b.is_weak()):
        raise BimoduleError("tensor product needs weak factors")
    f = a.field
    im = Matrix.identity(f, a.dim)
    jn = Matrix.identity(f, b.dim)
    actions = [x.kron(jn) + im.kron(y) for x, y in zip(a.actions, b.actions)]
    return _mark_weak(a.with_actions(actions, a.dim * b.dim))


def tensor_of_subspaces(u: Subspace, w: Subspace) -> Subspace:
    """Span of pairwise Kronecker products of basis vectors: the rows of
    the Kronecker product of the two basis matrices."""
    ambient = u.ambient_dim * w.ambient_dim
    return Subspace.span(u.field, ambient, u.basis.kron(w.basis).rows, _native=True)


@_memo
def mll_defect_span(a: Bimodule, b: Bimodule) -> Subspace:
    """S(M, N): bilinearity in each of x, y, m, n makes basis quadruples
    sufficient, and column i*dim(N) + j of the operator

      (x.- + -.x) (x) (-.y) + (-.y) (x) (x.- + -.x)

    is the generator of (x, y, m_i, n_j), so S is the column span of these
    operators over all basis pairs (x, y)."""
    ops = [
        sa.kron(ry) + ra.kron(sb)
        for sa, sb in zip(a.sums(), b.sums())
        for ra, ry in zip(a.rho, b.rho)
    ]
    return column_span(a.field, ops, a.dim * b.dim)


@dataclass
class TruncationData:
    s_span: Subspace
    t: Subspace
    t0: Subspace
    containment_verified: bool

    @property
    def t_equals_t0(self) -> bool:
        return self.t == self.t0


@_memo
def truncation_kernel(a: Bimodule, b: Bimodule) -> Subspace:
    """T(M, N): action closure of the MLL defect span; defined for weak factors."""
    return subbimodule_closure(tensor_bimodule(a, b), mll_defect_span(a, b).basis_vectors())


@_memo
def coarse_kernel(a: Bimodule, b: Bimodule) -> Subspace:
    """T0(M, N) of the under truncation; needs full factors."""
    if not (a.is_full() and b.is_full()):
        raise BimoduleError("coarse truncation data needs full bimodules")
    (a0, ar), (b0, br) = a.m0_and_mr(), b.m0_and_mr()
    return tensor_of_subspaces(a0, br).sum(tensor_of_subspaces(ar, b0))


def truncation_data(a: Bimodule, b: Bimodule) -> TruncationData:
    t0 = coarse_kernel(a, b)
    s = mll_defect_span(a, b)
    t = truncation_kernel(a, b)
    contained = t.contains_subspace(s) and t0.contains_subspace(t)
    return TruncationData(s_span=s, t=t, t0=t0, containment_verified=contained)


@_memo
def trunc_bar(a: Bimodule, b: Bimodule) -> Bimodule:
    """(M (x) N) / T(M, N); available for any weak factors."""
    return quotient(tensor_bimodule(a, b), truncation_kernel(a, b))


@_memo
def trunc_under(a: Bimodule, b: Bimodule) -> Bimodule:
    """(M (x) N) / T0(M, N); needs full factors."""
    return quotient(tensor_bimodule(a, b), coarse_kernel(a, b))


def truncation_collapse_check(a: Bimodule, b: Bimodule) -> dict:
    """For a symmetric or anti-symmetric factor, T and T0 collapse to a
    single product subspace; verify the applicable equalities."""
    fa, fb = classify_flags(a), classify_flags(b)
    # per case: does it apply, and the factors of the one product subspace
    table = {
        "left_symmetric": (fa["symmetric"], "LM", "M0"),
        "left_anti_symmetric": (fa["anti_symmetric"], "LM", "MR"),
        "right_symmetric": (fb["symmetric"], "M0", "LM"),
        "right_anti_symmetric": (fb["anti_symmetric"], "MR", "LM"),
    }
    if not any(applies for applies, _, _ in table.values()):
        raise BimoduleError("no symmetric or anti-symmetric factor: inapplicable")
    data = truncation_data(a, b)
    ka, kb = kernels_and_invariants(a), kernels_and_invariants(b)
    expected = {name: tensor_of_subspaces(ka[x], kb[y])
                for name, (applies, x, y) in table.items() if applies}
    cases = {name: data.t == e and data.t0 == e for name, e in expected.items()}
    return {"cases": cases, "all_hold": all(cases.values()), "data": data}


# ---------------------------------------------------------------------------
# monoidal structure morphisms


def flip_matrix(a: Bimodule, b: Bimodule) -> Matrix:
    f = a.field
    m, n = a.dim, b.dim
    z, o = f.zero(), f.one()
    rows = [[z] * (m * n) for _ in range(m * n)]
    for i in range(m):
        for j in range(n):
            rows[j * m + i][i * n + j] = o
    return Matrix(f, rows)


def structural_checks(l: Bimodule, m: Bimodule, n: Bimodule) -> dict:
    """Flip/associator/unit equivariance plus truncation compatibility."""
    out = {}
    gamma = flip_matrix(m, n)
    out["flip_is_morphism"] = intertwines(tensor_bimodule(m, n), tensor_bimodule(n, m), gamma)

    left_nested = tensor_bimodule(tensor_bimodule(l, m), n)
    right_nested = tensor_bimodule(l, tensor_bimodule(m, n))
    out["associator_is_morphism"] = left_nested.actions == right_nested.actions

    triv = trivial_bimodule(l.algebra, 1)
    left_unit = tensor_bimodule(triv, m)
    right_unit = tensor_bimodule(m, triv)
    out["units_are_morphisms"] = left_unit.actions == m.actions == right_unit.actions

    full = m.is_full() and n.is_full()
    kernels = (truncation_kernel, coarse_kernel) if full else (truncation_kernel,)
    out["flip_descends_to_truncations"] = all(
        Subspace.span(l.field, gamma.nrows, [gamma.apply(v) for v in kernel(m, n).basis_vectors()])
        == kernel(n, m) for kernel in kernels
    )

    sum_mn = direct_sum(m, n)
    products = {"bar": trunc_bar}
    if full and l.is_full():
        products["under"] = trunc_under
    out["distributivity_dims"] = dims = {}
    for name, prod in products.items():
        dims[name] = (prod(l, sum_mn).dim, prod(l, m).dim + prod(l, n).dim)
        dims[f"{name}_equal"] = dims[name][0] == dims[name][1]
    return out


# ---------------------------------------------------------------------------
# the non-associativity construction


def vanishing_functional(alg: LeibnizAlgebra):
    """A nonzero functional annihilating all products, as basis values."""
    info = products_and_series(alg)
    if info["is_perfect"]:
        raise BimoduleError(
            "algebra is perfect: no nonzero functional kills all products"
        )
    return nullspace(info["product_span"].basis).basis_vectors()[0]


def nonassociativity_witness(alg: LeibnizAlgebra) -> dict:
    """Three 1-dimensional bimodules for which the two association orders
    of the truncated products have different dimensions (1 versus 0)."""
    f = alg.field
    lam = vanishing_functional(alg)
    ones = [Matrix(f, [[v]]) for v in lam]
    left = symmetrize(alg, ones)
    middle = symmetrize(alg, [-m for m in ones])
    right = antisymmetrize(alg, ones)
    out = {"functional": lam, "modules": (left, middle, right)}
    for name, prod in (("bar", trunc_bar), ("under", trunc_under)):
        left_first = prod(prod(left, middle), right).dim
        right_first = prod(left, prod(middle, right)).dim
        out[name] = (left_first, right_first)
    return out
