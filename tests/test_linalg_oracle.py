"""Exact linear algebra against an independent oracle: sympy's DomainMatrix
over QQ and GF(p).

Every answer of ``leibniz.linalg`` is recomputed by sympy from the same
entries, including 0 x n and n x 0 inputs and matrices whose eigenvalues
repeat or are non-integer rationals.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, Poly, QQ as SQQ, symbols
from sympy.polys.matrices import DomainMatrix

from leibniz.fields import FF, QQ
from leibniz.linalg import (
    LinAlgError,
    Matrix,
    RowReducer,
    Subspace,
    charpoly,
    determinant,
    eigenvalues_in_field,
    invert,
    nullspace,
    rank,
)

FIELDS = [QQ, FF(2), FF(3), FF(5), FF(7)]


def domain(field):
    return SQQ if field.characteristic == 0 else GF(field.characteristic)


def to_sympy(field, x):
    if field.characteristic == 0:
        return SQQ(x.numerator, x.denominator)
    return domain(field)(int(x))


def from_sympy(field, x):
    if field.characteristic == 0:
        return Fraction(int(x.numerator), int(x.denominator))
    return int(x) % field.characteristic


def dm(m: Matrix) -> DomainMatrix:
    f = m.field
    return DomainMatrix(
        [[to_sympy(f, x) for x in row] for row in m.rows], m.shape, domain(f)
    )


def rows_of(d: DomainMatrix, field) -> list:
    return [[from_sympy(field, x) for x in row] for row in d.to_list()]


def scalar(field, rng):
    if field.characteristic == 0 and rng.random() < 0.3:
        return Fraction(rng.randint(-3, 3), rng.choice([2, 3]))
    return field.coerce(rng.randint(-3, 3))


def random_matrix(field, n, m, rng) -> Matrix:
    return Matrix(field, [[scalar(field, rng) for _ in range(m)] for _ in range(n)], m)


@st.composite
def matrices(draw, square=False, fields=FIELDS, max_dim=4):
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(0, max_dim))
    m = n if square else draw(st.integers(0, max_dim))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_matrix(field, n, m, rng)


class TestAgainstDomainMatrix:
    @given(matrices())
    @settings(max_examples=80, deadline=None)
    def test_rank(self, m):
        assert rank(m) == dm(m).rank()

    @given(matrices())
    @settings(max_examples=80, deadline=None)
    def test_canonical_rref_of_span(self, m):
        span = Subspace.span(m.field, m.ncols, m.rows)
        reduced, pivots = dm(m).rref()
        want = rows_of(reduced, m.field)[: len(pivots)]
        assert span.pivots == tuple(pivots)
        assert span.basis == Matrix(m.field, want, m.ncols)

    @given(matrices())
    @settings(max_examples=80, deadline=None)
    def test_nullspace(self, m):
        ns = nullspace(m)
        assert ns.ambient_dim == m.ncols
        assert ns.dim == m.ncols - dm(m).rank()
        for v in ns.basis_vectors():
            assert all(x == 0 for x in m.apply(v))

    @given(matrices(), st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_intersect_dimension(self, m, seed):
        f, n = m.field, m.ncols
        other = random_matrix(f, random.Random(seed).randint(0, 4), n, random.Random(seed))
        u = Subspace.span(f, n, m.rows)
        w = Subspace.span(f, n, other.rows)
        stacked = Matrix(f, m.rows + other.rows, n)
        want = dm(m).rank() + dm(other).rank() - dm(stacked).rank()
        meet = u.intersect(w)
        assert meet.dim == want
        assert u.contains_subspace(meet) and w.contains_subspace(meet)
        assert meet == Subspace.span(f, n, meet.basis.rows)
        assert meet.pivots == Subspace.span(f, n, meet.basis.rows).pivots

    @given(matrices(square=True))
    @settings(max_examples=80, deadline=None)
    def test_determinant_and_inverse(self, m):
        det = dm(m).det()
        assert determinant(m) == from_sympy(m.field, det)
        if det == 0:
            with pytest.raises(LinAlgError):
                invert(m)
        else:
            assert invert(m) == Matrix(m.field, rows_of(dm(m).inv(), m.field), m.ncols)

    @given(matrices(square=True))
    @settings(max_examples=80, deadline=None)
    def test_charpoly(self, m):
        want = [from_sympy(m.field, c) for c in dm(m).charpoly()]
        assert charpoly(m) == list(reversed(want))

    @given(matrices(square=True))
    @settings(max_examples=80, deadline=None)
    def test_eigenvalues_in_field(self, m):
        got = eigenvalues_in_field(m)
        assert len(set(got)) == len(got)
        assert set(got) == sympy_eigenvalues(m)

    @given(matrices(square=True, fields=FIELDS[1:]))
    @settings(max_examples=80, deadline=None)
    def test_eigenvalues_over_fp_ascend(self, m):
        assert eigenvalues_in_field(m) == sorted(sympy_eigenvalues(m))


@st.composite
def sparse_systems(draw):
    """Up to 30 rows of 1-4 entries in a width of up to 300, the columns
    drawn from a pool small enough that rows often depend on each other;
    each row is a ``{column: scalar}`` dict, its scalars possibly zero."""
    field = draw(st.sampled_from(FIELDS))
    width = draw(st.integers(1, 300))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = rng.sample(range(width), rng.randint(1, min(width, 40)))
    rows = [
        {j: scalar(field, rng) for j in rng.sample(pool, min(len(pool), rng.randint(1, 4)))}
        for _ in range(draw(st.integers(0, 30)))
    ]
    return field, width, rows, rng


class TestSparseRowReducer:
    """The sparse kernel on wide rows with few nonzeros, fed as dense lists
    or as ``{column: scalar}`` dicts, against sympy's RREF: the residual of
    v is v - sum_i v[p_i] R_i over the RREF rows R_i with pivots p_i."""

    @given(sparse_systems(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_wide_sparse_rows(self, system, as_dict):
        field, width, rows, rng = system
        dense = lambda v: [v.get(j, 0) for j in range(width)]
        feed = (lambda v: v) if as_dict else dense
        red = RowReducer(field, width)
        red.insert_all(feed(r) for r in rows)

        dom = domain(field)
        sym = lambda v: [to_sympy(field, field.coerce(x)) for x in dense(v)]
        ref = DomainMatrix([sym(r) for r in rows], (len(rows), width), dom)
        reduced, pivots = ref.rref()
        rref = [[dom(x) for x in row] for row in reduced.to_list()[: len(pivots)]]
        assert red.pivots == list(pivots) and red.rank == len(pivots)
        assert red.basis() == Matrix(field, rows_of(reduced, field)[: len(pivots)], width)

        shuffled = RowReducer(field, width)
        shuffled.insert_all(feed(r) for r in rng.sample(rows, len(rows)))
        assert shuffled.basis() == red.basis() and shuffled.pivots == red.pivots

        combo = {}
        for r in rng.sample(rows, min(len(rows), 3)):
            c = scalar(field, rng)
            for j, x in r.items():
                combo[j] = field.add(combo.get(j, field.zero()), field.mul(c, field.coerce(x)))
        stray = {j: scalar(field, rng) for j in rng.sample(range(width), min(width, 3))}
        for probe in (combo, stray, {}):
            v = sym(probe)
            residual = list(v)
            for row, p in zip(rref, pivots):
                residual = [x - v[p] * y for x, y in zip(residual, row)]
            want = [from_sympy(field, x) for x in residual]
            in_span = not any(want)
            got = red.reduce(feed(probe))
            if as_dict:
                assert got == {j: x for j, x in enumerate(want) if x}
            else:
                assert got == want
            assert red.contains(feed(probe)) == in_span
            coords = [from_sympy(field, v[p]) for p in pivots] if in_span else None
            assert red.coords(feed(probe)) == coords
        assert red.contains(feed(combo))

    @pytest.mark.parametrize("vec", [{-1: 1}, {3: 1}, [1, 2]])
    def test_bad_vectors_rejected(self, vec):
        red = RowReducer(QQ, 3)
        with pytest.raises(LinAlgError):
            red.insert(vec)


def sympy_eigenvalues(m: Matrix) -> set:
    f = m.field
    if f.characteristic:
        ident = Matrix.identity(f, m.nrows)
        return {
            c for c in f.elements() if dm(m - ident.scale(c)).det() == 0
        }
    if m.nrows == 0:
        return set()
    t = symbols("t")
    roots = Poly(dm(m).charpoly(), t, domain="QQ").ground_roots()
    return {Fraction(int(r.p), int(r.q)) for r in roots}


def conjugated(diagonal, upper, rng) -> Matrix:
    """P (D + N) P^-1 for an integer P with det +-1, diagonal D and a
    strictly upper triangular N: eigenvalues are exactly ``diagonal``."""
    n = len(diagonal)
    core = [
        [diagonal[i] if i == j else (upper[i] if j == i + 1 else 0) for j in range(n)]
        for i in range(n)
    ]
    p = Matrix.identity(QQ, n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            step = [[int(a == b) for b in range(n)] for a in range(n)]
            step[i][j] = rng.choice([-1, 1])
            p = p * Matrix.from_ints(QQ, step)
    return p * Matrix(QQ, core) * invert(p)


class TestEigenvalueShapes:
    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=5),
        st.lists(st.integers(0, 1), min_size=5, max_size=5),
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_matrices_with_repeated_eigenvalues(self, diag, upper, seed):
        diag = diag + diag[:1]  # at least one repeat
        m = conjugated(diag, upper, random.Random(seed))
        assert all(x.denominator == 1 for row in m.rows for x in row)
        got = eigenvalues_in_field(m)
        assert sorted(got) == sorted(set(diag))
        assert set(got) == sympy_eigenvalues(m)

    @given(
        st.lists(st.fractions(-3, 3, max_denominator=4), min_size=1, max_size=4),
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_integer_rational_eigenvalues(self, diag, seed):
        m = conjugated(diag, [1] * 4, random.Random(seed))
        got = eigenvalues_in_field(m)
        assert sorted(got) == sorted(set(diag))
        assert set(got) == sympy_eigenvalues(m)

    @pytest.mark.parametrize("n, bound", [(9, 40), (7, 1000)])
    def test_large_constant_terms(self, n, bound):
        """Integer matrices whose characteristic polynomial has a constant
        term near 10^14 (9x9) or 10^20 (7x7); the zero column under the
        corner plants the rational eigenvalue m[0][0]."""
        rng = random.Random(n)
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        for row in rows[1:]:
            row[0] = 0
        m = Matrix.from_ints(QQ, rows)
        assert abs(charpoly(m)[0]) > 10**12
        got = eigenvalues_in_field(m)
        assert Fraction(rows[0][0]) in got
        assert set(got) == sympy_eigenvalues(m)
