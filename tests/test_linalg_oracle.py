"""Exact linear algebra against an independent oracle: sympy's DomainMatrix
over QQ and GF(p).

Every answer of ``leibniz.linalg`` is recomputed by sympy from the same
entries, including 0 x n and n x 0 inputs and matrices whose eigenvalues
repeat or are non-integer rationals.  The arithmetic of ``Matrix`` and the
vector helpers is checked on zero-heavy inputs, and every kernel output is
checked to hold native scalars only, one per value: over Q an ``int`` when
integral and otherwise a ``Fraction``, and over F_p an ``int`` in
``[0, p)``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, Poly, QQ as SQQ, symbols
from sympy.polys.matrices import DomainMatrix

from leibniz.fields import FF, QQ, FieldError
from leibniz.linalg import (
    LinAlgError,
    Matrix,
    RowReducer,
    Subspace,
    charpoly,
    determinant,
    eigenvalues_in_field,
    induced_on_quotient,
    induced_on_subspace,
    invert,
    nullspace,
    rank,
    vec_add,
)

FIELDS = [QQ, FF(2), FF(3), FF(5), FF(7)]
ARITH_FIELDS = FIELDS + [FF(101)]


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


def zero_heavy(field, n, m, rng, density) -> Matrix:
    """An n x m matrix whose entries are zero with probability 1 - density;
    the others are any nonzero residue over F_p, or small fractions over Q."""
    def entry():
        if rng.random() >= density:
            return field.zero()
        if field.characteristic:
            return rng.randrange(1, field.characteristic)
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 4))
    return Matrix(field, [[entry() for _ in range(m)] for _ in range(n)], m)


@st.composite
def arithmetic_cases(draw):
    """A field, three dimensions in 0..4 (so 0 x n and n x 0 shapes occur)
    and a seeded generator of zero-heavy matrices of those shapes."""
    field = draw(st.sampled_from(ARITH_FIELDS))
    dims = draw(st.tuples(*[st.integers(0, 4)] * 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    return field, dims, lambda n, m: zero_heavy(field, n, m, rng, density), rng


def as_matrix(field, d: DomainMatrix) -> Matrix:
    return Matrix(field, rows_of(d, field), d.shape[1])


def as_vector(field, d: DomainMatrix) -> tuple:
    return tuple(from_sympy(field, x) for row in d.to_list() for x in row)


def column(field, vec) -> DomainMatrix:
    return DomainMatrix([[to_sympy(field, x)] for x in vec], (len(vec), 1), domain(field))


def row_vector(field, vec) -> DomainMatrix:
    return DomainMatrix([[to_sympy(field, x) for x in vec]], (1, len(vec)), domain(field))


def kron_oracle(a: Matrix, b: Matrix) -> DomainMatrix:
    """(A (x) B)[i*p + k][j*q + l] = A[i][j] B[k][l], in sympy's domain."""
    x, y = dm(a).to_list(), dm(b).to_list()
    rows = [
        [x[i][j] * y[k][l] for j in range(a.ncols) for l in range(b.ncols)]
        for i in range(a.nrows)
        for k in range(b.nrows)
    ]
    shape = (a.nrows * b.nrows, a.ncols * b.ncols)
    return DomainMatrix(rows, shape, domain(a.field))


def kron_row(field, u, v) -> tuple:
    """The Kronecker product of two vectors, as the one row of the
    Kronecker product of the two 1-row matrices."""
    return Matrix(field, [u], len(u)).kron(Matrix(field, [v], len(v))).rows[0]


def native(field, x) -> bool:
    if field.characteristic:
        return type(x) is int and 0 <= x < field.characteristic
    if type(x) is int:
        return True
    return type(x) is Fraction and x.denominator != 1


def all_native(field, xs) -> bool:
    return all(native(field, x) for x in xs)


class TestArithmeticAgainstDomainMatrix:
    @given(arithmetic_cases())
    @settings(max_examples=120, deadline=None)
    def test_product_and_apply(self, case):
        field, (n, k, m), draw, rng = case
        a, b = draw(n, k), draw(k, m)
        assert a * b == as_matrix(field, dm(a) * dm(b))
        vec = draw(1, k).rows[0]
        assert a.apply(vec) == as_vector(field, dm(a) * column(field, vec))
        with pytest.raises(LinAlgError):
            a * draw(k + 1, m)

    @given(arithmetic_cases())
    @settings(max_examples=120, deadline=None)
    def test_sum_difference_negation_scale(self, case):
        field, (n, m, _), draw, rng = case
        a, b = draw(n, m), draw(n, m)
        c = draw(1, 1).rows[0][0]
        assert a + b == as_matrix(field, dm(a) + dm(b))
        assert a - b == as_matrix(field, dm(a) - dm(b))
        assert -a == as_matrix(field, -dm(a))
        assert a.scale(c) == as_matrix(field, dm(a).mul(to_sympy(field, c)))
        assert a.transpose() == as_matrix(field, dm(a).transpose())
        assert a.is_zero() == dm(a).is_zero_matrix
        assert (a - a).is_zero() and Matrix.zeros(field, n, m).is_zero()

    @given(arithmetic_cases())
    @settings(max_examples=120, deadline=None)
    def test_kron(self, case):
        field, (n, m, k), draw, rng = case
        a, b = draw(n, m), draw(k, rng.randint(0, 3))
        assert a.kron(b) == as_matrix(field, kron_oracle(a, b))

    @given(arithmetic_cases())
    @settings(max_examples=120, deadline=None)
    def test_vectors(self, case):
        field, (n, _, _), draw, rng = case
        u, v = (draw(1, n).rows[0] for _ in range(2))
        assert vec_add(field, u, v) == as_vector(field, row_vector(field, u) + row_vector(field, v))


class TestNativeScalars:
    """Every entry of every kernel output is a native scalar of its field,
    whatever mix of zero and nonzero operands went in."""

    @pytest.mark.parametrize("field", ARITH_FIELDS, ids=repr)
    def test_mixed_operands(self, field):
        a = Matrix(field, [[0, 1, 0], [2, 0, 3], [0, 0, 0]])
        b = Matrix(field, [[1, 0, 0], [0, 0, 4], [5, 6, 0]])
        for out in (a + b, a - b, b - a, -a, a.scale(3), a.scale(0), a * b, a.kron(b),
                    a.transpose(), Subspace.span(field, 3, a.rows + b.rows).basis):
            assert all_native(field, (x for row in out.rows for x in row)), out
        u, v = a.rows[1], b.rows[0]
        for out in (a.apply(u), vec_add(field, u, v), kron_row(field, u, v), charpoly(a * b)):
            assert all_native(field, out), out

    @given(arithmetic_cases())
    @settings(max_examples=120, deadline=None)
    def test_matrix_operations(self, case):
        field, (n, m, _), draw, rng = case
        a, b, sq = draw(n, m), draw(n, m), draw(n, n)
        c = draw(1, 1).rows[0][0]
        outputs = [a + b, a - b, -a, a.scale(c), a.scale(2), a * draw(m, n), a.kron(b),
                   a.transpose(), sq * sq, Matrix.zeros(field, n, m), Matrix.identity(field, n),
                   Matrix(field, [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)], m)]
        for out in outputs:
            assert all_native(field, (x for row in out.rows for x in row))
        vec = draw(1, m).rows[0]
        assert all_native(field, a.apply(vec))
        assert all_native(field, vec_add(field, vec, vec) + kron_row(field, vec, vec))
        assert all_native(field, charpoly(sq)) and native(field, determinant(sq))
        assert native(field, sq.trace())

    @given(arithmetic_cases())
    @settings(max_examples=120, deadline=None)
    def test_reduction_outputs(self, case):
        field, (n, m, _), draw, rng = case
        a, b = draw(n, m), draw(n, m)
        red = RowReducer(field, m)
        red.insert_all(a.rows)
        red.insert_all({j: rng.randint(-9, 9) for j in range(m) if rng.random() < 0.5}
                       for _ in range(2))
        assert all(all_native(field, row.values()) for row in red._rows.values())
        assert all(all_native(field, row) for row in red.rows)
        probe = draw(1, m).rows[0]
        assert all_native(field, red.reduce(probe))
        assert all_native(field, red.reduce(dict(enumerate(probe))).values())
        u, w = Subspace.span(field, m, a.rows), Subspace.span(field, m, b.rows)
        for space in (u, w, u.sum(w), u.intersect(w), nullspace(a)):
            assert all_native(field, (x for row in space.basis.rows for x in row))
        sq = draw(n, n)
        image = Subspace.span(field, n, sq.columns())  # sq-invariant
        (quotient,) = induced_on_quotient([sq], image)
        assert all_native(field, (x for row in quotient.rows for x in row))
        if rank(sq) == n:
            assert all_native(field, (x for row in invert(sq).rows for x in row))

    @pytest.mark.parametrize("field", ARITH_FIELDS, ids=repr)
    def test_field_constants_inv_and_parse(self, field):
        scalars = [field.zero(), field.one(), field.from_int(-7), field.from_int(True),
                   field.coerce(True), field.coerce(-4), field.inv(field.from_int(-1))]
        scalars += [field.parse(text) for text in ("22/11", "-22/11", "0/11", "1/11")]
        if field.characteristic != 2:
            scalars += [field.inv(field.from_int(2)), field.inv(field.parse("1/11"))]
        assert all_native(field, scalars), scalars
        assert field.parse("22/11") == field.from_int(2)
        assert field.inv(field.inv(field.from_int(11))) == field.from_int(11)

    def test_rational_scalars(self):
        coerced = [QQ.coerce(x) for x in (Fraction(6, 3), Fraction(-1, 2), True)]
        assert coerced == [2, Fraction(-1, 2), 1] and all_native(QQ, coerced)
        assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
        assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
        assert type(QQ.parse("4/2")) is int and type(QQ.parse("3/6")) is Fraction
        normal = [QQ.normal(x) for x in (Fraction(4, 2), Fraction(1, 2), 5)]
        assert normal == [2, Fraction(1, 2), 5] and all_native(QQ, normal)

    @pytest.mark.parametrize("value", [1.0, 0.5, float("inf")])
    def test_floats_are_refused(self, value):
        with pytest.raises(FieldError):
            QQ.coerce(value)
        with pytest.raises(FieldError):
            Matrix(QQ, [[value]])

    def test_rational_eigenvalues(self):
        # triangular with diagonal 2, 1/2, 0, -3, then conjugated by an
        # integer matrix of determinant 1: the roots of its characteristic
        # polynomial are exactly these, integral ones as ints
        t = Matrix(QQ, [[2, 1, 0, 5], [0, Fraction(1, 2), 3, 0], [0, 0, 0, 1], [0, 0, 0, -3]])
        p = Matrix(QQ, [[1, 2, 0, 0], [0, 1, 0, 0], [0, 3, 1, 0], [1, 0, 0, 1]])
        roots = eigenvalues_in_field(p * t * invert(p))
        assert sorted(roots) == [-3, 0, Fraction(1, 2), 2]
        assert all_native(QQ, roots), roots

    @given(arithmetic_cases())
    @settings(max_examples=120, deadline=None)
    def test_eigenvalues_are_native(self, case):
        field, (n, _, _), draw, rng = case
        sq = draw(n, n)
        roots = eigenvalues_in_field(sq)
        assert all_native(field, roots), roots
        assert all(determinant(sq - Matrix.identity(field, n).scale(r)) == 0 for r in roots)


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

    @given(matrices(fields=ARITH_FIELDS))
    @settings(max_examples=80, deadline=None)
    def test_quotient_map(self, m):
        # rank n - k, P B^T = 0, and the identity at the complement coordinates
        span = Subspace.span(m.field, m.ncols, m.rows)
        p, keep = span.quotient_map(), span.complement_coords()
        assert p.shape == (len(keep), m.ncols) == (m.ncols - span.dim, m.ncols)
        assert dm(p).rank() == m.ncols - span.dim
        assert (dm(p) * dm(span.basis).transpose()).is_zero_matrix
        at_keep = [[row[j] for j in keep] for row in p.rows]
        assert Matrix._of(m.field, at_keep, len(keep)) == Matrix.identity(m.field, len(keep))
        assert all_native(m.field, (x for row in p.rows for x in row))

    @given(arithmetic_cases())
    @settings(max_examples=120, deadline=None)
    def test_induced_maps_of_a_family(self, case):
        # a family keeping span{P e_0, ..., P e_(k-1)}: P T P^-1 with T block
        # upper triangular; sympy's RREF B of that span gives the induced
        # maps M B^T at the pivot rows, and M - B^T M_pivots at the
        # complement coordinates
        field, (n, _, _), draw, rng = case
        p = draw(n, n)
        while dm(p).rank() < n:
            p = random_matrix(field, n, n, rng)
        k = rng.randint(0, n)
        pinv = as_matrix(field, dm(p).inv()) if n else p
        triangular = [
            Matrix(field, [[0 if i >= k > j else x for j, x in enumerate(r)]
                           for i, r in enumerate(draw(n, n).rows)], n)
            for _ in range(3)
        ]
        mats = [p * t * pinv for t in triangular]
        space = Subspace.span(field, n, p.columns()[:k])
        reduced, pivots = dm(Matrix(field, p.columns()[:k], n)).rref()
        keep = [j for j in range(n) if j not in pivots]
        bt = reduced.extract(range(k), range(n)).transpose()
        for m, sub, quot in zip(mats, induced_on_subspace(mats, space),
                                induced_on_quotient(mats, space)):
            assert dm(m) * bt == bt * dm(sub)
            assert sub == as_matrix(field, (dm(m) * bt).extract(pivots, range(k)))
            rest = dm(m) - bt * dm(m).extract(pivots, range(n))
            assert quot == as_matrix(field, rest.extract(keep, keep))
        other = draw(n, n)
        moved = (dm(other) * bt).transpose()
        if reduced.extract(range(k), range(n)).vstack(moved).rank() > k:
            for induce in (induced_on_subspace, induced_on_quotient):
                with pytest.raises(LinAlgError, match="not invariant"):
                    induce(mats + [other], space)

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
        assert red.contains(feed(combo))

    @pytest.mark.parametrize("vec", [{-1: 1}, {3: 1}, [1, 2]])
    def test_bad_vectors_rejected(self, vec):
        red = RowReducer(QQ, 3)
        with pytest.raises(LinAlgError):
            red.insert(vec)

    @pytest.mark.parametrize("field", [QQ, FF(5)], ids=repr)
    def test_public_methods_coerce_and_check(self, field):
        red = RowReducer(field, 3)
        assert red.insert([2, 7, 0])  # plain ints; 7 is outside [0, 5)
        assert all(all_native(field, row) for row in red.rows)
        assert all_native(field, red.reduce([1, -3, 4]))
        assert all_native(field, red.reduce({0: 1, 2: 6}).values())
        assert red.contains([4, 14, 0])
        for method in (red.insert, red.reduce, red.contains):
            for bad in ({-1: 1}, {3: 1}, [1, 2]):
                with pytest.raises(LinAlgError):
                    method(bad)
            with pytest.raises(FieldError):
                method(["x", 0, 0])

    @pytest.mark.parametrize("field", [QQ, FF(5)], ids=repr)
    def test_full_reducer_checks_without_eliminating(self, field, monkeypatch):
        # once the rows span the whole width, insert adds and eliminates
        # nothing, yet still rejects what it would reject before
        red = RowReducer(field, 2)
        red.insert_all([[1, 1], [0, 3]])
        eliminated, eliminate = [], RowReducer._eliminate
        monkeypatch.setattr(RowReducer, "_eliminate",
                            lambda *a: eliminated.append(a) or eliminate(*a))
        assert not red.insert([3, 4]) and not red.insert({1: 2})
        for bad in ([1, 2, 3], [1], {2: 1}):
            with pytest.raises(LinAlgError):
                red.insert(bad)
        with pytest.raises(LinAlgError, match="length"):
            red.insert((1, 2, 3), _native=True)
        with pytest.raises(FieldError):
            red.insert(["x", 0])
        assert eliminated == [] and red.basis() == Matrix.identity(field, 2)

    @pytest.mark.parametrize("field", [QQ, FF(5)], ids=repr)
    def test_native_rows_of_the_wrong_length_rejected(self, field):
        # native rows skip coercion, not the length check: too short would
        # pad silently and too long would index past the width
        for width, vec in ((3, (1, 2)), (2, (1, 2, 3))):
            with pytest.raises(LinAlgError, match="length"):
                Subspace.span(field, width, [vec], _native=True)

    @pytest.mark.parametrize("field", ARITH_FIELDS, ids=repr)
    def test_kernel_rows_skip_coercion(self, field, monkeypatch):
        # the kernel's own rows are native already: coercing them again is waste
        a = Matrix(field, [[1, 2, 0, 3], [0, 1, 4, 0], [0, 0, 1, 5], [0, 0, 0, 1]])
        b = Matrix(field, [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [0, 0, 0, 0]])
        u, w = Subspace.span(field, 4, [b.rows[0], a.rows[0]]), Subspace.span(field, 4, b.rows)
        image = Subspace.span(field, 4, b.columns())
        calls = []
        coerce = type(field).coerce
        monkeypatch.setattr(type(field), "coerce", lambda f, x: calls.append(x) or coerce(f, x))
        null, inverse = nullspace(b), invert(a)
        r, total, meet = rank(b), u.sum(w), u.intersect(w)
        inside, (quotient,) = w.contains_subspace(u), induced_on_quotient([b], image)
        assert calls == []
        dims = (null.dim, r, total.dim, meet.dim, inside, quotient.shape)
        assert dims == (2, 2, 3, 1, False, (2, 2))
        assert (b * null.basis.transpose()).is_zero() and inverse * a == Matrix.identity(field, 4)


INDEX_FIELDS = [FF(2), FF(3), FF(101), QQ]


@st.composite
def index_cases(draw):
    """A field, a width of at most 40 and two lists of up to 20 sparse
    ``{column: scalar}`` vectors of 1-6 entries, drawn from a pool of
    columns small enough that a new pivot often lies in stored rows."""
    field = draw(st.sampled_from(INDEX_FIELDS))
    width = draw(st.integers(1, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = rng.sample(range(width), rng.randint(1, width))

    def vectors():
        return [{j: scalar(field, rng) for j in rng.sample(pool, min(len(pool), rng.randint(1, 6)))}
                for _ in range(draw(st.integers(0, 20)))]

    return field, width, vectors(), vectors()


def sympy_rref(field, width, vecs) -> Matrix:
    """The RREF basis of the span of the ``{column: scalar}`` vectors, by sympy."""
    dense = [[to_sympy(field, field.coerce(v.get(j, 0))) for j in range(width)] for v in vecs]
    reduced, pivots = DomainMatrix(dense, (len(vecs), width), domain(field)).rref()
    return Matrix(field, rows_of(reduced, field)[: len(pivots)], width)


class TestColumnIndex:
    """The row reducer's column index equals the one recomputed from its
    rows after every insert, no row holds another row's pivot, and the
    basis is sympy's RREF: for fresh reducers, for reducers from
    ``Subspace.reducer`` that are then inserted into (their index is built
    at the first store), and through ``Subspace.sum`` and ``intersect``."""

    @staticmethod
    def check(red: RowReducer, vecs: list) -> None:
        index = {}
        for q, row in red._rows.items():
            for j in row:
                if j != q:
                    index.setdefault(j, set()).add(q)
        if red._cols is not None:
            assert red._cols == index
        assert not any(q in row for p, row in red._rows.items() for q in red.pivots if q != p)
        assert red.basis() == sympy_rref(red.field, red.width, vecs)

    @given(index_cases())
    @settings(max_examples=80, deadline=None)
    def test_index_after_every_insert(self, case):
        field, width, first, second = case
        red = RowReducer(field, width)
        for i, v in enumerate(first):
            red.insert(v)
            self.check(red, first[: i + 1])
        seeded = Subspace.span(field, width, first).reducer()
        for i, v in enumerate(second):
            seeded.insert(v)
            self.check(seeded, first + second[: i + 1])

    @given(index_cases())
    @settings(max_examples=80, deadline=None)
    def test_sum_and_intersect(self, case):
        field, width, first, second = case
        u, w = Subspace.span(field, width, first), Subspace.span(field, width, second)
        total = u.sum(w)
        assert total.basis == sympy_rref(field, width, first + second)
        meet = u.intersect(w)
        met = [dict(enumerate(r)) for r in meet.basis.rows]
        assert meet.basis == sympy_rref(field, width, met)
        assert meet.dim == u.dim + w.dim - total.dim
        assert sympy_rref(field, width, first + met) == u.basis
        assert sympy_rref(field, width, second + met) == w.basis


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
