"""Exact linear algebra: canonical RREF, rank-nullity, kron conventions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibniz.fields import QQ, FF, FieldError, Field
from leibniz.linalg import (
    LinAlgError,
    Matrix,
    Subspace,
    charpoly,
    determinant,
    eigenvalues_in_field,
    induced_on_quotient,
    invert,
    nullspace,
    rank,
    unit_vector,
)

F5 = FF(5)


def det2(rows):
    """Independent 2x2 determinant oracle."""
    (a, b), (c, d) = rows
    return a * d - b * c


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def kron_vec(field, u, v) -> tuple:
    """Kronecker product of two vectors, left factor major."""
    return tuple(field.mul(a, b) for a in u for b in v)


def random_matrix(field, n, m, rng, lo=-3, hi=3):
    return Matrix(
        field, [[field.from_int(rng.randint(lo, hi)) for _ in range(m)] for _ in range(n)]
    )


class TestScalars:
    def test_parse_format_roundtrip(self):
        for s in ["0", "7", "-3", "5/3", "-10/4"]:
            x = QQ.parse(s)
            assert QQ.parse(QQ.format(x)) == x

    def test_lowest_terms_positive_denominator(self):
        x = QQ.parse("-10/4")
        assert x.numerator == -5 and x.denominator == 2
        assert QQ.format(x) == "-5/2"
        assert QQ.format(QQ.parse("6/3")) == "2"

    def test_zero_denominator_rejected(self):
        with pytest.raises(FieldError):
            QQ.parse("1/0")

    def test_prime_field_residues(self):
        f = FF(7)
        assert f.parse("10") == 3
        assert f.format(f.neg(f.one())) == "6"
        assert f.div(f.from_int(3), f.from_int(5)) == 2  # 3*5^{-1} = 3*3 = 2 mod 7

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(FieldError):
            FF(6)

    def test_field_spec_roundtrip(self):
        assert Field.from_spec("Q") == QQ
        assert Field.from_spec("Fp:11").p == 11
        with pytest.raises(FieldError):
            Field.from_spec("R")

    @given(a=small_fraction, b=small_fraction)
    def test_exactness_inverse_pairs(self, a, b):
        if a != 0:
            assert QQ.mul(a, QQ.inv(a)) == 1
        assert QQ.sub(QQ.add(a, b), b) == a


class TestRrefSpan:
    def test_empty_span(self):
        s = Subspace.span(QQ, 3, [])
        assert s.dim == 0 and s.ambient_dim == 3

    def test_collinear(self):
        s = Subspace.span(QQ, 2, [(1, 0), (2, 0)])
        assert s.dim == 1
        assert s.basis.rows == ((Fraction(1), Fraction(0)),)

    def test_rank_two_matches_determinant_oracle(self):
        vecs = [(1, 1), (1, -1)]
        assert det2(vecs) != 0
        assert Subspace.span(QQ, 2, vecs).dim == 2

    def test_dimension_mismatch(self):
        with pytest.raises(LinAlgError):
            Subspace.span(QQ, 2, [(1, 0, 0)])

    def test_canonical_form_order_insensitive(self):
        rng = random.Random(7)
        for _ in range(30):
            vecs = [
                tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(3)
            ]
            shuffled = vecs[:]
            rng.shuffle(shuffled)
            scaled = [tuple(2 * x for x in v) for v in vecs]
            a = Subspace.span(QQ, 4, vecs)
            b = Subspace.span(QQ, 4, shuffled + scaled)
            assert a == b

    def test_idempotent(self):
        s = Subspace.span(QQ, 3, [(1, 2, 3), (0, 1, 1)])
        again = Subspace.span(QQ, 3, s.basis.rows)
        assert again == s


class TestNullspace:
    def test_zero_matrix(self):
        assert nullspace(Matrix.zeros(QQ, 2, 2)).dim == 2

    def test_identity(self):
        assert nullspace(Matrix.identity(QQ, 3)).dim == 0

    def test_ones_matrix_by_substitution(self):
        m = Matrix.from_ints(QQ, [[1, 1], [1, 1]])
        ns = nullspace(m)
        assert ns == Subspace.span(QQ, 2, [(1, -1)])
        for v in ns.basis.rows:
            assert all(x == 0 for x in m.apply(v))

    @given(st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_rank_nullity(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        field = rng.choice([QQ, F5])
        a = random_matrix(field, n, m, rng)
        assert rank(a) + nullspace(a).dim == m


class TestSubspaceOps:
    def test_sum_and_intersection_with_zero(self):
        u = Subspace.span(QQ, 3, [(1, 2, 0)])
        zero = Subspace.zero(QQ, 3)
        assert u.sum(zero) == u
        assert u.intersect(zero) == zero

    def test_axes_sum_full(self):
        e1 = Subspace.span(QQ, 2, [(1, 0)])
        e2 = Subspace.span(QQ, 2, [(0, 1)])
        assert e1.sum(e2) == Subspace.full(QQ, 2)

    def test_intersection_via_containment_oracle(self):
        u = Subspace.span(QQ, 3, [(1, 1, 0)])
        w = Subspace.span(QQ, 3, [(1, 1, 0), (0, 0, 1)])
        # oracle: u is contained in w, so the intersection must be u itself
        assert w.contains_subspace(u)
        assert u.intersect(w) == u

    @given(st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_modular_law_dimensions(self, seed):
        rng = random.Random(seed)
        field = rng.choice([QQ, F5])
        n = rng.randint(1, 5)
        mk = lambda: Subspace.span(
            field,
            n,
            [
                tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.randint(0, 3))
            ],
        )
        u, v = mk(), mk()
        assert u.sum(v).dim + u.intersect(v).dim == u.dim + v.dim

    def test_membership_coordinates_reconstruct(self):
        # v lies in s exactly when the quotient map kills it, and then its
        # coordinates over the RREF basis are its entries at the pivots
        s = Subspace.span(QQ, 3, [(1, 2, 0), (0, 0, 3)])
        v = (2, 4, 5)
        assert s.quotient_map().apply(v) == (0,)
        coords = [v[p] for p in s.pivots]
        recon = [0, 0, 0]
        for c, row in zip(coords, s.basis.rows):
            for j in range(3):
                recon[j] += c * row[j]
        assert tuple(recon) == tuple(map(Fraction, v))

    def test_membership_trivia(self):
        q = Subspace.span(QQ, 2, [(1, 0)]).quotient_map()
        assert q.apply((0, 0)) == (0,)  # zero vector: zero image
        assert q.apply((1, 0)) == (0,)
        assert q.apply((0, 1)) == (1,)

    def test_quotient_projection(self):
        s = Subspace.span(QQ, 3, [(1, 1, 0)])
        assert s.complement_coords() == [1, 2]
        assert s.quotient_map().apply((1, 1, 0)) == (0, 0)
        assert s.quotient_map().apply((1, 0, 2)) == (-1, 2)


class TestKron:
    def test_identity(self):
        i2 = Matrix.identity(QQ, 2)
        assert i2.kron(i2) == Matrix.identity(QQ, 4)

    def test_zero_absorbs(self):
        a = Matrix.from_ints(QQ, [[1, 2], [3, 4]])
        assert a.kron(Matrix.zeros(QQ, 2, 2)).is_zero()

    def test_vector_convention(self):
        # (A kron B)(u kron v) == Au kron Bv in the left-major ordering
        rng = random.Random(3)
        a = random_matrix(F5, 2, 2, rng)
        b = random_matrix(F5, 3, 3, rng)
        u = tuple(F5.from_int(rng.randint(0, 4)) for _ in range(2))
        v = tuple(F5.from_int(rng.randint(0, 4)) for _ in range(3))
        lhs = a.kron(b).apply(kron_vec(F5, u, v))
        rhs = kron_vec(F5, a.apply(u), b.apply(v))
        assert lhs == rhs

    @given(st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_mixed_product(self, seed):
        rng = random.Random(seed)
        field = rng.choice([QQ, F5])
        a, b, c, d = (random_matrix(field, 2, 2, rng) for _ in range(4))
        assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)


class TestShape:
    def test_zero_row_matrix_keeps_columns(self):
        z = Matrix.zeros(QQ, 0, 3)
        assert z.shape == (0, 3)
        assert nullspace(z).dim == 3
        assert z != Matrix.zeros(QQ, 0, 2)

    def test_transpose_of_zero_column_matrix(self):
        assert Matrix.zeros(QQ, 3, 0).transpose().shape == (0, 3)
        assert Matrix.zeros(QQ, 0, 3).transpose().shape == (3, 0)

    def test_products_keep_shape(self):
        a, b = Matrix.zeros(QQ, 0, 2), Matrix.zeros(QQ, 2, 3)
        assert (a * b).shape == (0, 3)
        assert a.kron(b).shape == (0, 6)
        assert (a + a).shape == (0, 2)

    def test_empty_span_basis_shape(self):
        assert Subspace.zero(QQ, 4).basis.shape == (0, 4)

    def test_quotient_map_checks_vector_length(self):
        with pytest.raises(LinAlgError):
            Subspace.span(QQ, 2, [(1, 0)]).quotient_map().apply((1, 0, 0))

    def test_induced_on_quotient(self):
        # the shift e1 -> e0 -> 0 keeps span{e0}; on the quotient it is zero
        m = Matrix.from_ints(QQ, [[0, 1], [0, 0]])
        line = Subspace.span(QQ, 2, [(1, 0)])
        assert induced_on_quotient([m], line) == [Matrix.zeros(QQ, 1, 1)]
        assert [q.shape for q in induced_on_quotient([m], Subspace.full(QQ, 2))] == [(0, 0)]


class TestMatrixExtras:
    def test_invert_roundtrip(self):
        m = Matrix.from_ints(QQ, [[2, 1], [1, 1]])
        assert m * invert(m) == Matrix.identity(QQ, 2)
        with pytest.raises(LinAlgError):
            invert(Matrix.from_ints(QQ, [[1, 1], [1, 1]]))

    def test_charpoly_companion(self):
        # companion matrix of t^2 - t - 1
        m = Matrix.from_ints(QQ, [[0, 1], [1, 1]])
        assert charpoly(m) == [Fraction(-1), Fraction(-1), Fraction(1)]

    def test_eigenvalues_rational_and_modular(self):
        m = Matrix.from_ints(QQ, [[1, 1], [1, 1]])
        assert sorted(eigenvalues_in_field(m)) == [0, 2]
        # x^2 = 2 has no root in F_5, so only the diagonal is visible
        m5 = Matrix.from_ints(F5, [[0, 1], [2, 0]])
        assert eigenvalues_in_field(m5) == []

    def test_rational_eigenvalues_in_candidate_order(self):
        # eigenvalues 2, 0, -2, -1, 1/2: 0 first, then the rational root
        # candidates +p/q, -p/q for p = 1, 2, 4 (outer) and q = 1, 2 (inner)
        m = Matrix(QQ, [
            [2, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 1, -2, 0, 0],
            [0, 0, 1, -1, 0],
            [1, 0, 0, 1, Fraction(1, 2)],
        ])
        assert eigenvalues_in_field(m) == [0, -1, Fraction(1, 2), 2, -2]

    def test_determinant_matches_2x2_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
            assert determinant(Matrix.from_ints(QQ, rows)) == det2(rows)

    def test_unit_vector(self):
        assert unit_vector(QQ, 3, 1) == (0, 1, 0)
