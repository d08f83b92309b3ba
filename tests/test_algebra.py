"""Leibniz algebras: validity, kernels, quotients, series, builders."""

import random

import pytest

from leibniz.fields import QQ, FF
from leibniz.algebra import (
    AlgebraError,
    AlgebraMorphismData,
    LeibnizAlgebra,
    builtin_algebra,
    canonical_lie,
    first_llm_failure,
    hemi_semidirect,
    is_lie,
    leibniz_kernel,
    make_A,
    make_N,
    make_S,
    make_abelian,
    make_e,
    make_sl2,
    mult_ops,
    products_and_series,
    sl2_module_matrices,
    validate_left_leibniz,
)
from leibniz.linalg import Matrix, Subspace, nullspace, unit_vector


def hand_check_left_leibniz(alg):
    """Independent oracle: evaluate x(yz) - (xy)z - y(xz) on basis triples."""
    f = alg.field
    n = alg.dim
    e = lambda i: unit_vector(f, n, i)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = alg.product(e(i), alg.product(e(j), e(k)))
                rhs1 = alg.product(alg.product(e(i), e(j)), e(k))
                rhs2 = alg.product(e(j), alg.product(e(i), e(k)))
                if lhs != tuple(f.add(a, b) for a, b in zip(rhs1, rhs2)):
                    return (i, j, k)
    return None


def hand_check_jacobi(alg):
    """Independent oracle: evaluate x(yz) + y(zx) + z(xy) on basis triples."""
    f = alg.field
    n = alg.dim
    e = lambda i: unit_vector(f, n, i)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                terms = [
                    alg.product(e(a), alg.product(e(b), e(c)))
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                ]
                if any(f.add(f.add(x, y), z) for x, y, z in zip(*terms)):
                    return (i, j, k)
    return None


class TestValidation:
    def test_abelian_ok(self):
        alg = make_abelian(QQ, 3)
        assert validate_left_leibniz(alg) is None
        assert hand_check_left_leibniz(alg) is None

    def test_solvable_example_ok(self):
        assert validate_left_leibniz(make_A(QQ)) is None
        assert hand_check_left_leibniz(make_A(QQ)) is None

    def test_bad_table_fails_at_named_pair(self):
        # h e = e together with e h = e violates the identity
        z, o = 0, 1
        table = [
            [[z, z], [z, o]],
            [[z, o], [z, z]],
        ]
        with pytest.raises(AlgebraError):
            LeibnizAlgebra(QQ, ["h", "e"], table)
        bad = LeibnizAlgebra(QQ, ["h", "e"], table, check=False)
        assert hand_check_left_leibniz(bad) is not None
        # operator form: first failing pair is (e, h), broken in coordinate e
        assert validate_left_leibniz(bad) == (1, 0, 1)

    def test_all_builders_valid(self):
        for make in (make_A, make_N, make_e, make_sl2, make_S):
            alg = make(QQ)
            assert validate_left_leibniz(alg) is None
        for p in (3, 5, 7):
            assert validate_left_leibniz(make_A(FF(p))) is None
            assert validate_left_leibniz(make_N(FF(p))) is None


class TestFirstLlmFailure:
    def test_each_product_formed_once(self, monkeypatch):
        # [L_i, L_j] and [L_j, L_i] share the products L_i L_j and L_j L_i,
        # and [L_i, L_i] = 0 needs none
        counted, product = [], Matrix.__mul__
        monkeypatch.setattr(Matrix, "__mul__", lambda a, b: counted.append(1) or product(a, b))
        for alg, mats in ((make_sl2(QQ), mult_ops(make_sl2(QQ))[0]),
                          (make_S(QQ), mult_ops(make_S(QQ))[0]),
                          (make_sl2(FF(7)), sl2_module_matrices(FF(7), 3))):
            counted.clear()
            assert first_llm_failure(alg, mats) is None
            assert len(counted) == alg.dim ** 2 - alg.dim

    def test_first_pair_row_by_row(self):
        # the bad table of TestValidation breaks the identity at (e, h) only
        table = [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]
        bad = LeibnizAlgebra(QQ, ["h", "e"], table, check=False)
        assert first_llm_failure(bad, mult_ops(bad)[0]) == (1, 0)


class TestMultOps:
    def test_abelian_all_zero(self):
        left, right = mult_ops(make_abelian(QQ, 2))
        assert all(m.is_zero() for m in left + right)

    def test_solvable_left_action(self):
        alg = make_A(QQ)
        left, right = mult_ops(alg)
        h, e = 0, 1
        # L_h: e -> e, h -> 0
        assert left[h].apply(unit_vector(QQ, 2, e)) == unit_vector(QQ, 2, e)
        assert left[h].apply(unit_vector(QQ, 2, h)) == (0, 0)

    def test_nilpotent_right_action(self):
        alg = make_N(QQ)
        _, right = mult_ops(alg)
        e, c = 0, 1
        # R_e maps e -> c  (e*e = c)
        assert right[e].apply(unit_vector(QQ, 2, e)) == unit_vector(QQ, 2, c)

    def test_left_right_agree_iff_commutative(self):
        left, right = mult_ops(make_abelian(QQ, 2))
        assert left == right
        left, right = mult_ops(make_A(QQ))
        assert left != right


class TestLeibnizKernel:
    def test_lie_algebra_kernel_zero(self):
        assert leibniz_kernel(make_sl2(QQ)).dim == 0
        assert leibniz_kernel(make_abelian(QQ, 2)).dim == 0

    def test_solvable_example(self):
        alg = make_A(QQ)
        assert leibniz_kernel(alg) == Subspace.span(QQ, 2, [(0, 1)])  # span{e}

    def test_nilpotent_example(self):
        alg = make_N(QQ)
        assert leibniz_kernel(alg) == Subspace.span(QQ, 2, [(0, 1)])  # span{c}

    def test_simple_five_dimensional(self):
        alg = make_S(QQ)
        want = Subspace.span(QQ, 5, [unit_vector(QQ, 5, 3), unit_vector(QQ, 5, 4)])
        assert leibniz_kernel(alg) == want

    def test_kernel_inside_product_span(self):
        for make in (make_A, make_N, make_S, make_sl2):
            alg = make(QQ)
            ps = products_and_series(alg)["product_span"]
            assert ps.contains_subspace(leibniz_kernel(alg))


class TestCanonicalLie:
    def test_lie_input_identity_quotient(self):
        alg = make_sl2(QQ)
        quot, morph = canonical_lie(alg)
        assert quot.dim == 3
        assert quot.table == alg.table
        assert morph.is_homomorphism()

    def test_solvable_quotient_one_dim_abelian(self):
        quot, morph = canonical_lie(make_A(QQ))
        assert quot.dim == 1
        assert is_lie(quot) is None
        assert all(
            all(c == 0 for c in cell) for row in quot.table for cell in row
        )
        assert morph.is_homomorphism()
        assert nullspace(morph.matrix) == leibniz_kernel(make_A(QQ))

    def test_simple_quotient_is_sl2_tablewise(self):
        quot, _ = canonical_lie(make_S(QQ))
        assert quot.dim == 3
        assert quot.table == make_sl2(QQ).table
        assert quot.basis_names == ("e", "h", "f")

    def test_squares_vanish_in_quotient(self):
        for make in (make_A, make_N, make_S):
            alg = make(QQ)
            _, morph = canonical_lie(alg)
            for i in range(alg.dim):
                sq = alg.product(
                    unit_vector(QQ, alg.dim, i), unit_vector(QQ, alg.dim, i)
                )
                assert all(x == 0 for x in morph.matrix.apply(sq))

    def test_computed_once_per_instance(self, monkeypatch):
        computed = []
        body = canonical_lie.__wrapped__
        monkeypatch.setattr(
            canonical_lie, "__wrapped__", lambda alg: computed.append(alg) or body(alg)
        )
        a, b = make_S(QQ), make_S(QQ)
        assert a == b and a is not b
        qa, qb = canonical_lie(a), canonical_lie(b)
        assert canonical_lie(a) is qa
        assert [id(x) for x in computed] == [id(a), id(b)]
        assert qa[0] == qb[0] and qa[1].matrix == qb[1].matrix

    def test_failed_quotient_raises_at_every_call(self):
        # antisymmetric, so no squares, but [[a,b],c] + ... = b breaks Jacobi
        z, o = QQ.zero(), QQ.one()
        table = [[[z] * 3 for _ in range(3)] for _ in range(3)]
        table[0][1], table[1][0] = [o, z, z], [-o, z, z]
        table[0][2], table[2][0] = [z, o, z], [z, -o, z]
        alg = LeibnizAlgebra(QQ, ["a", "b", "c"], table, check=False)
        for _ in range(2):
            with pytest.raises(AlgebraError):
                canonical_lie(alg)


class TestIsLie:
    def test_witness_tags(self):
        assert is_lie(make_A(QQ)) == ("antisymmetry", 0, 1)
        z, o = QQ.zero(), QQ.one()
        table = [[[z] * 3 for _ in range(3)] for _ in range(3)]
        table[0][1], table[1][0] = [o, z, z], [-o, z, z]
        table[0][2], table[2][0] = [z, o, z], [z, -o, z]
        alg = LeibnizAlgebra(QQ, ["a", "b", "c"], table, check=False)
        assert is_lie(alg) == ("jacobi", *validate_left_leibniz(alg))

    def test_agrees_with_jacobi_on_antisymmetric_tables(self):
        # every antisymmetric 2-dim product is Lie; most 3-dim ones are not
        rng = random.Random(5)
        f = FF(3)
        verdicts = set()
        for n in [2] * 10 + [3] * 60:
            table = [[[0] * n for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    cell = [rng.choice([0, 0, 0, 1, 2]) for _ in range(n)]
                    table[i][j], table[j][i] = cell, [f.neg(c) for c in cell]
            alg = LeibnizAlgebra(f, [f"b{i}" for i in range(n)], table, check=False)
            verdict = is_lie(alg) is None
            assert verdict == (hand_check_jacobi(alg) is None)
            verdicts.add((n, verdict))
        assert {(2, True), (3, True), (3, False)} <= verdicts

    def test_homomorphism_check_fails_off_products(self):
        # doubling A is linear but not multiplicative: 2(he) != (2h)(2e)
        alg = make_A(QQ)
        assert AlgebraMorphismData(alg, alg, Matrix.identity(QQ, 2)).is_homomorphism()
        doubled = Matrix.identity(QQ, 2).scale(2)
        assert not AlgebraMorphismData(alg, alg, doubled).is_homomorphism()


class TestSeries:
    def test_simple_is_perfect_not_solvable(self):
        info = products_and_series(make_S(QQ))
        assert info["is_perfect"]
        assert not info["is_solvable"]

    def test_solvable_example(self):
        info = products_and_series(make_A(QQ))
        assert info["product_span"] == Subspace.span(QQ, 2, [(0, 1)])
        assert info["is_solvable"]
        assert not info["is_perfect"]

    def test_abelian_derived_series(self):
        info = products_and_series(make_abelian(QQ, 2))
        assert info["derived_series_dims"][1] == 0
        assert info["is_solvable"]


class TestBuilders:
    def test_solvable_shape(self):
        alg = make_A(QQ)
        assert alg.dim == 2
        assert leibniz_kernel(alg).dim == 1

    def test_hemi_semidirect_shape(self):
        alg = make_S(QQ)
        assert alg.dim == 5
        # product rule: (x, m)(y, n) = (xy, x.n); module part annihilates
        u = unit_vector(QQ, 5, 3)
        assert alg.product(u, unit_vector(QQ, 5, 0)) == (0,) * 5

    def test_hemi_never_lie_for_nonzero_action(self):
        alg = make_S(QQ)
        assert is_lie(alg) is not None
        assert leibniz_kernel(alg).dim == 2

    def test_hemi_rejects_bad_action(self):
        mats = sl2_module_matrices(QQ, 1)
        mats[0] = mats[0].scale(QQ.from_int(2))  # breaks the module axiom
        with pytest.raises(AlgebraError):
            hemi_semidirect(make_sl2(QQ), mats)

    @pytest.mark.parametrize("g, action, message", [
        (make_A(QQ), [Matrix.zeros(QQ, 1, 1)] * 2, "needs a Lie algebra"),
        (make_sl2(QQ), [Matrix.zeros(QQ, 2, 2)] * 2, "one action matrix per"),
        (make_sl2(QQ), [Matrix.zeros(QQ, 2, 2)] * 2 + [Matrix.zeros(QQ, 1, 1)],
         "square of equal size"),
        (make_sl2(QQ), [Matrix.zeros(QQ, 2, 3)] * 3, "square of equal size"),
    ])
    def test_hemi_refuses_bad_input(self, g, action, message):
        with pytest.raises(AlgebraError, match=message):
            hemi_semidirect(g, action)

    def test_sl2_char2_rejected(self):
        with pytest.raises(AlgebraError):
            make_sl2(FF(2))

    def test_negative_sizes_rejected(self):
        with pytest.raises(AlgebraError):
            make_abelian(QQ, -1)
        with pytest.raises(AlgebraError):
            sl2_module_matrices(QQ, -1)

    def test_abelian_kernel_zero(self):
        assert leibniz_kernel(make_abelian(QQ, 2)).dim == 0

    def test_builtin_lookup(self):
        assert builtin_algebra("A", QQ) == make_A(QQ)
        assert builtin_algebra("abelian:3", QQ).dim == 3
        with pytest.raises(AlgebraError):
            builtin_algebra("nope", QQ)

    def test_sl2_module_matrices_are_a_module(self):
        # oracle: bracket relations of the action matrices
        from leibniz.linalg import commutator

        for n in (1, 2, 3):
            e, h, f = sl2_module_matrices(QQ, n)
            assert commutator(h, e) == e.scale(QQ.from_int(2))
            assert commutator(h, f) == f.scale(QQ.from_int(-2))
            assert commutator(e, f) == h


class TestJson:
    def test_roundtrip(self):
        for make in (make_A, make_N, make_sl2, make_S):
            alg = make(QQ)
            again = LeibnizAlgebra.from_json(alg.to_json())
            assert again == alg
            assert hash(again) == hash(alg)  # equal algebras share cache keys

    def test_roundtrip_prime_field(self):
        alg = make_N(FF(3))
        assert LeibnizAlgebra.from_json(alg.to_json()) == alg

    def test_bad_scalar_rejected(self):
        alg = make_A(QQ)
        doc = alg.to_json().replace('"0"', '"1/0"', 1)
        with pytest.raises(AlgebraError):
            LeibnizAlgebra.from_json(doc)

    def test_invalid_table_rejected(self):
        doc = """{"field": "Q", "dim": 2, "basis": ["h", "e"],
        "table": [[["0","0"],["0","1"]],[["0","1"],["0","0"]]]}"""
        with pytest.raises(AlgebraError):
            LeibnizAlgebra.from_json(doc)
