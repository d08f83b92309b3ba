"""Tensor products: defect spans, truncations, structure morphisms."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from leibniz.fields import QQ, FF
from leibniz.algebra import (
    make_A,
    make_N,
    make_S,
    make_e,
    make_sl2,
    sl2_module_matrices,
)
from leibniz.bimodule import (
    Bimodule,
    BimoduleError,
    adjoint,
    antisymmetrize,
    classify_flags,
    intertwines,
    one_dim_bimodule,
    symmetrize,
    trivial_bimodule,
)
from leibniz.linalg import Matrix, Subspace, unit_vector
from leibniz.samples import random_full_bimodule, random_weak_bimodule
from leibniz.tensor import (
    coarse_kernel,
    flip_matrix,
    mll_defect_span,
    nonassociativity_witness,
    structural_checks,
    tensor_bimodule,
    tensor_of_subspaces,
    truncation_collapse_check,
    trunc_bar,
    trunc_under,
    truncation_data,
    truncation_kernel,
)

F2, F3, F5 = FF(2), FF(3), FF(5)


def kron_vec(field, u, v) -> tuple:
    """Kronecker product of two vectors, left factor major."""
    return tuple(field.mul(a, b) for a in u for b in v)


def sym_line(alg, values):
    f = alg.field
    return symmetrize(alg, [Matrix(f, [[v]]) for v in values])


def anti_line(alg, values):
    f = alg.field
    return antisymmetrize(alg, [Matrix(f, [[v]]) for v in values])


class TestKroneckerReadings:
    """The defect span and tensors of subspaces, read off Kronecker
    products, against their definitions on basis vectors."""

    @pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=repr)
    def test_defect_span_is_span_of_quadruple_generators(self, field):
        rng = random.Random(4)
        nonzero = 0
        for make in (make_A, make_N, make_e):
            alg = make(field)
            for _ in range(3):
                a = random_weak_bimodule(alg, rng.randint(1, 2), rng)
                b = random_weak_bimodule(alg, a.dim + rng.randint(1, 2), rng)
                for m, n in ((a, b), (b, a)):
                    gens = []
                    for i in range(alg.dim):
                        sm, sn = m.lam[i] + m.rho[i], n.lam[i] + n.rho[i]
                        for j in range(alg.dim):
                            for p in range(m.dim):
                                for q in range(n.dim):
                                    u = kron_vec(field, sm.col(p), n.rho[j].col(q))
                                    w = kron_vec(field, m.rho[j].col(p), sn.col(q))
                                    gens.append([field.add(x, y) for x, y in zip(u, w)])
                    want = Subspace.span(field, m.dim * n.dim, gens)
                    assert mll_defect_span(m, n) == want
                    nonzero += want.dim > 0
        assert nonzero

    @pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=repr)
    def test_tensor_of_subspaces_is_span_of_products(self, field):
        rng = random.Random(6)
        for _ in range(12):
            m, n = rng.randint(0, 3), rng.randint(1, 4)
            u, w = (
                Subspace.span(field, d, [[rng.randint(-2, 2) for _ in range(d)]
                                         for _ in range(rng.randint(0, d))])
                for d in (m, n)
            )
            products = [kron_vec(field, x, y) for x in u.basis.rows for y in w.basis.rows]
            want = Subspace.span(field, m * n, products)
            assert tensor_of_subspaces(u, w) == want

    def test_ambient_is_read_off_the_factors(self):
        u = tensor_of_subspaces(Subspace.full(QQ, 2), Subspace.span(QQ, 3, [(1, 0, 0)]))
        assert (u.dim, u.ambient_dim) == (2, 6)


class TestTensorBimodule:
    def test_trivial_times_anything_is_the_same(self):
        ad = adjoint(make_A(QQ))
        t = tensor_bimodule(trivial_bimodule(make_A(QQ), 1), ad)
        assert t.lam == ad.lam and t.rho == ad.rho

    def test_one_dim_lines_add_weights(self):
        e = make_e(QQ)
        t = tensor_bimodule(sym_line(e, [2]), sym_line(e, [3]))
        assert t.lam[0] == Matrix(QQ, [[5]])
        assert t.rho[0] == Matrix(QQ, [[-5]])

    def test_adjoint_square_weak_but_not_full(self):
        ad = adjoint(make_A(QQ))
        t = tensor_bimodule(ad, ad)
        rep = t.axiom_report()
        assert rep.llm and rep.lml and not rep.mll
        # the defect span is exactly the line through e (x) e
        s = mll_defect_span(ad, ad)
        assert s == Subspace.span(QQ, 4, [(0, 0, 0, 1)])

    def test_sym_pair_gives_symmetric_full(self):
        alg = make_A(QQ)
        a = sym_line(alg, [1, 0])
        t = tensor_bimodule(a, a)
        assert classify_flags(t)["symmetric"]
        assert t.is_full()
        assert mll_defect_span(a, a).dim == 0

    def test_mll_iff_defect_vanishes(self):
        rng = random.Random(21)
        for _ in range(25):
            alg = rng.choice([make_e(QQ), make_A(QQ), make_e(F5), make_A(F3)])
            a = random_full_bimodule(alg, rng.randint(1, 3), rng)
            b = random_full_bimodule(alg, rng.randint(1, 3), rng)
            t = tensor_bimodule(a, b)
            assert t.axiom_report().mll == (mll_defect_span(a, b).dim == 0)

    def test_algebra_mismatch_rejected(self):
        with pytest.raises(BimoduleError):
            tensor_bimodule(adjoint(make_A(QQ)), adjoint(make_N(QQ)))

    def test_non_weak_factor_rejected(self):
        not_weak = one_dim_bimodule(make_A(QQ), [0, 1], [0, 0])  # LLM fails
        for a, b in ((not_weak, adjoint(make_A(QQ))), (adjoint(make_A(QQ)), not_weak)):
            with pytest.raises(BimoduleError, match="needs weak factors"):
                tensor_bimodule(a, b)


class TestTruncationData:
    def test_solvable_adjoint_square(self):
        ad = adjoint(make_A(QQ))
        td = truncation_data(ad, ad)
        line = Subspace.span(QQ, 4, [(0, 0, 0, 1)])  # e (x) e
        assert td.t == line and td.t0 == line
        assert td.containment_verified and td.t_equals_t0

    def test_nilpotent_adjoint_square_char_split(self):
        for field, want in ((QQ, 1), (F3, 1), (F2, 0)):
            ad = adjoint(make_N(field))
            td = truncation_data(ad, ad)
            assert td.t.dim == want and td.t0.dim == want

    def test_simple_adjoint_square_dimension(self):
        ad = adjoint(make_S(QQ))
        td = truncation_data(ad, ad)
        # oracle: dim(U+W) = dim U + dim W - dim(U cap W) with
        # U = kernel (x) product span, W = product span (x) kernel
        from leibniz.bimodule import kernels_and_invariants

        data = kernels_and_invariants(ad)
        u = tensor_of_subspaces(data["M0"], data["MR"])
        w = tensor_of_subspaces(data["MR"], data["M0"])
        assert (u.dim, w.dim, u.intersect(w).dim) == (10, 10, 4)
        assert td.t0.dim == 10 + 10 - 4 == 16
        assert td.t0.dim <= 20 < 25
        assert td.t0.contains_subspace(td.t)

    def test_containment_chain_random(self):
        rng = random.Random(31)
        for _ in range(20):
            alg = rng.choice([make_A(QQ), make_e(F5), make_A(F3)])
            a = random_full_bimodule(alg, rng.randint(1, 3), rng)
            b = random_full_bimodule(alg, rng.randint(1, 3), rng)
            td = truncation_data(a, b)
            assert td.containment_verified

    def test_weak_factor_rejected(self):
        weak = one_dim_bimodule(make_e(QQ), [0], [1])
        with pytest.raises(BimoduleError, match="needs full bimodules"):
            truncation_data(weak, weak)


class TestStrictTruncation:
    """W over A (h.e = e): a non-split extension of S(-1) by the trivial
    module U, full, whose square has T strictly inside T0."""

    @staticmethod
    def w():
        m = lambda rows: Matrix.from_ints(QQ, rows)
        lam = [m([[0, -1], [0, -1]]), m([[0, 0], [0, 0]])]
        rho = [m([[0, 1], [0, 1]]), m([[0, -1], [0, 0]])]
        return Bimodule(make_A(QQ), lam, rho)

    def test_w_is_full(self):
        assert self.w().is_full()

    def test_t_strictly_inside_t0(self):
        w = self.w()
        data = truncation_data(w, w)
        assert (data.s_span.dim, data.t.dim, data.t0.dim) == (2, 2, 3)
        assert data.containment_verified and not data.t_equals_t0

    def test_both_truncations_full(self):
        w = self.w()
        bar, under = trunc_bar(w, w), trunc_under(w, w)
        assert (bar.dim, under.dim) == (2, 1)
        assert bar.is_full() and under.is_full()


class TestTruncatedProducts:
    def test_both_quotients_are_full(self):
        ad = adjoint(make_A(QQ))
        for prod in (trunc_bar, trunc_under):
            q = prod(ad, ad)
            assert q.dim == 3
            assert q.axiom_report().kind == "full"

    def test_sym_anti_irreducible_pair_vanishes(self):
        e = make_e(QQ)
        assert trunc_bar(sym_line(e, [1]), anti_line(e, [1])).dim == 0
        assert trunc_under(sym_line(e, [1]), anti_line(e, [1])).dim == 0

    def test_trivial_factor_gives_natural_product(self):
        ad = adjoint(make_A(QQ))
        t = trunc_bar(trivial_bimodule(make_A(QQ), 1), ad)
        assert t.lam == ad.lam and t.rho == ad.rho

    def test_sym_pair_no_truncation(self):
        alg = make_sl2(QQ)
        m = symmetrize(alg, sl2_module_matrices(QQ, 1))
        assert trunc_bar(m, m).dim == 4
        assert trunc_under(m, m).dim == 4

    def test_bar_works_for_weak_factors(self):
        weak = one_dim_bimodule(make_e(QQ), [0], [1])
        q = trunc_bar(weak, weak)
        assert q.dim >= 0  # defined; dimension recorded below
        with pytest.raises(BimoduleError, match="needs full bimodules"):
            trunc_under(weak, weak)

    def test_random_trunc_outputs_full(self):
        rng = random.Random(41)
        for _ in range(15):
            alg = rng.choice([make_A(QQ), make_e(F5)])
            a = random_full_bimodule(alg, rng.randint(1, 2), rng)
            b = random_full_bimodule(alg, rng.randint(1, 2), rng)
            assert trunc_bar(a, b).axiom_report().kind == "full"
            assert trunc_under(a, b).axiom_report().kind == "full"

    def test_commutativity_of_dims_and_flip(self):
        rng = random.Random(43)
        for _ in range(10):
            alg = rng.choice([make_A(QQ), make_e(F3)])
            a = random_full_bimodule(alg, rng.randint(1, 2), rng)
            b = random_full_bimodule(alg, rng.randint(1, 2), rng)
            assert trunc_bar(a, b).dim == trunc_bar(b, a).dim
            assert trunc_under(a, b).dim == trunc_under(b, a).dim


class TestTruncationCollapse:
    def test_symmetric_left_factor_over_solvable(self):
        alg = make_A(QQ)
        out = truncation_collapse_check(sym_line(alg, [1, 0]), adjoint(alg))
        assert out["cases"]["left_symmetric"]
        assert out["all_hold"]

    def test_trivial_anti_factor(self):
        alg = make_A(QQ)
        out = truncation_collapse_check(trivial_bimodule(alg, 1), adjoint(alg))
        assert out["all_hold"]
        assert out["data"].t.dim == 0

    def test_anti_symmetric_right_factor(self):
        alg = make_A(QQ)
        out = truncation_collapse_check(adjoint(alg), anti_line(alg, [1, 0]))
        assert out["cases"] == {"right_anti_symmetric": True}
        assert out["all_hold"]

    def test_kernel_data_once_per_factor(self, monkeypatch):
        from leibniz.bimodule import kernels_and_invariants

        computed = []
        body = kernels_and_invariants.__wrapped__
        monkeypatch.setattr(
            kernels_and_invariants,
            "__wrapped__",
            lambda mod: computed.append(mod) or body(mod),
        )
        alg = make_A(QQ)
        out = truncation_collapse_check(trivial_bimodule(alg, 1), adjoint(alg))
        assert len(computed) == 2
        assert out["cases"] == {"left_symmetric": True, "left_anti_symmetric": True}
        assert out["all_hold"]

    def test_sl2_mixed_pair(self):
        sl2 = make_sl2(QQ)
        m = antisymmetrize(sl2, sl2_module_matrices(QQ, 1))
        n = symmetrize(sl2, sl2_module_matrices(QQ, 1))
        out = truncation_collapse_check(m, n)
        assert out["all_hold"]
        assert out["data"].t.dim == 4  # LM (x) LN is everything here

    def test_inapplicable_raises(self):
        ad = adjoint(make_A(QQ))
        with pytest.raises(BimoduleError):
            truncation_collapse_check(ad, ad)


class TestStructuralChecks:
    def test_trivial_modules(self):
        t = trivial_bimodule(make_A(QQ), 1)
        out = structural_checks(t, t, t)
        assert out["flip_is_morphism"]
        assert out["associator_is_morphism"]
        assert out["units_are_morphisms"]
        assert out["flip_descends_to_truncations"]
        assert out["distributivity_dims"]["bar_equal"]

    def test_flip_fixes_symmetric_generator(self):
        ad = adjoint(make_A(QQ))
        gamma = flip_matrix(ad, ad)
        t = truncation_kernel(ad, ad)
        image = Subspace.span(QQ, 4, [gamma.apply(v) for v in t.basis_vectors()])
        assert image == t  # e (x) e is flip-invariant

    def test_element_level_action_formula(self):
        # x.(m (x) n) = (x.m) (x) n + m (x) (x.n) on concrete vectors
        ad = adjoint(make_A(QQ))
        t = tensor_bimodule(ad, ad)
        m, n = (1, 2), (3, -1)
        for i in range(2):
            lhs = t.lam[i].apply(kron_vec(QQ, m, n))
            rhs_a = kron_vec(QQ, ad.lam[i].apply(m), n)
            rhs_b = kron_vec(QQ, m, ad.lam[i].apply(n))
            assert lhs == tuple(QQ.add(a, b) for a, b in zip(rhs_a, rhs_b))

    def test_flip_descends_to_quotient_intertwiner(self):
        # the flip induces an equivariant isomorphism between the two
        # truncated products, computed in complement coordinates
        ad = adjoint(make_A(QQ))
        data = truncation_data(ad, ad)
        gamma = flip_matrix(ad, ad)
        q1 = trunc_bar(ad, ad)
        q2 = trunc_bar(ad, ad)  # symmetric factors, same space both ways
        keep = data.t.complement_coords()
        cols = [data.t.quotient_map().apply(gamma.apply(unit_vector(QQ, 4, j))) for j in keep]
        induced = Matrix(
            QQ, [[cols[j][i] for j in range(len(keep))] for i in range(len(keep))]
        )
        assert intertwines(q1, q2, induced)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_random_weak_triples(self, seed):
        rng = random.Random(seed)
        alg = rng.choice([make_e(F5), make_A(F5), make_e(QQ)])
        l, m, n = (random_weak_bimodule(alg, rng.randint(1, 2), rng) for _ in range(3))
        out = structural_checks(l, m, n)
        assert out["flip_is_morphism"]
        assert out["associator_is_morphism"]
        assert out["units_are_morphisms"]
        assert out["flip_descends_to_truncations"]
        assert out["distributivity_dims"]["bar_equal"]

    def test_full_triple_distributivity_under(self):
        rng = random.Random(55)
        alg = make_A(QQ)
        l, m, n = (random_full_bimodule(alg, rng.randint(1, 2), rng) for _ in range(3))
        out = structural_checks(l, m, n)
        assert out["distributivity_dims"]["under_equal"]


class TestNonassociativity:
    def test_one_dim_algebra(self):
        out = nonassociativity_witness(make_e(QQ))
        assert out["bar"] == (1, 0)
        assert out["under"] == (1, 0)

    def test_solvable_algebra(self):
        out = nonassociativity_witness(make_A(QQ))
        assert out["bar"] == (1, 0)
        assert out["under"] == (1, 0)
        assert out["functional"][1] == 0  # vanishes on the product span

    def test_perfect_algebra_refused(self):
        with pytest.raises(BimoduleError):
            nonassociativity_witness(make_S(QQ))


class TestPairMemo:
    """Pair data is computed once per ordered pair and kept on the left factor."""

    PAIR_FUNCTIONS = (tensor_bimodule, mll_defect_span, truncation_kernel, coarse_kernel,
                      trunc_bar, trunc_under)

    @staticmethod
    def count_builds(monkeypatch, fns) -> dict:
        calls = {fn.__name__: 0 for fn in fns}
        for fn in fns:
            def body(a, b, fn=fn, inner=fn.__wrapped__):
                calls[fn.__name__] += 1
                return inner(a, b)

            monkeypatch.setattr(fn, "__wrapped__", body)
        return calls

    def test_repeat_calls_return_the_same_object(self):
        alg = make_A(QQ)
        a, b = adjoint(alg), sym_line(alg, [1, 0])
        for fn in self.PAIR_FUNCTIONS:
            assert fn(a, b) is fn(a, b)

    def test_ordered_pairs_are_separate_entries(self, monkeypatch):
        alg = make_A(QQ)
        a, b = adjoint(alg), trivial_bimodule(alg, 2)
        calls = self.count_builds(monkeypatch, [tensor_bimodule])
        ab, ba = tensor_bimodule(a, b), tensor_bimodule(b, a)
        assert ab is not ba and ab.lam != ba.lam
        assert tensor_bimodule(a, b) is ab and tensor_bimodule(b, a) is ba
        assert calls == {"tensor_bimodule": 2}

    def test_equal_right_factor_hits_the_same_entry(self, monkeypatch):
        ad = adjoint(make_A(QQ))
        copy = Bimodule.from_json(ad.to_json())
        assert copy is not ad and copy == ad
        assert hash(copy) == hash(ad)
        calls = self.count_builds(monkeypatch, self.PAIR_FUNCTIONS)
        for fn in self.PAIR_FUNCTIONS:
            assert fn(ad, copy) is fn(ad, ad)
        assert set(calls.values()) == {1}

    def test_errors_are_raised_on_every_call(self):
        across = (adjoint(make_A(QQ)), adjoint(make_N(QQ)))
        weak = random_weak_bimodule(make_A(QQ), 2, random.Random(3))
        assert not weak.is_full()
        for _ in range(2):
            with pytest.raises(BimoduleError, match="common algebra"):
                tensor_bimodule(*across)
            with pytest.raises(BimoduleError, match="full bimodules"):
                trunc_under(weak, weak)

    def test_one_build_of_each_space_per_pair(self, monkeypatch):
        alg = make_A(QQ)
        a, b = adjoint(alg), sym_line(alg, [2, 0])
        calls = self.count_builds(
            monkeypatch, [tensor_bimodule, mll_defect_span, truncation_kernel, coarse_kernel]
        )
        data = truncation_data(a, b)
        bar, under = trunc_bar(a, b), trunc_under(a, b)
        assert calls == {name: 1 for name in calls}
        assert data.t is truncation_kernel(a, b) and data.t0 is coarse_kernel(a, b)
        assert bar.dim == 2 - data.t.dim and under.dim == 2 - data.t0.dim
