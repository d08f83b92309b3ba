"""Bimodule axioms, kernels, constructions, hom/dual machinery."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from leibniz.fields import QQ, FF
from leibniz.algebra import builtin_algebra, make_A, make_N, make_S, make_abelian, make_e, make_sl2
from leibniz.bimodule import (
    Bimodule,
    BimoduleError,
    adjoint,
    antisymmetrize,
    axiom_report,
    classify_flags,
    column_span,
    conjugate,
    direct_sum,
    dual,
    duality_morphism_checks,
    hom_bimodule,
    intertwines,
    is_invariant,
    kernels_and_invariants,
    one_dim_bimodule,
    quotient,
    restrict,
    sl2_irreducible,
    subbimodule_closure,
    symmetrize,
    trivial_bimodule,
)
from leibniz.linalg import Matrix, RowReducer, Subspace, nullspace, unit_vector, vec_add
from leibniz.samples import (
    random_full_bimodule,
    random_invertible,
    random_left_module_matrices,
    random_weak_bimodule,
)
from leibniz.tensor import tensor_bimodule, trunc_bar, trunc_under

F5 = FF(5)


def reference_report(mod):
    """Axiom flags and first failure of ``mod``, read off the actions on
    unit vectors: no matrix product and no operator expansion."""
    alg, f, m = mod.algebra, mod.field, mod.dim
    units = [unit_vector(f, m, k) for k in range(m)]

    def sub(u, w):
        return vec_add(f, u, tuple(f.neg(x) for x in w))

    def expanded(i, j, mats, v):
        out = (f.zero(),) * m
        for c, mat in zip(alg.table[i][j], mats):
            out = vec_add(f, out, tuple(f.mul(c, x) for x in mat.apply(v)))
        return out

    def law(i, j, name, v):
        li, lj, ri, rj = mod.lam[i], mod.lam[j], mod.rho[i], mod.rho[j]
        if name == "llm":
            return expanded(i, j, mod.lam, v) == sub(li.apply(lj.apply(v)), lj.apply(li.apply(v)))
        if name == "lml":
            return expanded(i, j, mod.rho, v) == sub(li.apply(rj.apply(v)), rj.apply(li.apply(v)))
        if name == "mll":
            return rj.apply(ri.apply(v)) == sub(expanded(i, j, mod.rho, v), li.apply(rj.apply(v)))
        return all(x == f.zero() for x in rj.apply(vec_add(f, li.apply(v), ri.apply(v))))

    flags = {"llm": True, "lml": True, "mll": True, "zd": True}
    first = None
    for i in range(alg.dim):
        for j in range(alg.dim):
            for name in flags:
                if flags[name] and not all(law(i, j, name, v) for v in units):
                    flags[name] = False
                    first = first or (name, i, j)
    return flags, first


def check_report(mod):
    """``mod``'s report, checked against the report of a fresh module with
    the same actions and against the elementwise reference."""
    rep = mod.axiom_report()
    assert rep == axiom_report(Bimodule(mod.algebra, mod.lam, mod.rho, mod.dim))
    flags, first = reference_report(mod)
    assert (rep.llm, rep.lml, rep.mll, rep.zd) == tuple(flags.values())
    assert rep.first_failure == first
    return rep


def count_reports(monkeypatch) -> list:
    """The modules whose axiom report is computed from now on, in order."""
    import leibniz.bimodule as bimodule_mod

    reported = []
    report = bimodule_mod.axiom_report
    monkeypatch.setattr(bimodule_mod, "axiom_report", lambda mod: reported.append(mod) or report(mod))
    return reported


def random_families(field, rng):
    """Matrix families over ``field``: random pairs, genuine left modules
    with a random right action, and every 1-dim family over F_3 of A."""
    algebras = [make_A(field), make_N(field), make_sl2(field)]

    def rand(d):
        return Matrix(field, [[field.from_int(rng.randint(-1, 1)) for _ in range(d)] for _ in range(d)])

    for _ in range(40):
        alg = rng.choice(algebras)
        d = rng.randint(1, 2)
        yield Bimodule(alg, [rand(d) for _ in range(alg.dim)], [rand(d) for _ in range(alg.dim)])
        lam = adjoint(alg).lam
        yield Bimodule(alg, lam, [rand(alg.dim) for _ in range(alg.dim)])
        yield Bimodule(alg, lam, [rng.choice((-m, Matrix.zeros(field, *m.shape), m)) for m in lam])
    if field.characteristic == 3:
        alg = make_A(field)
        for a in range(9):
            for c in range(9):
                yield one_dim_bimodule(alg, [a // 3, a % 3], [c // 3, c % 3])


class TestAxiomReport:
    def test_adjoint_of_solvable_is_full(self):
        rep = adjoint(make_A(QQ)).axiom_report()
        assert (rep.llm, rep.lml, rep.mll, rep.zd) == (True, True, True, True)
        assert rep.kind == "full"

    def test_one_dim_weak_not_full(self):
        mod = one_dim_bimodule(make_e(QQ), [0], [1])
        rep = mod.axiom_report()
        assert rep.llm and rep.lml
        assert not rep.mll and not rep.zd
        assert rep.kind == "weak"
        assert rep.first_failure == ("mll", 0, 0)

    def test_zero_actions_all_hold(self):
        for d in (1, 3):
            rep = trivial_bimodule(make_A(QQ), d).axiom_report()
            assert rep.kind == "full"

    def test_zd_equivalence_under_lml(self):
        # boolean identity (lml and zd) == (lml and mll) on random pairs
        rng = random.Random(2)
        alg = make_A(QQ)
        for _ in range(60):
            d = rng.randint(1, 2)
            mats = lambda: [
                Matrix(
                    QQ,
                    [
                        [QQ.from_int(rng.randint(-1, 1)) for _ in range(d)]
                        for _ in range(d)
                    ],
                )
                for _ in range(alg.dim)
            ]
            rep = Bimodule(alg, mats(), mats()).axiom_report()
            assert (rep.lml and rep.zd) == (rep.lml and rep.mll)

    def test_zd_equals_mll_on_weak_ones(self):
        rng = random.Random(3)
        for _ in range(25):
            mod = random_weak_bimodule(make_A(QQ), rng.randint(1, 3), rng)
            rep = mod.axiom_report()
            assert rep.mll == rep.zd

    def test_shape_mismatch_rejected(self):
        alg = make_A(QQ)
        with pytest.raises(BimoduleError):
            Bimodule(alg, [Matrix.identity(QQ, 2)], [Matrix.identity(QQ, 2)])

    @pytest.mark.parametrize("field", [FF(3), QQ], ids=["F3", "Q"])
    def test_matches_elementwise_reference(self, field):
        firsts, weak_not_full = set(), 0
        for mod in random_families(field, random.Random(7)):
            rep = mod.axiom_report()
            flags, first = reference_report(mod)
            assert (rep.llm, rep.lml, rep.mll, rep.zd) == tuple(flags.values())
            assert rep.first_failure == first
            firsts.add(first and first[0])
            weak_not_full += rep.kind == "weak"
        # LML makes MLL and ZD agree pair by pair, so ZD never fails first
        assert firsts == {None, "llm", "lml", "mll"}
        assert weak_not_full > 0


class TestClassifyAndSymmetrize:
    def test_negative_trivial_dim_rejected(self):
        with pytest.raises(BimoduleError):
            trivial_bimodule(make_A(QQ), -1)

    def test_trivial_is_both(self):
        flags = classify_flags(trivial_bimodule(make_A(QQ), 2))
        assert flags == {"symmetric": True, "anti_symmetric": True, "trivial": True}

    def test_symmetrized_left_module_is_full(self):
        alg = make_A(QQ)
        lam = [Matrix(QQ, [[1]]), Matrix.zeros(QQ, 1, 1)]
        mod = symmetrize(alg, lam)
        assert mod.is_full()
        assert classify_flags(mod)["symmetric"]

    def test_antisymmetrized_is_full_with_zero_right_span(self):
        sl2 = make_sl2(QQ)
        from leibniz.algebra import sl2_module_matrices

        mod = antisymmetrize(sl2, sl2_module_matrices(QQ, 1))
        assert mod.is_full()
        assert kernels_and_invariants(mod)["MR"].dim == 0

    def test_symmetrize_rejects_non_module(self):
        alg = make_A(QQ)
        bad = [Matrix(QQ, [[1]]), Matrix(QQ, [[1]])]  # second gen must act by 0
        for build in (symmetrize, antisymmetrize):
            with pytest.raises(BimoduleError) as err:
                build(alg, bad)
            assert str(err.value) == "left action is not a module: LLM fails at ('llm', 0, 1)"

    def test_built_modules_compute_no_axiom_report(self, monkeypatch):
        from leibniz.algebra import sl2_module_matrices

        reported = count_reports(monkeypatch)
        sl2 = make_sl2(QQ)
        for mod in (symmetrize(sl2, sl2_module_matrices(QQ, 2)),
                    antisymmetrize(sl2, sl2_module_matrices(QQ, 2)), trivial_bimodule(sl2, 2)):
            assert mod.is_full() and mod.kind == "full"
        assert reported == []

    def test_kernel_data_error_raised_at_every_call(self):
        mod = one_dim_bimodule(make_A(QQ), [0, 1], [0, 0])  # LLM fails
        for _ in range(2):
            with pytest.raises(BimoduleError, match="weak"):
                kernels_and_invariants(mod)

    def test_adjoint_neither_sym_nor_anti(self):
        flags = classify_flags(adjoint(make_A(QQ)))
        assert not flags["symmetric"] and not flags["anti_symmetric"]


class TestOneDimFamily:
    """The two-parameter family of 1-dim weak bimodules over the 1-dim algebra."""

    @pytest.mark.parametrize("a", [-1, 0, 1])
    @pytest.mark.parametrize("c", [-1, 0, 1])
    def test_flags_match_parameter_pattern(self, a, c):
        mod = one_dim_bimodule(make_e(QQ), [a], [c])
        assert mod.is_weak()
        flags = classify_flags(mod)
        assert flags["symmetric"] == (a + c == 0)
        assert flags["anti_symmetric"] == (c == 0)

    def test_weak_over_solvable_algebra(self):
        mod = one_dim_bimodule(make_A(QQ), [1, 0], [0, 0])
        rep = mod.axiom_report()
        assert rep.llm and rep.lml

    def test_trivial_parameters(self):
        assert classify_flags(one_dim_bimodule(make_e(QQ), [0], [0]))["trivial"]


class TestKernels:
    def test_adjoint_antisym_kernel_is_leibniz_kernel(self):
        data = kernels_and_invariants(adjoint(make_A(QQ)))
        assert data["M0"] == Subspace.span(QQ, 2, [(0, 1)])

    def test_nilpotent_kernel_char_split(self):
        assert kernels_and_invariants(adjoint(make_N(QQ)))["M0"].dim == 1
        assert kernels_and_invariants(adjoint(make_N(FF(3))))["M0"].dim == 1
        assert kernels_and_invariants(adjoint(make_N(FF(2))))["M0"].dim == 0

    def test_symmetric_kernel_zero(self):
        alg = make_A(QQ)
        mod = symmetrize(alg, [Matrix(QQ, [[1]]), Matrix.zeros(QQ, 1, 1)])
        assert kernels_and_invariants(mod)["M0"].dim == 0

    def test_invariance_for_full(self):
        for alg in (make_A(QQ), make_N(QQ), make_S(QQ)):
            mod = adjoint(alg)
            data = kernels_and_invariants(mod)
            assert is_invariant(mod, data["M0"], "left") and is_invariant(mod, data["M0"], "right")
            assert is_invariant(mod, data["MR"])

    def test_invariance_for_weak(self):
        rng = random.Random(5)
        for _ in range(20):
            alg = rng.choice([make_e(QQ), make_A(QQ), make_e(F5)])
            mod = random_weak_bimodule(alg, rng.randint(1, 3), rng)
            data = kernels_and_invariants(mod)
            assert is_invariant(mod, data["MR"])
            assert is_invariant(mod, data["Minv"])

    def test_right_invariants_are_the_meet_of_right_kernels(self):
        rng = random.Random(14)
        algebras = [make_e(QQ), make_A(QQ), make_N(F5), make_abelian(QQ, 2), make_abelian(FF(3), 2)]
        mods = [random_weak_bimodule(rng.choice(algebras), rng.randint(1, 4), rng) for _ in range(20)]
        for mod in mods + [adjoint(make_S(QQ)), adjoint(make_sl2(F5))]:
            meet = Subspace.full(mod.field, mod.dim)
            for r in mod.rho:
                meet = meet.intersect(nullspace(r))
            assert kernels_and_invariants(mod)["Minv"] == meet
        # no right actions at all: every vector is right invariant
        mod = trivial_bimodule(builtin_algebra("abelian:0", QQ), 3)
        assert kernels_and_invariants(mod)["Minv"] == Subspace.full(QQ, 3)


class TestSubQuotient:
    def test_closure_of_nothing_is_zero(self):
        assert subbimodule_closure(adjoint(make_A(QQ)), []).dim == 0

    def test_closure_examples_by_hand(self):
        ad = adjoint(make_A(QQ))
        # h.e = e and e absorbs: closure of e stops at span{e}
        assert subbimodule_closure(ad, [(0, 1)]) == Subspace.span(QQ, 2, [(0, 1)])
        # closure of h picks up e through h.e = e
        assert subbimodule_closure(ad, [(1, 0)]).dim == 2

    def test_restrict_line_is_antisymmetric(self):
        ad = adjoint(make_A(QQ))
        line = Subspace.span(QQ, 2, [(0, 1)])
        sub = restrict(ad, line)
        assert classify_flags(sub)["anti_symmetric"]
        assert sub.lam[0] == Matrix(QQ, [[1]])  # h still scales e by 1

    def test_restrict_agrees_with_the_ambient_action(self):
        # with the basis rows of S as the columns of B: B * (m on S) == m * B
        rng = random.Random(11)
        offset_pivots = 0
        for alg in (make_A(QQ), make_N(F5), make_e(FF(3))):
            for _ in range(8):
                mod = random_weak_bimodule(alg, rng.randint(2, 4), rng)
                seeds = kernels_and_invariants(mod)["MR"].basis_vectors()
                seeds.append([rng.randint(-2, 2) for _ in range(mod.dim)])
                for seed in seeds:
                    space = subbimodule_closure(mod, [seed])
                    assert is_invariant(mod, space)
                    offset_pivots += space.pivots != tuple(range(space.dim))
                    sub = restrict(mod, space)
                    b = space.basis.transpose()
                    for m, s in zip(mod.lam + mod.rho, sub.lam + sub.rho):
                        assert b * s == m * b
        assert offset_pivots

    def test_quotient_by_zero_is_same(self):
        ad = adjoint(make_A(QQ))
        q = quotient(ad, Subspace.zero(QQ, 2))
        assert q.lam == ad.lam and q.rho == ad.rho

    def test_quotient_by_antisym_kernel_is_symmetric(self):
        rng = random.Random(8)
        from leibniz.samples import random_full_bimodule

        for alg in (make_A(QQ), make_S(QQ), make_N(F5)):
            mod = adjoint(alg)
            data = kernels_and_invariants(mod)
            assert classify_flags(quotient(mod, data["M0"]))["symmetric"]
        for _ in range(10):
            mod = random_full_bimodule(make_A(QQ), rng.randint(1, 3), rng)
            data = kernels_and_invariants(mod)
            assert classify_flags(quotient(mod, data["M0"]))["symmetric"]

    def test_non_invariant_rejected(self):
        ad = adjoint(make_A(QQ))
        with pytest.raises(BimoduleError, match="not invariant"):
            restrict(ad, Subspace.span(QQ, 2, [(1, 0)]))

    @pytest.mark.parametrize("construct", [restrict, quotient])
    def test_right_action_alone_breaks_invariance(self, construct):
        # span{e1} is kept by the zero left action, but the right shift
        # sends e1 to e0
        shift = Matrix.from_ints(QQ, [[0, 1], [0, 0]])
        mod = Bimodule(make_abelian(QQ, 1), [Matrix.zeros(QQ, 2, 2)], [shift])
        with pytest.raises(BimoduleError, match="not invariant"):
            construct(mod, Subspace.span(QQ, 2, [(0, 1)]))

    @pytest.mark.parametrize("construct", [restrict, quotient])
    def test_one_reducer_per_call(self, construct, monkeypatch):
        # one reducer of the subspace checks invariance under the whole
        # action family and reduces what each matrix needs
        mod = adjoint(make_S(QQ))
        kernel = kernels_and_invariants(mod)["M0"]
        built, reducer = [], Subspace.reducer
        monkeypatch.setattr(Subspace, "reducer", lambda s: built.append(s) or reducer(s))
        construct(mod, kernel)
        assert built == [kernel]

    def test_quotient_by_non_invariant_rejected(self):
        ad = adjoint(make_A(QQ))
        with pytest.raises(BimoduleError, match="not invariant"):
            quotient(ad, Subspace.span(QQ, 2, [(1, 0)]))

    def test_dims_add_in_quotient(self):
        ad = adjoint(make_S(QQ))
        ker = kernels_and_invariants(ad)["M0"]
        assert quotient(ad, ker).dim == ad.dim - ker.dim


def lml_failing_bimodule(alg, dim, rng):
    """A genuine left module with a random right action on which LML fails.
    Over an algebra with no products LML reads [lam_x, rho_y] = 0, which
    every 1-dim module satisfies, so the dimension is at least 2."""
    dim = max(dim, 2)
    while True:
        lam = random_left_module_matrices(alg, dim, rng)
        rho = [Matrix.from_ints(alg.field, [[rng.randint(-1, 1) for _ in range(dim)]
                                            for _ in range(dim)]) for _ in range(alg.dim)]
        mod = Bimodule(alg, lam, rho, dim)
        if not mod.axiom_report().lml:
            return mod


class TestInheritedReports:
    """Conjugates, sums, restrictions and quotients are marked full when
    every input's computed report is full, and otherwise compute their own;
    every child's report must equal the report of a fresh module with the
    same actions."""

    SAMPLERS = (random_full_bimodule, random_weak_bimodule, lml_failing_bimodule)

    @staticmethod
    def children(mod, other, rng):
        f = mod.field
        yield conjugate(mod, random_invertible(f, mod.dim, rng))
        yield direct_sum(mod, other)
        seed = [rng.randint(-1, 1) for _ in range(mod.dim)]
        spaces = [subbimodule_closure(mod, [seed])]
        # M0 and MR where they are invariant, else their closures
        for gens in ([l + r for l, r in zip(mod.lam, mod.rho)], mod.rho):
            space = column_span(f, gens, mod.dim)
            spaces.append(space if is_invariant(mod, space)
                          else subbimodule_closure(mod, space.basis_vectors()))
        for space in spaces:
            yield restrict(mod, space)
            yield quotient(mod, space)

    @pytest.mark.parametrize("field", [QQ, FF(2), FF(3), F5], ids=repr)
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_inherited_equals_recomputed(self, field, seed):
        rng = random.Random(seed)
        alg = builtin_algebra(rng.choice(["A", "N", "e", "abelian:2"]), field)
        mod, other = (rng.choice(self.SAMPLERS)(alg, rng.randint(1, 3), rng) for _ in range(2))
        mod.axiom_report(), other.axiom_report()  # the inputs' reports are computed first
        for child in self.children(mod, other, rng):
            check_report(child)

    def test_conjugate_of_a_failing_module_computes_its_own_report(self, monkeypatch):
        rng = random.Random(4)
        mod = lml_failing_bimodule(make_A(QQ), 2, rng)
        conj = conjugate(mod, random_invertible(QQ, 2, rng))
        reported = count_reports(monkeypatch)
        assert conj.axiom_report() == mod.axiom_report()
        assert reported == [conj]

    def test_random_full_bimodule_computes_no_report(self, monkeypatch):
        # its blocks are symmetrizations, antisymmetrizations and trivial
        # modules, and sums and conjugates of full modules stay full
        reported = count_reports(monkeypatch)
        rng = random.Random(2)
        for name in ("A", "N", "e", "abelian:2"):
            for dim in range(1, 5):
                assert random_full_bimodule(builtin_algebra(name, F5), dim, rng).is_full()
        assert reported == []

    def test_no_report_is_computed_for_an_input(self, monkeypatch):
        reported = count_reports(monkeypatch)
        mod = adjoint(make_A(QQ))
        line = Subspace.span(QQ, 2, [(0, 1)])
        children = [conjugate(mod, Matrix.from_ints(QQ, [[1, 1], [0, 1]])),
                    direct_sum(mod, mod), restrict(mod, line), quotient(mod, line)]
        assert reported == []
        for child in children:
            assert child.is_full()
        assert [m is c for m, c in zip(reported, children)] == [True] * 4

    @pytest.mark.parametrize("bad", ["weak", "lml"])
    def test_failing_parent_passes_no_false_flag(self, bad, monkeypatch):
        # M = B + U with B weak-only or failing LML and U trivial; M/B = U is
        # full, but M is not, so the quotient's report is computed afresh
        alg = make_e(QQ)
        if bad == "weak":
            b = one_dim_bimodule(alg, [0], [1])
        else:
            b = lml_failing_bimodule(alg, 2, random.Random(0))
        mod = direct_sum(b, trivial_bimodule(alg, 1))
        rep = mod.axiom_report()
        want = ("weak", "mll") if bad == "weak" else ("left-only", "lml")
        assert (rep.kind, rep.first_failure[0]) == want
        reported = count_reports(monkeypatch)
        summand = Subspace.span(QQ, mod.dim, [unit_vector(QQ, mod.dim, k) for k in range(b.dim)])
        quot = quotient(mod, summand)
        assert quot.axiom_report().kind == "full"
        assert quot.axiom_report().first_failure is None
        assert [m is quot for m in reported] == [True]


class TestReportsByConstruction:
    """Symmetrizations, antisymmetrizations and trivial modules are marked
    full when built, and their conjugates and sums inherit that; each such
    report must equal the report of a fresh module with the same actions
    and the elementwise reference."""

    @staticmethod
    def check(mods, rng):
        conjugates = [conjugate(m, random_invertible(m.field, m.dim, rng)) for m in mods]
        sums = [direct_sum(rng.choice(mods), rng.choice(conjugates)) for _ in range(3)]
        for mod in mods + conjugates + sums:
            check_report(mod)

    @pytest.mark.parametrize("field", [QQ, FF(2), FF(3), F5], ids=repr)
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_left_modules_and_trivials(self, field, seed):
        rng = random.Random(seed)
        alg = builtin_algebra(rng.choice(["A", "N", "e", "abelian:2"]), field)
        mods = [trivial_bimodule(alg, dim) for dim in range(4)]
        for _ in range(2):
            dim = rng.randint(1, 3)
            lam = random_left_module_matrices(alg, dim, rng)
            mods += [symmetrize(alg, lam, dim), antisymmetrize(alg, lam, dim)]
        self.check(mods, rng)

    @pytest.mark.parametrize("field", [QQ, FF(101)], ids=repr)
    def test_sl2_irreducibles(self, field):
        sl2 = make_sl2(field)
        mods = [sl2_irreducible(sl2, n, side) for n in range(5) for side in ("sym", "anti")]
        self.check(mods, random.Random(5))


class TestWeakMarks:
    """Tensor and hom spaces and duals are marked weak, and so are the
    conjugates, sums and subquotients whose every input is weak; a module
    marked weak checks only MLL, and its report must still equal the report
    of a fresh module with the same actions and the elementwise reference."""

    @staticmethod
    def built(a, b):
        yield tensor_bimodule(a, b)
        yield hom_bimodule(a, b)
        yield dual(a)
        yield trunc_bar(a, b)
        if a.is_full() and b.is_full():
            yield trunc_under(a, b)

    def check(self, a, b, bad, rng) -> set:
        """The kinds reported for the modules built from (a, b) and for
        their children, summed with a, b or the non-weak ``bad``; half the
        time a module's own report is computed before its children are
        built, so they inherit it, not its mark."""
        kinds = set()
        for mod in self.built(a, b):
            if rng.random() < 0.5:
                check_report(mod)
            other = rng.choice([a, b, bad])
            for child in TestInheritedReports.children(mod, other, rng):
                kinds.add(check_report(child).kind)
            kinds.add(check_report(mod).kind)
        return kinds

    @pytest.mark.parametrize("field", [QQ, FF(2), FF(3), F5], ids=repr)
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_weak_and_full_factors(self, field, seed):
        rng = random.Random(seed)
        alg = builtin_algebra(rng.choice(["A", "N", "e", "abelian:2"]), field)
        samplers = (random_full_bimodule, random_weak_bimodule)
        a, b = (rng.choice(samplers)(alg, rng.randint(1, 2), rng) for _ in range(2))
        self.check(a, b, lml_failing_bimodule(alg, 2, rng), rng)

    # L(2) (x) L(2) is left out over Q, where its random conjugates are slow
    @pytest.mark.parametrize("field, top", [(QQ, 1), (FF(101), 2)], ids=["QQ", "FF(101)"])
    def test_sl2_squares(self, field, top):
        # rho = I breaks LML at [e, f] = h, where [lam_e, I] = 0
        sl2, rng = make_sl2(field), random.Random(6)
        bad = Bimodule(sl2, adjoint(sl2).lam, [Matrix.identity(field, 3)] * 3)
        kinds = set()
        for n, (left, right) in itertools.product(range(top + 1), [("sym", "sym"), ("sym", "anti"),
                                                              ("anti", "sym"), ("anti", "anti")]):
            a, b = sl2_irreducible(sl2, n, left), sl2_irreducible(sl2, n, right)
            kinds |= self.check(a, b, bad, rng)
        assert {"full", "weak", "left-only"} <= kinds  # MLL holds, MLL fails, and an LML failure

    def test_weak_report_forms_only_mll_products(self, monkeypatch):
        # one product rho_j (lam_i + rho_i) per pair and no LLM check: 3^2
        # for L(3) (x)bar L(3), where MLL holds (the full check forms 33),
        # and 1 for sym L(3) (x) anti L(3), which fails MLL at the first pair
        import leibniz.bimodule as bimodule_mod

        sl2 = make_sl2(QQ)
        sym, anti = (sl2_irreducible(sl2, 3, side) for side in ("sym", "anti"))
        bar, mixed = trunc_bar(sym, sym), tensor_bimodule(sym, anti)
        products, llm_checks, mul = [], [], Matrix.__mul__
        monkeypatch.setattr(Matrix, "__mul__", lambda x, y: products.append(x) or mul(x, y))
        monkeypatch.setattr(bimodule_mod, "first_llm_failure", lambda *a: llm_checks.append(a))
        assert (bar.dim, bar.axiom_report().kind, len(products)) == (16, "full", 9)
        products.clear()
        assert (mixed.axiom_report().first_failure, len(products)) == (("mll", 0, 0), 1)
        assert mixed.kind == "weak" and llm_checks == []

    def test_weak_marks_answer_is_weak_without_a_report(self, monkeypatch):
        sl2 = make_sl2(QQ)
        reported = count_reports(monkeypatch)
        sym, anti = (sl2_irreducible(sl2, 2, side) for side in ("sym", "anti"))
        d, t = dual(sym), tensor_bimodule(sym, anti)
        assert d.is_weak() and t.is_weak()
        assert dual(d).is_weak() and tensor_bimodule(d, t).is_weak()
        assert reported == []


def fixed_point_closure(mod, seeds) -> Subspace:
    """The span of the seeds, grown by the images of its basis under every
    action until it stops growing."""
    space = Subspace.span(mod.field, mod.dim, seeds)
    while True:
        vecs = space.basis_vectors()
        vecs += [m.apply(v) for m in mod.actions for v in vecs]
        grown = Subspace.span(mod.field, mod.dim, vecs)
        if grown == space:
            return space
        space = grown


class TestWholeSpace:
    """F^n is invariant under any family: restricting to it keeps the
    actions, the quotient by it is the 0-dimensional module, full by
    construction, and a closure stops sweeping once it reaches it."""

    def test_quotient_by_everything(self, monkeypatch):
        mod = random_weak_bimodule(make_A(QQ), 3, random.Random(1))
        reported, contains, original = count_reports(monkeypatch), [], RowReducer.contains
        monkeypatch.setattr(RowReducer, "contains",
                            lambda *a, **k: contains.append(a) or original(*a, **k))
        quot = quotient(mod, Subspace.full(QQ, 3))
        assert quot.dim == 0 and quot.actions == (Matrix.zeros(QQ, 0, 0),) * 4
        assert quot.is_full() and reported == [] and contains == []

    @pytest.mark.parametrize("field", [QQ, FF(2), F5], ids=repr)
    def test_restrict_to_everything_keeps_the_actions(self, field):
        rng = random.Random(2)
        for name in ("A", "N", "e", "abelian:2"):
            for sampler in TestInheritedReports.SAMPLERS:
                mod = sampler(builtin_algebra(name, field), rng.randint(1, 4), rng)
                assert restrict(mod, Subspace.full(field, mod.dim)).actions == mod.actions

    @pytest.mark.parametrize("construct", [restrict, quotient])
    def test_proper_subspace_checked(self, construct):
        # refused exactly when not invariant, up to dimension n - 1
        rng, refused = random.Random(3), 0
        for _ in range(40):
            mod = random_weak_bimodule(make_N(FF(3)), rng.randint(2, 4), rng)
            space = Subspace.span(FF(3), mod.dim, [[rng.randint(0, 2) for _ in range(mod.dim)]
                                                   for _ in range(mod.dim - 1)])
            if is_invariant(mod, space):
                assert construct(mod, space).dim in (space.dim, mod.dim - space.dim)
            else:
                refused += 1
                with pytest.raises(BimoduleError, match="not invariant"):
                    construct(mod, space)
        assert refused

    @pytest.mark.parametrize("field", [QQ, FF(2), FF(3), F5], ids=repr)
    def test_closure_equals_fixed_point(self, field):
        rng, dims = random.Random(4), []
        for _ in range(30):
            alg = builtin_algebra(rng.choice(["A", "N", "e", "abelian:2"]), field)
            mod = rng.choice(TestInheritedReports.SAMPLERS)(alg, rng.randint(1, 4), rng)
            seeds = [[rng.randint(-1, 1) for _ in range(mod.dim)] for _ in range(rng.randint(0, 2))]
            closure = subbimodule_closure(mod, seeds)
            assert closure == fixed_point_closure(mod, seeds)
            dims.append(closure.dim == mod.dim)
        assert True in dims and False in dims


class TestRandomLeftModules:
    def test_llm_holds(self):
        rng = random.Random(3)
        for alg in (make_e(QQ), make_A(FF(3)), make_N(QQ), make_abelian(F5, 2)):
            for dim in (1, 2, 3):
                lam = random_left_module_matrices(alg, dim, rng)
                assert symmetrize(alg, lam, dim).is_full()

    def test_products_act_by_zero_and_draws_are_kept(self):
        # one random matrix per call, on the basis element off the product span
        ours, ref = random.Random(7), random.Random(7)
        lam = random_left_module_matrices(make_A(QQ), 2, ours)
        x = Matrix.from_ints(QQ, [[ref.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        assert lam == [x, Matrix.zeros(QQ, 2, 2)]
        assert ours.random() == ref.random()

    def test_perfect_algebra_refused(self):
        with pytest.raises(BimoduleError, match="perfect"):
            random_left_module_matrices(make_sl2(QQ), 2, random.Random(0))


class TestDirectSum:
    def test_sum_with_zero_dim(self):
        ad = adjoint(make_A(QQ))
        z = trivial_bimodule(make_A(QQ), 0)
        s = direct_sum(ad, z)
        assert s.lam == ad.lam

    def test_dims_add_and_flags_and(self):
        a = adjoint(make_A(QQ))
        b = one_dim_bimodule(make_A(QQ), [1, 0], [0, 0])
        s = direct_sum(a, b)
        assert s.dim == 3
        ra, rb, rs = a.axiom_report(), b.axiom_report(), s.axiom_report()
        assert rs.llm == (ra.llm and rb.llm)
        assert rs.lml == (ra.lml and rb.lml)
        assert rs.mll == (ra.mll and rb.mll)

    def test_algebra_mismatch(self):
        with pytest.raises(BimoduleError):
            direct_sum(adjoint(make_A(QQ)), adjoint(make_N(QQ)))


class TestHomAndDual:
    def test_hom_of_trivials_is_trivial(self):
        t = trivial_bimodule(make_A(QQ), 1)
        assert classify_flags(hom_bimodule(t, t))["trivial"]

    def test_dual_of_one_dim_by_formula(self):
        # 1x1 case: dual left action is -a, dual right action is -c
        mod = one_dim_bimodule(make_e(QQ), [3], [-3])  # symmetric
        d = dual(mod)
        assert d.lam[0] == Matrix(QQ, [[-3]])
        assert d.rho[0] == Matrix(QQ, [[3]])
        assert classify_flags(d)["symmetric"]

    def test_hom_of_adjoints_weak_with_lml(self):
        ad = adjoint(make_A(QQ))
        h = hom_bimodule(ad, ad)
        assert h.dim == 4
        assert h.axiom_report().lml

    def test_hom_preserves_sym_anti(self):
        alg = make_A(QQ)
        lam = [Matrix(QQ, [[2]]), Matrix.zeros(QQ, 1, 1)]
        s = symmetrize(alg, lam)
        a = antisymmetrize(alg, lam)
        assert classify_flags(hom_bimodule(s, s))["symmetric"]
        assert classify_flags(hom_bimodule(a, a))["anti_symmetric"]
        assert hom_bimodule(s, s).is_full()

    def test_hom_weak_always(self):
        rng = random.Random(13)
        for _ in range(12):
            alg = rng.choice([make_e(QQ), make_A(QQ)])
            a = random_weak_bimodule(alg, rng.randint(1, 2), rng)
            b = random_weak_bimodule(alg, rng.randint(1, 2), rng)
            assert hom_bimodule(a, b).is_weak()

    def test_hom_action_formula_on_elements(self):
        # (x.f)(m) = x.f(m) - f(x.m) spot-checked through the flattening
        alg = make_A(QQ)
        ad = adjoint(alg)
        h = hom_bimodule(ad, ad)
        f_mat = Matrix(QQ, [[1, 2], [0, 1]])
        flat = tuple(x for row in f_mat.rows for x in row)
        acted = h.lam[0].apply(flat)
        expected = ad.lam[0] * f_mat - f_mat * ad.lam[0]
        assert acted == tuple(x for row in expected.rows for x in row)


class TestDualityChecks:
    def test_trivial_module_all_true(self):
        out = duality_morphism_checks(trivial_bimodule(make_A(QQ), 2))
        assert all(out.values())

    def test_one_dim_weak_all_true(self):
        out = duality_morphism_checks(one_dim_bimodule(make_e(QQ), [0], [1]))
        assert all(out.values())

    def test_zero_dim_module(self):
        assert all(duality_morphism_checks(trivial_bimodule(make_A(QQ), 0)).values())

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_random_weak_bimodules(self, seed):
        rng = random.Random(seed)
        alg = rng.choice([make_e(QQ), make_A(QQ), make_e(F5), make_A(F5)])
        mod = random_weak_bimodule(alg, rng.randint(1, 3), rng)
        assert all(duality_morphism_checks(mod).values())


class TestWeakIrreducibles:
    """Every 1-dim weak bimodule is irreducible; each must either be
    anti-symmetric or have full right span with no right invariants."""

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30)
    def test_dichotomy(self, seed):
        rng = random.Random(seed)
        alg = rng.choice([make_e(QQ), make_A(QQ), make_e(F5)])
        from leibniz.samples import random_one_dim_weak

        mod = random_one_dim_weak(alg, rng)
        data = kernels_and_invariants(mod)
        anti = classify_flags(mod)["anti_symmetric"]
        assert anti or (data["MR"].dim == 1 and data["Minv"].dim == 0)

    def test_the_weak_not_full_example(self):
        mod = one_dim_bimodule(make_e(QQ), [0], [1])
        data = kernels_and_invariants(mod)
        assert not classify_flags(mod)["anti_symmetric"]
        assert data["MR"].dim == 1 and data["Minv"].dim == 0


class TestHomCandidate:
    def test_identity_intertwines(self):
        ad = adjoint(make_A(QQ))
        assert intertwines(ad, ad, Matrix.identity(QQ, 2))

    def test_projection_to_quotient_intertwines(self):
        ad = adjoint(make_A(QQ))
        line = Subspace.span(QQ, 2, [(0, 1)])
        q = quotient(ad, line)
        proj = Matrix(QQ, [[1, 0]])  # kill e, keep h
        assert intertwines(ad, q, proj)

    def test_broken_map_detected(self):
        ad = adjoint(make_A(QQ))
        bad = Matrix(QQ, [[0, 1], [1, 0]])
        assert not intertwines(ad, ad, bad)


class TestSerialization:
    def test_roundtrip(self):
        for mod in (
            adjoint(make_A(QQ)),
            one_dim_bimodule(make_e(QQ), [0], [1]),
            adjoint(make_N(FF(3))),
        ):
            again = Bimodule.from_json(mod.to_json())
            assert again == mod

    def test_non_object_rejected(self):
        for text in ("[1, 2]", "3", '"adjoint"', "null"):
            with pytest.raises(BimoduleError):
                Bimodule.from_json(text)

    @pytest.mark.parametrize("dim", [0, 1, 3])
    def test_dimension_over_zero_dim_algebra(self, dim):
        mod = trivial_bimodule(make_abelian(QQ, 0), dim)
        assert mod.dim == dim
        again = Bimodule.from_json(mod.to_json())
        assert again.dim == dim and again == mod

    def test_zero_dim_algebra_needs_declared_dim(self):
        alg = make_abelian(QQ, 0)
        with pytest.raises(BimoduleError, match="needs its dim"):
            Bimodule(alg, [], [])
        assert adjoint(alg).dim == 0
        assert symmetrize(alg, [], 1).dim == 1
        assert antisymmetrize(alg, [], 2).dim == 2
        with pytest.raises(BimoduleError, match="needs its dim"):
            symmetrize(alg, [])

    def test_declared_dim_must_be_a_size(self):
        import json

        doc = json.loads(trivial_bimodule(make_abelian(QQ, 0), 2).to_json())
        for bad in (-1, "2", None, True):
            doc["dim"] = bad
            with pytest.raises(BimoduleError):
                Bimodule.from_json(json.dumps(doc))

    def test_dim_mismatch_rejected(self):
        import json

        doc = json.loads(adjoint(make_A(QQ)).to_json())
        doc["dim"] = 3
        with pytest.raises(BimoduleError):
            Bimodule.from_json(json.dumps(doc))
