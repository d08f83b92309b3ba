"""Composition series: strategies, certification, oracle agreement."""

import functools
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from leibniz.fields import QQ, FF
from leibniz.algebra import (make_A, make_N, make_S, make_abelian, make_e, make_sl2,
                             sl2_module_matrices)
from leibniz.bimodule import (
    BimoduleError,
    adjoint,
    antisymmetrize,
    conjugate,
    direct_sum,
    one_dim_bimodule,
    symmetrize,
    trivial_bimodule,
)
from leibniz.chop import (
    _left_module_highest_weights,
    bruteforce_invariant_subspaces,
    chop,
    common_eigenvector,
    oracle_composition_factors,
    sl2_triple_indices,
)
from leibniz.linalg import Matrix, Subspace, eigenspace, eigenvalues_in_field, invert, rank
from leibniz.samples import random_full_bimodule, random_invertible
from leibniz.tensor import trunc_bar, trunc_under, truncation_data

F2, F3 = FF(2), FF(3)


def multiset(factors):
    return sorted((f.signature for f in factors), key=lambda s: repr(s))


class TestCommonEigenvector:
    def test_diagonal_family(self):
        mats = [Matrix.from_ints(QQ, [[1, 0], [0, 2]]), Matrix.from_ints(QQ, [[3, 0], [0, 3]])]
        v = common_eigenvector(mats, QQ, 2)
        assert v is not None
        for m in mats:
            image = m.apply(v)
            # image is proportional to v
            assert image[0] * v[1] == image[1] * v[0]

    def test_eigenvalues_only_for_matrices_the_search_reaches(self, monkeypatch):
        # the F_3 rotation has no eigenvalue, so the search stops at it
        chop_mod = sys.modules["leibniz.chop"]
        seen = []
        eigenvalues = chop_mod.eigenvalues_in_field
        monkeypatch.setattr(
            chop_mod, "eigenvalues_in_field", lambda m: seen.append(m) or eigenvalues(m)
        )
        rotation = Matrix.from_ints(F3, [[0, 2], [1, 0]])
        mats = [rotation, Matrix.identity(F3, 2), Matrix.from_ints(F3, [[1, 1], [0, 1]])]
        assert common_eigenvector(mats, F3, 2) is None
        assert seen == [rotation]

    def test_no_common_eigenvector(self):
        sl2 = make_sl2(QQ)
        mats = sl2_module_matrices(QQ, 1)
        assert common_eigenvector(mats, QQ, 2) is None


def full_space_search(mats, field, ambient: int):
    """The search as it was before the restriction: every eigenspace of each
    matrix on all of F^n, intersected with the joint eigenspace so far."""
    mats = list(mats)

    @functools.cache
    def eigenspaces(idx: int) -> list:
        return [eigenspace(mats[idx], ev) for ev in eigenvalues_in_field(mats[idx])]

    def search(space, idx):
        if space.dim == 0:
            return None
        if idx == len(mats):
            return space
        for espace in eigenspaces(idx):
            found = search(space.intersect(espace), idx + 1)
            if found is not None:
                return found
        return None

    space = search(Subspace.full(field, ambient), 0)
    return None if space is None else space.basis_vectors()[0]


def in_random_basis(mats, field, rng):
    if not mats or mats[0].nrows == 0:
        return list(mats)
    p = random_invertible(field, mats[0].nrows, rng)
    p_inv = invert(p)
    return [p * m * p_inv for m in mats]


def random_family(field, d: int, rng: random.Random) -> list:
    """Up to three matrices sharing a flag, or diagonal ones with repeated
    entries, or unstructured ones, plus zero, scalar and repeated +-m
    members, all in one random basis."""
    kind = rng.choice(["flag", "diagonal", "free"])

    def member():
        def entry(i, j):
            if kind == "diagonal":
                return rng.choice([0, 1, -1, 2]) if i == j else 0
            return rng.randint(-2, 2) if kind == "free" or j >= i else 0
        return Matrix.from_ints(field, [[entry(i, j) for j in range(d)] for i in range(d)])

    mats = [member() for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.3:
        kind = "free"
        mats.append(member())
    for _ in range(rng.randint(0, 3)):
        extra = rng.choice(["zero", "scalar", "repeat"])
        if extra == "zero" or not mats:
            mats.append(Matrix.zeros(field, d, d))
        elif extra == "scalar":
            mats.append(Matrix.identity(field, d).scale(field.from_int(rng.randint(-3, 3))))
        else:
            m = rng.choice(mats)
            mats.append(m if rng.random() < 0.5 else -m)
    rng.shuffle(mats)
    return in_random_basis(mats, field, rng)


def lines(p: int, d: int):
    """One vector per line of F_p^d: first nonzero coordinate 1."""
    for first in range(d):
        for tail in itertools.product(range(p), repeat=d - first - 1):
            yield (0,) * first + (1,) + tail


def spans_invariant_line(m: Matrix, v, p: int) -> bool:
    """m v is a multiple of v, in plain integer arithmetic mod p."""
    image = [sum(a * x for a, x in zip(row, v)) % p for row in m.rows]
    c = image[next(i for i, x in enumerate(v) if x)]
    return all((y - c * x) % p == 0 for x, y in zip(v, image))


class TestCommonEigenvectorAgainstFullSpaceSearch:
    @given(field=st.sampled_from([QQ, F2, F3, FF(5), FF(101)]), d=st.integers(0, 6),
           seed=st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_same_vector_as_the_full_space_search(self, field, d, seed):
        mats = random_family(field, d, random.Random(seed))
        assert common_eigenvector(mats, field, d) == full_space_search(mats, field, d)

    @given(field=st.sampled_from([F2, F3]), d=st.integers(0, 4), seed=st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_against_every_line(self, field, d, seed):
        mats = random_family(field, d, random.Random(seed))
        p = field.characteristic
        passing = [v for v in lines(p, d) if all(spans_invariant_line(m, v, p) for m in mats)]
        v = common_eigenvector(mats, field, d)
        if not passing:
            assert v is None
        else:
            assert v is not None and all(spans_invariant_line(m, v, p) for m in mats)


class TestChopExamples:
    def test_adjoint_of_solvable(self):
        rep = chop(adjoint(make_A(QQ)))
        assert rep.dims == [1, 1]
        assert rep.certified
        sigs = multiset(rep.factors)
        # one anti-symmetric weight-1 line and one trivial line
        kinds = sorted((f.anti_symmetric, f.trivial) for f in rep.factors)
        assert kinds == [(True, False), (True, True)]

    def test_one_dim_irreducible(self):
        rep = chop(symmetrize(make_e(QQ), [Matrix(QQ, [[4]])]))
        assert rep.dims == [1] and rep.certified

    def test_weak_input_never_certified(self):
        rep = chop(one_dim_bimodule(make_e(QQ), [0], [1]))
        assert rep.dims == [1]
        assert not rep.certified

    def test_non_weak_input_rejected(self):
        with pytest.raises(BimoduleError, match="at least a weak bimodule"):
            chop(one_dim_bimodule(make_A(QQ), [0, 1], [0, 0]))

    def test_certification_only_for_full_inputs(self):
        # random weak samples may happen to be full; certification must
        # track exactly that distinction
        from leibniz.samples import random_weak_bimodule

        rng = random.Random(31)
        for _ in range(25):
            alg = random.Random(rng.random()).choice([make_e(F3), make_A(F3)])
            mod = random_weak_bimodule(alg, rng.randint(1, 3), rng)
            rep = chop(mod)
            if rep.certified:
                assert mod.is_full()
            if not mod.is_full():
                assert not rep.certified

    def test_clebsch_gordan_square(self):
        sl2 = make_sl2(QQ)
        m = symmetrize(sl2, sl2_module_matrices(QQ, 1))
        rep = chop(trunc_bar(m, m))
        assert sorted(rep.dims) == [1, 3]
        assert rep.certified
        three = next(f for f in rep.factors if f.dim == 3)
        assert three.symmetric and not three.trivial
        one = next(f for f in rep.factors if f.dim == 1)
        assert one.trivial

    def test_mixed_direct_sum_over_sl2(self):
        sl2 = make_sl2(QQ)
        mats = sl2_module_matrices(QQ, 1)
        rep = chop(direct_sum(symmetrize(sl2, mats), antisymmetrize(sl2, mats)))
        kinds = sorted((f.dim, f.symmetric, f.anti_symmetric) for f in rep.factors)
        assert kinds == [(2, False, True), (2, True, False)]
        assert rep.certified

    def test_simple_adjoint(self):
        rep = chop(adjoint(make_S(QQ)))
        assert sorted(rep.dims) == [2, 3]
        assert rep.certified
        two = next(f for f in rep.factors if f.dim == 2)
        assert two.anti_symmetric
        three = next(f for f in rep.factors if f.dim == 3)
        assert three.symmetric

    def test_zero_dim(self):
        rep = chop(trivial_bimodule(make_A(QQ), 0))
        assert rep.factors == [] and rep.certified

    def test_seed_invariance_of_multiset(self):
        rng = random.Random(77)
        for _ in range(5):
            mod = random_full_bimodule(make_A(QQ), 3, rng)
            reports = [chop(mod, seed=s) for s in range(5)]
            base = multiset(reports[0].factors)
            assert all(multiset(r.factors) == base for r in reports[1:])

    def test_factor_dims_always_sum(self):
        rng = random.Random(78)
        for _ in range(10):
            mod = random_full_bimodule(make_e(F3), rng.randint(1, 3), rng)
            rep = chop(mod)
            assert sum(rep.dims) == mod.dim


class TestPerFactorCertification:
    """The report's flag is read off its factors: certified exactly when the
    input is full and every factor is."""

    @given(field=st.sampled_from([F2, F3, QQ]), build=st.sampled_from([make_e, make_A]),
           weak=st.booleans(), dim=st.integers(1, 4), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_report_flag_is_read_off_factors(self, field, build, weak, dim, seed):
        from leibniz.samples import random_weak_bimodule

        sample = random_weak_bimodule if weak else random_full_bimodule
        mod = sample(build(field), dim, random.Random(seed))
        rep = chop(mod, seed=seed)
        assert rep.certified == (mod.is_full() and all(f.certified for f in rep.factors))

    @staticmethod
    def rotation(field):
        lam = [Matrix.from_ints(field, [[0, -1], [1, 0]])]
        return symmetrize(make_abelian(field, 1), lam)

    def test_rational_rotation_is_an_uncertified_leaf(self):
        mod = self.rotation(QQ)
        rep = chop(mod)
        assert mod.is_full()
        assert [(f.dim, f.certified) for f in rep.factors] == [(2, False)]
        assert not rep.certified

    def test_exhaustive_leaf_over_f3_is_certified(self):
        rep = chop(self.rotation(F3))  # x^2 + 1 has no root mod 3
        assert [(f.dim, f.certified) for f in rep.factors] == [(2, True)]
        assert rep.certified

    def test_weak_input_uncertified_with_certified_factors(self):
        mod = one_dim_bimodule(make_e(QQ), [0], [1])
        rep = chop(mod)
        assert mod.is_weak() and not mod.is_full()
        assert all(f.certified for f in rep.factors) and not rep.certified


class TestBruteforceOracle:
    def test_trivial_actions_dim2_f2(self):
        # all 5 subspaces of F_2^2 are invariant under zero actions
        mod = trivial_bimodule(make_e(F2), 2)
        assert len(bruteforce_invariant_subspaces(mod)) == 5

    def test_irreducible_line(self):
        mod = symmetrize(make_e(F3), [Matrix.from_ints(F3, [[2]])])
        spaces = bruteforce_invariant_subspaces(mod)
        assert sorted(s.dim for s in spaces) == [0, 1]

    def test_nilpotent_adjoint_contains_kernel_line(self):
        mod = adjoint(make_N(F3))
        spaces = bruteforce_invariant_subspaces(mod)
        from leibniz.linalg import Subspace

        assert any(s == Subspace.span(F3, 2, [(0, 1)]) for s in spaces)

    def test_bounds_enforced(self):
        with pytest.raises(BimoduleError):
            bruteforce_invariant_subspaces(trivial_bimodule(make_e(QQ), 2))
        with pytest.raises(BimoduleError):
            bruteforce_invariant_subspaces(trivial_bimodule(make_e(FF(11)), 2))
        with pytest.raises(BimoduleError):
            bruteforce_invariant_subspaces(trivial_bimodule(make_e(F2), 6))

    def test_chop_matches_oracle_on_seeded_family(self):
        rng = random.Random(101)
        algebras = [make_e(F3), make_A(F3)]
        for i in range(20):
            alg = algebras[i % 2]
            mod = random_full_bimodule(alg, rng.randint(1, 3), rng)
            rep = chop(mod)
            oracle = oracle_composition_factors(mod)
            assert multiset(rep.factors) == multiset(oracle), f"case {i}"
            assert rep.certified

    def test_chop_matches_oracle_on_hard_cases(self):
        # rotation matrix: charpoly t^2 + 1 has no root in F_3
        e3 = make_e(F3)
        irr2 = symmetrize(e3, [Matrix.from_ints(F3, [[0, 2], [1, 0]])])
        mod = conjugate(
            direct_sum(irr2, antisymmetrize(e3, [Matrix.from_ints(F3, [[1]])])),
            random_invertible(F3, 3, random.Random(5)),
        )
        rep = chop(mod)
        assert multiset(rep.factors) == multiset(oracle_composition_factors(mod))
        assert rep.certified
        assert sorted(rep.dims) == [1, 2]


class TestSl2Recognition:
    def test_builtin_sl2_and_extension_recognised(self):
        for f in (QQ, F3, FF(101)):
            assert sl2_triple_indices(make_sl2(f)) == (0, 1, 2)
            assert sl2_triple_indices(make_S(f)) == (0, 1, 2)
            assert sl2_triple_indices(make_A(f)) is None
        assert sl2_triple_indices(make_A(F2)) is None

    def test_lookups_build_sl2_at_most_once_per_field(self, monkeypatch):
        chop_mod = sys.modules["leibniz.chop"]
        builds = []

        def counting_make_sl2(field):
            builds.append(field)
            return make_sl2(field)

        monkeypatch.setattr(chop_mod, "make_sl2", counting_make_sl2)
        alg = make_sl2(FF(7))
        for _ in range(5):
            assert chop_mod.sl2_triple_indices(alg) == (0, 1, 2)
            assert chop_mod.sl2_triple_indices(make_A(FF(7))) is None
        assert len(builds) <= 1


class TestSl2SmallCharacteristic:
    """The highest-weight path needs characteristic 0 or above the dimension;
    below that, sl2 modules go to spin and must still match the oracle."""

    @pytest.mark.parametrize("weight", [3, 4])
    @pytest.mark.parametrize("build", [symmetrize, antisymmetrize])
    def test_sl2_over_f3_matches_oracle(self, build, weight):
        mod = build(make_sl2(F3), sl2_module_matrices(F3, weight))
        rep = chop(mod)
        oracle = oracle_composition_factors(
            mod, bruteforce_invariant_subspaces(mod, max_dim=5)
        )
        assert multiset(rep.factors) == multiset(oracle)
        assert sorted(rep.dims) == ([1, 1, 2] if weight == 3 else [1, 2, 2])
        assert rep.certified
        assert "sl2" not in rep.strategy


class TestInheritedReportsInChop:
    @pytest.mark.parametrize("sides", [("sym", "sym"), ("sym", "anti"), ("anti", "sym"),
                                       ("anti", "anti")], ids="-".join)
    def test_no_report_for_conjugated_factors_or_quotients(self, sides, monkeypatch):
        # the factors are conjugates of modules that symmetrize and
        # antisymmetrize mark full, and chop's subquotients of the full bar
        # product inherit its report: only the bar product is checked, and
        # only when T is not all of M (x) N, since a 0-dimensional module is
        # full by construction
        import leibniz.bimodule as bimodule_mod

        sl2, rng = make_sl2(QQ), random.Random(3)
        for n in range(8):  # the irreducible factors, built before counting
            for side in ("sym", "anti"):
                bimodule_mod.sl2_irreducible(sl2, n, side)
        a, b = (
            conjugate((symmetrize if side == "sym" else antisymmetrize)(
                sl2, sl2_module_matrices(QQ, 3)), random_invertible(QQ, 4, rng))
            for side in sides
        )
        reported = []
        report = bimodule_mod.axiom_report
        monkeypatch.setattr(
            bimodule_mod, "axiom_report", lambda mod: reported.append(mod) or report(mod)
        )
        truncation_data(a, b)
        bar = trunc_bar(a, b)
        trunc_under(a, b)
        factors = chop(bar).factors
        assert [m is bar for m in reported] == [True] * (bar.dim > 0)
        assert sum(f.dim for f in factors) == bar.dim


class TestSl2PeelAgainstCharacter:
    """Highest weights of a sum of irreducibles L(k) in a random basis: the
    number of copies of L(k) is dim E_k(h) - dim E_(k+2)(h)."""

    @staticmethod
    def character_weights(h: Matrix, field) -> list:
        d = h.nrows

        def weight_dim(k):
            shifted = h - Matrix.identity(field, d).scale(field.from_int(k))
            return d - rank(shifted)

        return [k for k in reversed(range(6)) for _ in range(weight_dim(k) - weight_dim(k + 2))]

    @pytest.mark.parametrize("field", [QQ, FF(101)], ids=repr)
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_weights_match_the_character(self, field, seed):
        rng = random.Random(seed)
        blocks = [sl2_module_matrices(field, rng.randint(0, 5)) for _ in range(rng.randint(1, 3))]
        d = sum(b[0].nrows for b in blocks)
        offsets = list(itertools.accumulate((b[0].nrows for b in blocks), initial=0))
        zero = field.zero()
        triple = []
        for i in range(3):
            rows = [[zero] * d for _ in range(d)]
            for block, start in zip(blocks, offsets):
                for r, row in enumerate(block[i].rows):
                    rows[start + r][start:start + len(row)] = row
            triple.append(Matrix(field, rows))
        e, h, f = in_random_basis(triple, field, rng)
        assert _left_module_highest_weights(e, h, f, field) == self.character_weights(h, field)
