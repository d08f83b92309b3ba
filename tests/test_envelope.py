"""Presented enveloping algebras: dims, homomorphisms, Hopf data, actions."""

import itertools
import random
from collections import Counter

import pytest
from sympy import GF, QQ as SQQ
from sympy.polys.matrices import DomainMatrix

from leibniz.fields import FF, QQ, FieldError
from leibniz.algebra import (
    builtin_algebra, make_A, make_N, make_S, make_abelian, make_e, make_sl2,
)
from leibniz.bimodule import BimoduleError, adjoint, one_dim_bimodule
from leibniz.cli import main as cli_main
from leibniz.envelope import (
    MAX_SLICE_WORDS,
    AlgebraHom,
    EnvelopeError,
    PresentedAlgebra,
    act,
    build_presentation,
    check_section_identities,
    degree_one_primitive_dim,
    hopf_check,
    kernel_products_vanish,
    standard_homs,
)
from leibniz.linalg import RowReducer
from leibniz.samples import random_weak_bimodule

BUILTINS = [make_e, make_A, make_N, make_sl2, make_S]


def closed_form_two_commuting_vars(d):
    """Slice dims of a polynomial ring in two variables: C(d+2, 2)."""
    return (d + 1) * (d + 2) // 2


class TestPresentations:
    def test_one_dim_weak_envelope_is_polynomial_ring(self):
        pres = build_presentation(make_e(QQ), "ulweak", 3)
        assert len(pres.relations) == 1
        (rel,) = pres.relations
        assert sorted(rel.items()) == [((0, 1), 1), ((1, 0), -1)]
        assert pres.filtered_dims(3) == [
            closed_form_two_commuting_vars(d) for d in range(4)
        ]

    def test_one_dim_full_envelope_adds_zero_divisor_relation(self):
        pres = build_presentation(make_e(QQ), "ul", 2)
        assert len(pres.relations) == 2
        assert {(1, 0): QQ.one(), (1, 1): QQ.one()} in pres.relations

    def test_abelian_two_relations_pattern(self):
        # generators l_e, l_f, r_e, r_f: everything commutes except (r_e, r_f)
        pres = build_presentation(make_abelian(QQ, 2, names=["e", "f"]), "ulweak", 2)
        pairs = {
            tuple(sorted(max(rel, key=len))) for rel in pres.relations
        }
        assert pairs == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}
        assert (2, 3) not in pairs

    def test_free_algebra_dims(self):
        pres = PresentedAlgebra(QQ, ["x", "y"], [], 2, "free")
        assert pres.filtered_dims(2) == [1, 3, 7]
        assert degree_one_primitive_dim(pres) == 2

    def test_relations_are_coerced_into_the_field(self):
        # over F_3: 3 is 0 and -1 is 2, so xy - yx + 3x is the commutator,
        # and 3y^2 is the zero relation, which is dropped
        F3 = FF(3)
        pres = PresentedAlgebra(F3, ["x", "y"], [{(0, 1): 1, (1, 0): -1, (0,): 3},
                                                 {(1, 1): 3}], 3)
        assert pres.relations == [{(0, 1): 1, (1, 0): 2}]
        native = PresentedAlgebra(F3, ["x", "y"], [{(0, 1): 1, (1, 0): 2}], 3)
        for d in (2, 3):
            assert pres.ideal_reducer(d)._rows == native.ideal_reducer(d)._rows
        assert pres.filtered_dims(3) == [closed_form_two_commuting_vars(d) for d in range(4)]
        with pytest.raises(FieldError):
            PresentedAlgebra(QQ, ["x", "y"], [{(0, 1): 2.0, (1, 0): -2}], 2)

    def test_one_dim_full_envelope_closed_form(self):
        # normal forms are x^a and x^a y (words collapse through yx = xy
        # and y^2 = -xy), so the degree <= d slice has dimension 2d + 1
        pres = build_presentation(make_e(QQ), "ul", 3)
        assert pres.filtered_dims(3) == [2 * d + 1 for d in range(4)]

    def test_solvable_weak_degree_one_slice(self):
        pres = build_presentation(make_A(QQ), "ulweak", 2)
        assert pres.filtered_dims(1) == [1, 4]  # unit + three surviving generators
        assert degree_one_primitive_dim(pres) == 3

    def test_primitive_dim_exceeds_double_quotient(self):
        from leibniz.algebra import canonical_lie

        alg = make_A(QQ)
        pres = build_presentation(alg, "ulweak", 2)
        quot, _ = canonical_lie(alg)
        assert degree_one_primitive_dim(pres) == 3 > 2 * quot.dim

    def test_filtered_dims_monotone_and_bounded(self):
        for make in (make_e, make_A, make_N):
            pres = build_presentation(make(QQ), "ulweak", 3)
            dims = pres.filtered_dims(3)
            free = [len(pres.slice_words(d)) for d in range(4)]
            assert all(a <= b for a, b in zip(dims, dims[1:]))
            assert all(d <= fr for d, fr in zip(dims, free))

    def test_ideal_slices_nest(self):
        # the degree-2 ideal slice sits inside the degree-3 slice
        pres = build_presentation(make_A(QQ), "ulweak", 3)
        low = pres.ideal_reducer(2)
        high = pres.ideal_reducer(3)
        for row in low.rows:
            assert high.contains(pres.poly_to_vec(pres.vec_to_poly(row, 2), 3))

    def test_cutoff_enforced(self):
        pres = build_presentation(make_e(QQ), "ulweak", 2)
        with pytest.raises(EnvelopeError):
            pres.filtered_dims(3)
        with pytest.raises(EnvelopeError):
            build_presentation(make_e(QQ), "ulweak", 1)

    def test_slices_kept_and_errors_raised_again(self):
        pres = build_presentation(make_A(QQ), "ulweak", 2)
        assert pres.ideal_reducer(2) is pres.ideal_reducer(2)
        assert pres.slice_words(2) is pres.slice_words(2)
        for _ in range(2):
            with pytest.raises(EnvelopeError):
                pres.ideal_reducer(3)


class TestLowDegreeDimsOracle:
    """dim(J_top meet F_<=d) = rank J - rank of J on the columns of the
    words longer than d, both ranks taken by sympy's DomainMatrix on the
    spanning set u * rel * v in a word order of the test's own."""

    @staticmethod
    def sympy_low_degree_dims(pres, top):
        p = pres.field.characteristic
        dom = GF(p) if p else SQQ
        scalar = (lambda c: dom(int(c))) if p else (lambda c: SQQ(c.numerator, c.denominator))
        gens = range(pres.ngens)
        words = [w for k in range(top + 1) for w in itertools.product(gens, repeat=k)]
        col = {w: i for i, w in enumerate(words)}
        spanning = []
        for rel in pres.relations:
            for la in range(top - 1):
                for lb in range(top - 1 - la):
                    for u in itertools.product(gens, repeat=la):
                        for v in itertools.product(gens, repeat=lb):
                            spanning.append({col[u + w + v]: scalar(c) for w, c in rel.items()})
        ideal = DomainMatrix(dict(enumerate(spanning)), (len(spanning), len(words)), dom)
        rank = ideal.rank()
        expected = []
        for d in range(top + 1):
            longer = [i for i, w in enumerate(words) if len(w) > d]
            projected = ideal.extract(range(len(spanning)), longer).rank() if longer else 0
            expected.append(rank - projected)
        return expected

    @pytest.mark.parametrize("make", [make_e, make_A, make_N, make_sl2, make_S])
    @pytest.mark.parametrize("top", [2, 3])
    @pytest.mark.parametrize("which", ["ul", "ulweak", "ulie"])
    def test_low_degree_dims_match_sympy_ranks(self, make, top, which):
        pres = build_presentation(make(QQ), which, top)
        assert pres.low_degree_ideal_dims(top) == self.sympy_low_degree_dims(pres, top)

    @pytest.mark.parametrize("top", [2, 3])
    @pytest.mark.parametrize("which", ["ul", "ulweak", "ulie"])
    def test_hemi_sl2_over_f101(self, top, which):
        pres = build_presentation(make_S(FF(101)), which, top)
        assert pres.low_degree_ideal_dims(top) == self.sympy_low_degree_dims(pres, top)


class TestExtendedSlice:
    """The full slice, seeded with a copy of the weak slice, equals a fresh
    reducer of every u * rel * v of all full relations, in columns of the
    test's own word order; small slices also match sympy's rank."""

    CASES = [(name, cutoff) for name in ("e", "A", "N", "sl2", "abelian:2", "hemi-sl2-L1")
             for cutoff in (2, 3, 4) if name != "hemi-sl2-L1" or cutoff < 4]

    @pytest.mark.parametrize("field", [QQ, FF(3), FF(101)], ids=lambda f: f.spec)
    @pytest.mark.parametrize("name, cutoff", CASES)
    def test_full_slice_matches_fresh_reducer(self, name, cutoff, field):
        ul = build_presentation(builtin_algebra(name, field), "ul", cutoff)
        gens = range(ul.ngens)
        for d in range(2, cutoff + 1):
            words = [w for k in range(d, -1, -1) for w in itertools.product(gens, repeat=k)]
            col = {w: i for i, w in enumerate(words)}
            spanning = [{col[u + w + v]: c for w, c in rel.items()}
                        for rel in ul.relations for la in range(d - 1) for lb in range(d - 1 - la)
                        for u in itertools.product(gens, repeat=la)
                        for v in itertools.product(gens, repeat=lb)]
            fresh = RowReducer(field, len(words))
            fresh.insert_all(spanning)
            red = ul.ideal_reducer(d)
            assert red.pivots == fresh.pivots
            assert red._rows == fresh._rows
            if len(words) <= 400:
                p = field.characteristic
                dom = GF(p) if p else SQQ
                scalar = (lambda c: dom(int(c))) if p else (lambda c: SQQ(c.numerator, c.denominator))
                rows = {i: {j: scalar(c) for j, c in row.items()} for i, row in enumerate(spanning)}
                assert DomainMatrix(rows, (len(rows), len(words)), dom).rank() == red.rank

    def test_each_slice_computed_once(self, monkeypatch):
        computed = Counter()
        body = PresentedAlgebra.ideal_reducer.__wrapped__
        monkeypatch.setattr(PresentedAlgebra.ideal_reducer, "__wrapped__",
                            lambda pres, d: computed.update([(pres.which, d)]) or body(pres, d))
        alg = make_S(FF(101))
        pres = {w: build_presentation(alg, w, 3) for w in ("ul", "ulweak", "ulie")}
        for which, p in pres.items():
            p.filtered_dims(3)
            if which != "ul":
                hopf_check(p)
        homs = standard_homs(alg, 3)
        assert all(homs[name].verify() for name in ("d0", "d1", "s0", "omega"))
        assert all(check_section_identities(alg, 3).values())
        assert computed and max(computed.values()) == 1
        assert all(build_presentation(alg, w, 3) is p for w, p in pres.items())
        assert all(homs[w] is p for w, p in pres.items())

    def test_weak_relations_lead_the_full_ones(self):
        alg = make_A(QQ)
        ul = build_presentation(alg, "ul", 2)
        assert ul.base is build_presentation(alg, "ulweak", 2)
        assert ul.relations[:len(ul.base.relations)] == ul.base.relations
        assert ul.slice_words(2) is ul.base.slice_words(2)


class TestSliceCap:
    """Slices over MAX_SLICE_WORDS words are refused before a word is
    listed: the word lister is stubbed to fail if it is reached."""

    @pytest.fixture(autouse=True)
    def no_word_listing(self, monkeypatch):
        def unreachable(pres, k):
            raise AssertionError("words listed")

        monkeypatch.setattr(PresentedAlgebra._level, "__wrapped__", unreachable)

    # (generators, cutoff): 11,111, 32,767, 50,000 and 1 words
    @pytest.mark.parametrize("ngens, cutoff", [(10, 4), (2, 14), (1, 49_999), (0, 10**9)])
    def test_counts_at_most_the_cap_accepted(self, ngens, cutoff):
        assert MAX_SLICE_WORDS == 50_000
        PresentedAlgebra(QQ, [f"x{i}" for i in range(ngens)], [], cutoff)

    # 65,535, 50,001, 10**9 + 1, 266,305 and about 1.1e9 words
    @pytest.mark.parametrize("ngens, cutoff", [(2, 15), (1, 50_000), (1, 10**9), (64, 3), (10, 9)])
    def test_counts_over_the_cap_refused(self, ngens, cutoff):
        with pytest.raises(EnvelopeError, match="over"):
            PresentedAlgebra(QQ, [f"x{i}" for i in range(ngens)], [], cutoff)

    @pytest.mark.parametrize("argv", [
        "envelope --example hemi-sl2-L1 --cutoff 9 --dims",
        "envelope --example abelian:32 --which ul --cutoff 3 --dims",
        "envelope --example abelian:32 --cutoff 3 --homs",
    ])
    def test_cli_refuses_in_one_line(self, argv, capsys):
        assert cli_main(argv.split()) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


class TestHemiSl2Slices:
    """hemi-sl2-L1 over Q at cutoff 3 (10 generators, 1,111 words), pinned
    to the values of the dense reducer that preceded the sparse one."""

    @pytest.mark.parametrize(
        "which, dims, rank",
        [("ul", [1, 9, 30, 140], 971), ("ulweak", [1, 9, 55, 415], 696)],
    )
    def test_filtered_dims_and_rank(self, which, dims, rank):
        pres = build_presentation(make_S(QQ), which, 3)
        assert len(pres.slice_words(3)) == 1111
        assert pres.filtered_dims(3) == dims
        assert pres.ideal_reducer(3).rank == rank


class TestHoms:
    @pytest.mark.parametrize("make", BUILTINS)
    def test_standard_homs_verify(self, make):
        alg = make(QQ)
        data = standard_homs(alg, 2)
        for name in ("d0", "d1", "s0", "omega"):
            assert data[name].verify(), name

    def test_broken_hom_detected(self):
        # r_x -> l_x is not compatible with the relations of the solvable
        # algebra's full envelope
        alg = make_A(QQ)
        ul = build_presentation(alg, "ul", 2)
        f = QQ
        images = [{(0,): f.one()}, {(1,): f.one()}, {(0,): f.one()}, {(1,): f.one()}]
        assert not AlgebraHom(ul, ul, images).verify()

    def test_broken_section_with_nonzero_right_images(self):
        # sending both generators of the 1-dim full envelope to the single
        # quotient generator maps the zero-divisor relation to 2*x^2 != 0
        alg = make_e(QQ)
        ul = build_presentation(alg, "ul", 2)
        ulie = build_presentation(alg, "ulie", 2)
        bar = {(0,): QQ.one()}
        assert not AlgebraHom(ul, ulie, [bar, bar]).verify()

    def test_image_degree_bound(self):
        ul = build_presentation(make_e(QQ), "ul", 2)
        with pytest.raises(EnvelopeError):
            AlgebraHom(ul, ul, [{(0, 1): QQ.one()}] + [{}] * 1)

    @pytest.mark.parametrize("make", [make_e, make_A, make_N])
    def test_section_identities(self, make):
        out = check_section_identities(make(QQ), 2)
        assert out == {"d0_s0": True, "d1_s0": True, "kernel_product": True}

    def test_lie_quotient_computed_once_per_algebra(self, monkeypatch):
        from leibniz.algebra import canonical_lie

        computed = []
        body = canonical_lie.__wrapped__
        monkeypatch.setattr(
            canonical_lie, "__wrapped__", lambda alg: computed.append(alg) or body(alg)
        )
        alg = make_S(QQ)
        for which in ("ul", "ulweak", "ulie"):
            build_presentation(alg, which, 2)
        assert all(standard_homs(alg, 2)[name].verify() for name in ("d0", "d1", "s0"))
        assert check_section_identities(alg, 2) == {
            "d0_s0": True, "d1_s0": True, "kernel_product": True
        }
        assert len(computed) == 1 and computed[0] is alg

    def test_kernel_products_fail_in_weak(self):
        weak = build_presentation(make_e(QQ), "ulweak", 2)
        assert not kernel_products_vanish(weak)


class TestHopf:
    @pytest.mark.parametrize("make", BUILTINS)
    def test_weak_envelope_is_hopf(self, make):
        pres = build_presentation(make(QQ), "ulweak", 2)
        out = hopf_check(pres)
        assert out == {"counit": True, "coideal": True, "antipode": True}

    def test_full_envelope_refused(self):
        with pytest.raises(EnvelopeError):
            hopf_check(build_presentation(make_A(QQ), "ul", 2))

    def test_sabotaged_antipode_detected(self):
        # flipping the sign on the left generators breaks the antipode
        # for any algebra with nonzero products
        for make in (make_A, make_N):
            alg = make(QQ)
            pres = build_presentation(alg, "ulweak", 2)
            signs = [1] * alg.dim + [-1] * alg.dim
            assert not hopf_check(pres, antipode_signs=signs)["antipode"]


class TestAct:
    def test_empty_word_is_identity(self):
        pres = build_presentation(make_A(QQ), "ulweak", 2)
        assert act(pres, [], adjoint(make_A(QQ)), (2, 5)) == (2, 5)

    def test_left_generator_acts_by_left_action(self):
        alg = make_A(QQ)
        pres = build_presentation(alg, "ulweak", 2)
        # l_h applied to e gives e back (h e = e in the adjoint)
        assert act(pres, ["l_h"], adjoint(alg), (0, 1)) == (0, 1)

    def test_relations_annihilate_weak_bimodules(self):
        def act_poly(pres, poly, mod, vec):
            out = (QQ.zero(),) * mod.dim
            for w, c in poly.items():
                img = act(pres, w, mod, vec)
                out = tuple(QQ.add(a, QQ.mul(c, b)) for a, b in zip(out, img))
            return out

        rng = random.Random(17)
        for make in (make_e, make_A):
            alg = make(QQ)
            pres = build_presentation(alg, "ulweak", 2)
            for _ in range(6):
                mod = random_weak_bimodule(alg, rng.randint(1, 3), rng)
                v = tuple(QQ.from_int(rng.randint(-3, 3)) for _ in range(mod.dim))
                zero = (QQ.zero(),) * mod.dim
                assert all(
                    act_poly(pres, rel, mod, v) == zero for rel in pres.relations
                )

    def test_kind_mismatch_rejected(self):
        alg = make_e(QQ)
        full_pres = build_presentation(alg, "ul", 2)
        weak_only = one_dim_bimodule(alg, [0], [1])
        with pytest.raises(BimoduleError):
            act(full_pres, ["l_e"], weak_only, (1,))
