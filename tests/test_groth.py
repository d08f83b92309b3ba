"""Fusion rules, identity checkers, criterion scan, module reconciliation."""

import dataclasses
import random
from fractions import Fraction

import pytest

from leibniz import bimodule as bimodule_mod, groth as groth_mod, suite
from leibniz.fields import FF, QQ
from leibniz.algebra import (
    LeibnizAlgebra,
    builtin_algebra,
    canonical_lie,
    make_A,
    make_S,
    make_e,
    make_sl2,
    sl2_module_matrices,
)
from leibniz.bimodule import antisymmetrize, adjoint, one_dim_bimodule, symmetrize, trivial_bimodule
from leibniz.groth import (
    ClassRegistry,
    GrElement,
    GrothError,
    LAWS,
    Label,
    UNIT,
    cg_base,
    class_of_bimodule,
    clebsch_gordan,
    criterion_scan,
    gr_mul,
    group_base,
    identity_checkers,
    integer_base,
    parse_element,
    sl2_rule,
    star_product,
    verify_ring_vs_modules,
    weight_rule,
)
from leibniz.linalg import Matrix
from leibniz.tensor import trunc_bar


def S(tag):
    return Label("sym", tag)


def A(tag):
    return Label("anti", tag)


def wtag(*vals):
    return tuple(QQ.from_int(v) for v in vals)


WR = weight_rule(QQ, 1)
SR = sl2_rule()
# the closed forms below are checked on the star products themselves
WSTAR = star_product(group_base(QQ, 1), group_base(QQ, 1))
SSTAR = star_product(cg_base(), cg_base())


def wmul(a, b):
    return gr_mul(WSTAR, GrElement.of(a), GrElement.of(b))


def smul(x, y):
    if isinstance(x, Label):
        x = GrElement.of(x)
    if isinstance(y, Label):
        y = GrElement.of(y)
    return gr_mul(SSTAR, x, y)


class TestClebschGordan:
    def test_one_one(self):
        assert clebsch_gordan(1, 1) == [2, 0]

    def test_with_trivial(self):
        assert clebsch_gordan(3, 0) == [3]

    def test_count_and_range(self):
        for m in range(5):
            for n in range(5):
                ws = clebsch_gordan(m, n)
                assert len(ws) == min(m, n) + 1
                assert ws[0] == m + n and ws[-1] == abs(m - n)

    def test_negative_rejected(self):
        with pytest.raises(GrothError):
            clebsch_gordan(-1, 2)


class TestWeightRule:
    def test_unit_laws(self):
        a = S(wtag(1))
        assert wmul(UNIT, a) == GrElement.of(a)
        assert wmul(a, UNIT) == GrElement.of(a)

    def test_weights_add_with_unit_folding(self):
        assert wmul(S(wtag(1)), S(wtag(2))) == GrElement.of(S(wtag(3)))
        assert wmul(S(wtag(1)), S(wtag(-1))) == GrElement.of(UNIT)
        assert wmul(A(wtag(2)), A(wtag(-2))) == GrElement.of(UNIT)

    def test_cross_side_vanishes(self):
        assert wmul(S(wtag(1)), A(wtag(1))).is_zero()
        assert wmul(A(wtag(-2)), S(wtag(1))).is_zero()

    def test_the_associativity_counterexample(self):
        u, v, w = (GrElement.of(l) for l in (S(wtag(1)), S(wtag(-1)), A(wtag(1))))
        lhs = gr_mul(WSTAR, gr_mul(WSTAR, u, v), w)
        rhs = gr_mul(WSTAR, u, gr_mul(WSTAR, v, w))
        assert lhs == GrElement.of(A(wtag(1)))
        assert rhs.is_zero()

    def test_scaled_bilinearity(self):
        two_s1 = GrElement.of(S(wtag(1)), 2)
        assert gr_mul(WSTAR, two_s1, GrElement.of(S(wtag(1)))) == GrElement.of(
            S(wtag(2)), 2
        )

    def test_zero_weight_space_is_integers(self):
        r0 = star_product(group_base(QQ, 0), group_base(QQ, 0))
        assert r0.window(2) == [UNIT]
        assert gr_mul(r0, GrElement.of(UNIT, 3), GrElement.of(UNIT, 5)) == GrElement.of(
            UNIT, 15
        )

    def test_foreign_label_rejected(self):
        with pytest.raises(GrothError):
            WSTAR.mul(S(1), S(2))  # sl2-style integer tags

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_prime_field_windows_hold_each_label_once(self, p):
        # the integers -radius..radius repeat residues mod p
        for k in (1, 2):
            for radius in range(4):
                window = weight_rule(FF(p), k).window(radius)
                assert len(window) == len(set(window))
        # once the radius covers F_p: U and one S and one A per nonzero residue
        assert len(weight_rule(FF(p), 1).window(p)) == 2 * p - 1
        assert weight_rule(FF(3), 1).window(2) == [
            UNIT, S((1,)), S((2,)), A((1,)), A((2,))
        ]


class TestSl2Rule:
    def test_fusion_of_naturals(self):
        assert smul(S(1), S(1)) == GrElement.of(S(2)) + GrElement.of(UNIT)

    def test_cross_vanishes(self):
        assert smul(S(1), A(1)).is_zero()

    def test_documented_jordan_witness(self):
        a, b = GrElement.of(S(1)), GrElement.of(A(1))
        asq = smul(a, a)
        lhs = smul(smul(asq, b), b)
        rhs = smul(asq, smul(b, b))
        assert lhs == GrElement.of(A(2)) + GrElement.of(UNIT)
        assert rhs == GrElement.of(S(2)) + GrElement.of(A(2)) + GrElement.of(UNIT)

    def test_documented_power_witness(self):
        x = GrElement.of(S(1)) + GrElement.of(A(1))
        x2 = smul(x, x)
        lhs = smul(x2, x2)
        rhs = smul(smul(x2, x), x)
        expected_lhs = (
            GrElement.of(S(4))
            + GrElement.of(A(4))
            + GrElement.of(S(2), 5)
            + GrElement.of(A(2), 5)
            + GrElement.of(UNIT, 6)
        )
        expected_rhs = (
            GrElement.of(S(4))
            + GrElement.of(A(4))
            + GrElement.of(S(2), 4)
            + GrElement.of(A(2), 4)
            + GrElement.of(UNIT, 6)
        )
        assert lhs == expected_lhs
        assert rhs == expected_rhs


class TestIdentityCheckers:
    def test_commutative_everywhere(self):
        for rule, window in ((WR, WR.window(2)), (SR, SR.window(4))):
            out = identity_checkers(rule, window, trials=100, seed=0)
            assert out["commutative"].holds

    def test_weight_identities_on_single_labels(self):
        # on pairs of plain labels the alternative and jordan laws do hold
        window = WR.window(2)
        singles = [GrElement.of(l) for l in window]
        for u in singles:
            for v in singles:
                uu = gr_mul(WR, u, u)
                assert gr_mul(WR, uu, v) == gr_mul(WR, u, gr_mul(WR, u, v))
                lhs = gr_mul(WR, gr_mul(WR, uu, v), u)
                rhs = gr_mul(WR, uu, gr_mul(WR, v, u))
                assert lhs == rhs

    def test_weight_identities_fail_on_combinations(self):
        # combinations hitting inverse weight pairs break the alternative
        # law through the shared unit; the checker must find this
        out = identity_checkers(WR, WR.window(2), trials=200, seed=0)
        assert not out["associative"].holds
        assert not out["alternative"].holds
        assert not out["jordan"].holds
        assert not out["power_associative"].holds
        wit = out["alternative"].counterexample
        u, v = wit["elements"]
        uu = gr_mul(WR, u, u)
        assert gr_mul(WR, uu, v) != gr_mul(WR, u, gr_mul(WR, u, v))

    def test_sl2_all_four_fail_with_witnesses(self):
        out = identity_checkers(SR, SR.window(4), trials=200, seed=0)
        for name in ("associative", "alternative", "jordan", "power_associative"):
            assert not out[name].holds
            wit = out[name].counterexample
            assert wit["lhs"] != wit["rhs"]

    def test_deterministic_given_seed(self):
        a = identity_checkers(SR, SR.window(3), trials=50, seed=7)
        b = identity_checkers(SR, SR.window(3), trials=50, seed=7)
        assert {k: v.holds for k, v in a.items()} == {
            k: v.holds for k, v in b.items()
        }
        assert (
            a["jordan"].counterexample["elements"]
            == b["jordan"].counterexample["elements"]
        )

    def test_empty_window_rejected(self):
        with pytest.raises(GrothError):
            identity_checkers(WR, [], trials=0, seed=0)

    def test_associative_rule_passes_every_law(self):
        # Z on the anti side makes the star product associative, so the
        # random triples after the window's triples run too
        rule = star_product(group_base(QQ, 1), integer_base())
        out = identity_checkers(rule, trials=200, seed=0)
        assert {k: (v.holds, v.tested) for k, v in out.items()} == {
            "commutative": (True, 175),
            "associative": (True, 191),
            "alternative": (True, 175),
            "jordan": (True, 175),
            "power_associative": (True, 215),
        }


class TestCriterionScan:
    def test_weight_fires_associative_only(self):
        findings = criterion_scan(WR, WR.window(1))
        props = {f["property"] for f in findings}
        assert "associative" in props
        assert "jordan" not in props
        assert all(f["confirmed"] for f in findings)

    def test_sl2_fires_alternative_and_jordan(self):
        findings = criterion_scan(SR, SR.window(4))
        props = {f["property"] for f in findings}
        assert {"alternative", "jordan"} <= props
        assert all(f["confirmed"] for f in findings)

    def test_sl2_jordan_replay_matches_documented_values(self):
        # the Jordan law (u^2 v)u = u^2 (vu) at u = S(1) + A(1), v = A(1):
        # u^2 = S(2) + A(2) + 2U and u^2 v = A(3) + 3A(1), by Clebsch-Gordan
        findings = criterion_scan(SR, SR.window(4))
        jordan = next(f for f in findings if f["property"] == "jordan")
        assert jordan["labels"] == (S(1), S(1), A(1))
        assert jordan["lhs"] == (
            GrElement.of(A(4)) + GrElement.of(A(2), 4) + GrElement.of(UNIT, 3)
        )
        assert jordan["rhs"] == (
            GrElement.of(S(2)) + GrElement.of(A(4)) + GrElement.of(A(2), 4) + GrElement.of(UNIT, 3)
        )


class TestLaws:
    # each law written out by hand in gr_mul, apart from the table
    HAND = {
        "commutative": lambda r, u, v: (gr_mul(r, u, v), gr_mul(r, v, u)),
        "associative": lambda r, u, v, w: (
            gr_mul(r, gr_mul(r, u, v), w), gr_mul(r, u, gr_mul(r, v, w))),
        "alternative": lambda r, u, v: (
            gr_mul(r, gr_mul(r, u, u), v), gr_mul(r, u, gr_mul(r, u, v))),
        "jordan": lambda r, u, v: (
            gr_mul(r, gr_mul(r, gr_mul(r, u, u), v), u),
            gr_mul(r, gr_mul(r, u, u), gr_mul(r, v, u))),
        "power_associative": lambda r, u: (
            gr_mul(r, gr_mul(r, u, u), gr_mul(r, u, u)),
            gr_mul(r, gr_mul(r, gr_mul(r, u, u), u), u)),
    }

    @pytest.mark.parametrize("make", [
        sl2_rule,
        lambda: weight_rule(QQ, 1),
        lambda: star_product(group_base(QQ, 1), cg_base()),
    ], ids=["sl2", "weight:1", "star:weight:1,sl2"])
    def test_each_law_is_its_hand_expansion(self, make):
        rule = make()
        rng = random.Random(5)
        window = rule.window(2)
        assert list(LAWS) == list(self.HAND)
        for name, (arity, sides) in LAWS.items():
            for _ in range(30):
                elements = [groth_mod._random_element(window, rng) for _ in range(arity)]
                want = self.HAND[name](rule, *elements)
                assert sides(lambda x, y: gr_mul(rule, x, y), *elements) == want


class TestStarProduct:
    def test_smallest_example_is_the_integers(self):
        zz = star_product(integer_base(), integer_base())
        assert zz.window(5) == [UNIT]
        assert gr_mul(zz, GrElement.of(UNIT, 2), GrElement.of(UNIT, 3)) == GrElement.of(
            UNIT, 6
        )

    def test_cross_products_vanish_and_unit_neutral(self):
        rule = star_product(group_base(QQ, 1), cg_base())
        a = Label("sym", wtag(2))
        b = Label("anti", 3)
        assert rule.mul(a, b).is_zero()
        assert rule.mul(UNIT, b) == GrElement.of(b)

    def test_agrees_with_weight_rule(self):
        for k in (1, 2):
            star = star_product(group_base(QQ, k), group_base(QQ, k))
            direct = weight_rule(QQ, k)
            assert (direct.name, direct.default_window) == (f"weight:{k}", 2)
            window = direct.window(1)
            assert star.window(1) == window
            for x in window:
                for y in window:
                    assert star.mul(x, y) == direct.mul(x, y)

    def test_agrees_with_sl2_rule(self):
        star = star_product(cg_base(), cg_base())
        assert (SR.name, SR.default_window) == ("sl2", 6)
        window = SR.window(4)
        assert star.window(4) == window
        for x in window:
            for y in window:
                assert star.mul(x, y) == SR.mul(x, y)

    def test_each_side_reads_its_own_tags(self):
        mixed = star_product(group_base(QQ, 1), cg_base())
        e = parse_element(mixed, "S(1/2)+A(2)")
        assert e == GrElement.of(S((QQ.parse("1/2"),))) + GrElement.of(A(2))
        assert gr_mul(mixed, GrElement.of(A(1)), GrElement.of(A(2))) == (
            GrElement.of(A(3)) + GrElement.of(A(1))
        )
        with pytest.raises(GrothError):
            mixed.mul(S(2), S(1))  # an integer tag is foreign to the weight side

    def test_integers_have_no_tags(self):
        zz = star_product(integer_base(), integer_base())
        with pytest.raises(GrothError):
            parse_element(zz, "S(1)")
        with pytest.raises(GrothError):
            zz.mul(S(1), S(1))
        assert parse_element(zz, "2*U") == GrElement.of(UNIT, 2)


class TestClasses:
    def test_adjoint_of_solvable(self):
        alg = make_A(QQ)
        reg = ClassRegistry("weight", alg)
        cls = class_of_bimodule(adjoint(alg), reg)
        assert cls == GrElement.of(A(wtag(1))) + GrElement.of(UNIT)

    def test_trivial_multiplicity(self):
        alg = make_e(QQ)
        reg = ClassRegistry("weight", alg)
        assert class_of_bimodule(trivial_bimodule(alg, 3), reg) == GrElement.of(UNIT, 3)

    def test_clebsch_gordan_class(self):
        sl2 = make_sl2(QQ)
        reg = ClassRegistry("sl2", sl2)
        m = symmetrize(sl2, sl2_module_matrices(QQ, 1))
        cls = class_of_bimodule(trunc_bar(m, m), reg)
        assert cls == GrElement.of(S(2)) + GrElement.of(UNIT)

    def test_uncertified_refused(self):
        alg = make_e(QQ)
        weak = one_dim_bimodule(alg, [0], [1])
        with pytest.raises(GrothError):
            class_of_bimodule(weak, ClassRegistry("weight", alg))

    def test_registry_builds_its_rule_once(self):
        for reg in (ClassRegistry("sl2", make_sl2(QQ)), ClassRegistry("weight", make_A(QQ))):
            assert reg.rule() is reg.rule()

    def test_registry_rule_from_lie_quotient_identical(self):
        # the rule depends only on the quotient data: building it for the
        # solvable algebra and for its 1-dim abelian quotient agree
        alg = make_A(QQ)
        quot, _ = canonical_lie(alg)
        r1 = ClassRegistry("weight", alg).rule()
        r2 = ClassRegistry("weight", quot).rule()
        w = r1.window(2)
        assert r2.window(2) == w
        for x in w:
            for y in w:
                assert r1.mul(x, y) == r2.mul(x, y)

    def test_verify_ring_vs_modules_one_dim(self):
        alg = make_e(QQ)
        reg = ClassRegistry("weight", alg)
        rule = reg.rule()
        line = lambda s, anti: (antisymmetrize if anti else symmetrize)(
            alg, [Matrix(QQ, [[s]])]
        )
        pairs = [
            (line(1, False), line(-1, False)),
            (line(1, False), line(1, True)),
            (line(2, True), line(1, True)),
        ]
        out = verify_ring_vs_modules(rule, reg, pairs)
        assert out["ok"]

    def test_verify_ring_vs_modules_sl2(self):
        sl2 = make_sl2(QQ)
        reg = ClassRegistry("sl2", sl2)
        rule = reg.rule()
        ms = lambda n: symmetrize(sl2, sl2_module_matrices(QQ, n))
        ma = lambda n: antisymmetrize(sl2, sl2_module_matrices(QQ, n))
        pairs = [(ms(1), ms(1)), (ms(1), ma(1)), (ma(1), ma(2)), (ms(2), ms(1))]
        out = verify_ring_vs_modules(rule, reg, pairs)
        assert out["ok"]


class TestRegistryModules:
    """``ClassRegistry.module`` is the inverse of ``class_of_bimodule`` on
    labels."""

    @pytest.mark.parametrize("field", [QQ, FF(5)], ids=["Q", "F5"])
    @pytest.mark.parametrize("name", ["e", "A", "N", "abelian:2"])
    def test_weight_round_trip(self, name, field):
        reg = ClassRegistry("weight", builtin_algebra(name, field))
        for l in reg.rule().window(1):
            assert class_of_bimodule(reg.module(l), reg) == GrElement.of(l)

    @pytest.mark.parametrize("make", [make_sl2, make_S], ids=["sl2", "hemi-sl2-L1"])
    def test_sl2_round_trip(self, make):
        reg = ClassRegistry("sl2", make(QQ))
        for l in reg.rule().window(3):
            assert class_of_bimodule(reg.module(l), reg) == GrElement.of(l)

    def test_module_is_built_once(self):
        for reg, label in (
            (ClassRegistry("sl2", make_sl2(QQ)), A(2)),
            (ClassRegistry("weight", make_A(QQ)), S(wtag(-1))),
            (ClassRegistry("weight", make_e(QQ)), UNIT),
        ):
            assert reg.module(label) is reg.module(label)

    def test_weight_functional_vanishes_on_products(self):
        # in A the product h e = e spans the line of e, so the functional
        # takes its tag at h and vanishes at e
        mod = ClassRegistry("weight", make_A(QQ)).module(S(wtag(3)))
        assert [m.rows[0][0] for m in mod.lam] == [3, 0]
        assert [m.rows[0][0] for m in mod.rho] == [-3, 0]
        assert mod.is_full()

    def test_weight_functional_when_span_is_not_a_coordinate_line(self):
        # A in the basis (h, e + h): products span the line of (-1, 1), so
        # a functional vanishing on it takes equal values at both basis vectors
        z, o, m = QQ.zero(), QQ.one(), QQ.from_int(-1)
        alg = LeibnizAlgebra(QQ, ["x", "y"], [[[z, z], [m, o]], [[z, z], [m, o]]])
        reg = ClassRegistry("weight", alg)
        mod = reg.module(A(wtag(2)))
        assert [m.rows[0][0] for m in mod.lam] == [2, 2]
        for l in reg.rule().window(1):
            assert class_of_bimodule(reg.module(l), reg) == GrElement.of(l)

    def test_prime_field_window_reconciles_each_pair_once(self):
        reg = ClassRegistry("weight", make_e(FF(3)))
        objs = [reg.module(l) for l in reg.rule().window(2)]
        out = verify_ring_vs_modules(reg.rule(), reg, [(x, y) for x in objs for y in objs])
        assert len(out["cases"]) == 25 and out["ok"]

    def test_foreign_labels_rejected(self):
        with pytest.raises(GrothError):
            ClassRegistry("weight", make_A(QQ)).module(S(wtag(1, 2)))
        for label in (A(-1), S(wtag(1))):
            with pytest.raises(GrothError):
                ClassRegistry("sl2", make_sl2(QQ)).module(label)

    def test_clebsch_gordan_check_classes_each_input_once(self, monkeypatch):
        calls = {"class_of_bimodule": 0, "_check_llm": 0}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(groth_mod, "class_of_bimodule")
        counting(bimodule_mod, "_check_llm")
        assert suite.check_clebsch_gordan(1).ok
        # 5 inputs and 50 truncated products for each of the two rings
        assert calls["class_of_bimodule"] == 110
        assert calls["_check_llm"] < 94


class TestParsing:
    def test_sl2_expressions(self):
        e = parse_element(SR, "2*S(1)+A(1)-U")
        assert e == (
            GrElement.of(S(1), 2) + GrElement.of(A(1)) + GrElement.of(UNIT, -1)
        )

    def test_weight_expressions_with_rationals(self):
        e = parse_element(WR, "S(1/2)-3*A(-1)")
        assert e.terms[Label("sym", (QQ.parse("1/2"),))] == 1
        assert e.terms[Label("anti", (QQ.parse("-1"),))] == -3

    def test_zero_tag_folds_to_unit(self):
        assert parse_element(SR, "S(0)") == GrElement.of(UNIT)
        assert parse_element(WR, "A(0)") == GrElement.of(UNIT)

    def test_bad_terms_rejected(self):
        with pytest.raises(GrothError):
            parse_element(SR, "S(1,2)")
        with pytest.raises(GrothError):
            parse_element(SR, "Q(1)")


# The reference product below uses only the base rings' ``mul``: U is
# neutral, cross-side products vanish and same-side tags multiply in the
# side's ring, with its unit sent to U.  It never reads a rule's table.


def reference_product(rule, a, b):
    if a == UNIT:
        return GrElement.of(b)
    if b == UNIT:
        return GrElement.of(a)
    if a.kind != b.kind:
        return GrElement.zero()
    base = rule.sym if a.kind == "sym" else rule.anti
    out = {}
    for tag, c in base.mul(a.tag, b.tag).items():
        label = UNIT if tag == base.unit else Label(a.kind, tag)
        out[label] = out.get(label, 0) + c
    return GrElement(out)


def reference_gr_mul(rule, x, y):
    out = {}
    for la, ca in x.terms.items():
        for lb, cb in y.terms.items():
            for l, c in reference_product(rule, la, lb).terms.items():
                out[l] = out.get(l, 0) + ca * cb * c
    return GrElement(out)


def reference_window(rule, size):
    return [UNIT] + [
        Label(kind, tag)
        for kind, base in (("sym", rule.sym), ("anti", rule.anti))
        for tag in base.window(size)
        if tag != base.unit
    ]


# rules with a fresh, empty product table: the builtins are kept per process
TABLE_RULES = [
    pytest.param(lambda: weight_rule.__wrapped__(QQ, 1), 2, id="weight:1"),
    pytest.param(lambda: weight_rule.__wrapped__(QQ, 2), 2, id="weight:2"),
    pytest.param(sl2_rule.__wrapped__, 4, id="sl2"),
]


class TestProductTable:
    """Each rule memoises its label products: the table must be an exact
    cache of the product, and never a way around its checks."""

    @pytest.mark.parametrize("make, size", TABLE_RULES)
    def test_every_pair_cold_then_warm(self, make, size):
        rule = make()
        window = reference_window(rule, size)
        for _ in ("cold", "warm"):
            for a in window:
                for b in window:
                    want = reference_product(rule, a, b)
                    assert rule.mul(a, b) == want, (a, b)
                    assert gr_mul(rule, GrElement.of(a, 2), GrElement.of(b, -3)) == (
                        reference_gr_mul(rule, GrElement.of(a, 2), GrElement.of(b, -3))
                    )

    @pytest.mark.parametrize(
        "make, foreign",
        [(lambda: weight_rule(QQ, 1), S(wtag(1, 2))), (lambda: weight_rule(QQ, 1), A(1)),
         (sl2_rule, S(-1)), (sl2_rule, A(wtag(1))), (sl2_rule, S(0))],
    )
    def test_foreign_label_raises_on_a_warm_table(self, make, foreign):
        rule = make()
        window = rule.window(2)
        for a in window:
            for b in window:
                rule.mul(a, b)
        for a in window:
            for args in ((a, foreign), (foreign, a)):
                with pytest.raises(GrothError):
                    rule.mul(*args)
                with pytest.raises(GrothError):
                    gr_mul(rule, *(GrElement.of(l) for l in args))

    def test_returned_element_is_the_callers(self):
        for rule, a, b in ((weight_rule(QQ, 1), S(wtag(1)), S(wtag(-1))), (sl2_rule(), S(1), S(2))):
            want = reference_product(rule, a, b)
            first = rule.mul(a, b)
            first.terms.clear()
            first.terms[A(7)] = 5
            assert rule.mul(a, b) == want
            product = gr_mul(rule, GrElement.of(a), GrElement.of(b))
            product.terms[UNIT] = 99
            assert gr_mul(rule, GrElement.of(a), GrElement.of(b)) == want

    def test_one_product_per_rule_and_pair_in_a_battery(self, monkeypatch):
        # checks 08, 09, 10a and 10b ask for the same builtin rules, so they
        # share one product table per rule
        assert weight_rule(QQ, 2) is weight_rule(QQ, 2) and sl2_rule() is sl2_rule()
        weight_rule.cache_clear(), sl2_rule.cache_clear()
        product, computed = groth_mod.FusionRule._product, []
        body = product.__wrapped__
        monkeypatch.setattr(product, "__wrapped__",
                            lambda rule, *ab: computed.append((rule.name, *ab)) or body(rule, *ab))
        suite.run_all(1)
        assert len(computed) == len(set(computed)) == 6563

    def test_ordered_pairs_are_separate_entries(self):
        calls = []
        base = cg_base()

        def counting_mul(x, y):
            calls.append((x, y))
            return base.mul(x, y)

        counted = dataclasses.replace(base, mul=counting_mul)
        rule = star_product(counted, counted)
        rule.mul(S(1), S(2))
        rule.mul(S(1), S(2))
        gr_mul(rule, GrElement.of(S(1)), GrElement.of(S(2)))
        assert calls == [(1, 2)]
        rule.mul(S(2), S(1))
        assert calls == [(1, 2), (2, 1)]

    @pytest.mark.parametrize("make, size", [
        pytest.param(lambda: weight_rule(QQ, 1), 2, id="weight:1"),
        pytest.param(lambda: weight_rule(QQ, 2), 2, id="weight:2"),
        pytest.param(sl2_rule, 6, id="sl2"),
    ])
    def test_distinct_labels_hash_apart(self, make, size):
        # CPython hashes -1 like -2, so a hash of the raw tag would collide
        window = make().window(size)
        assert len({hash(l) for l in window}) == len(window)

    def test_equal_labels_hash_equal(self):
        pairs = [
            (Label("sym", (Fraction(1),)), Label("sym", (1,))),
            (Label("anti", (Fraction(-2), Fraction(1, 2))), Label("anti", (-2, Fraction(1, 2)))),
            (Label("sym", 3), Label("sym", 3)),
            (Label("unit"), UNIT),
        ]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
        assert Label("sym", (1,)) != Label("anti", (1,))
        rule = weight_rule(QQ, 1)
        assert rule.label("sym", wtag(1)) is rule.label("sym", wtag(1))
        assert rule.window(1)[1] is rule.label("sym", wtag(-1))
        assert rule.mul(UNIT, Label("sym", (1,))) == GrElement.of(S(wtag(1)))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("make, size", TABLE_RULES)
    def test_identity_verdicts_match_the_reference(self, monkeypatch, make, size, seed):
        # window 2 and 200 trials are what check 10a runs for weight:1 and
        # weight:2, and window 4 what check 10b runs for sl2
        rule = make()
        got = identity_checkers(rule, rule.window(size), trials=200, seed=seed)
        monkeypatch.setattr(groth_mod, "gr_mul", reference_gr_mul)
        fresh = make()
        want = identity_checkers(fresh, reference_window(fresh, size), trials=200, seed=seed)
        assert got == want
        for name, verdict in got.items():
            wit, ref = verdict.counterexample, want[name].counterexample
            assert repr(wit) == repr(ref)


def parent_key(label):
    """Order by the plain repr of the tag: the order ``sort_key`` keeps for
    tags whose entries are all Fractions (Q) or all ints (F_p)."""
    return (label.kind, repr(label.tag))


def as_fractions(label):
    return Label(label.kind, tuple(map(Fraction, label.tag)))


class TestLabelOrder:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rational_tags_keep_the_all_fraction_order(self, k):
        rng = random.Random(k)

        def entry():
            if rng.random() < 0.5:
                return QQ.coerce(rng.randint(-12, 12))
            return QQ.coerce(Fraction(rng.randint(-12, 12), rng.randint(2, 5)))

        labels = [Label(rng.choice(["sym", "anti"]), tuple(entry() for _ in range(k)))
                  for _ in range(400)]
        assert any(type(t) is int for l in labels for t in l.tag)
        assert any(type(t) is Fraction for l in labels for t in l.tag)
        got = sorted(labels, key=Label.sort_key)
        assert got == sorted(labels, key=lambda l: parent_key(as_fractions(l)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_prime_field_tags_keep_the_int_order(self, k):
        rng = random.Random(10 + k)
        labels = [Label(rng.choice(["sym", "anti"]), tuple(rng.randrange(101) for _ in range(k)))
                  for _ in range(400)]
        assert sorted(labels, key=Label.sort_key) == sorted(labels, key=parent_key)

    def test_printed_order_of_mixed_tags(self):
        element = parse_element(WR, "S(2)+S(-1/3)+A(1)+S(1/2)+A(1/2)")
        assert repr(element) == "A(1)+A(1/2)+S(-1/3)+S(1/2)+S(2)"
        two = parse_element(weight_rule(QQ, 2), "S(2,0)+S(1/2,0)")
        assert repr(two) == "S(1/2,0)+S(2,0)"


class TestWindowCap:
    def test_sl2_window_at_the_cap(self):
        assert len(sl2_rule().window(127)) == 255 <= groth_mod.MAX_WINDOW_LABELS
        with pytest.raises(GrothError, match="window of 257 labels is over the cap 256"):
            sl2_rule().window(128)

    def test_weight_windows(self):
        assert len(weight_rule(QQ, 3).window(2)) == 249
        assert len(weight_rule(QQ, 4).window(1)) == 161
        for k, radius, count in ((5, 1, 485), (6, 1, 1457), (32, 1, 2 * 3**32 - 1)):
            with pytest.raises(GrothError, match=f"window of {count} labels"):
                weight_rule(QQ, k).window(radius)

    def test_refused_before_any_tag_is_listed(self):
        def unreachable(radius):
            raise AssertionError("a base window was listed")

        base = dataclasses.replace(group_base(QQ, 6), window=unreachable)
        with pytest.raises(GrothError, match="over the cap"):
            star_product(base, base).window(1)

    @pytest.mark.parametrize("field", [QQ, FF(2), FF(3), FF(5)], ids=repr)
    def test_count_is_the_window_length(self, field):
        for k in range(4):
            base = group_base(field, k)
            for radius in range(4):
                assert base.count(radius) == len(base.window(radius))
        for size in range(12):
            assert cg_base().count(size) == len(cg_base().window(size))
            assert integer_base().count(size) == len(integer_base().window(size)) == 1
