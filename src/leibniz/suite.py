"""The built-in verification battery: every worked example as a check.

Each check is a named function returning (ok, details).  The CLI
``paper-suite`` subcommand runs them all and exits nonzero if any fail;
tests/test_acceptance.py runs the same functions one criterion per test.

Checks are deterministic for a fixed seed.  Check 10a (the positive
identity laws of weight fusion rings on random combinations) is known to
fail: combinations supported on opposite weights produce the shared unit,
which then acts across sides and breaks the alternative, Jordan and
fourth-power laws.  The failure is reported, not patched over; see the
module tests for the minimal witnesses.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .algebra import (
    builtin_algebra,
    canonical_lie,
    is_lie,
    leibniz_kernel,
    make_A,
    make_N,
    make_S,
    make_e,
    make_sl2,
)
from .bimodule import (
    BimoduleError,
    adjoint,
    classify_flags,
    duality_morphism_checks,
    kernels_and_invariants,
    one_dim_bimodule,
)
from .chop import bruteforce_invariant_subspaces, chop, oracle_composition_factors
from .envelope import (
    build_presentation,
    check_section_identities,
    degree_one_primitive_dim,
    hopf_check,
    standard_homs,
)
from .fields import QQ, FF
from .groth import (
    ClassRegistry,
    GrElement,
    LAWS,
    Label,
    criterion_scan,
    gr_mul,
    identity_checkers,
    sl2_rule,
    verify_ring_vs_modules,
    weight_rule,
)
from .linalg import Subspace, unit_vector
from .samples import random_full_bimodule, random_weak_bimodule
from .tensor import (
    nonassociativity_witness,
    structural_checks,
    trunc_bar,
    trunc_under,
    truncation_data,
    tensor_of_subspaces,
)


@dataclass
class CheckResult:
    check_id: str
    ok: bool
    details: str


def _result(check_id, ok, details=""):
    return CheckResult(check_id, bool(ok), details)


def check_kernels(seed=0) -> CheckResult:
    """Leibniz kernels of the builtin algebras and their Lie quotients."""
    probs = []
    a = make_A(QQ)
    if leibniz_kernel(a) != Subspace.span(QQ, 2, [(0, 1)]):
        probs.append("solvable kernel is not the line through e")
    n = make_N(QQ)
    if leibniz_kernel(n) != Subspace.span(QQ, 2, [(0, 1)]):
        probs.append("nilpotent kernel is not the line through c")
    s = make_S(QQ)
    want = Subspace.span(QQ, 5, [unit_vector(QQ, 5, 3), unit_vector(QQ, 5, 4)])
    if leibniz_kernel(s) != want:
        probs.append("simple-algebra kernel is not the 2-dim module part")
    for alg, expect_dim in ((a, 1), (n, 1), (s, 3)):
        quot, morph = canonical_lie(alg)
        if quot.dim != expect_dim or is_lie(quot) is not None:
            probs.append(f"bad Lie quotient for {alg.basis_names}")
        if not morph.is_homomorphism():
            probs.append("projection is not multiplicative")
    if canonical_lie(s)[0].table != make_sl2(QQ).table:
        probs.append("simple-algebra quotient table is not the sl2 table")
    return _result("1-kernels", not probs, "; ".join(probs) or "kernels and quotients as expected")


def check_truncation_solvable(seed=0) -> CheckResult:
    """Adjoint square of the 2-dim solvable algebra: 1-dim truncation."""
    ad = adjoint(make_A(QQ))
    td = truncation_data(ad, ad)
    line = Subspace.span(QQ, 4, [(0, 0, 0, 1)])
    ok = (
        td.t == line
        and td.t0 == line
        and td.containment_verified
        and trunc_bar(ad, ad).dim == 3
        and trunc_under(ad, ad).dim == 3
        and trunc_bar(ad, ad).axiom_report().kind == "full"
        and trunc_under(ad, ad).axiom_report().kind == "full"
    )
    return _result(
        "2-truncation-solvable",
        ok,
        f"T = T0 = line through e(x)e, quotients full of dim 3 (T dim {td.t.dim})",
    )


def check_truncation_nilpotent(seed=0) -> CheckResult:
    """Characteristic split for the nilpotent algebra's adjoint square."""
    dims = {}
    for name, field in (("Q", QQ), ("F3", FF(3)), ("F2", FF(2))):
        ad = adjoint(make_N(field))
        td = truncation_data(ad, ad)
        dims[name] = (td.t.dim, td.t0.dim)
    ok = dims["Q"] == (1, 1) and dims["F3"] == (1, 1) and dims["F2"] == (0, 0)
    return _result("3-truncation-nilpotent", ok, f"dims {dims}")


def check_truncation_simple(seed=0) -> CheckResult:
    """Adjoint square of the 5-dim simple algebra: exact coarse kernel."""
    ad = adjoint(make_S(QQ))
    td = truncation_data(ad, ad)
    data = kernels_and_invariants(ad)
    u = tensor_of_subspaces(data["M0"], data["MR"])
    w = tensor_of_subspaces(data["MR"], data["M0"])
    oracle = u.dim + w.dim - u.intersect(w).dim
    ok = (
        td.t0.dim == 16
        and oracle == 16
        and td.t0.dim <= 20 < 25
        and td.t0.contains_subspace(td.t)
    )
    extra = "" if td.t_equals_t0 else "  [RESEARCH FINDING: T strictly below T0]"
    return _result(
        "4-truncation-simple",
        ok,
        f"dim T0 = {td.t0.dim} = {u.dim}+{w.dim}-{u.intersect(w).dim}, "
        f"dim T = {td.t.dim}{extra}",
    )


def check_weak_classification(seed=0) -> CheckResult:
    """1-dim two-sided modules over the 1-dim algebra: flag patterns."""
    e = make_e(QQ)
    probs = []
    mod = one_dim_bimodule(e, [0], [1])
    rep = mod.axiom_report()
    data = kernels_and_invariants(mod)
    if not (rep.llm and rep.lml and not rep.mll):
        probs.append("the (0,1) module is not weak-not-full")
    if data["M0"].dim != 1 or data["MR"].dim != 1:
        probs.append("anti-symmetric kernel or right span wrong")
    for a in (-1, 0, 1):
        for c in (-1, 0, 1):
            m = one_dim_bimodule(e, [a], [c])
            flags = classify_flags(m)
            if not m.is_weak():
                probs.append(f"({a},{c}) not weak")
            if flags["symmetric"] != (a + c == 0) or flags["anti_symmetric"] != (c == 0):
                probs.append(f"flag pattern wrong at ({a},{c})")
    return _result(
        "5-weak-classification",
        not probs,
        "; ".join(probs) or "flag pattern matches the two-parameter family",
    )


def check_envelopes(seed=0) -> CheckResult:
    """Filtered dimensions, primitives, standard maps, Hopf data."""
    probs = []
    e, a = make_e(QQ), make_A(QQ)
    if build_presentation(e, "ulweak", 2).filtered_dims(2) != [1, 3, 6]:
        probs.append("weak envelope of the 1-dim algebra is not the 2-var polynomial ring")
    prim = degree_one_primitive_dim(build_presentation(a, "ulweak", 2))
    if prim != 3 or not prim > 2:
        probs.append(f"degree-1 primitive count {prim} != 3")
    for make in (make_e, make_A, make_N):
        alg = make(QQ)
        homs = standard_homs(alg, 2)
        for nm in ("d0", "d1", "s0", "omega"):
            if not homs[nm].verify():
                probs.append(f"{nm} fails for {alg.basis_names}")
        sect = check_section_identities(alg, 2)
        if not all(sect.values()):
            probs.append(f"section identities fail for {alg.basis_names}: {sect}")
    for name in ("e", "A", "N", "sl2", "hemi-sl2-L1", "abelian:2"):
        alg = builtin_algebra(name, QQ)
        out = hopf_check(build_presentation(alg, "ulweak", 2))
        if not all(out.values()):
            probs.append(f"hopf data fails for {name}: {out}")
    return _result("6-envelopes", not probs, "; ".join(probs) or "dims, maps and Hopf data all check out")


def check_rigidity(seed=0) -> CheckResult:
    """Duality contractions and monoidal structure maps on random weak
    bimodules of dim <= 3 over F5 and Q."""
    rng = random.Random(seed)
    fields = [FF(5), QQ]
    probs = []
    for i in range(25):
        field = fields[i % 2]
        alg = (make_e if rng.random() < 0.5 else make_A)(field)
        mod = random_weak_bimodule(alg, rng.randint(1, 3), rng)
        out = duality_morphism_checks(mod)
        if not all(out.values()):
            probs.append(f"duality fails on sample {i}: {out}")
    for j in range(8):
        field = fields[j % 2]
        alg = (make_e if rng.random() < 0.5 else make_A)(field)
        l, m, n = (
            random_weak_bimodule(alg, rng.randint(1, 2), rng) for _ in range(3)
        )
        out = structural_checks(l, m, n)
        if not (
            out["flip_is_morphism"]
            and out["associator_is_morphism"]
            and out["units_are_morphisms"]
            and out["flip_descends_to_truncations"]
            and out["distributivity_dims"]["bar_equal"]
        ):
            probs.append(f"structure maps fail on triple {j}: {out}")
    return _result(
        "7-rigidity",
        not probs,
        "; ".join(probs) or "25 duality samples and 8 structure triples, all equivariant",
    )


def check_clebsch_gordan(seed=0) -> CheckResult:
    """Composition factors of the truncated square of the natural module,
    and ring-vs-module agreement for all small pairs."""
    probs = []
    sl2_reg = ClassRegistry("sl2", make_sl2(QQ))
    m = sl2_reg.module(Label("sym", 1))
    rep = chop(trunc_bar(m, m))
    dims = sorted(
        (f.dim, f.symmetric and not f.trivial, f.trivial) for f in rep.factors
    )
    if dims != [(1, False, True), (3, True, False)] or not rep.certified:
        probs.append(f"truncated square factors wrong: {dims}")
    for reg, size in ((sl2_reg, 2), (ClassRegistry("weight", make_e(QQ)), 1)):
        rule = reg.rule()
        objs = [reg.module(l) for l in rule.window(size)]
        if not verify_ring_vs_modules(rule, reg, [(x, y) for x in objs for y in objs])["ok"]:
            probs.append(f"{reg.kind} ring/module reconciliation fails")
    return _result(
        "8-clebsch-gordan",
        not probs,
        "; ".join(probs) or "factors {L(2) sym, trivial}; 25+25 pairs reconciled",
    )


def check_nonassociativity(seed=0) -> CheckResult:
    """Association-order witnesses and the criterion scan patterns."""
    probs = []
    for make in (make_e, make_A):
        out = nonassociativity_witness(make(QQ))
        if out["bar"] != (1, 0) or out["under"] != (1, 0):
            probs.append(f"witness dims wrong for {make.__name__}: {out}")
    try:
        nonassociativity_witness(make_S(QQ))
        probs.append("perfect algebra not refused")
    except BimoduleError:
        pass
    wr = weight_rule(QQ, 1)
    s = lambda t: GrElement.of(Label("sym", (QQ.from_int(t),)))
    a1 = GrElement.of(Label("anti", (QQ.from_int(1),)))
    lhs, rhs = LAWS["associative"][1](functools.partial(gr_mul, wr), s(1), s(-1), a1)
    if not (lhs == a1 and rhs.is_zero()):
        probs.append("canonical associativity witness broke")
    if identity_checkers(wr, wr.window(2), trials=50, seed=seed)["associative"].holds:
        probs.append("checker misses the associativity failure")
    props_w = {f["property"] for f in criterion_scan(wr, wr.window(1))}
    sl2 = sl2_rule()
    props_s = {f["property"] for f in criterion_scan(sl2, sl2.window(4))}
    if "associative" not in props_w:
        probs.append("pattern (a) does not fire for the weight rule")
    if not {"alternative", "jordan"} <= props_s:
        probs.append("patterns (b)/(c) do not fire for the sl2 rule")
    return _result("9-nonassociativity", not probs, "; ".join(probs) or "witness dims (1,0); scan patterns as predicted")


def check_weight_identity_laws(seed=0) -> CheckResult:
    """Alternative/Jordan/4th-power laws for weight rules on full windows
    plus 200 seeded random trials.

    KNOWN RED: inverse-weight combinations produce the shared unit, which
    acts across sides; u = S(1)+S(-1), v = A(1) gives (uu)v = 2 A(1) but
    u(uv) = 0.  Recorded as a finding, not patched.
    """
    failures = []
    for k in (1, 2):
        rule = weight_rule(QQ, k)
        out = identity_checkers(rule, rule.window(2), trials=200, seed=seed)
        for name in ("alternative", "jordan", "power_associative"):
            if not out[name].holds:
                wit = out[name].counterexample["elements"]
                failures.append(f"k={k} {name} fails at {wit}")
    return _result(
        "10a-weight-identity-laws",
        not failures,
        "; ".join(failures) or "laws hold on windows and trials",
    )


def check_sl2_identity_failures(seed=0) -> CheckResult:
    """The sl2 fusion rule fails all four laws with documented witnesses."""
    probs = []
    rule = sl2_rule()
    out = identity_checkers(rule, rule.window(4), trials=200, seed=seed)
    for name in ("associative", "alternative", "jordan", "power_associative"):
        if out[name].holds:
            probs.append(f"{name} unexpectedly holds")
    x = GrElement.of(Label("sym", 1)) + GrElement.of(Label("anti", 1))
    lhs, rhs = LAWS["power_associative"][1](functools.partial(gr_mul, rule), x)
    if lhs.terms.get(Label("sym", 2)) != 5 or rhs.terms.get(Label("sym", 2)) != 4:
        probs.append("documented 5-vs-4 witness broke")
    if lhs == rhs:
        probs.append("4th-power witness vanished")
    return _result(
        "10b-sl2-identity-failures",
        not probs,
        "; ".join(probs) or "all four laws fail; 5-vs-4 witness intact",
    )


def check_oracle_equivalence(seed=0) -> CheckResult:
    """chop factors match the exhaustive invariant-subspace oracle."""
    rng = random.Random(seed)
    f3 = FF(3)
    algebras = [make_e(f3), make_A(f3)]
    probs = []
    for i in range(20):
        alg = algebras[i % 2]
        mod = random_full_bimodule(alg, rng.randint(1, 3), rng)
        rep = chop(mod)
        oracle = oracle_composition_factors(
            mod, bruteforce_invariant_subspaces(mod)
        )
        mine = rep.signature_multiset()
        theirs = sorted((f.signature for f in oracle), key=lambda s: repr(s))
        if mine != theirs:
            probs.append(f"mismatch on sample {i}")
        if not rep.certified:
            probs.append(f"uncertified chop on sample {i}")
    return _result("11-oracle-equivalence", not probs, "; ".join(probs) or "20 samples agree")


ALL_CHECKS = [
    check_kernels,
    check_truncation_solvable,
    check_truncation_nilpotent,
    check_truncation_simple,
    check_weak_classification,
    check_envelopes,
    check_rigidity,
    check_clebsch_gordan,
    check_nonassociativity,
    check_weight_identity_laws,
    check_sl2_identity_failures,
    check_oracle_equivalence,
]


def run_all(seed: int = 0) -> list[CheckResult]:
    return [fn(seed) for fn in ALL_CHECKS]
