"""Oracles for the constructions that each object is built by once: the
structure matrix's products and homomorphism test, the dual and the hom
space (a tensor product with the dual), the standard maps of the envelopes,
the products an unmarked axiom report forms, and the abelian cap of
``gr verify``.  Every oracle is written from the definition, elementwise,
not from the code it checks."""

import itertools
import random

import pytest

import leibniz.algebra as algebra_mod
from leibniz.algebra import (AlgebraError, AlgebraMorphismData, BUILDERS, builtin_algebra,
                             canonical_lie, leibniz_kernel, make_A, make_N, make_sl2)
from leibniz.bimodule import (Bimodule, BimoduleError, adjoint, dual, hom_bimodule,
                              one_dim_bimodule, sl2_irreducible, trivial_bimodule)
from leibniz.cli import main
from leibniz.envelope import standard_homs
from leibniz.fields import FF, QQ
from leibniz.linalg import Matrix, unit_vector
from leibniz.samples import random_weak_bimodule
from leibniz.tensor import trunc_bar

FIELDS = [QQ, FF(3), FF(101)]
NAMES = [*BUILDERS, "abelian:2"]  # the six builtins
NON_PERFECT = ["A", "N", "e", "abelian:2"]  # those with weak samples


def random_vector(field, n, rng):
    return tuple(field.from_int(rng.randint(-3, 3)) for _ in range(n))


def random_matrix(field, rows, cols, rng):
    return Matrix.from_ints(field, [[rng.randint(-1, 1) for _ in range(cols)] for _ in range(rows)])


def flat(m):
    """A matrix flattened row-major."""
    return tuple(x for row in m.rows for x in row)


# ---------------------------------------------------------------------------
# products and homomorphisms


def product_by_table(alg, u, v):
    """uv = sum over (i, j, k) of u_i v_j c_ij^k b_k."""
    n, t = alg.dim, alg.table
    return tuple(alg.field.normal(sum(u[i] * v[j] * t[i][j][k] for i in range(n) for j in range(n)))
                 for k in range(n))


def homomorphism_by_table(dom, cod, p):
    """P(b_i b_j) = P(b_i) P(b_j) at every basis pair, with both sides
    expanded in the two tables: sum_k c_ij^k P_ak against
    sum_{a, b} P_ai P_bj c'_ab^c."""
    f, n, m, rows = dom.field, dom.dim, cod.dim, p.rows
    for i, j in itertools.product(range(n), repeat=2):
        lhs = [sum(rows[a][k] * dom.table[i][j][k] for k in range(n)) for a in range(m)]
        rhs = [sum(rows[a][i] * rows[b][j] * cod.table[a][b][c]
                   for a in range(m) for b in range(m)) for c in range(m)]
        if any(f.normal(x - y) for x, y in zip(lhs, rhs)):
            return False
    return True


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_product_is_the_bilinear_table_sum(field):
    rng = random.Random(23)
    for name in NAMES:
        alg = builtin_algebra(name, field)
        units = [unit_vector(field, alg.dim, k) for k in range(alg.dim)]
        pairs = list(itertools.product(units, repeat=2))
        pairs += [(random_vector(field, alg.dim, rng), random_vector(field, alg.dim, rng))
                  for _ in range(8)]
        for u, v in pairs:
            assert alg.product(u, v) == product_by_table(alg, u, v), (name, u, v)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_is_homomorphism_is_the_elementwise_law(field):
    rng = random.Random(29)
    algs = [builtin_algebra(name, field) for name in NAMES]
    maps = []
    for dom in algs:
        quot, projection = canonical_lie(dom)
        maps.append((dom, quot, projection.matrix))
        maps.append((dom, dom, Matrix.identity(field, dom.dim)))
        for cod in algs:
            maps.append((dom, cod, Matrix.zeros(field, cod.dim, dom.dim)))
            maps += [(dom, cod, random_matrix(field, cod.dim, dom.dim, rng)) for _ in range(3)]
    verdicts = []
    for dom, cod, p in maps:
        verdict = AlgebraMorphismData(dom, cod, p).is_homomorphism()
        assert verdict == homomorphism_by_table(dom, cod, p), (dom, cod, p)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# duals and hom spaces


def weak_samples(field):
    rng = random.Random(31)
    out = [trivial_bimodule(make_A(field), 2)]
    for name in NON_PERFECT:
        alg = builtin_algebra(name, field)
        out += [random_weak_bimodule(alg, rng.randint(1, 3), rng) for _ in range(3)]
    sl2 = make_sl2(field)
    out += [sl2_irreducible(sl2, n, side) for n in (1, 2) for side in ("sym", "anti")]
    return out + [adjoint(sl2)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_dual_is_minus_the_transpose_and_an_involution(field):
    for mod in weak_samples(field):
        d = dual(mod)
        assert d.dim == mod.dim and d.is_weak()
        # (x.phi)(m) = -phi(x.m): entry (r, c) of x on M* is -(x on M)[c][r]
        for m, dm in zip(mod.actions, d.actions):
            assert all(dm.rows[r][c] == field.normal(-m.rows[c][r])
                       for r in range(mod.dim) for c in range(mod.dim))
        assert dual(d) == mod


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_hom_actions_are_the_commutator_formulas(field):
    """(x.F) = lam'_x F - F lam_x and (F.x) = rho'_x F - F rho_x, with F
    flattened row-major as a dst.dim x src.dim matrix."""
    rng = random.Random(37)
    samples = weak_samples(field)
    by_algebra = {}
    for mod in samples:
        by_algebra.setdefault(mod.algebra, []).append(mod)
    for mods in by_algebra.values():
        for src, dst in itertools.product(mods[:3], repeat=2):
            hom = hom_bimodule(src, dst)
            assert hom.dim == src.dim * dst.dim and hom.is_weak()
            f_mat = random_matrix(field, dst.dim, src.dim, rng)
            for s, t, h in zip(src.actions, dst.actions, hom.actions):
                assert h.apply(flat(f_mat)) == flat(t * f_mat - f_mat * s)


def test_hom_refuses_foreign_and_non_weak_inputs():
    a, n = make_A(QQ), make_N(QQ)
    weak = trivial_bimodule(a, 1)
    broken = one_dim_bimodule(a, [0, 1], [0, 0])  # lam_{he} = lam_e = 1 but [lam_h, lam_e] = 0
    assert not broken.is_weak()
    for src, dst in [(weak, trivial_bimodule(n, 1)), (broken, weak), (weak, broken)]:
        with pytest.raises(BimoduleError):
            hom_bimodule(src, dst)


# ---------------------------------------------------------------------------
# the standard maps of the envelopes


def lie_class(alg, x):
    """The class of b_x modulo the Leibniz kernel K, in the complement
    coordinates of K: the residual of the unit vector after reducing by
    the echelon rows of K, read off at the non-pivot columns."""
    kernel = leibniz_kernel(alg)
    residual = kernel.reducer().reduce(unit_vector(alg.field, alg.dim, x))
    return {(k,): residual[c] for k, c in enumerate(kernel.complement_coords()) if residual[c]}


@pytest.mark.parametrize("field", [QQ, FF(3)], ids=repr)
@pytest.mark.parametrize("name", NAMES)
def test_standard_maps_are_their_definitions(name, field):
    alg = builtin_algebra(name, field)
    n, one = alg.dim, field.one()
    homs = standard_homs(alg, 2)
    bars = [lie_class(alg, x) for x in range(n)]
    reps = leibniz_kernel(alg).complement_coords()
    expected = {
        # l_x -> x-bar, r_x -> 0
        "d0": ("ul", "ulie", bars + [{}] * n),
        # l_x -> x-bar, r_x -> -x-bar
        "d1": ("ul", "ulie", bars + [{w: field.normal(-c) for w, c in b.items()} for b in bars]),
        # x-bar -> l_x for the quotient's basis, the complement coordinates
        "s0": ("ulie", "ul", [{(r,): one} for r in reps]),
        # the weak envelope onto the full one: identity on generators
        "omega": ("ulweak", "ul", [{(g,): one} for g in range(2 * n)]),
    }
    for key, (source, target, images) in expected.items():
        hom = homs[key]
        assert (hom.source.which, hom.target.which) == (source, target)
        assert hom.source is homs[source] and hom.target is homs[target]
        assert hom.images == images, key
        assert hom.verify(), key


# ---------------------------------------------------------------------------
# the products of an unmarked axiom report


def test_unmarked_report_forms_each_product_once(monkeypatch):
    # LLM forms lam_i lam_j for i != j (6); LML forms lam_i rho_j and
    # rho_j lam_i (18); MLL adds rho_j rho_i (9); ZD reuses both of its
    # products: 33 for the 3 x 3 basis pairs of sl2
    sl2 = make_sl2(QQ)
    sym = sl2_irreducible(sl2, 3, "sym")
    bar = trunc_bar(sym, sym)
    fresh = Bimodule(sl2, bar.lam, bar.rho, bar.dim)
    products, mul = [], Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__", lambda x, y: products.append(x) or mul(x, y))
    assert fresh.axiom_report().kind == "full"
    assert len(products) == 33


# ---------------------------------------------------------------------------
# gr verify builds its abelian algebra under the builtin cap


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_gr_verify_weight_rule_is_capped(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("weight:40 reached the abelian builder")

    monkeypatch.setattr(algebra_mod, "make_abelian", unreachable)
    code, out, err = run(capsys, "gr", "verify", "--rule", "weight:40", "--max", "0")
    assert code == 1 and out == ""
    assert err == "error: abelian dimension 40 is over the cap 32\n"


def test_gr_verify_weight_rule_cap_is_inclusive(capsys, monkeypatch):
    built = []

    def stub(field, n):
        built.append(n)
        raise AlgebraError("abelian builder reached")

    monkeypatch.setattr(algebra_mod, "make_abelian", stub)
    code, out, err = run(capsys, "gr", "verify", "--rule", "weight:32", "--max", "0")
    assert (code, out, err) == (1, "", "error: abelian builder reached\n")
    assert built == [32]
