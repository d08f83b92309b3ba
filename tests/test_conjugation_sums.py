"""Conjugation and direct sums as oracles for the layers above ``linalg``.

Two laws hold by definition.  A change of basis M -> P M P^-1 is an
isomorphism of bimodules: it keeps the pairs at which each axiom fails
(every axiom is an operator identity X = 0 per basis pair, and X = 0 iff
P X P^-1 = 0), the dimensions of S, T and T0, the composition factors and
the class; and it keeps a factor symmetric or anti-symmetric, so the
collapse of T and T0 to one product subspace still holds.  A direct sum is
additive: its class is the sum of the classes, and both truncated products
distribute over it in each argument.

Each side of a law is computed on its own modules; the axiom reports are
also read off the operator identities here, with the documented tie order.
"""

import itertools
import random

import pytest

from leibniz.algebra import builtin_algebra, make_sl2
from leibniz.bimodule import (Bimodule, antisymmetrize, conjugate, direct_sum, one_dim_bimodule,
                              sl2_irreducible, symmetrize)
from leibniz.chop import chop
from leibniz.fields import FF, QQ
from leibniz.groth import ClassRegistry, GrothError, class_of_bimodule
from leibniz.linalg import Matrix, invert
from leibniz.samples import (random_full_bimodule, random_invertible,
                             random_left_module_matrices, random_weak_bimodule)
from leibniz.tensor import (coarse_kernel, mll_defect_span, trunc_bar, trunc_under,
                            truncation_collapse_check, truncation_kernel)

FIELDS = [FF(3), FF(5), QQ]
SOLVABLE = ["A", "N", "e", "abelian:2"]  # those with random full bimodules
AXIOMS = ("llm", "lml", "mll", "zd")  # the tie order of a report's first failure


def unmarked(alg, actions) -> Bimodule:
    """A fresh module with the family ``actions``: no mark, no report."""
    return Bimodule(alg, actions[: alg.dim], actions[alg.dim:])


def conjugated(mod, p) -> Bimodule:
    pinv = invert(p)
    return unmarked(mod.algebra, [p * m * pinv for m in mod.actions])


def failing_pairs(mod) -> dict:
    """Per axiom, the basis pairs (i, j), row by row, where it fails."""
    alg, lam, rho = mod.algebra, mod.lam, mod.rho
    zero = Matrix.zeros(mod.field, mod.dim, mod.dim)

    def op(i, j, mats):  # the operator of b_i b_j
        return sum((m.scale(c) for c, m in zip(alg.table[i][j], mats)), zero)

    laws = {
        "llm": lambda i, j: op(i, j, lam) == lam[i] * lam[j] - lam[j] * lam[i],
        "lml": lambda i, j: op(i, j, rho) == lam[i] * rho[j] - rho[j] * lam[i],
        "mll": lambda i, j: rho[j] * rho[i] == op(i, j, rho) - lam[i] * rho[j],
        "zd": lambda i, j: (rho[j] * (lam[i] + rho[i])).is_zero(),
    }
    pairs = list(itertools.product(range(alg.dim), repeat=2))
    return {name: [p for p in pairs if not laws[name](*p)] for name in AXIOMS}


def report_of(table: dict) -> tuple:
    """Flags and first failure: the earliest failing pair, ties in AXIOMS order."""
    fails = [(pairs[0], k) for k, pairs in enumerate(table.values()) if pairs]
    first = min(fails, default=None)
    return (tuple(not pairs for pairs in table.values()),
            None if first is None else (AXIOMS[first[1]], *first[0]))


def families(field, rng):
    """Families that fail LLM, LML or MLL, or hold all four axioms; and the
    1-dim module over A at which LML and MLL first fail at one pair."""
    rand = lambda d: Matrix.from_ints(field, [[rng.randint(-1, 1) for _ in range(d)]
                                              for _ in range(d)])
    for _ in range(15):
        alg = builtin_algebra(rng.choice(SOLVABLE + ["sl2"]), field)
        d = rng.randint(1, 3)
        yield unmarked(alg, [rand(d) for _ in range(2 * alg.dim)])
        if alg.dim < 3:
            d = rng.randint(2, 3)
            yield unmarked(alg, random_left_module_matrices(alg, d, rng)
                           + [rand(d) for _ in range(alg.dim)])
            yield random_weak_bimodule(alg, rng.randint(1, 3), rng)
            yield random_full_bimodule(alg, rng.randint(1, 3), rng)
    yield one_dim_bimodule(builtin_algebra("A", field), [0, 0], [0, 1])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_conjugation_keeps_the_axiom_report(field):
    rng, seen = random.Random(1), set()
    for mod in families(field, rng):
        conj = conjugated(mod, random_invertible(field, mod.dim, rng))
        table = failing_pairs(mod)
        assert failing_pairs(conj) == table
        flags, first = report_of(table)
        for rep in (unmarked(mod.algebra, mod.actions).axiom_report(), conj.axiom_report()):
            assert ((rep.llm, rep.lml, rep.mll, rep.zd), rep.first_failure) == (flags, first)
        seen.add(first and first[0])
    assert {None, "llm", "lml", "mll"} <= seen
    assert first == ("lml", 0, 1) and table["mll"][0] == (0, 1)  # the tie, last


def full_modules(field, rng, count):
    """Random full bimodules over the solvable builtins, and sums of sl2
    irreducibles L(0..2), each with the registry that reads its class."""
    for _ in range(count):
        alg = builtin_algebra(rng.choice(SOLVABLE), field)
        yield random_full_bimodule(alg, rng.randint(1, 3), rng), ClassRegistry("weight", alg)
    sl2 = make_sl2(field)
    for _ in range(2):
        blocks = [sl2_irreducible(sl2, rng.randint(0, 2), rng.choice(["sym", "anti"]))
                  for _ in range(2)]
        yield direct_sum(*blocks), ClassRegistry("sl2", sl2)


def class_or_none(mod, registry):
    try:
        return class_of_bimodule(mod, registry)
    except GrothError:
        return None


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_conjugation_keeps_products_and_factors(field):
    rng, classes = random.Random(2), 0
    mods = list(full_modules(field, rng, 12))
    for (m, reg), (n, _) in zip(mods, mods[1:] + mods[:1]):
        cm, cn = (conjugate(x, random_invertible(field, x.dim, rng)) for x in (m, n))
        if n.algebra == m.algebra:
            for kernel in (mll_defect_span, truncation_kernel, coarse_kernel):
                assert kernel(cm, cn).dim == kernel(m, n).dim
        a, b = chop(m), chop(cm)
        assert a.signature_multiset() == b.signature_multiset()
        assert a.certified == b.certified
        if a.certified:  # a class, or none for a factor of dim > 1 over a weight registry
            cls = class_or_none(m, reg)
            assert class_or_none(cm, reg) == cls
            classes += cls is not None
    assert classes >= 10


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_class_of_a_sum_is_the_sum_of_classes(field):
    rng, compared = random.Random(3), 0
    for (m, reg), (n, _) in itertools.pairwise(full_modules(field, rng, 12)):
        if n.algebra != m.algebra:
            continue
        cm, cn = class_or_none(m, reg), class_or_none(n, reg)
        if cm is not None and cn is not None:
            assert class_or_none(direct_sum(m, n), reg) == cm + cn
            compared += 1
    assert compared >= 3


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_truncated_products_distribute_over_sums(field):
    rng, classes = random.Random(4), 0
    for _ in range(10):
        alg = builtin_algebra(rng.choice(SOLVABLE), field)
        reg = ClassRegistry("weight", alg)
        full = rng.random() < 0.5
        sample = random_full_bimodule if full else random_weak_bimodule
        l, m, n = (sample(alg, rng.randint(1, 2), rng) for _ in range(3))
        s = direct_sum(m, n)
        for prod in (trunc_bar, trunc_under) if full else (trunc_bar,):
            for whole, parts in (((l, s), ((l, m), (l, n))), ((s, l), ((m, l), (n, l)))):
                assert prod(*whole).dim == sum(prod(*p).dim for p in parts)
                got, want = class_or_none(prod(*whole), reg), [class_or_none(prod(*p), reg)
                                                               for p in parts]
                if got is not None and None not in want:
                    assert got == want[0] + want[1]
                    classes += 1
    assert classes >= 15


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_collapse_holds_on_conjugates_and_sums(field):
    rng = random.Random(5)
    for _ in range(8):
        alg = builtin_algebra(rng.choice(SOLVABLE), field)
        d = rng.randint(1, 2)
        lam = random_left_module_matrices(alg, d, rng)
        side = rng.choice([symmetrize, antisymmetrize])
        flat = conjugate(side(alg, lam, d), random_invertible(field, d, rng))
        other = direct_sum(*(random_full_bimodule(alg, rng.randint(1, 2), rng) for _ in range(2)))
        for pair in ((flat, other), (other, flat)):
            out = truncation_collapse_check(*pair)
            assert out["cases"] and out["all_hold"], out["cases"]
