"""The four workloads: inputs made from a seed, the timed operations, and
the documents a round reports for checking.

Each workload is a class with ``setup(seed)``, which builds the inputs
through the public ``leibniz`` API (this is part of ``setup_s``), and
``operations()``, the list of ``Op`` that one round times.  After the
timed part, ``Op.document`` turns each result into plain JSON for
``checks.py``, and ``Op.oracle`` (slow, so only the first round of a run
calls it) runs the program's exhaustive subspace enumeration.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from leibniz import algebra, bimodule, envelope, samples, tensor
from leibniz.cli import main as cli_main
from leibniz.fields import FF, QQ
from leibniz.linalg import Matrix

# ``leibniz.chop`` is shadowed by the function that the package re-exports.
chop_mod = importlib.import_module("leibniz.chop")

SIDES = ("sym", "anti")

# sl2 highest-weight pairs (m, n) of the truncated squares L(m) x L(n):
# tensor spaces of dim 9, 12 and 16 over Q.  L(4) x L(4), dim 25, takes
# several seconds for one chop and is a reference figure instead.  Over
# F_101 the squares stay small, so that tiny matrices dominate modules-fp.
SQUARE_PAIRS_Q = ((2, 2), (2, 3), (3, 3))
SQUARE_PAIRS_FP = ((2, 2), (2, 3))

# Random pairs over F_2, F_3, F_5: the factor dimensions cycle through
# this list so that the amount of work does not depend on the seed.
PAIR_DIMS = ((2, 3), (3, 2), (3, 3), (2, 2))
PAIR_FIELDS = (2, 3, 5)
PAIR_ALGEBRAS = ("e", "A", "N")
# Modules with no common eigenvector, so that chop has to spin: sums of
# 2-dim irreducible blocks over F_p, as (p, number of blocks).
SPIN_SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2))
SPIN_ALGEBRAS = ("e", "A", "N") * 2  # two modules per algebra and shape

ENVELOPE_Q = ("e", "A", "N", "sl2")
ENVELOPE_FP = (("hemi-sl2-L1", 101),)
ENVELOPE_CUTOFF = 3
PRESENTATIONS = ("ul", "ulweak", "ulie")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    document: Callable[[object], dict]
    oracle: Callable[[object], dict | None] = lambda result: None


def matrix_doc(m: Matrix) -> list:
    return [[m.field.format(x) for x in row] for row in m.rows]


def module_doc(mod) -> dict:
    return {"lam": [matrix_doc(m) for m in mod.lam], "rho": [matrix_doc(m) for m in mod.rho]}


def chop_doc(report) -> dict:
    return {
        "dims": [f.dim for f in report.factors],
        "symmetric": [f.symmetric for f in report.factors],
        "anti_symmetric": [f.anti_symmetric for f in report.factors],
        "trivial": [f.trivial for f in report.factors],
        "certified": report.certified,
        "strategy": report.strategy,
    }


def signature_doc(signatures) -> list:
    return sorted(repr(s) for s in signatures)


def monomial_change(field, n: int, rng: random.Random, scales) -> Matrix:
    """A random permutation matrix times a random diagonal of ``scales``."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = field.coerce(rng.choice(scales))
    return Matrix(field, rows)


# ---------------------------------------------------------------------------
# truncated products


def pair_op(case: dict, a, b) -> Op:
    """truncation_data, both truncations and chop of the bar product."""

    def run():
        data = tensor.truncation_data(a, b)
        bar = tensor.trunc_bar(a, b)
        under = tensor.trunc_under(a, b)
        return data, bar, under, chop_mod.chop(bar)

    return Op(case["kind"], run, lambda r: pair_doc(case, a, b, r),
              lambda r: oracle_doc(r[1], r[3]))


def pair_doc(case: dict, a, b, result) -> dict:
    data, bar, under, report = result
    return {
        **case,
        "left": module_doc(a),
        "right": module_doc(b),
        "S": matrix_doc(data.s_span.basis),
        "T": matrix_doc(data.t.basis),
        "T0": matrix_doc(data.t0.basis),
        "contained": data.containment_verified,
        "bar_dim": bar.dim,
        "under_dim": under.dim,
        "chop": chop_doc(report),
    }


def oracle_doc(mod, report) -> dict | None:
    """Signatures from the exhaustive subspace oracle, where it applies."""
    p = mod.field.characteristic
    if p == 0 or p > 7 or mod.dim > 4:
        return None
    lattice = chop_mod.bruteforce_invariant_subspaces(mod)
    factors = chop_mod.oracle_composition_factors(mod, lattice)
    return {
        "dims": sorted(f.dim for f in factors),
        "signatures": signature_doc(f.signature for f in factors),
        "chop_signatures": signature_doc(report.signature_multiset()),
    }


class Squares:
    """L(m) x L(n) for all four side pairings, each factor in a random
    monomial basis (a permutation and a diagonal scaling)."""

    def __init__(self, field, scales, pairs):
        self.field, self.scales, self.pairs = field, scales, pairs

    def setup(self, seed: int):
        f = self.field
        sl2 = algebra.make_sl2(f)
        rng = random.Random(seed)
        self.cases = []
        for m, n in self.pairs:
            for sa, sb in itertools.product(SIDES, SIDES):
                mods = []
                for side, weight in ((sa, m), (sb, n)):
                    build = bimodule.symmetrize if side == "sym" else bimodule.antisymmetrize
                    mod = build(sl2, algebra.sl2_module_matrices(f, weight))
                    change = monomial_change(f, weight + 1, rng, self.scales)
                    mods.append(bimodule.conjugate(mod, change))
                case = {"kind": "sl2-square", "field": f.spec, "m": m, "n": n,
                        "left_side": sa, "right_side": sb}
                self.cases.append((case, mods[0], mods[1]))

    def operations(self):
        return [pair_op(c, a, b) for c, a, b in self.cases]


def irreducible_block(p: int, rng: random.Random) -> list:
    """A random 2x2 matrix over F_p without an eigenvalue in F_p."""
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if all((t * t - (a + d) * t + a * d - b * c) % p for t in range(p)):
            return [[a, b], [c, d]]


def spin_module(name: str, p: int, blocks: int, rng: random.Random):
    """A direct sum of irreducible 2-dim blocks, symmetric or anti-symmetric
    at random, in a random basis.  No line is invariant under every action
    matrix, so weight peeling finds nothing."""
    f = FF(p)
    alg = algebra.builtin_algebra(name, f)
    mod = None
    for _ in range(blocks):
        # the second basis element of A and N is a product, so it acts by 0
        lam = [Matrix(f, irreducible_block(p, rng))] + [Matrix.zeros(f, 2, 2)] * (alg.dim - 1)
        build = bimodule.symmetrize if rng.random() < 0.5 else bimodule.antisymmetrize
        block = build(alg, lam)
        mod = block if mod is None else bimodule.direct_sum(mod, block)
    return bimodule.conjugate(mod, samples.random_invertible(f, mod.dim, rng))


class ModulesFp:
    """Prime-field work: random full bimodule pairs over F_2, F_3, F_5;
    chop of random modules with no common eigenvector; the sl2 squares
    over F_101."""

    def setup(self, seed: int):
        rng = random.Random(seed)
        self.pairs = []
        combos = list(itertools.product(PAIR_FIELDS, PAIR_ALGEBRAS))
        for dims, (p, name) in itertools.product(PAIR_DIMS, combos):
            alg = algebra.builtin_algebra(name, FF(p))
            a = samples.random_full_bimodule(alg, dims[0], rng)
            b = samples.random_full_bimodule(alg, dims[1], rng)
            self.pairs.append(({"kind": "random-pair", "field": f"Fp:{p}",
                                "algebra": name}, a, b))
        self.spin = []
        for (p, blocks), name in itertools.product(SPIN_SHAPES, SPIN_ALGEBRAS):
            mod = spin_module(name, p, blocks, rng)
            self.spin.append(({"kind": "spin-chop", "field": f"Fp:{p}",
                               "algebra": name}, mod))
        self.squares = Squares(FF(101), (1, 2, 100, 99), SQUARE_PAIRS_FP)
        self.squares.setup(seed)

    def operations(self):
        ops = [pair_op(c, a, b) for c, a, b in self.pairs]
        for case, mod in self.spin:
            ops.append(Op(
                case["kind"],
                lambda mod=mod: chop_mod.chop(mod),
                lambda r, case=case, mod=mod: {**case, "module": module_doc(mod),
                                               "chop": chop_doc(r)},
                lambda r, mod=mod: oracle_doc(mod, r),
            ))
        return ops + self.squares.operations()


# ---------------------------------------------------------------------------
# envelopes


def relabelled(alg, rng: random.Random, scales):
    """The same algebra in a random monomial basis: b'_i = s_i b_perm(i)."""
    f, n = alg.field, alg.dim
    perm = list(range(n))
    rng.shuffle(perm)
    s = [f.coerce(rng.choice(scales)) for _ in range(n)]
    table = [[[f.zero()] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        c = alg.table[perm[i]][perm[j]][perm[k]]
        if c != f.zero():
            table[i][j][k] = f.div(f.mul(f.mul(s[i], s[j]), c), s[k])
    names = [alg.basis_names[perm[i]] for i in range(n)]
    return algebra.LeibnizAlgebra(f, names, table)


def envelope_operation(alg):
    out = {}
    for which in PRESENTATIONS:
        pres = envelope.build_presentation(alg, which, ENVELOPE_CUTOFF)
        out[which] = {
            "dims": pres.filtered_dims(ENVELOPE_CUTOFF),
            "ideal_rank": pres.ideal_reducer(ENVELOPE_CUTOFF).rank,
            "hopf": None if which == "ul" else envelope.hopf_check(pres),
        }
    homs = envelope.standard_homs(alg, ENVELOPE_CUTOFF)
    out["homs"] = {nm: homs[nm].verify() for nm in ("d0", "d1", "s0", "omega")}
    out["sections"] = envelope.check_section_identities(alg, ENVELOPE_CUTOFF)
    return out


class Envelopes:
    """ul, ulweak and ulie of each algebra at cutoff 3, with Hopf data,
    standard homomorphisms and section identities."""

    def setup(self, seed: int):
        rng = random.Random(seed)
        self.algebras = []
        for name in ENVELOPE_Q:
            self.algebras.append((name, relabelled(algebra.builtin_algebra(name, QQ), rng,
                                                   (1, -1, 2, Fraction(1, 2)))))
        for name, p in ENVELOPE_FP:
            self.algebras.append((name, relabelled(algebra.builtin_algebra(name, FF(p)), rng,
                                                   (1, 2, p - 1, p - 2))))

    def operations(self):
        return [Op("envelope", lambda alg=alg: envelope_operation(alg),
                   lambda r, name=name, alg=alg: envelope_doc(name, alg, r))
                for name, alg in self.algebras]


def envelope_doc(name, alg, result) -> dict:
    f = alg.field
    return {"kind": "envelope", "name": name, "field": f.spec,
            "table": [[[f.format(c) for c in cell] for cell in row] for row in alg.table],
            "cutoff": ENVELOPE_CUTOFF, **result}


# ---------------------------------------------------------------------------
# the battery


class Suite:
    """``leibniz paper-suite --json --seed <seed>``, in-process."""

    def setup(self, seed: int):
        self.argv = ["paper-suite", "--json", "--seed", str(seed)]

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(self.argv)
        return {"exit_code": code, "report": json.loads(buf.getvalue())}

    def operations(self):
        return [Op("paper-suite", self.run, lambda r: {"kind": "suite", **r})]


WORKLOADS = {
    "suite": Suite,
    "squares-q": lambda: Squares(QQ, (1, -1, 2, Fraction(1, 2)), SQUARE_PAIRS_Q),
    "modules-fp": ModulesFp,
    "envelope": Envelopes,
}
