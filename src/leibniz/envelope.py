"""Degree-truncated computations in presented associative algebras.

A presentation is a free associative algebra on generators ell_1..ell_n,
r_1..r_n (or the images x_1..x_m of a basis in the Lie quotient) together
with relations of lead degree 2 and degree <= 1 tails:

  full envelope      (llm) + (lml) + (zd)
  weak envelope      (llm) + (lml)
  Lie envelope       commutator relations of the quotient algebra

Everything is computed inside the slice of words of bounded length.  The
degree-d ideal slice is spanned by u * rel * v with |u| + 2 + |v| <= d,
which for inhomogeneous ideals can miss elements of the true slice: the
filtered dimensions are upper bounds, asserted where a closed form fixes them.

Monomial order: degree first, longest words leading, and lexicographic
within a degree with left-action generators first.  One row reduction of
each ideal slice in this order gives membership and normal forms (the
remainder, with the longest words reduced first) as well as the filtered
dimensions (the echelon rows that pivot on short words); compare
Bergman's diamond lemma (Adv. Math. 29, 1978).  Each u * rel * v (at most
four terms) enters the sparse row reducer as a ``{column: scalar}`` map of
native scalars (relations are coerced once, when a presentation is built).
The weak relations are a prefix of the full ones, so a full slice is a
copy of the weak slice plus the u * zd * v rows (the echelon form is
canonical).  An algebra keeps its presentations; slices over
``MAX_SLICE_WORDS`` words are refused before any word is listed.
The bounds for hemi-sl2-L1 over Q at cutoff 4 (11,111 words) are ``ul``
[1, 9, 30, 70, 315] and ``ulweak`` [1, 9, 55, 295, 2165].  When the Leibniz
kernel is nonzero the loose bound is the top degree, the cutoff itself.
The standard maps d0, d1, s0 and omega are one table of generator images.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .algebra import LeibnizAlgebra, _memo, canonical_lie, leibniz_kernel
from .bimodule import Bimodule, BimoduleError
from .linalg import Matrix, RowReducer


class EnvelopeError(ValueError):
    pass


MAX_SLICE_WORDS = 50_000  # words of length <= cutoff; hemi-sl2-L1 at cutoff 4 has 11,111
Word = tuple  # tuple of generator indices
NCPoly = dict  # Word -> scalar


def _accumulate(field, out: dict, key, c) -> None:
    """out[key] += c, dropping the key when the sum is zero."""
    s = field.add(out[key], c) if key in out else c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def poly_add(field, a: NCPoly, b: NCPoly) -> NCPoly:
    out = dict(a)
    for w, c in b.items():
        _accumulate(field, out, w, c)
    return out


def poly_mul(field, a: NCPoly, b: NCPoly) -> NCPoly:
    out: NCPoly = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            _accumulate(field, out, wa + wb, field.mul(ca, cb))
    return out


def poly_degree(a: NCPoly) -> int:
    return max((len(w) for w in a), default=0)


class PresentedAlgebra:
    """Free algebra modulo lead-degree-2 relations, sliced by word length;
    the words and the ideal slice of each degree are memoized.  A ``base``
    on the same generators, with the leading relations, seeds each slice."""

    def __init__(self, field, gen_names, relations, cutoff: int = 3, which: str = "free",
                 algebra: LeibnizAlgebra | None = None, base: PresentedAlgebra | None = None):
        if cutoff < 2:
            raise EnvelopeError("cutoff must be at least 2")
        self.field = field
        self.gen_names = tuple(gen_names)
        coerced = ({w: field.coerce(c) for w, c in r.items()} for r in relations)
        self.relations = [r for r in ({w: c for w, c in r.items() if c} for r in coerced) if r]
        self.cutoff = cutoff
        self.which = which
        self.algebra = algebra
        self.base = base
        for rel in self.relations:
            if poly_degree(rel) > 2:
                raise EnvelopeError("relations must have degree at most 2")
        words, level = 0, 1  # words of length < k, and of length k
        for _ in range(cutoff + 1):
            words, level = words + level, level * self.ngens
            if words > MAX_SLICE_WORDS or not level:
                break
        if words > MAX_SLICE_WORDS:
            raise EnvelopeError(f"the degree-{cutoff} slice on {self.ngens} generators has over "
                                f"{MAX_SLICE_WORDS} words")
        self._derived: dict = {}
        if base is not None:
            self._level, self.slice_words, self._word_index = (
                base._level, base.slice_words, base._word_index)

    @property
    def ngens(self) -> int:
        return len(self.gen_names)

    def gen_index(self, name) -> int:
        if isinstance(name, int):
            if not 0 <= name < self.ngens:
                raise EnvelopeError(f"generator index {name} out of range")
            return name
        try:
            return self.gen_names.index(name)
        except ValueError:
            raise EnvelopeError(f"no generator named {name!r}") from None

    @_memo
    def _level(self, k: int) -> list[Word]:
        """Words of length exactly k, in lexicographic order."""
        if k == 0:
            return [()]
        return [w + (g,) for w in self._level(k - 1) for g in range(self.ngens)]

    @_memo
    def slice_words(self, d: int) -> list[Word]:
        """Words of length <= d, longest first and each length in
        lexicographic order.  The words of length <= e are thus the tail of
        every slice, and an echelon basis of an ideal slice pivots on its
        longest words first."""
        return [w for k in range(d, -1, -1) for w in self._level(k)]

    @_memo
    def _word_index(self, d: int) -> dict[Word, int]:
        """The column of each word in the degree-``d`` slice."""
        return {w: i for i, w in enumerate(self.slice_words(d))}

    def poly_to_vec(self, poly: NCPoly, d: int) -> dict:
        """``poly`` as a sparse ``{column: scalar}`` vector of the slice."""
        if poly_degree(poly) > d:
            raise EnvelopeError(f"word of length {poly_degree(poly)} above slice degree {d}")
        index = self._word_index(d)
        return {index[w]: c for w, c in poly.items()}

    def vec_to_poly(self, vec, d: int) -> NCPoly:
        """Inverse of ``poly_to_vec``; ``vec`` may also be dense."""
        words = self.slice_words(d)
        items = sorted(vec.items()) if isinstance(vec, dict) else enumerate(vec)
        return {words[i]: c for i, c in items if c}

    @_memo
    def ideal_reducer(self, d: int) -> RowReducer:
        """Span of u * rel * v with |u| + 2 + |v| <= d, row-reduced."""
        if d > self.cutoff:
            raise EnvelopeError(f"degree {d} above cutoff {self.cutoff}")
        if self.base is None:
            red, rels = RowReducer(self.field, len(self.slice_words(d))), self.relations
        else:
            red, rels = self.base.ideal_reducer(d).copy(), self.relations[len(self.base.relations):]
        index = self._word_index(d)
        for rel in rels:
            for la in range(d - 1):
                for u in self._level(la):
                    for lb in range(d - 1 - la):
                        for v in self._level(lb):
                            red.insert({index[u + w + v]: c for w, c in rel.items()}, _native=True)
        red.drop_index()
        return red

    def low_degree_ideal_dims(self, top: int) -> list[int]:
        """dim(computed ideal slice at degree ``top``, intersected with the
        words of degree <= d) for d = 0..top.

        The words of degree <= d are the last columns of the slice, so the
        echelon rows pivoting there are exactly a basis of the intersection.
        """
        top = max(top, 2)
        pivots = self.ideal_reducer(top).pivots
        width = len(self.slice_words(top))
        firsts = [width - len(self.slice_words(d)) for d in range(top + 1)]
        return [sum(1 for p in pivots if p >= first) for first in firsts]

    def filtered_dims(self, up_to: int) -> list[int]:
        """Upper bounds on the dimensions of the degree <= d quotient
        slices, using all ideal elements visible up to degree ``up_to``."""
        low = self.low_degree_ideal_dims(up_to)
        return [
            len(self.slice_words(d)) - low[d] for d in range(up_to + 1)
        ]

    def reduce_poly(self, poly: NCPoly, d: int) -> NCPoly:
        residual = self.ideal_reducer(d).reduce(self.poly_to_vec(poly, d))
        return self.vec_to_poly(residual, d)

    def in_ideal(self, poly: NCPoly, d: int | None = None) -> bool:
        if d is None:
            d = max(2, poly_degree(poly))
        return not self.reduce_poly(poly, d)

    def __repr__(self):
        return (
            f"PresentedAlgebra({self.which}, {self.ngens} generators, "
            f"{len(self.relations)} relations)"
        )


def _bracket_relation(field, a: Word, b: Word, cell, gen) -> NCPoly:
    """a b - b a - sum_k cell[k] gen(k), with zero terms dropped."""
    rel: NCPoly = {}
    _accumulate(field, rel, a + b, field.one())
    _accumulate(field, rel, b + a, field.neg(field.one()))
    for k, c in enumerate(cell):
        if c:
            _accumulate(field, rel, gen(k), field.neg(c))
    return rel


def _envelope_relations(alg: LeibnizAlgebra, include_zd: bool):
    """Relation families on generators l_0..l_{n-1}, r_0..r_{n-1}: (llm) and
    (lml) for all pairs, then (zd), so the weak relations are a prefix."""
    f = alg.field
    n = alg.dim
    rels = []
    l = lambda i: (i,)
    r = lambda i: (n + i,)
    for i in range(n):
        for j in range(n):
            cell = alg.table[i][j]
            # (llm): l_i l_j - l_j l_i - l_{b_i b_j}
            rels.append(_bracket_relation(f, l(i), l(j), cell, l))
            # (lml): l_i r_j - r_j l_i - r_{b_i b_j}
            rels.append(_bracket_relation(f, l(i), r(j), cell, r))
    if include_zd:
        # (zd): r_i l_j + r_i r_j
        rels += [{r(i) + l(j): f.one(), r(i) + r(j): f.one()} for i in range(n) for j in range(n)]
    return rels


@_memo
def build_presentation(alg: LeibnizAlgebra, which: str, cutoff: int) -> PresentedAlgebra:
    """Presentations, kept on the algebra: ``ul`` (full, extending its weak
    presentation), ``ulweak`` (no zero-divisor family), ``ulie``
    (enveloping algebra of the canonical Lie quotient)."""
    f = alg.field
    if which in ("ul", "ulweak"):
        names = [f"l_{nm}" for nm in alg.basis_names] + [
            f"r_{nm}" for nm in alg.basis_names
        ]
        rels = _envelope_relations(alg, include_zd=(which == "ul"))
        base = build_presentation(alg, "ulweak", cutoff) if which == "ul" else None
        return PresentedAlgebra(f, names, rels, cutoff, which, algebra=alg, base=base)
    if which == "ulie":
        quot, _ = canonical_lie(alg)
        names = [f"x_{nm}" for nm in quot.basis_names]
        rels = [
            _bracket_relation(f, (i,), (j,), quot.table[i][j], lambda k: (k,))
            for i in range(quot.dim)
            for j in range(quot.dim)
        ]
        return PresentedAlgebra(f, names, rels, cutoff, which, algebra=alg)
    raise EnvelopeError(f"unknown presentation kind {which!r}")


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass
class AlgebraHom:
    """Generator images of degree <= 1 between presented algebras."""

    source: PresentedAlgebra
    target: PresentedAlgebra
    images: list  # NCPoly in the target per source generator

    def __post_init__(self):
        if len(self.images) != self.source.ngens:
            raise EnvelopeError("one image per source generator required")
        for img in self.images:
            if poly_degree(img) > 1:
                raise EnvelopeError("generator images must have degree <= 1")

    def substitute(self, poly: NCPoly) -> NCPoly:
        f = self.target.field
        out: NCPoly = {}
        for w, c in poly.items():
            term: NCPoly = {(): c}
            for g in w:
                term = poly_mul(f, term, self.images[g])
            out = poly_add(f, out, term)
        return out

    def verify(self) -> bool:
        """Every source relation maps into the target's ideal span."""
        images = map(self.substitute, self.source.relations)
        return all(self.target.in_ideal(im, max(2, poly_degree(im))) for im in images)


def standard_homs(alg: LeibnizAlgebra, cutoff: int = 3) -> dict:
    """The three presentations and the standard maps between them (after
    Loday-Pirashvili, Math. Ann. 296, 1993) as one table: the generator
    images of each map are the columns of a matrix, with P the projection
    x -> x-bar onto the Lie quotient."""
    ul, ulweak, ulie = (build_presentation(alg, w, cutoff) for w in ("ul", "ulweak", "ulie"))
    p = canonical_lie(alg)[1].matrix
    gens = Matrix.identity(alg.field, 2 * alg.dim).columns()  # l_x, then r_x
    table = {
        "d0": (ul, ulie, p.columns() + [()] * alg.dim),  # l_x -> x-bar, r_x -> 0
        "d1": (ul, ulie, p.columns() + (-p).columns()),  # l_x -> x-bar, r_x -> -x-bar
        # x-bar -> l_x for x in the quotient's basis, the kernel's complement coordinates
        "s0": (ulie, ul, [gens[r] for r in leibniz_kernel(alg).complement_coords()]),
        "omega": (ulweak, ul, gens),  # the weak envelope onto the full one
    }
    homs = {name: AlgebraHom(src, dst, [{(k,): c for k, c in enumerate(col) if c} for col in cols])
            for name, (src, dst, cols) in table.items()}
    return {"ul": ul, "ulweak": ulweak, "ulie": ulie, **homs}


def check_section_identities(alg: LeibnizAlgebra, cutoff: int = 3) -> dict:
    """d0 . s0 = id and d1 . s0 = id on degree <= 1 normal forms, and the
    products r_x (l_y + r_y) vanish in the full envelope."""
    data = standard_homs(alg, cutoff)
    ulie = data["ulie"]
    f = alg.field

    def fixes(name: str, j: int) -> bool:
        diff = poly_add(f, data[name].substitute(data["s0"].images[j]), {(j,): f.neg(f.one())})
        return not diff or ulie.in_ideal(diff, 2)

    out = {f"{name}_s0": all(fixes(name, j) for j in range(ulie.ngens)) for name in ("d0", "d1")}
    out["kernel_product"] = kernel_products_vanish(data["ul"])
    return out


def kernel_products_vanish(pres: PresentedAlgebra) -> bool:
    """Do all products r_x (l_y + r_y) reduce to zero at degree 2?"""
    alg = pres.algebra
    if alg is None or pres.which not in ("ul", "ulweak"):
        raise EnvelopeError("kernel products are defined for envelope presentations")
    n, one = alg.dim, pres.field.one()
    return all(pres.in_ideal({(n + i, j): one, (n + i, n + j): one}, 2)
               for i in range(n) for j in range(n))


def degree_one_primitive_dim(pres: PresentedAlgebra) -> int:
    """Dimension of the generator span modulo the degree <= 1 part of the
    computed ideal slice.  Relations carry no constant terms, so the
    intersection lies inside the generator span."""
    return pres.ngens - pres.low_degree_ideal_dims(2)[1]


# ---------------------------------------------------------------------------
# Hopf structure of the weak envelope


def _coproduct(field, poly: NCPoly) -> dict:
    """Delta with all generators primitive: sum over subsets of positions,
    both parts keeping their original order.  Returns {(wa, wb): coeff}."""
    out: dict = {}
    for w, c in poly.items():
        k = len(w)
        for mask in range(1 << k):
            wa = tuple(w[t] for t in range(k) if mask >> t & 1)
            wb = tuple(w[t] for t in range(k) if not mask >> t & 1)
            _accumulate(field, out, (wa, wb), c)
    return out


def _antipode(field, poly: NCPoly, signs) -> NCPoly:
    """Antihomomorphism with S(g) = signs[g] * g."""
    out: NCPoly = {}
    for w, c in poly.items():
        coeff = c
        for g in w:
            coeff = field.mul(coeff, signs[g])
        _accumulate(field, out, tuple(reversed(w)), coeff)
    return out


def hopf_check(pres: PresentedAlgebra, antipode_signs=None) -> dict:
    """Counit/coideal/antipode compatibility of the relation ideal.

    Exact finite checks in the degree <= 2 slice: for each relation rho,
    eps(rho) = 0, Delta(rho) lies in J (x) T + T (x) J (verified through
    the projection to the complement of the relation span, applied to both
    tensor legs), and S(rho) lies back in the relation span.

    Refuses the full envelope: its zero-divisor relations are not
    compatible with the primitive coproduct, which is exactly why only
    the weak envelope carries the Hopf structure.
    """
    if pres.which == "ul":
        raise EnvelopeError(
            "the full envelope is only augmented, not a Hopf algebra; "
            "run the check on the weak presentation"
        )
    if pres.which not in ("ulweak", "ulie", "free"):
        raise EnvelopeError(f"unsupported presentation kind {pres.which!r}")
    f = pres.field
    if antipode_signs is None:
        antipode_signs = [f.neg(f.one())] * pres.ngens
    else:
        antipode_signs = [f.coerce(s) for s in antipode_signs]

    red = pres.ideal_reducer(2)
    counit_ok = all((() not in rel) for rel in pres.relations)

    @cache
    def pi(word: Word) -> dict:
        return red.reduce(pres.poly_to_vec({word: f.one()}, 2), _native=True)

    coideal_ok = True
    for rel in pres.relations:
        acc: dict = {}
        for (wa, wb), c in _coproduct(f, rel).items():
            for ia, va in pi(wa).items():
                cva = f.mul(c, va)
                for ib, vb in pi(wb).items():
                    _accumulate(f, acc, (ia, ib), f.mul(cva, vb))
        if acc:
            coideal_ok = False
            break

    antipode_ok = all(
        pres.in_ideal(_antipode(f, rel, antipode_signs), 2)
        for rel in pres.relations
    )
    return {"counit": counit_ok, "coideal": coideal_ok, "antipode": antipode_ok}


# ---------------------------------------------------------------------------
# actions on bimodules


def act(pres: PresentedAlgebra, word, mod: Bimodule, vec) -> tuple:
    """Apply a generator word: l_i by the left action, r_i by the right
    action, concatenation by composition (rightmost factor first)."""
    alg = pres.algebra
    if alg is None or pres.which not in ("ul", "ulweak"):
        raise EnvelopeError("actions are defined for envelope presentations")
    if mod.algebra != alg:
        raise BimoduleError("bimodule is over a different algebra")
    if pres.which == "ulweak" and not mod.is_weak():
        raise BimoduleError("weak envelope acts on weak bimodules only")
    if pres.which == "ul" and not mod.is_full():
        raise BimoduleError("full envelope acts on full bimodules only")
    out = tuple(vec)
    for g in reversed([pres.gen_index(g) for g in word]):
        out = mod.actions[g].apply(out)
    return out
