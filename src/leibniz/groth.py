"""Symbolic Grothendieck rings of bimodule categories via fusion rules.

Irreducible classes carry three shapes of label: the shared unit, and
sym/anti-tagged classes (symmetrized and anti-symmetrized irreducibles of
the quotient Lie algebra).  Products follow the truncated tensor product:
same-side products multiply inside a copy of the Lie Grothendieck ring
(with unit coefficients redirected to the shared unit), cross-side
products vanish, and the unit is neutral.  Every rule is therefore the
star product of two commutative base rings, one per side, each of which
owns its tags: the weight rules take two group rings of F^k, the sl2 rule
two copies of the Clebsch-Gordan ring.

A ``ClassRegistry`` reads labels off the composition factors of concrete
bimodules, and builds the irreducible bimodule of a label.

Identity checkers probe commutativity, associativity, the alternative and
Jordan laws, and fourth-power associativity on finite windows plus seeded
random integer combinations; verdicts carry explicit counterexamples.

Each rule interns its labels, which hash once, and memoises the product of
each ordered pair of its labels in a table that ``gr_mul`` reads;
``FusionRule.mul`` returns a fresh element that the caller may change.
A window lists at most ``MAX_WINDOW_LABELS`` labels: the checkers work on
pairs and triples of its labels.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import _memo, products_and_series
from .fields import Field


MAX_WINDOW_LABELS = 256


class GrothError(ValueError):
    pass


@dataclass(frozen=True)
class Label:
    kind: str  # "unit" | "sym" | "anti"
    tag: object = None

    def __post_init__(self):
        if self.kind not in ("unit", "sym", "anti"):
            raise GrothError(f"bad label kind {self.kind!r}")
        if self.kind == "unit" and self.tag is not None:
            raise GrothError("the unit label carries no tag")
        # CPython hashes -1 like -2, so each entry of a tag hashes by sign and size
        tag = self.tag
        key = tuple((t < 0, abs(t)) for t in tag) if isinstance(tag, tuple) else tag
        object.__setattr__(self, "_hash", hash((self.kind, key)))

    def __hash__(self):
        return self._hash

    def sort_key(self):
        # a tuple tag sorts as the repr of its entries as Fractions, whatever
        # their native type, so integral and rational entries keep one order
        tag = self.tag
        return (self.kind, repr(tuple(map(Fraction, tag)) if isinstance(tag, tuple) else tag))

    def __repr__(self):
        if self.kind == "unit":
            return "U"
        prefix = "S" if self.kind == "sym" else "A"
        if isinstance(self.tag, tuple):
            return f"{prefix}({','.join(str(t) for t in self.tag)})"
        return f"{prefix}({self.tag})"


UNIT = Label("unit")


class GrElement:
    """Integer combination of labels in canonical form (no zero terms)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {l: c for l, c in (terms or {}).items() if c != 0}

    @staticmethod
    def of(label: Label, coeff: int = 1) -> "GrElement":
        return GrElement({label: coeff})

    @staticmethod
    def zero() -> "GrElement":
        return GrElement({})

    def __add__(self, other: "GrElement") -> "GrElement":
        out = dict(self.terms)
        for l, c in other.terms.items():
            out[l] = out.get(l, 0) + c
        return GrElement(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, GrElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for l in sorted(self.terms, key=lambda x: x.sort_key()):
            c = self.terms[l]
            if c == 1:
                bits.append(f"+{l!r}")
            elif c == -1:
                bits.append(f"-{l!r}")
            else:
                bits.append(f"{c:+d}*{l!r}")
        text = "".join(bits)
        return text[1:] if text.startswith("+") else text


@dataclass(frozen=True)
class BaseRing:
    """A commutative unital ring on a distinguished free basis of tags.

    ``mul`` multiplies two tags into {tag: coefficient}, ``window`` lists
    the tags up to a size, the unit among them, ``count`` is the length of
    that list without making it, ``parse`` reads a tag from the
    comma-separated parts of its text, and ``owns`` tells a tag of this
    ring from a foreign value.
    """

    name: str
    unit: object
    mul: Callable[[object, object], dict]
    window: Callable[[int], list]
    count: Callable[[int], int]
    parse: Callable[[list], object]
    owns: Callable[[object], bool]


def integer_base() -> BaseRing:
    """The integers: the unit is the only tag."""

    def parse(parts):
        raise GrothError("the ring Z has no tag besides its unit U")

    return BaseRing(
        "Z", "1", lambda a, b: {"1": 1}, lambda size: ["1"], lambda size: 1, parse,
        lambda t: t == "1",
    )


def group_base(field: Field, k: int) -> BaseRing:
    """Group ring of the additive group of F^k on its canonical basis."""
    if k < 0:
        raise GrothError("weight space dimension must be non-negative")

    def mul(a, b):
        return {tuple(field.add(x, y) for x, y in zip(a, b)): 1}

    def window(radius):
        # over F_p the integers -radius..radius repeat residues: keep the first
        return list(dict.fromkeys(
            tuple(field.from_int(t) for t in tag)
            for tag in itertools.product(range(-radius, radius + 1), repeat=k)
        ))

    def count(radius):
        width = 2 * radius + 1
        return (min(width, field.characteristic) if field.characteristic else width) ** k

    return BaseRing(
        f"grouplike:{k}",
        (field.zero(),) * k,
        mul,
        window,
        count,
        lambda parts: tuple(field.parse(p) for p in parts),
        lambda t: isinstance(t, tuple) and len(t) == k,
    )


def clebsch_gordan(m: int, n: int) -> list[int]:
    """Highest weights of the product of irreducibles with highest weights
    m and n: m+n, m+n-2, ..., |m-n| (min(m, n) + 1 of them)."""
    if m < 0 or n < 0:
        raise GrothError("highest weights are non-negative")
    return list(range(m + n, abs(m - n) - 1, -2))


def cg_base() -> BaseRing:
    """The representation ring with basis the sl2 highest weights."""

    def parse(parts):
        try:
            (text,) = parts
            return int(text)
        except ValueError:
            raise GrothError(f"expected one integer tag, not {','.join(parts)!r}") from None

    return BaseRing(
        "cg",
        0,
        lambda a, b: Counter(clebsch_gordan(a, b)),
        lambda size: list(range(size + 1)),
        lambda size: size + 1,
        parse,
        lambda t: isinstance(t, int) and t >= 0,
    )


@dataclass(frozen=True)
class FusionRule:
    """The unital commutative product of two base rings, one per side.

    Its labels are the shared unit U and S(t) / A(t) for the non-unit tags
    t of the ``sym`` / ``anti`` base ring.  Same-side products multiply in
    that side's ring and send its unit coefficient to U, cross-side
    products vanish, and U is neutral.
    """

    name: str
    sym: BaseRing
    anti: BaseRing
    default_window: int
    _derived: dict = dataclasses.field(default_factory=dict, init=False, compare=False, repr=False)

    def base(self, kind: str) -> BaseRing:
        return self.sym if kind == "sym" else self.anti

    @_memo
    def label(self, kind: str, tag) -> Label:
        """The one label of a tag on one side; the side's unit is U."""
        return UNIT if tag == self.base(kind).unit else Label(kind, tag)

    def owns(self, label: Label) -> bool:
        if label.kind == "unit":
            return True
        base = self.base(label.kind)
        return base.owns(label.tag) and label.tag != base.unit

    def mul(self, a: Label, b: Label) -> GrElement:
        """The product ``a b``, as a fresh element."""
        return GrElement(dict(self._product(a, b)))

    @_memo
    def _product(self, a: Label, b: Label) -> tuple:
        """``a b`` as ((label, coefficient), ...), stored per ordered pair of owned labels."""
        for l in (a, b):
            if not self.owns(l):
                raise GrothError(f"label {l!r} does not belong to rule {self.name}")
        out: dict = {}
        if "unit" in (a.kind, b.kind):
            out[b if a.kind == "unit" else a] = 1
        elif a.kind == b.kind:
            for tag, coeff in self.base(a.kind).mul(a.tag, b.tag).items():
                target = self.label(a.kind, tag)
                out[target] = out.get(target, 0) + coeff
        return tuple(GrElement(out).terms.items())

    def window(self, size: int) -> list:
        """U and the other labels of each side's window; refused, before any
        is listed, when they are more than ``MAX_WINDOW_LABELS``."""
        count = 1 + sum(self.base(kind).count(size) - 1 for kind in ("sym", "anti"))
        if count > MAX_WINDOW_LABELS:
            raise GrothError(f"a window of {count} labels is over the cap {MAX_WINDOW_LABELS}")
        return [UNIT] + [
            self.label(kind, tag)
            for kind in ("sym", "anti")
            for tag in self.base(kind).window(size)
            if tag != self.base(kind).unit
        ]


def gr_mul(rule: FusionRule, a: GrElement, b: GrElement) -> GrElement:
    out: dict = {}
    for la, ca in a.terms.items():
        for lb, cb in b.terms.items():
            for l, c in rule._product(la, lb):
                out[l] = out.get(l, 0) + ca * cb * c
    return GrElement(out)


def star_product(a: BaseRing, b: BaseRing) -> FusionRule:
    """The rule with ``a`` on the sym side and ``b`` on the anti side."""
    return FusionRule(f"star({a.name},{b.name})", a, b, 2)


# one rule object, and so one product table, per builtin rule in a process
@functools.lru_cache(maxsize=16)
def weight_rule(field: Field, k: int) -> FusionRule:
    """Classes tagged by weight vectors in F^k: same-side tags add."""
    return FusionRule(f"weight:{k}", group_base(field, k), group_base(field, k), 2)


@functools.lru_cache(maxsize=1)
def sl2_rule() -> FusionRule:
    """Classes tagged by sl2 highest weights, fused by Clebsch-Gordan."""
    return FusionRule("sl2", cg_base(), cg_base(), 6)


# ---------------------------------------------------------------------------
# identity checkers


def _jordan(mul, u, v):
    uu = mul(u, u)
    return mul(mul(uu, v), u), mul(uu, mul(v, u))


def _power_associative(mul, u):
    uu = mul(u, u)
    return mul(uu, uu), mul(mul(uu, u), u)


# Each ring law checked here: its arity, and a function from a product
# ``mul`` and that many elements to the two sides the law equates; the
# Jordan law is (u^2 v)u = u^2 (vu), power associativity u^2 u^2 = (u^2 u)u.
LAWS = {
    "commutative": (2, lambda mul, u, v: (mul(u, v), mul(v, u))),
    "associative": (3, lambda mul, u, v, w: (mul(mul(u, v), w), mul(u, mul(v, w)))),
    "alternative": (2, lambda mul, u, v: (mul(mul(u, u), v), mul(u, mul(u, v)))),
    "jordan": (2, _jordan),
    "power_associative": (1, _power_associative),
}


@dataclass
class Verdict:
    identity: str
    holds: bool
    tested: int
    counterexample: dict | None = None


def _random_element(labels, rng: random.Random) -> GrElement:
    support = rng.sample(labels, k=min(len(labels), rng.randint(1, 3)))
    out = GrElement.zero()
    for l in support:
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        out = out + GrElement.of(l, c)
    return out


def identity_checkers(
    rule: FusionRule,
    window: list | None = None,
    trials: int = 200,
    seed: int = 0,
) -> dict:
    """Exact verdicts, with counterexamples, of each law of ``LAWS`` on a
    finite window plus seeded random combinations."""
    if window is None:
        window = rule.window(rule.default_window)
    if not window:
        raise GrothError("empty label window")
    rng = random.Random(seed)
    singles = [GrElement.of(l) for l in window]
    pairsums = (
        [singles[i] + singles[j] for i in range(len(singles)) for j in range(i + 1, len(singles))]
        if len(singles) <= 20
        else []
    )
    combos = [_random_element(window, rng) for _ in range(trials)]
    mul = functools.partial(gr_mul, rule)

    def verdict(name, cases, sides) -> Verdict:
        tested = 0
        for case in cases:
            tested += 1
            lhs, rhs = sides(mul, *case)
            if lhs != rhs:
                witness = {"elements": case, "lhs": lhs, "rhs": rhs}
                return Verdict(name, False, tested, witness)
        return Verdict(name, True, tested)

    def pair_cases():
        for u in singles:
            for v in singles:
                yield (u, v)
        for u in pairsums:
            for v in singles:
                yield (u, v)
        for i in range(0, len(combos) - 1, 2):
            yield (combos[i], combos[i + 1])

    def triple_cases():
        n = len(singles)
        if n**3 <= 30000:
            for u in singles:
                for v in singles:
                    for w in singles:
                        yield (u, v, w)
        else:
            for _ in range(3000):
                yield tuple(rng.choice(singles) for _ in range(3))
        for i in range(0, len(combos) - 2, 3):
            yield (combos[i], combos[i + 1], combos[i + 2])

    def single_cases():
        for u in singles:
            yield (u,)
        for u in pairsums:
            yield (u,)
        for u in combos:
            yield (u,)

    # evaluated in the order of LAWS: the triple cases draw from ``rng`` as they go
    cases = {1: single_cases, 2: pair_cases, 3: triple_cases}
    return {name: verdict(name, cases[arity](), sides) for name, (arity, sides) in LAWS.items()}


def criterion_scan(rule: FusionRule, window: list | None = None) -> list[dict]:
    """Predict associativity/alternativity/Jordan failures from the shape
    of same-side squares and products, then confirm the first prediction of
    each property, in window order, by evaluating its law of ``LAWS``.

    Patterns, for sides X != Y with labels a, a' on side X and b on Y:
      (a) a != a', the unit coefficient in a*a' nonzero and Y nonempty:
          not associative, replayed as the associative law at (a, a', b);
      (b) pattern (a) with a = a': not alternative, replayed as the
          alternative law at (a, b);
      (c) a^2 has a non-unit same-side term and b^2 has a nonzero unit
          coefficient: not a Jordan ring, replayed as the Jordan law at
          (a + b, b).
    """
    if window is None:
        window = rule.window(rule.default_window)
    sides = {kind: [l for l in window if l.kind == kind] for kind in ("sym", "anti")}
    predicted: dict = {}
    for side, other in (("sym", "anti"), ("anti", "sym")):
        if not sides[other]:
            continue
        b = sides[other][0]
        for a in sides[side]:
            for a2 in sides[side]:
                if rule.mul(a, a2).terms.get(UNIT, 0) != 0:
                    predicted.setdefault("alternative" if a == a2 else "associative", (a, a2, b))
        jordan_b = next((b2 for b2 in sides[other] if rule.mul(b2, b2).terms.get(UNIT, 0) != 0), None)
        for a in sides[side]:
            if jordan_b is not None and any(l.kind != "unit" for l in rule.mul(a, a).terms):
                predicted.setdefault("jordan", (a, a, jordan_b))
    mul = functools.partial(gr_mul, rule)
    findings = []
    for prop, labels in predicted.items():
        a, a2, b = map(GrElement.of, labels)
        elements = {"associative": (a, a2, b), "alternative": (a, b), "jordan": (a + b, b)}[prop]
        lhs, rhs = LAWS[prop][1](mul, *elements)
        findings.append({"property": prop, "labels": labels, "lhs": lhs, "rhs": rhs, "confirmed": lhs != rhs})
    return findings


# ---------------------------------------------------------------------------
# classes of concrete bimodules


@dataclass
class ClassRegistry:
    """How to read irreducible-class labels off composition factors, and
    back: ``module`` builds the irreducible bimodule of a label.

    A weight label carries the values of a functional that vanishes on the
    product span, taken at the complement coordinates of that span; an sl2
    label carries the highest weight.
    """

    kind: str  # "weight" | "sl2"
    algebra: object
    _derived: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def product_span(self):
        return products_and_series(self.algebra)["product_span"]

    @_memo
    def rule(self) -> FusionRule:
        """The fusion rule of the labels, built once."""
        if self.kind == "sl2":
            return sl2_rule()
        return weight_rule(self.algebra.field, self.algebra.dim - self.product_span.dim)

    @_memo
    def module(self, label: Label):
        """The irreducible bimodule whose class is ``label``, built once."""
        from .bimodule import antisymmetrize, sl2_irreducible, symmetrize, trivial_bimodule
        from .linalg import Matrix

        rule = self.rule()
        if not rule.owns(label):
            raise GrothError(f"label {label!r} is foreign to rule {rule.name}")
        if label == UNIT:
            return trivial_bimodule(self.algebra, 1)
        if self.kind == "sl2":
            return sl2_irreducible(self.algebra, label.tag, label.kind)
        f = self.algebra.field
        # the functional that vanishes on the product span and reads the tag
        # at its complement coordinates: P^T tag for the quotient map P
        values = (Matrix(f, [label.tag]) * self.product_span.quotient_map()).rows[0]
        build = symmetrize if label.kind == "sym" else antisymmetrize
        return build(self.algebra, [Matrix(f, [[v]]) for v in values], 1)


def class_of_bimodule(mod, registry: ClassRegistry) -> GrElement:
    """Sum of factor labels of a certified composition series."""
    from .chop import chop

    if registry.kind not in ("weight", "sl2"):
        raise GrothError(f"unknown registry kind {registry.kind!r}")
    if mod.algebra != registry.algebra:
        raise GrothError("bimodule algebra does not match the registry")
    report = chop(mod)
    if not report.certified:
        raise GrothError(
            "composition series is not certified; refusing to assign a class"
        )
    if registry.kind == "weight":
        keep = registry.product_span.complement_coords()
        if any(f.dim != 1 for f in report.factors):
            raise GrothError("weight registry expects 1-dimensional factors only")
    out: dict = {}
    for f in report.factors:
        if f.trivial:
            label = UNIT
        elif f.symmetric or f.anti_symmetric:
            tag = tuple(f.left_scalars[j] for j in keep) if registry.kind == "weight" else f.dim - 1
            label = Label("sym" if f.symmetric else "anti", tag)
        else:
            raise GrothError(
                "factor is neither symmetric nor anti-symmetric: "
                "not a class of the full-bimodule category"
            )
        out[label] = out.get(label, 0) + 1
    return GrElement(out)


def verify_ring_vs_modules(rule: FusionRule, registry: ClassRegistry, pairs) -> dict:
    """For each pair (M, N): the class of both truncated products must
    equal the fusion product of the classes.  The class of each distinct
    input object is computed once."""
    from .tensor import trunc_bar, trunc_under

    pairs = list(pairs)
    # call-local, not a memo: a class also depends on the unhashable registry
    classes: dict = {}
    for mod in itertools.chain.from_iterable(pairs):
        if id(mod) not in classes:
            classes[id(mod)] = class_of_bimodule(mod, registry)
    results = []
    for m, n in pairs:
        cm, cn = classes[id(m)], classes[id(n)]
        expected = gr_mul(rule, cm, cn)
        got_bar = class_of_bimodule(trunc_bar(m, n), registry)
        got_under = class_of_bimodule(trunc_under(m, n), registry)
        results.append(
            {
                "left": cm,
                "right": cn,
                "expected": expected,
                "bar": got_bar,
                "under": got_under,
                "ok": got_bar == expected == got_under,
            }
        )
    return {"ok": all(r["ok"] for r in results), "cases": results}


# ---------------------------------------------------------------------------
# element expressions (CLI surface)

_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<coeff>\d+)?\*?(?P<label>U|[SA]\([^)]*\))$"
)


def _split_terms(text: str) -> list[str]:
    """Split on top-level +/- only, so tags like A(-1) stay intact."""
    s = text.replace(" ", "")
    terms: list[str] = []
    cur = ""
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and cur not in ("", "+", "-"):
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    if cur:
        terms.append(cur)
    return terms


def parse_element(rule: FusionRule, text: str) -> GrElement:
    """Parse e.g. ``2*S(1) + A(-1) - U``; each tag is read by the base ring
    of its side (so weight tags may be rationals)."""
    out = GrElement.zero()
    terms = _split_terms(text)
    if not terms:
        raise GrothError("empty element expression")
    for chunk in terms:
        m = _TERM_RE.match(chunk)
        if not m:
            raise GrothError(f"cannot parse term {chunk!r}")
        coeff = int(m.group("coeff") or 1)
        if m.group("sign") == "-":
            coeff = -coeff
        body = m.group("label")
        if body == "U":
            label = UNIT
        else:
            kind = "sym" if body[0] == "S" else "anti"
            label = rule.label(kind, rule.base(kind).parse(body[2:-1].split(",")))
        if not rule.owns(label):
            raise GrothError(f"label {label!r} is foreign to rule {rule.name}")
        out = out + GrElement.of(label, coeff)
    return out
