"""Checks of a round's documents against computations made apart from the
program.  Nothing here imports ``leibniz``: spanning sets are built from
the definitions, ranks come from sympy's ``DomainMatrix`` over QQ and
GF(p), and the remaining answers are closed forms (Clebsch-Gordan, PBW,
C(d+2, 2)) or properties the paper proves.

``check(doc, oracle, seed)`` returns a list of problems; an empty list means the
document is correct.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import comb

from sympy import GF, QQ as SYMPY_QQ
from sympy.polys.matrices import DomainMatrix

SUITE_IDS = [
    "1-kernels", "2-truncation-solvable", "3-truncation-nilpotent", "4-truncation-simple",
    "5-weak-classification", "6-envelopes", "7-rigidity", "8-clebsch-gordan",
    "9-nonassociativity", "10a-weight-identity-laws", "10b-sl2-identity-failures",
    "11-oracle-equivalence",
]
KNOWN_RED = "10a-weight-identity-laws"


# ---------------------------------------------------------------------------
# exact vectors over Q or F_p


def characteristic(spec: str) -> int:
    return 0 if spec == "Q" else int(spec.split(":")[1])


def scalar(p: int, text: str):
    return Fraction(text) if p == 0 else int(text) % p


def matrix(p: int, rows) -> list:
    return [[scalar(p, x) for x in row] for row in rows]


def _domain(p: int):
    return SYMPY_QQ if p == 0 else GF(p)


def _dm(rows, width: int, p: int) -> DomainMatrix | None:
    dom = _domain(p)
    sparse = {}
    for row in rows:
        entries = {}
        for j, x in enumerate(_mod(row, p)):
            if x:
                entries[j] = dom(x) if p else dom(x.numerator, x.denominator)
        if entries:  # sympy's sparse RREF rejects empty rows
            sparse[len(sparse)] = entries
    return DomainMatrix(sparse, (len(sparse), width), dom) if sparse else None


def rank(rows, width: int, p: int) -> int:
    m = _dm(rows, width, p)
    return 0 if m is None else m.rank()


def basis(rows, width: int, p: int) -> list:
    """A basis of the row span, as plain Fractions or residues."""
    m = _dm(rows, width, p)
    if m is None:
        return []
    reduced, pivots = m.rref()
    dense = reduced.to_Matrix().tolist()
    if p == 0:
        return [[Fraction(int(x.p), int(x.q)) for x in dense[i]] for i in range(len(pivots))]
    return [[int(x) % p for x in dense[i]] for i in range(len(pivots))]


def same_space(a, b, width: int, p: int) -> bool:
    ra, rb = rank(a, width, p), rank(b, width, p)
    return ra == rb == rank(list(a) + list(b), width, p)


def contains(big, small, width: int, p: int) -> bool:
    return rank(list(big) + list(small), width, p) == rank(big, width, p)


def _mod(values, p: int) -> list:
    return list(values) if p == 0 else [x % p for x in values]


def apply(m, v, p: int) -> list:
    return _mod((sum(a * x for a, x in zip(row, v)) for row in m), p)


def column(m, j: int) -> list:
    return [row[j] for row in m]


def kron_vec(u, v, p: int) -> list:
    return _mod((a * b for a in u for b in v), p)


def add(a, b, p: int) -> list:
    return [_mod((x + y for x, y in zip(r, s)), p) for r, s in zip(a, b)]


def column_span(mats, dim: int, p: int) -> list:
    return basis([column(m, j) for m in mats for j in range(dim)], dim, p)


def identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def kron(a, b, p: int) -> list:
    return [kron_vec(ra, rb, p) for ra in a for rb in b]


# ---------------------------------------------------------------------------
# truncated products


def truncation_spaces(left, right, p: int) -> dict:
    """S, T and T0 of M (x) N from their definitions.

    S is spanned by (x.m + m.x) (x) (n.y) + (m.y) (x) (x.n + n.x) over basis
    elements; T is the closure of S under lam^M_x (x) 1 + 1 (x) lam^N_x and
    the same for rho; T0 = M0 (x) NR + MR (x) N0, with M0 the span of all
    x.m + m.x and MR the span of all m.x.
    """
    la, ra = [matrix(p, m) for m in left["lam"]], [matrix(p, m) for m in left["rho"]]
    lb, rb = [matrix(p, m) for m in right["lam"]], [matrix(p, m) for m in right["rho"]]
    m, n, k = len(la[0]), len(lb[0]), len(la)
    width = m * n
    sa = [add(x, y, p) for x, y in zip(la, ra)]
    sb = [add(x, y, p) for x, y in zip(lb, rb)]
    gens = []
    for i, j in itertools.product(range(k), repeat=2):
        for va, vb in itertools.product(range(m), range(n)):
            u = kron_vec(column(sa[i], va), column(rb[j], vb), p)
            w = kron_vec(column(ra[j], va), column(sb[i], vb), p)
            gens.append(_mod((x + y for x, y in zip(u, w)), p))
    s = basis(gens, width, p)
    ops = [add(kron(x, identity(n), p), kron(identity(m), y, p), p)
           for x, y in list(zip(la, lb)) + list(zip(ra, rb))]
    t = s
    while True:
        grown = basis(t + [apply(op, v, p) for op in ops for v in t], width, p)
        if len(grown) == len(t):
            break
        t = grown
    m0a, mra = column_span(sa, m, p), column_span(ra, m, p)
    m0b, mrb = column_span(sb, n, p), column_span(rb, n, p)
    t0 = basis([kron_vec(x, y, p) for x in m0a for y in mrb]
               + [kron_vec(x, y, p) for x in mra for y in m0b], width, p)
    return {"S": s, "T": t, "T0": t0, "width": width}


def clebsch_gordan_dims(m: int, n: int) -> list:
    return sorted(m + n - 2 * k + 1 for k in range(min(m, n) + 1))


def check_pair(doc: dict, oracle: dict | None) -> list:
    p = characteristic(doc["field"])
    spaces = truncation_spaces(doc["left"], doc["right"], p)
    width = spaces["width"]
    problems = []
    for name in ("S", "T", "T0"):
        mine = matrix(p, doc[name])
        if not same_space(mine, spaces[name], width, p) or len(mine) != len(spaces[name]):
            problems.append(f"{name} has dim {len(mine)}, the definition gives "
                            f"{len(spaces[name])} (or another subspace)")
    if not contains(spaces["T0"], spaces["T"], width, p) or not doc["contained"]:
        problems.append("T is not inside T0")
    if doc["bar_dim"] != width - len(spaces["T"]):
        problems.append(f"bar product has dim {doc['bar_dim']}")
    if doc["under_dim"] != width - len(spaces["T0"]):
        problems.append(f"under product has dim {doc['under_dim']}")
    factors = doc["chop"]
    if sum(factors["dims"]) != doc["bar_dim"]:
        problems.append("factor dimensions do not add up to the bar product")
    if doc["kind"] == "sl2-square":
        problems += check_clebsch_gordan(doc)
    return problems + check_oracle(factors, oracle)


def check_clebsch_gordan(doc: dict) -> list:
    """Same sides: factors L(m+n), L(m+n-2), ..., L(|m-n|) on that side,
    weight 0 trivial; mixed sides: the products are 0."""
    f = doc["chop"]
    side = doc["left_side"]
    if side != doc["right_side"]:
        if doc["bar_dim"] or doc["under_dim"] or f["dims"]:
            return ["a mixed-side product is not 0-dimensional"]
        return []
    problems = []
    if sorted(f["dims"]) != clebsch_gordan_dims(doc["m"], doc["n"]):
        problems.append(f"factor dims {sorted(f['dims'])} are not "
                        f"{clebsch_gordan_dims(doc['m'], doc['n'])}")
    for dim, sym, anti, triv in zip(f["dims"], f["symmetric"], f["anti_symmetric"], f["trivial"]):
        want = (True, True, True) if dim == 1 else (side == "sym", side == "anti", False)
        if (sym, anti, triv) != want:
            problems.append(f"factor of dim {dim} is on the wrong side")
    if not f["certified"]:
        problems.append("report is not certified")
    return problems


def check_oracle(factors: dict, oracle: dict | None) -> list:
    """The exhaustive subspace lattice gives the same composition factors."""
    if oracle is None:
        return []
    if oracle["dims"] != sorted(factors["dims"]) or oracle["signatures"] != oracle["chop_signatures"]:
        return [f"chop gives {sorted(factors['dims'])}, the subspace oracle {oracle['dims']}"]
    return []


def check_spin(doc: dict, oracle: dict | None) -> list:
    problems = []
    if "spin" not in doc["chop"]["strategy"]:
        problems.append(f"spin did not run (strategy {doc['chop']['strategy']})")
    if sum(doc["chop"]["dims"]) != len(doc["module"]["lam"][0]):
        problems.append("factor dimensions do not add up to the module")
    if oracle is None:
        problems.append("the subspace oracle did not run")
    return problems + check_oracle(doc["chop"], oracle)


# ---------------------------------------------------------------------------
# envelopes


def envelope_relations(table, p: int, which: str) -> tuple:
    """Relations on l_0..l_{n-1} (indices 0..n-1), r_0..r_{n-1} (n..2n-1):
    (llm) l_i l_j - l_j l_i - l_{b_i b_j}, (lml) l_i r_j - r_j l_i -
    r_{b_i b_j}, and for the full envelope (zd) r_i l_j + r_i r_j."""
    n = len(table)
    rels = []
    for i, j in itertools.product(range(n), repeat=2):
        cell = [scalar(p, c) for c in table[i][j]]
        for lead, tail in (((i,), (j,)), ((i,), (n + j,))):
            rel = {lead + tail: 1}
            rel[tail + lead] = rel.get(tail + lead, 0) - 1
            for k, c in enumerate(cell):
                if c:
                    key = (k,) if tail[0] < n else (n + k,)
                    rel[key] = rel.get(key, 0) - c
            rels.append(rel)
        if which == "ul":
            rels.append({(n + i, j): 1, (n + i, n + j): 1})
    return rels, 2 * n


def filtered_dims(rels, ngens: int, cutoff: int, p: int) -> tuple:
    """Quotient dimensions of the degree <= d slices, d = 0..cutoff, and
    the rank of the ideal slice spanned by u * rel * v in degree <= cutoff."""
    words = [w for d in range(cutoff + 1) for w in itertools.product(range(ngens), repeat=d)]
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for rel in rels:
        for la in range(cutoff - 1):
            for lb in range(cutoff - 1 - la):
                for u in itertools.product(range(ngens), repeat=la):
                    for v in itertools.product(range(ngens), repeat=lb):
                        row = {}
                        for w, c in rel.items():
                            j = index[u + w + v]
                            row[j] = row.get(j, 0) + c
                        rows.append(row)
    width = len(words)
    dense = [[row.get(j, 0) for j in range(width)] for row in rows]
    total = rank(dense, width, p)
    dims = []
    for d in range(cutoff + 1):
        low = sum(1 for w in words if len(w) <= d)
        high_cols = [j for j, w in enumerate(words) if len(w) > d]
        high = rank([[r[j] for j in high_cols] for r in dense], len(high_cols), p)
        dims.append(low - (total - high))
    return dims, total


def lie_quotient_dim(table, p: int) -> int:
    """n minus the dimension of the span of all squares."""
    n = len(table)
    cells = [[[scalar(p, c) for c in cell] for cell in row] for row in table]
    gens = [cells[i][i] for i in range(n)]
    gens += [[x + y for x, y in zip(cells[i][j], cells[j][i])]
             for i in range(n) for j in range(i + 1, n)]
    return n - rank(gens, n, p)


def check_envelope(doc: dict) -> list:
    p = characteristic(doc["field"])
    cutoff, table = doc["cutoff"], doc["table"]
    problems = []
    for which in ("ul", "ulweak"):
        rels, ngens = envelope_relations(table, p, which)
        dims, total = filtered_dims(rels, ngens, cutoff, p)
        if doc[which]["dims"] != dims or doc[which]["ideal_rank"] != total:
            problems.append(f"{which}: dims {doc[which]['dims']} rank {doc[which]['ideal_rank']}, "
                            f"the definition gives {dims} rank {total}")
    q = lie_quotient_dim(table, p)
    pbw = [comb(q + d, d) for d in range(cutoff + 1)]
    if doc["ulie"]["dims"] != pbw:
        problems.append(f"ulie dims {doc['ulie']['dims']} are not the PBW dims {pbw}")
    words_q = sum(q ** d for d in range(cutoff + 1))
    if doc["ulie"]["ideal_rank"] != words_q - pbw[-1]:
        problems.append("ulie ideal rank disagrees with its PBW dims")
    if doc["name"] == "e" and doc["ulweak"]["dims"] != [comb(d + 2, 2) for d in range(cutoff + 1)]:
        problems.append("the weak envelope of e is not the polynomial ring in 2 variables")
    for which in ("ulweak", "ulie"):
        if not all(doc[which]["hopf"].values()):
            problems.append(f"{which} Hopf data fails: {doc[which]['hopf']}")
    for key in ("homs", "sections"):
        if not all(doc[key].values()):
            problems.append(f"{key} fail: {doc[key]}")
    return problems


# ---------------------------------------------------------------------------
# the battery, and the weight fusion ring of its known red check


def weight_mul(a: dict, b: dict) -> dict:
    """Classes U, S(t), A(t): same-side tags add (a zero tag is U), cross-side
    products vanish, U is neutral."""
    out = {}
    for (ka, ta), ca in a.items():
        for (kb, tb), cb in b.items():
            if ka == "U" or kb == "U":
                label = (kb, tb) if ka == "U" else (ka, ta)
            elif ka != kb:
                continue
            else:
                tag = tuple(x + y for x, y in zip(ta, tb))
                label = ("U", ()) if not any(tag) else (ka, tag)
            out[label] = out.get(label, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


LAWS = {
    "alternative": lambda m, u, v: (m(m(u, u), v), m(u, m(u, v))),
    "jordan": lambda m, u, v: (m(m(m(u, u), v), u), m(m(u, u), m(v, u))),
    "power_associative": lambda m, u: (m(m(u, u), m(u, u)), m(m(m(u, u), u), u)),
}

_TERM = re.compile(r"([+-]?)(\d*)\*?(U|[SA]\(([^)]*)\))")


def parse_element(text: str) -> dict:
    out = {}
    for sign, coeff, label, tag in _TERM.findall(text.replace(" ", "")):
        c = int(coeff or 1) * (-1 if sign == "-" else 1)
        key = ("U", ()) if label == "U" else (label[0], tuple(Fraction(t) for t in tag.split(",")))
        out[key] = out.get(key, 0) + c
    return out


def check_known_red(details: str) -> list:
    """Every witness that check 10a reports breaks its law in the ring
    above, and so does the documented one, u = S(1)+S(-1), v = A(1)."""
    problems = []
    u, v = parse_element("S(1)+S(-1)"), parse_element("A(1)")
    if LAWS["alternative"](weight_mul, u, v) != ({("A", (Fraction(1),)): 2}, {}):
        problems.append("the documented witness (uu)v = 2A(1), u(uv) = 0 does not hold")
    witnesses = re.findall(r"k=(\d) (\w+) fails at \((.*?)\)(?:;|$)", details)
    if not any(k == "1" for k, _, _ in witnesses):
        problems.append(f"check 10a names no witness for k=1: {details!r}")
    for k, law, elements in witnesses:
        args = [parse_element(e) for e in elements.split(", ") if e.strip(",")]
        lhs, rhs = LAWS[law](weight_mul, *args)
        if lhs == rhs:
            problems.append(f"k={k} {law} witness ({elements}) satisfies the law")
    return problems


def check_suite(doc: dict, seed: int) -> list:
    report = doc["report"]
    checks = report["checks"]
    problems = []
    if [c["id"] for c in checks] != SUITE_IDS:
        return [f"battery ran {[c['id'] for c in checks]}"]
    for c in checks:
        if c["ok"] != (c["id"] != KNOWN_RED):
            problems.append(f"check {c['id']} has ok={c['ok']}: {c['details']}")
    if report["seed"] != seed or (report["passed"], report["failed"]) != (11, 1):
        problems.append("battery summary is wrong")
    if doc["exit_code"] != 1:
        problems.append(f"exit code {doc['exit_code']} with a failing check")
    return problems + check_known_red(checks[SUITE_IDS.index(KNOWN_RED)]["details"])


def check(doc: dict, oracle: dict | None, seed: int) -> list:
    kind = doc["kind"]
    if kind in ("sl2-square", "random-pair"):
        return check_pair(doc, oracle)
    if kind == "spin-chop":
        return check_spin(doc, oracle)
    if kind == "envelope":
        return check_envelope(doc)
    if kind == "suite":
        return check_suite(doc, seed)
    return [f"no check for {kind!r}"]
