"""Two-sided modules over a Leibniz algebra as matrix pairs.

A bimodule on F^m is a pair of families (lam_i, rho_i) of m x m matrices,
one per algebra basis element, acting on the left and right, kept as one
action family ``actions`` = (lam_1..lam_n, rho_1..rho_n).  Constructions
that treat every action alike (conjugates, sums, duals, sub- and quotient
bimodules) map that family; a hom space is the tensor product with a dual,
Hom(M, N) = N (x) M*, as the paper's rigidity has it.  The three compatibility
axioms, as operator identities per basis pair (x, y):

  (LLM)  lam_{xy} = lam_x lam_y - lam_y lam_x
  (LML)  rho_{xy} = lam_x rho_y - rho_y lam_x
  (MLL)  rho_y rho_x = rho_{xy} - lam_x rho_y
  (ZD)   rho_y (lam_x + rho_x) = 0        (equivalent to MLL given LML)

"weak" means LLM + LML; "full" adds MLL.  A report scans the basis pairs
once per axiom (``algebra.first_pair``), and ``intertwines`` is the one
check of a bimodule map.  Everything downstream (tensor products,
truncations, composition series, Grothendieck classes) builds on the
constructions in this module.

One rule, two marks: a module is marked full when its construction guarantees
all four axioms, and weak when it guarantees LLM and LML (then its report checks
only MLL); otherwise its axiom report is computed when asked.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .algebra import (LeibnizAlgebra, _memo, expand_product, first_llm_failure, first_pair,
                      mult_ops, sl2_module_matrices)
from .fields import Field
from .linalg import (LinAlgError, Matrix, RowReducer, Subspace, induced_on_quotient,
                     induced_on_subspace, invert, nullspace)


class BimoduleError(ValueError):
    pass


@dataclass(frozen=True)
class AxiomReport:
    llm: bool
    lml: bool
    mll: bool
    zd: bool
    first_failure: tuple | None  # (axiom name, i, j)

    @property
    def kind(self) -> str:
        if self.llm and self.lml:
            return "full" if self.mll else "weak"
        return "left-only" if self.llm else "none"


FULL = AxiomReport(llm=True, lml=True, mll=True, zd=True, first_failure=None)
_WEAK = "weak by construction"  # the mark, in ``_derived``, of a module with LLM and LML


class Bimodule:
    """Matrix realization of a two-sided module; immutable after creation.

    ``actions`` holds the left actions ``lam``, then the right ones ``rho``.
    ``dim`` is required only when the algebra has no basis, so that there
    are no action matrices to read it off.  Derived data (the hash, the
    axiom report, the kernels and invariants, the pair data of ``tensor``
    with this module on the left) is computed once and memoized on it.
    """

    def __init__(self, algebra: LeibnizAlgebra, lam, rho, dim: int | None = None):
        self._derived: dict = {}
        self.algebra = algebra
        self.lam, self.rho = tuple(lam), tuple(rho)
        if len(self.lam) != algebra.dim or len(self.rho) != algebra.dim:
            raise BimoduleError("one action matrix per algebra basis element")
        self.actions = self.lam + self.rho
        shapes = {m.shape for m in self.actions}
        if len(shapes) > 1:
            raise BimoduleError("action matrices of unequal sizes")
        if not shapes:
            if dim is None:
                raise BimoduleError("a bimodule over a 0-dimensional algebra needs its dim")
            shapes = {(dim, dim)}
        rows, cols = shapes.pop()
        if rows != cols:
            raise BimoduleError("action matrices must be square")
        if dim is not None and dim != rows:
            raise BimoduleError(f"declared dim {dim} disagrees with {rows} x {rows} matrices")
        self.dim = rows

    def with_actions(self, actions: list, dim: int) -> "Bimodule":
        """The bimodule of dimension ``dim`` over the same algebra with the
        action family ``actions``, ordered as ``self.actions`` is."""
        n = self.algebra.dim
        return Bimodule(self.algebra, actions[:n], actions[n:], dim)

    @property
    def field(self) -> Field:
        return self.algebra.field

    @_memo
    def sums(self) -> tuple:
        """The operators lam_i + rho_i, m -> x_i.m + m.x_i, one per basis
        element: their columns span M0, and ZD and the MLL defect read them."""
        return tuple(map(Matrix.__add__, self.lam, self.rho))

    @_memo
    def m0_and_mr(self) -> tuple:
        """M0 and MR (see ``kernels_and_invariants``), once per module."""
        return tuple(column_span(self.field, ms, self.dim) for ms in (self.sums(), self.rho))

    @_memo
    def axiom_report(self) -> AxiomReport:
        return axiom_report(self)

    @property
    def kind(self) -> str:
        return self.axiom_report().kind

    def is_weak(self) -> bool:
        """Weak or full; a module marked weak answers without a report."""
        return _WEAK in self._derived or self.kind in ("weak", "full")

    def is_full(self) -> bool:
        return self.kind == "full"

    def __eq__(self, other):
        return (
            isinstance(other, Bimodule)
            and self.algebra == other.algebra
            and self.dim == other.dim
            and self.actions == other.actions
        )

    @_memo
    def __hash__(self):
        return hash((self.algebra, self.dim, self.actions))

    def __repr__(self):
        return f"Bimodule(dim {self.dim} over {self.algebra!r})"

    def to_json(self) -> str:
        f = self.field
        fmt = lambda m: [[f.format(x) for x in row] for row in m.rows]
        doc = {
            "algebra": json.loads(self.algebra.to_json()),
            "dim": self.dim,
            "lambda": [fmt(m) for m in self.lam],
            "rho": [fmt(m) for m in self.rho],
        }
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str, algebra: LeibnizAlgebra | None = None) -> "Bimodule":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise BimoduleError(f"bimodule JSON parse error: {exc}") from None
        if not isinstance(doc, dict):
            raise BimoduleError("bimodule document must be a JSON object")
        if algebra is None:
            alg_doc = doc.get("algebra")
            if alg_doc is None:
                raise BimoduleError("bimodule document carries no algebra")
            if isinstance(alg_doc, str):
                # the algebra entry may be a path to an algebra file
                try:
                    with open(alg_doc, encoding="utf-8") as fh:
                        algebra = LeibnizAlgebra.from_json(fh.read())
                except OSError as exc:
                    raise BimoduleError(
                        f"cannot read referenced algebra {alg_doc!r}: {exc}"
                    ) from None
            else:
                algebra = LeibnizAlgebra.from_json(json.dumps(alg_doc))
        f = algebra.field
        try:
            parse = lambda rows: Matrix(f, [[f.parse(x) for x in r] for r in rows])
            lam = [parse(m) for m in doc["lambda"]]
            rho = [parse(m) for m in doc["rho"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise BimoduleError(f"bad bimodule document: {exc}") from None
        dim = doc.get("dim")
        if type(dim) is not int or dim < 0:
            raise BimoduleError("bimodule dim must be a non-negative integer")
        return Bimodule(algebra, lam, rho, dim)


def intertwines(src: Bimodule, dst: Bimodule, matrix: Matrix) -> bool:
    """Is ``matrix`` (dst.dim x src.dim) a bimodule map src -> dst, that is,
    does it carry each action on src to the matching action on dst?"""
    return src.algebra == dst.algebra and all(
        matrix * s == t * matrix for s, t in zip(src.actions, dst.actions))


def axiom_report(mod: Bimodule) -> AxiomReport:
    """One scan of the basis pairs per axiom; an axiom holds when its scan
    finds no failing pair, and the first failure is the earliest failing
    pair, in the order LLM, LML, MLL, ZD on a tie.  A module marked weak
    scans only ZD, reported as MLL: given LML at a pair, MLL and ZD hold or
    fail there together.  Otherwise each product is formed once: ZD at (i, j)
    is the sum of the products rho_j lam_i of LML and rho_j rho_i of MLL."""
    alg, rho, n = mod.algebra, mod.rho, mod.algebra.dim
    if mod._derived.get(_WEAK):
        sums = mod.sums()
        zd = first_pair(n, lambda i, j: (rho[j] * sums[i]).is_zero())
        return FULL if zd is None else AxiomReport(True, True, False, False, ("mll", *zd))
    acts = mod.actions  # lam_i is acts[i], rho_j is acts[n + j]
    prod = functools.cache(lambda a, b: acts[a] * acts[b])
    rho_ij = functools.cache(lambda i, j: expand_product(alg, i, j, rho))
    pairs = (
        first_llm_failure(alg, mod.lam),
        first_pair(n, lambda i, j: rho_ij(i, j) == prod(i, n + j) - prod(n + j, i)),
        first_pair(n, lambda i, j: prod(n + j, n + i) == rho_ij(i, j) - prod(i, n + j)),
        first_pair(n, lambda i, j: (prod(n + j, i) + prod(n + j, n + i)).is_zero()),
    )
    first = min(((pair, k) for k, pair in enumerate(pairs) if pair is not None), default=None)
    failure = None if first is None else (("llm", "lml", "mll", "zd")[first[1]], *first[0])
    return AxiomReport(*(pair is None for pair in pairs), first_failure=failure)


def classify_flags(mod: Bimodule) -> dict:
    symmetric = all(r == -l for l, r in zip(mod.lam, mod.rho))
    anti = all(r.is_zero() for r in mod.rho)
    return {
        "symmetric": symmetric,
        "anti_symmetric": anti,
        "trivial": symmetric and anti,
    }


# ---------------------------------------------------------------------------
# constructions


def _check_llm(mod: Bimodule) -> Bimodule:
    """``mod`` (rho = -lam or 0) marked full once LLM holds: LML and MLL at a
    pair then read LLM there or 0 = 0, and ZD reads 0 = 0."""
    pair = first_llm_failure(mod.algebra, mod.lam)
    if pair is not None:
        raise BimoduleError(f"left action is not a module: LLM fails at {('llm', *pair)}")
    return _inherit(mod)


def symmetrize(algebra: LeibnizAlgebra, lam, dim: int | None = None) -> Bimodule:
    """Left module made into a bimodule with m.x = -x.m; always full."""
    return _check_llm(Bimodule(algebra, lam, [-m for m in lam], dim))


def antisymmetrize(algebra: LeibnizAlgebra, lam, dim: int | None = None) -> Bimodule:
    """Left module made into a bimodule with trivial right action; always full."""
    z = [Matrix.zeros(algebra.field, m.nrows, m.nrows) for m in lam]
    return _check_llm(Bimodule(algebra, lam, z, dim))


@_memo
def sl2_irreducible(algebra: LeibnizAlgebra, n: int, side: str) -> Bimodule:
    """The irreducible sl2 module L(n) as a "sym" or "anti" bimodule over an
    algebra whose first three basis elements act as (e, h, f); any further
    basis elements (those of hemi-sl2-L1) act by zero.  Built once per
    (n, side) and kept on the algebra; a Bimodule never changes."""
    f = algebra.field
    mats = sl2_module_matrices(f, n) + [Matrix.zeros(f, n + 1, n + 1)] * (algebra.dim - 3)
    return (symmetrize if side == "sym" else antisymmetrize)(algebra, mats, n + 1)


def adjoint(algebra: LeibnizAlgebra) -> Bimodule:
    left, right = mult_ops(algebra)
    return Bimodule(algebra, left, right, algebra.dim)


def trivial_bimodule(algebra: LeibnizAlgebra, dim: int = 1) -> Bimodule:
    if dim < 0:
        raise BimoduleError(f"bimodule dimension must be non-negative, not {dim}")
    z = [Matrix.zeros(algebra.field, dim, dim) for _ in range(algebra.dim)]
    return _inherit(Bimodule(algebra, z, z, dim))


def one_dim_bimodule(algebra: LeibnizAlgebra, left_values, right_values) -> Bimodule:
    """Dim-1 bimodule from two linear functionals; axioms reported, not assumed."""
    f = algebra.field
    if len(left_values) != algebra.dim or len(right_values) != algebra.dim:
        raise BimoduleError("one functional value per basis element")
    lam = [Matrix(f, [[f.coerce(a)]]) for a in left_values]
    rho = [Matrix(f, [[f.coerce(c)]]) for c in right_values]
    return Bimodule(algebra, lam, rho, 1)


def _mark_weak(mod: Bimodule) -> Bimodule:
    mod._derived[_WEAK] = True
    return mod


def _inherit(child: Bimodule, *inputs: Bimodule) -> Bimodule:
    """``child`` marked full when every input's computed report is full
    (with no inputs or no dimension, full by construction), and else marked
    weak when every input is marked weak or has a computed weak report."""
    key = Bimodule.axiom_report.key()
    reports = [m._derived.get(key) for m in inputs]
    if not child.dim or all(r == FULL for r in reports):
        child._derived[key] = FULL
    elif all(m._derived.get(_WEAK) or r and r.llm and r.lml for m, r in zip(inputs, reports)):
        _mark_weak(child)
    return child


def conjugate(mod: Bimodule, p: Matrix) -> Bimodule:
    """Isomorphic copy through an invertible change of basis."""
    pinv = invert(p)
    return _inherit(mod.with_actions([p * m * pinv for m in mod.actions], mod.dim), mod)


def direct_sum(a: Bimodule, b: Bimodule) -> Bimodule:
    if a.algebra != b.algebra:
        raise BimoduleError("direct sum needs a common algebra")
    f = a.field
    m, n = a.dim, b.dim

    def block(x: Matrix, y: Matrix) -> Matrix:
        z = f.zero()
        rows = [list(r) + [z] * n for r in x.rows]
        rows += [[z] * m + list(r) for r in y.rows]
        return Matrix(f, rows)

    return _inherit(a.with_actions(list(map(block, a.actions, b.actions)), m + n), a, b)


# ---------------------------------------------------------------------------
# kernels, invariants, sub- and quotient structure


def column_span(field: Field, mats, dim: int) -> Subspace:
    return Subspace.span(field, dim, [c for m in mats for c in m.columns()], _native=True)


def is_invariant(mod: Bimodule, space: Subspace, side: str = "both") -> bool:
    mats = {"left": mod.lam, "right": mod.rho, "both": mod.actions}[side]
    red = space.reducer()
    return all(
        red.contains(m.apply(v), _native=True) for m in mats for v in space.basis_vectors()
    )


@_memo
def kernels_and_invariants(mod: Bimodule) -> dict:
    """The four canonical subspaces.

    M0   span{x.m + m.x}     (anti-symmetric kernel)
    MR   span{m.x}           (right translates)
    LM   span{x.m}           (left translates)
    Minv {m : m.x = 0 all x} (right invariants)

    Their invariance is not assumed: ``is_invariant`` checks it where it is
    wanted, since for merely weak bimodules M0 can fail to be right-invariant.
    """
    if not mod.is_weak():
        raise BimoduleError("kernel data needs at least a weak bimodule")
    f, d = mod.field, mod.dim
    m0, mr = mod.m0_and_mr()
    return {
        "M0": m0,
        "MR": mr,
        "LM": column_span(f, mod.lam, d),
        "Minv": nullspace(Matrix._of(f, [row for r in mod.rho for row in r.rows], d)),
    }


def subbimodule_closure(mod: Bimodule, seeds) -> Subspace:
    """Smallest subspace containing the seeds and stable under every
    action matrix; each sweep adds to one row reducer the images of the
    vectors that the last sweep added, until none is new; once F^n is
    spanned, no further image is formed."""
    f = mod.field
    for s in seeds:
        if len(s) != mod.dim:
            raise BimoduleError("seed length mismatch")
    red = RowReducer(f, mod.dim)
    red.insert_all(seeds)
    frontier = red.rows
    while frontier:
        images = (m.apply(v) for v in frontier for m in mod.actions if red.rank < mod.dim)
        frontier = [w for w in images if red.insert(w, _native=True)]
    return Subspace(f, mod.dim, red.basis(), tuple(red.pivots))


def restrict(mod: Bimodule, space: Subspace) -> Bimodule:
    """Induced actions on an invariant subspace, in its RREF basis."""
    return _induced(mod, space, induced_on_subspace, space.dim)


def quotient(mod: Bimodule, space: Subspace) -> Bimodule:
    """Induced actions on M/S, in the complement coordinates of S."""
    return _induced(mod, space, induced_on_quotient, mod.dim - space.dim)


def _induced(mod: Bimodule, space: Subspace, induce, dim: int) -> Bimodule:
    try:
        actions = induce(mod.actions, space)
    except LinAlgError as exc:
        raise BimoduleError(str(exc)) from None
    return _inherit(mod.with_actions(actions, dim), mod)


# ---------------------------------------------------------------------------
# hom spaces and duals


def hom_bimodule(src: Bimodule, dst: Bimodule) -> Bimodule:
    """Linear maps src -> dst as dst (x) src*, flattened row-major as
    dst.dim x src.dim matrices: (x.f) = lam' f - f lam, (f.x) = rho' f - f rho."""
    from .tensor import tensor_bimodule

    return tensor_bimodule(dst, dual(src))


def dual(mod: Bimodule) -> Bimodule:
    """Linear dual of a weak bimodule: actions -lam^T and -rho^T in the dual
    basis, marked weak (transposing reverses each product, and the signs
    restore LLM and LML)."""
    if not mod.is_weak():
        raise BimoduleError("dual needs a weak bimodule")
    return _mark_weak(mod.with_actions([-m.transpose() for m in mod.actions], mod.dim))


def duality_morphism_checks(mod: Bimodule) -> dict:
    """Evaluation/coevaluation contractions and the double-dual map.

    Each flag records whether the canonical linear map intertwines both
    actions (with tensor-product actions on the paired spaces); the two
    scalar identities ev . coev' = dim = ev' . coev are checked exactly.
    """
    from .tensor import tensor_bimodule

    if not mod.is_weak():
        raise BimoduleError("duality checks need a weak bimodule")
    f = mod.field
    d = mod.dim
    if d == 0:
        names = ("ev", "ev_prime", "coev", "coev_prime", "double_dual", "contraction_scalar")
        return dict.fromkeys(names, True)
    dmod = dual(mod)
    triv = trivial_bimodule(mod.algebra, 1)
    z, o = f.zero(), f.one()

    # pairing index conventions: dual basis is the standard basis of F^d
    ev_rows = [[o if (a % d) == (a // d) else z for a in range(d * d)]]
    ev = Matrix(f, ev_rows)  # on M* (x) M and equally on M (x) M*
    coev_col = Matrix(f, [[o] if (a % d) == (a // d) else [z] for a in range(d * d)])

    maps = {
        "ev": (tensor_bimodule(dmod, mod), triv, ev),
        "ev_prime": (tensor_bimodule(mod, dmod), triv, ev),
        "coev": (triv, tensor_bimodule(mod, dmod), coev_col),
        "coev_prime": (triv, tensor_bimodule(dmod, mod), coev_col),
        "double_dual": (mod, dual(dmod), Matrix.identity(f, d)),
    }
    checks = {name: intertwines(*m) for name, m in maps.items()}
    scalar = (ev * coev_col).rows[0][0]
    checks["contraction_scalar"] = scalar == f.from_int(d)
    return checks
