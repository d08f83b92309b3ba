"""Composition series of bimodules at desk scale, plus an exhaustive oracle.

Strategies, tried in order on each piece:

1. weight peeling: a common eigenvector of all action matrices spans a
   1-dimensional subbimodule; peel it and recurse on the quotient.
   Certified (each step is an explicit invariant line).  The search
   diagonalises each matrix only on its largest invariant subspace inside
   the joint eigenspace of the matrices before it.
2. highest-weight decomposition when the algebra is the builtin sl2 (or
   its hemi-semidirect extension), the bimodule is full and the
   characteristic is 0 or exceeds the dimension: split off the
   anti-symmetric kernel, then peel irreducibles of the left module by
   maximal h-eigenvalue.  Certified.
3. generic spin: close probe vectors (basis vectors, eigenvectors and
   null vectors of seeded pseudorandom algebra elements, and transposed
   probes) under the actions and recurse on any proper invariant
   subspace found.  Over a small prime field the probe set is all lines,
   which makes a no-split outcome a proof of irreducibility; over Q a
   leaf of dimension > 1 stays uncertified.

``bruteforce_invariant_subspaces`` enumerates every subspace of F_p^m in
row-echelon normal form and filters for invariance; it is deliberately
independent of the spin machinery so the two can check each other.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .algebra import LeibnizAlgebra, make_S, make_sl2
from .bimodule import (
    Bimodule,
    BimoduleError,
    classify_flags,
    is_invariant,
    kernels_and_invariants,
    quotient,
    restrict,
    sl2_irreducible,
    subbimodule_closure,
)
from .linalg import (
    Matrix,
    RowReducer,
    Subspace,
    eigenvalues_in_field,
    eigenspace,
    induced_on_quotient,
    induced_on_subspace,
    nullspace,
    unit_vector,
)

EXHAUSTIVE_LINE_LIMIT = 1500  # lines (p^d - 1)/(p - 1) worth spinning exhaustively


@dataclass(frozen=True)
class FactorInfo:
    dim: int
    symmetric: bool
    anti_symmetric: bool
    trivial: bool
    left_traces: tuple
    right_traces: tuple
    left_scalars: tuple | None  # populated for 1-dimensional factors
    right_scalars: tuple | None
    certified: bool

    @property
    def signature(self) -> tuple:
        return (
            self.dim,
            self.symmetric,
            self.anti_symmetric,
            self.left_traces,
            self.right_traces,
        )


@dataclass
class CompositionReport:
    factors: list
    strategy: str
    certified: bool

    def signature_multiset(self):
        return sorted(
            (f.signature for f in self.factors), key=lambda s: repr(s)
        )

    @property
    def dims(self):
        return [f.dim for f in self.factors]


def factor_info(mod: Bimodule, certified: bool) -> FactorInfo:
    flags = classify_flags(mod)
    scalars = None
    rscalars = None
    if mod.dim == 1:
        scalars = tuple(m.rows[0][0] for m in mod.lam)
        rscalars = tuple(m.rows[0][0] for m in mod.rho)
    return FactorInfo(
        dim=mod.dim,
        symmetric=flags["symmetric"],
        anti_symmetric=flags["anti_symmetric"],
        trivial=flags["trivial"],
        left_traces=tuple(m.trace() for m in mod.lam),
        right_traces=tuple(m.trace() for m in mod.rho),
        left_scalars=scalars,
        right_scalars=rscalars,
        certified=certified,
    )


# ---------------------------------------------------------------------------
# strategy 1: common eigenvectors


def common_eigenvector(mats, field, ambient: int):
    """A vector that is an eigenvector of every matrix, or None.

    Depth-first over the eigenvalues each matrix has in the ground field,
    intersecting eigenspaces as we go.  A nonzero joint intersection at
    the end is exactly a line of common eigenvectors.  Zero matrices are
    skipped, and a matrix is diagonalised only once the search reaches it,
    on the joint eigenspace found so far (``_eigenspaces_within``).
    """
    mats = [m for m in mats if not m.is_zero()]

    def search(space: Subspace, idx: int) -> Subspace | None:
        if space.dim == 0:
            return None
        if idx == len(mats):
            return space
        for espace in _eigenspaces_within(mats[idx], space):
            found = search(espace, idx + 1)
            if found is not None:
                return found
        return None

    space = search(Subspace.full(field, ambient), 0)
    return None if space is None else space.basis_vectors()[0]


def _eigenspaces_within(m: Matrix, space: Subspace):
    """The nonzero W ∩ E_mu(m) for W = ``space``, in the order of the
    eigenvalues mu.  An eigenvector of m in W spans an m-invariant line, so
    these are the eigenspaces of m on V, the largest m-invariant subspace
    of W, lifted back to F^n.  On W's basis rows b_i, m b_i = sum_j a_ji b_j
    + r_i with r_i reduced mod W; V, in W's coordinates, is the common kernel
    of the functionals c -> (sum_i c_i r_i)_s composed with every power of
    a.  On W = F^n, V is F^n and m is used as it is."""
    f, n, k = space.field, space.ambient_dim, space.dim
    if k == n:
        yield from (eigenspace(m, ev) for ev in eigenvalues_in_field(m))
        return
    red, images = space.reducer(), [m.apply(b) for b in space.basis.rows]
    a_t = Matrix._of(f, [[w[p] for p in space.pivots] for w in images], k)
    residues = zip(*(red.reduce(w, _native=True) for w in images))
    seen, todo = RowReducer(f, k), [r for r in residues if any(r)]
    while todo:  # the span of the functionals, closed under composing with a
        phi = todo.pop()
        if seen.insert(phi, _native=True):
            todo.append(a_t.apply(phi))
    if seen.rank == k:
        return
    inner = Subspace(f, k, seen.basis(), tuple(seen.pivots)).quotient_map()
    v = Subspace.span(f, k, inner.rows, _native=True)
    (on_v,) = induced_on_subspace([a_t.transpose()], v)
    w_t = space.basis.transpose()
    lift = Matrix._of(f, zip(*(w_t.apply(c) for c in v.basis.rows)), v.dim)
    for ev in eigenvalues_in_field(on_v):
        yield Subspace.span(f, n, map(lift.apply, eigenspace(on_v, ev).basis.rows), _native=True)


# ---------------------------------------------------------------------------
# strategy 2: sl2 highest-weight peeling


# a field has no ``_derived`` store, so this stays a process-wide cache
@functools.lru_cache(maxsize=16)
def _builtin_sl2_algebras(field) -> tuple:
    """The builtin sl2 and its hemi-semidirect extension, built once per
    field; both are immutable."""
    return make_sl2(field), make_S(field)


def sl2_triple_indices(alg: LeibnizAlgebra):
    """Indices of an (e, h, f) triple when the algebra is the builtin sl2
    or its hemi-semidirect extension; None otherwise."""
    f = alg.field
    if f.characteristic == 2:
        return None
    if alg in _builtin_sl2_algebras(f):
        return (0, 1, 2)
    return None


def _left_module_highest_weights(e: Matrix, h: Matrix, fmat: Matrix, field):
    """Highest weights of a finite-dimensional sl2 left module, by peeling
    the irreducible generated by a maximal-weight vector."""
    weights = []
    # a quotient's h-eigenvalues are among the module's, tried highest first
    eigs = eigenvalues_in_field(h)
    tops = [k for k in reversed(range(e.nrows)) if field.from_int(k) in eigs]
    while e.nrows > 0:
        d = e.nrows
        tops = [k for k in tops if k < d]
        while tops:
            top = eigenspace(h, field.from_int(tops[0]))
            if top.dim:
                break
            tops.pop(0)
        else:
            raise BimoduleError(
                "h-action has no non-negative integer eigenvalue: "
                "not an sl2 module over this field"
            )
        n = tops[0]
        v = top.basis_vectors()[0]
        chain = [v]
        for _ in range(n):
            chain.append(fmat.apply(chain[-1]))
        space = Subspace.span(field, d, chain)
        if space.dim != n + 1:
            raise BimoduleError("highest-weight string collapsed unexpectedly")
        weights.append(n)
        e, h, fmat = induced_on_quotient((e, h, fmat), space)
    return weights


def _sl2_chop(mod: Bimodule, triple) -> list:
    flags = classify_flags(mod)
    ei, hi, fi = triple
    if flags["symmetric"] or flags["anti_symmetric"]:
        weights = _left_module_highest_weights(
            mod.lam[ei], mod.lam[hi], mod.lam[fi], mod.field
        )
        side = "sym" if flags["symmetric"] else "anti"
        return [
            factor_info(sl2_irreducible(mod.algebra, n, side), certified=True)
            for n in weights
        ]
    kernel = kernels_and_invariants(mod)["M0"]
    anti_part = restrict(mod, kernel)
    sym_part = quotient(mod, kernel)
    return _sl2_chop(anti_part, triple) + _sl2_chop(sym_part, triple)


# ---------------------------------------------------------------------------
# strategy 3: spinning probe vectors


def _all_lines(field, dim: int):
    """One representative per 1-dimensional subspace of F_p^dim."""
    p = field.characteristic
    nonzero = list(range(p))
    for first in range(dim):
        # first nonzero coordinate normalized to 1
        tail_len = dim - first - 1
        for tail in itertools.product(nonzero, repeat=tail_len):
            yield (0,) * first + (1,) + tail


def _proper_spin(mod: Bimodule, vectors) -> Subspace | None:
    for v in vectors:
        if not any(v):
            continue
        space = subbimodule_closure(mod, [v])
        if 0 < space.dim < mod.dim:
            return space
    return None


def _random_elements(mod: Bimodule, rng: random.Random, count: int):
    mats = mod.actions
    out = []
    for _ in range(count):
        acc = Matrix.zeros(mod.field, mod.dim, mod.dim)
        for m in mats:
            c = rng.randint(-2, 2)
            if c:
                acc = acc + m.scale(mod.field.from_int(c))
        if rng.random() < 0.4 and len(mats) >= 2:
            a, b = rng.sample(mats, 2)
            acc = acc + a * b
        out.append(acc)
    return out


def _spin_chop(mod: Bimodule, rng: random.Random) -> list:
    field = mod.field
    d = mod.dim
    if d == 1:
        return [factor_info(mod, certified=True)]

    exhaustive = False
    probes = [unit_vector(field, d, i) for i in range(d)]
    p = field.characteristic
    if p > 0 and (p**d - 1) // (p - 1) <= EXHAUSTIVE_LINE_LIMIT:
        probes = list(_all_lines(field, d))
        exhaustive = True

    found = _proper_spin(mod, probes)

    if found is None and not exhaustive:
        extra = []
        for theta in _random_elements(mod, rng, 6):
            for ev in eigenvalues_in_field(theta):
                extra.extend(eigenspace(theta, ev).basis_vectors())
        found = _proper_spin(mod, extra)

    if found is None and not exhaustive:
        # look for invariant subspaces of the transposed actions; the
        # annihilator of such a subspace is invariant for the originals
        transposed = mod.with_actions([m.transpose() for m in mod.actions], mod.dim)
        tprobes = [unit_vector(field, d, i) for i in range(d)]
        tfound = _proper_spin(transposed, tprobes)
        if tfound is not None:
            found = nullspace(tfound.basis)

    if found is None:
        return [factor_info(mod, certified=exhaustive)]
    return _spin_chop(restrict(mod, found), rng) + _spin_chop(quotient(mod, found), rng)


# ---------------------------------------------------------------------------
# driver


def chop(mod: Bimodule, seed: int = 0) -> CompositionReport:
    """Composition factors of a bimodule, each with its certification flag.

    The series is certified when the input is full and every factor is;
    weak-but-not-full inputs are allowed but never certified.
    """
    full = mod.is_full()  # before any peeling, so that every piece inherits the report
    if not (full or mod.is_weak()):
        raise BimoduleError("chop needs at least a weak bimodule")
    rng = random.Random(seed)
    strategies = []

    def recurse(m: Bimodule) -> list:
        if m.dim == 0:
            return []
        vec = common_eigenvector(m.actions, m.field, m.dim)
        if vec is not None:
            if "weight" not in strategies:
                strategies.append("weight")
            line = Subspace.span(m.field, m.dim, [vec])
            return [factor_info(restrict(m, line), certified=True)] + recurse(quotient(m, line))
        triple = sl2_triple_indices(m.algebra)
        p = m.field.characteristic
        if triple is not None and m.is_full() and (p == 0 or p > m.dim):
            if "sl2" not in strategies:
                strategies.append("sl2")
            return _sl2_chop(m, triple)
        if "spin" not in strategies:
            strategies.append("spin")
        return _spin_chop(m, rng)

    factors = recurse(mod)
    if sum(f.dim for f in factors) != mod.dim:
        raise BimoduleError("factor dimensions fail to sum to the module dimension")
    return CompositionReport(
        factors=factors,
        strategy="+".join(strategies) if strategies else "trivial",
        certified=full and all(f.certified for f in factors),
    )


# ---------------------------------------------------------------------------
# the exhaustive oracle


# the largest prime of the exhaustive oracle
BRUTEFORCE_MAX_P = 7


def bruteforce_invariant_subspaces(mod: Bimodule, max_dim: int = 4) -> list[Subspace]:
    """All subspaces of F_p^m invariant under every action matrix, found
    by enumerating every subspace in echelon normal form.  Bounded on
    purpose, to p <= BRUTEFORCE_MAX_P and m <= max_dim: the count grows
    like p^(m^2/4)."""
    field = mod.field
    p = field.characteristic
    if p == 0:
        raise BimoduleError("subspace enumeration needs a prime field")
    if p > BRUTEFORCE_MAX_P or mod.dim > max_dim:
        raise BimoduleError(
            f"enumeration bounds exceeded (p <= {BRUTEFORCE_MAX_P}, dim <= {max_dim})"
        )
    d = mod.dim
    out = []
    for r in range(d + 1):
        for pivots in itertools.combinations(range(d), r):
            free_positions = [
                (i, j)
                for i in range(r)
                for j in range(d)
                if j > pivots[i] and j not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free_positions)):
                rows = [[field.zero()] * d for _ in range(r)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = field.one()
                for (i, j), val in zip(free_positions, values):
                    rows[i][j] = field.from_int(val)
                space = Subspace(field, d, Matrix(field, rows, d), pivots)
                if is_invariant(mod, space):
                    out.append(space)
    return out


def oracle_composition_factors(mod: Bimodule, lattice=None) -> list[FactorInfo]:
    """Composition factors read off a maximal chain in the lattice of
    invariant subspaces (any maximal chain works, by Jordan-Hoelder)."""
    if lattice is None:
        lattice = bruteforce_invariant_subspaces(mod)
    factors = []
    current = Subspace.zero(mod.field, mod.dim)
    while current.dim < mod.dim:
        step = min(
            (
                w
                for w in lattice
                if w.dim > current.dim and w.contains_subspace(current)
            ),
            key=lambda w: w.dim,
        )
        quot = quotient(mod, current)
        image = Subspace.span(
            mod.field, quot.dim, map(current.quotient_map().apply, step.basis.rows), _native=True
        )
        factors.append(factor_info(restrict(quot, image), certified=True))
        current = step
    return factors
