"""Finite-dimensional left Leibniz algebras via structure constants.

An algebra is given by a table ``c[i][j][k]`` meaning
``b_i b_j = sum_k c[i][j][k] b_k``.  Validity means every left
multiplication operator is a derivation: x(yz) = (xy)z + y(xz) on all
basis triples, or equivalently L_{xy} = [L_x, L_y] on all basis pairs.
Products are kernel operations on the structure matrix T (column i*n + j is
b_i b_j): uv = T(u (x) v), and P is a homomorphism when P T = T' (P (x) P).

Builders cover the worked examples used everywhere downstream: the
2-dimensional solvable algebra ``A`` (h e = e), the 2-dimensional
nilpotent algebra ``N`` (e e = c), the 1-dimensional Lie algebra ``e``,
abelian algebras, sl2 with basis (e, h, f), and hemi-semidirect products
g x M with product (x, m)(y, n) = (xy, x.n).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .fields import Field, FieldError
from .linalg import Matrix, Subspace, commutator, induced_on_quotient, vec_add


class AlgebraError(ValueError):
    pass


def _memo(fn):
    """Compute ``fn(obj, *args)`` once per immutable instance and equal
    hashable arguments, kept in its ``_derived`` dict under the function's
    name and the arguments; an error is not kept.  The body is read from
    ``__wrapped__`` at call time, so a test can count computations, and
    ``once.key(*args)`` is the key, for reading or seeding a kept value."""
    name = fn.__name__

    @functools.wraps(fn)
    def once(obj, *args):
        key = once.key(*args)
        try:
            return obj._derived[key]
        except KeyError:
            pass
        value = obj._derived[key] = once.__wrapped__(obj, *args)
        return value

    once.key = lambda *args: (name, *args) if args else name
    return once


class LeibnizAlgebra:
    """Structure-constant algebra over an exact field; immutable.

    Derived data (the structure matrix, left Leibniz check, Leibniz kernel,
    Lie quotient, product span and series) is computed once and memoized on it.
    """

    def __init__(self, field: Field, basis_names, table, check: bool = True):
        self._derived: dict = {}
        self.field = field
        self.dim = len(basis_names)
        self.basis_names = tuple(basis_names)
        self.table = tuple(
            tuple(tuple(field.coerce(c) for c in cell) for cell in row)
            for row in table
        )
        n = self.dim
        if len(self.table) != n or any(
            len(row) != n or any(len(cell) != n for cell in row)
            for row in self.table
        ):
            raise AlgebraError("structure constant table shape mismatch")
        if check:
            failure = validate_left_leibniz(self)
            if failure is not None:
                i, j, k = failure
                names = self.basis_names
                raise AlgebraError(
                    "left Leibniz identity fails at "
                    f"({names[i]}, {names[j]}, {names[k]})"
                )

    @_memo
    def structure(self) -> Matrix:
        """The n x n^2 structure matrix T: column i*n + j is b_i b_j, so
        that uv = T(u (x) v) in the package's tensor basis."""
        cells = [cell for row in self.table for cell in row]
        return Matrix._of(self.field, zip(*cells), len(cells))

    def product(self, u, v) -> tuple:
        """Bilinear product of coordinate vectors: T(u (x) v)."""
        f = self.field
        return self.structure().apply(Matrix(f, [u]).kron(Matrix(f, [v])).rows[0])

    def __eq__(self, other):
        return (
            isinstance(other, LeibnizAlgebra)
            and self.field == other.field
            and self.basis_names == other.basis_names
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.field, self.basis_names, self.table))

    def __repr__(self):
        return f"LeibnizAlgebra(dim {self.dim}, basis {list(self.basis_names)})"

    def to_json(self) -> str:
        f = self.field
        doc = {
            "field": f.spec,
            "dim": self.dim,
            "basis": list(self.basis_names),
            "table": [
                [[f.format(c) for c in cell] for cell in row] for row in self.table
            ],
        }
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "LeibnizAlgebra":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise AlgebraError(f"algebra JSON parse error: {exc}") from None
        if not isinstance(doc, dict):
            raise AlgebraError("algebra document must be a JSON object")
        try:
            field = Field.from_spec(doc["field"])
            names = doc["basis"]
            table = [
                [[field.parse(c) for c in cell] for cell in row]
                for row in doc["table"]
            ]
        except (KeyError, TypeError, ValueError, FieldError) as exc:
            raise AlgebraError(f"bad algebra document: {exc}") from None
        if type(doc.get("dim")) is not int or doc["dim"] != len(names):
            raise AlgebraError("declared dim disagrees with basis length")
        return LeibnizAlgebra(field, names, table)


@dataclass
class AlgebraMorphismData:
    """A linear map between algebras, with an optional multiplicativity check."""

    domain: LeibnizAlgebra
    codomain: LeibnizAlgebra
    matrix: Matrix  # codomain.dim x domain.dim

    def is_homomorphism(self) -> bool:
        """P(b_i b_j) = P(b_i) P(b_j) for all i, j: P T = T' (P (x) P)."""
        p = self.matrix
        return p * self.domain.structure() == self.codomain.structure() * p.kron(p)


def first_pair(n: int, holds):
    """The first pair (i, j) of basis indices below n, row by row, at which
    ``holds(i, j)`` is false, or None."""
    return next(((i, j) for i in range(n) for j in range(n) if not holds(i, j)), None)


def first_llm_failure(alg: LeibnizAlgebra, mats):
    """The first basis pair (i, j), row by row, at which the left Leibniz
    identity mats[b_i b_j] = [mats[i], mats[j]] fails, or None; for left
    multiplications, a left action (LLM) or a Lie module.  [i, i] is 0, and
    each product mats[i] mats[j], i != j, serves both [i, j] and [j, i]."""
    product = functools.cache(lambda i, j: mats[i] * mats[j])

    def holds(i: int, j: int) -> bool:
        lhs = expand_product(alg, i, j, mats)
        return lhs.is_zero() if i == j else lhs == product(i, j) - product(j, i)

    return first_pair(alg.dim, holds)


@_memo
def validate_left_leibniz(alg: LeibnizAlgebra):
    """None if valid; else the first failing (i, j, k).

    Checked as the operator identity L_{b_i b_j} = [L_i, L_j] per basis
    pair (i, j); k is the first coordinate where the identity breaks.
    """
    left, _ = mult_ops(alg)
    pair = first_llm_failure(alg, left)
    if pair is None:
        return None
    i, j = pair
    diff = expand_product(alg, i, j, left) - commutator(left[i], left[j])
    return (i, j, next(k for k, row in enumerate(diff.rows) if any(row)))


def expand_product(alg: LeibnizAlgebra, i: int, j: int, mats) -> Matrix:
    """sum_k c_ij^k mats[k]: the operator of b_i b_j in the representation
    that sends each basis element b_k to ``mats[k]``."""
    terms = [m if c == 1 else m.scale(c) for c, m in zip(alg.table[i][j], mats) if c]
    if not terms:
        return Matrix.zeros(alg.field, *mats[0].shape)
    return sum(terms[1:], terms[0])


def mult_ops(alg: LeibnizAlgebra):
    """Left and right multiplication matrices: (L_i)_{k,j} = c_{ij}^k."""
    f = alg.field
    n = alg.dim
    left = [
        Matrix(f, [[alg.table[i][j][k] for j in range(n)] for k in range(n)])
        for i in range(n)
    ]
    right = [
        Matrix(f, [[alg.table[j][i][k] for j in range(n)] for k in range(n)])
        for i in range(n)
    ]
    return left, right


@_memo
def leibniz_kernel(alg: LeibnizAlgebra) -> Subspace:
    """Span of all squares; computed from the polarized generating set
    {b_i^2} and {b_i b_j + b_j b_i : i < j}, which equals span{x^2} over
    every field including characteristic 2."""
    f = alg.field
    gens = []
    for i in range(alg.dim):
        gens.append(alg.table[i][i])
        for j in range(i + 1, alg.dim):
            gens.append(vec_add(f, alg.table[i][j], alg.table[j][i]))
    return Subspace.span(f, alg.dim, gens)


def _quotient_table(alg: LeibnizAlgebra, ideal: Subspace):
    """Structure constants induced on the complement coordinates: the
    columns of each left multiplication induced on the quotient by an ideal."""
    keep = ideal.complement_coords()
    left, _ = mult_ops(alg)
    names = [alg.basis_names[j] for j in keep]
    return names, [m.columns() for m in induced_on_quotient([left[i] for i in keep], ideal)]


def is_lie(alg: LeibnizAlgebra):
    """None if antisymmetric + Jacobi hold, else a witness.  Given
    antisymmetry, Jacobi x(yz) + y(zx) + z(xy) = 0 is the left Leibniz
    identity, so the "jacobi" witness is that of ``validate_left_leibniz``."""
    t = alg.table
    pair = first_pair(alg.dim, lambda i, j: not any(vec_add(alg.field, t[i][j], t[j][i])))
    if pair is not None:
        return ("antisymmetry", *pair)
    failure = validate_left_leibniz(alg)
    return None if failure is None else ("jacobi", *failure)


@_memo
def canonical_lie(alg: LeibnizAlgebra):
    """Quotient by the span of squares, plus the projection morphism."""
    f = alg.field
    ker = leibniz_kernel(alg)
    names, table = _quotient_table(alg, ker)
    quot = LeibnizAlgebra(f, names, table)
    witness = is_lie(quot)
    if witness is not None:
        raise AlgebraError(f"quotient failed Lie check: {witness}")
    return quot, AlgebraMorphismData(alg, quot, ker.quotient_map())


@_memo
def products_and_series(alg: LeibnizAlgebra) -> dict:
    """Product span, perfectness, derived series dims, solvability."""
    f = alg.field
    n = alg.dim

    def span_of_products(sub: Subspace) -> Subspace:
        """The columns of T (B (x) B)^T, the products of the basis rows of B."""
        products = alg.structure() * sub.basis.kron(sub.basis).transpose()
        return Subspace.span(f, n, products.columns(), _native=True)

    product_span = span_of_products(Subspace.full(f, n))
    last, dims = product_span, [n, product_span.dim]
    while last.dim not in (0, dims[-2]):
        last = span_of_products(last)
        dims.append(last.dim)
    return {
        "product_span": product_span,
        "is_perfect": product_span.dim == n,
        "derived_series_dims": dims,
        "is_solvable": dims[-1] == 0,
    }


# ---------------------------------------------------------------------------
# builders


def make_e(field: Field) -> LeibnizAlgebra:
    """One-dimensional (abelian) Lie algebra."""
    return make_abelian(field, 1, names=["e"])


def make_abelian(field: Field, n: int, names=None) -> LeibnizAlgebra:
    if n < 0:
        raise AlgebraError(f"abelian dimension must be non-negative, not {n}")
    if names is None:
        names = [f"a{i}" for i in range(n)] if n != 1 else ["e"]
    z = field.zero()
    table = [[[z] * n for _ in range(n)] for _ in range(n)]
    return LeibnizAlgebra(field, names, table)


def make_A(field: Field) -> LeibnizAlgebra:
    """Solvable 2-dimensional algebra with h e = e and all other products 0."""
    z, o = field.zero(), field.one()
    table = [
        [[z, z], [z, o]],  # h*h = 0, h*e = e
        [[z, z], [z, z]],  # e*h = 0, e*e = 0
    ]
    return LeibnizAlgebra(field, ["h", "e"], table)


def make_N(field: Field) -> LeibnizAlgebra:
    """Nilpotent 2-dimensional algebra with e e = c and all other products 0."""
    z, o = field.zero(), field.one()
    table = [
        [[z, o], [z, z]],  # e*e = c, e*c = 0
        [[z, z], [z, z]],  # c*e = 0, c*c = 0
    ]
    return LeibnizAlgebra(field, ["e", "c"], table)


def make_sl2(field: Field) -> LeibnizAlgebra:
    """sl2 with basis (e, h, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    if field.characteristic == 2:
        raise AlgebraError("sl2 is degenerate in characteristic 2")
    f = field
    z, one, two = f.zero(), f.one(), f.from_int(2)
    neg1, n2 = f.from_int(-1), f.from_int(-2)
    # order: e=0, h=1, f=2
    table = [
        [[z, z, z], [n2, z, z], [z, one, z]],  # e*e, e*h=-2e, e*f=h
        [[two, z, z], [z, z, z], [z, z, n2]],  # h*e=2e, h*h, h*f=-2f
        [[z, neg1, z], [z, z, two], [z, z, z]],  # f*e=-h, f*h=2f, f*f
    ]
    return LeibnizAlgebra(f, ["e", "h", "f"], table)


def sl2_module_matrices(field: Field, n: int):
    """Action of (e, h, f) on the (n+1)-dimensional irreducible sl2 module.

    Basis v_0..v_n with h v_k = (n-2k) v_k, e v_k = (n-k+1) v_{k-1},
    f v_k = (k+1) v_{k+1}.
    """
    if n < 0:
        raise AlgebraError(f"highest weight must be non-negative, not {n}")
    f = field
    d = n + 1
    z = f.zero()
    e_rows = [[z] * d for _ in range(d)]
    h_rows = [[z] * d for _ in range(d)]
    f_rows = [[z] * d for _ in range(d)]
    for k in range(d):
        h_rows[k][k] = f.from_int(n - 2 * k)
        if k >= 1:
            e_rows[k - 1][k] = f.from_int(n - k + 1)
        if k + 1 < d:
            f_rows[k + 1][k] = f.from_int(k + 1)
    return [Matrix(f, e_rows), Matrix(f, h_rows), Matrix(f, f_rows)]


def hemi_semidirect(g: LeibnizAlgebra, action: list[Matrix], module_names=None):
    """Leibniz algebra on g + M with (x, m)(y, n) = (xy, x.n).

    Requires g to be a Lie algebra and ``action`` to be a Lie module:
    action_{xy} = [action_x, action_y] on basis pairs.
    """
    f = g.field
    if is_lie(g) is not None:
        raise AlgebraError("hemi-semidirect product needs a Lie algebra on the left")
    if len(action) != g.dim:
        raise AlgebraError("one action matrix per algebra basis element required")
    m = action[0].nrows
    for a in action:
        if a.shape != (m, m):
            raise AlgebraError("action matrices must be square of equal size")
    pair = first_llm_failure(g, action)
    if pair is not None:
        i, j = pair
        raise AlgebraError(
            "action matrices do not define a Lie module "
            f"(pair {g.basis_names[i]}, {g.basis_names[j]})"
        )
    if module_names is None:
        module_names = [f"m{i}" for i in range(m)]
    n = g.dim + m
    z = f.zero()
    table = [[[z] * n for _ in range(n)] for _ in range(n)]
    for i in range(g.dim):
        for j in range(g.dim):
            for k in range(g.dim):
                table[i][j][k] = g.table[i][j][k]
        for j in range(m):
            col = action[i].col(j)
            for k in range(m):
                table[i][g.dim + j][g.dim + k] = col[k]
    return LeibnizAlgebra(f, list(g.basis_names) + list(module_names), table)


def make_S(field: Field) -> LeibnizAlgebra:
    """Simple 5-dimensional Leibniz algebra: sl2 acting hemi-semidirectly
    on its 2-dimensional irreducible module."""
    return hemi_semidirect(
        make_sl2(field), sl2_module_matrices(field, 1), module_names=["u", "v"]
    )


BUILDERS = {
    "A": make_A,
    "N": make_N,
    "e": make_e,
    "sl2": make_sl2,
    "hemi-sl2-L1": make_S,
}


# the largest n of a builtin ``abelian:<n>``, whose table has n^3 entries
MAX_ABELIAN_DIM = 32


def builtin_algebra(name: str, field: Field) -> LeibnizAlgebra:
    """Resolve a builder name: A | N | e | sl2 | hemi-sl2-L1 | abelian:<n>,
    with n at most MAX_ABELIAN_DIM."""
    if name in BUILDERS:
        return BUILDERS[name](field)
    if name.startswith("abelian:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise AlgebraError(f"bad abelian dimension in {name!r}") from None
        if n > MAX_ABELIAN_DIM:
            raise AlgebraError(f"abelian dimension {n} is over the cap {MAX_ABELIAN_DIM}")
        return make_abelian(field, n)
    raise AlgebraError(f"unknown builtin algebra {name!r}")
