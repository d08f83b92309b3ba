"""Exact dense linear algebra over Q and F_p.

Everything here is pure and value-semantic: matrices are tuples of tuples
of scalars, subspaces are row-reduced basis matrices.  Reduced row echelon
form is the canonical representative of a subspace, so two spanning sets
of the same space always produce equal ``Subspace`` objects.  There is one
characteristic polynomial, valid in every characteristic; the eigenvalues
in the field are its roots and the determinant is read off it.

The fixed tensor basis convention used throughout the package: the basis
vector ``u_i (x) w_j`` of ``U (x) W`` has flat index ``i*dim(W) + j``
(left factor major).  ``Matrix.kron`` realizes operators in exactly these
coordinates, i.e. ``A.kron(B) @ (u (x) w) == (A u) (x) (B w)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence

from .fields import Field


class LinAlgError(ValueError):
    pass


class Matrix:
    """Immutable dense matrix over an exact field.

    ``ncols`` is needed only when there are no rows: a 0 x n matrix.
    """

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows: Iterable[Iterable], ncols: int | None = None):
        self.field = field
        self.rows = tuple(tuple(field.coerce(x) for x in r) for r in rows)
        self.nrows = len(self.rows)
        if ncols is None:
            ncols = len(self.rows[0]) if self.rows else 0
        self.ncols = ncols
        for r in self.rows:
            if len(r) != ncols:
                raise LinAlgError("ragged rows")

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, [[z] * ncols for _ in range(nrows)], ncols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_ints(field: Field, rows: Sequence[Sequence[int]]) -> "Matrix":
        return Matrix(field, [[field.from_int(x) for x in r] for r in rows])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.format(x) for x in row) for row in self.rows
        )
        return f"Matrix[{body}]"

    def __add__(self, other: "Matrix") -> "Matrix":
        f = self.field
        self._same_shape(other)
        return Matrix(
            f,
            [
                [f.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
            self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        f = self.field
        self._same_shape(other)
        return Matrix(
            f,
            [
                [f.sub(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
            self.ncols,
        )

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix(f, [[f.neg(a) for a in r] for r in self.rows], self.ncols)

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, [[f.mul(c, a) for a in r] for r in self.rows], self.ncols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        f = self.field
        if self.ncols != other.nrows:
            raise LinAlgError(f"shape mismatch {self.shape} * {other.shape}")
        cols = other.ncols
        zero = f.zero()
        out = []
        for r in self.rows:
            row = [zero] * cols
            for k, a in enumerate(r):
                if a == zero:
                    continue
                orow = other.rows[k]
                for j in range(cols):
                    b = orow[j]
                    if b != zero:
                        row[j] = f.add(row[j], f.mul(a, b))
            out.append(row)
        return Matrix(f, out, cols)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix times column vector (given and returned as a flat tuple)."""
        f = self.field
        if len(vec) != self.ncols:
            raise LinAlgError("vector length mismatch")
        zero = f.zero()
        out = []
        for r in self.rows:
            s = zero
            for a, x in zip(r, vec):
                if a != zero and x != zero:
                    s = f.add(s, f.mul(a, x))
            out.append(s)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.columns(), self.nrows)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product in the left-factor-major basis ordering."""
        f = self.field
        out = [
            [f.mul(a, b) for a in arow for b in brow]
            for arow in self.rows
            for brow in other.rows
        ]
        return Matrix(f, out, self.ncols * other.ncols)

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(x == z for r in self.rows for x in r)

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[tuple]:
        return [self.col(j) for j in range(self.ncols)]

    def trace(self):
        f = self.field
        t = f.zero()
        for i in range(min(self.nrows, self.ncols)):
            t = f.add(t, self.rows[i][i])
        return t

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def _same_shape(self, other: "Matrix"):
        if self.shape != other.shape:
            raise LinAlgError(f"shape mismatch {self.shape} vs {other.shape}")


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a * b - b * a


class RowReducer:
    """Incremental reduced row echelon form.

    Rows are kept fully reduced (each pivot is 1 and is the only nonzero
    entry in its column) and sorted by pivot, so ``basis()`` is canonical
    for the span regardless of insertion order.
    """

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def _eliminate(self, vec: Sequence, coeffs: list | None) -> list:
        """Residual of ``vec`` after eliminating all current pivots; the
        multiple of each basis row taken off is appended to ``coeffs``."""
        f = self.field
        zero = f.zero()
        v = [f.coerce(x) for x in vec]
        if len(v) != self.width:
            raise LinAlgError("vector length mismatch")
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if coeffs is not None:
                coeffs.append(c)
            if c != zero:
                for j in range(p, self.width):
                    if row[j] != zero:
                        v[j] = f.sub(v[j], f.mul(c, row[j]))
        return v

    def reduce(self, vec: Sequence) -> list:
        """Residual of ``vec`` after eliminating all current pivots."""
        return self._eliminate(vec, None)

    def coords(self, vec: Sequence) -> list | None:
        """Coefficients of ``vec`` over the current basis, or None."""
        cs = []
        residual = self._eliminate(vec, cs)
        zero = self.field.zero()
        return cs if all(x == zero for x in residual) else None

    def contains(self, vec: Sequence) -> bool:
        z = self.field.zero()
        return all(x == z for x in self.reduce(vec))

    def insert(self, vec: Sequence) -> bool:
        """Add ``vec`` to the span; True if the rank grew."""
        f = self.field
        zero = f.zero()
        v = self.reduce(vec)
        pivot = next((j for j, x in enumerate(v) if x != zero), None)
        if pivot is None:
            return False
        c = f.inv(v[pivot])
        v = [f.mul(c, x) for x in v]
        # clear the new pivot column in existing rows
        for row in self.rows:
            c = row[pivot]
            if c != zero:
                for j in range(pivot, self.width):
                    if v[j] != zero:
                        row[j] = f.sub(row[j], f.mul(c, v[j]))
        at = next(
            (k for k, p in enumerate(self.pivots) if p > pivot), len(self.pivots)
        )
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True

    def insert_all(self, vecs: Iterable[Sequence]) -> None:
        for v in vecs:
            self.insert(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self) -> Matrix:
        return Matrix(self.field, self.rows, self.width)


class Subspace:
    """A subspace of F^n, stored as its canonical RREF basis matrix."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: Field, ambient_dim: int, basis: Matrix, pivots: tuple):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @staticmethod
    def span(field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        red = RowReducer(field, ambient_dim)
        for v in vectors:
            if len(v) != ambient_dim:
                raise LinAlgError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
            red.insert(v)
        return Subspace(field, ambient_dim, red.basis(), tuple(red.pivots))

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace.span(field, ambient_dim, [])

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(
            field,
            ambient_dim,
            Matrix.identity(field, ambient_dim),
            tuple(range(ambient_dim)),
        )

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def basis_vectors(self) -> list[tuple]:
        return list(self.basis.rows)

    def reducer(self) -> RowReducer:
        red = RowReducer(self.field, self.ambient_dim)
        red.rows = [list(r) for r in self.basis.rows]
        red.pivots = list(self.pivots)
        return red

    def contains(self, vec: Sequence) -> bool:
        return self.reducer().contains(vec)

    def coordinates(self, vec: Sequence) -> list | None:
        """Coefficients over the RREF basis reconstructing ``vec``, or None."""
        return self.reducer().coords(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        red = self.reducer()
        return all(red.contains(v) for v in other.basis.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        red = self.reducer()
        red.insert_all(other.basis.rows)
        return Subspace(self.field, self.ambient_dim, red.basis(), tuple(red.pivots))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: reduce [[U U],[V 0]]; rows with zero left half give
        the intersection in the right half."""
        self._check_ambient(other)
        f, n = self.field, self.ambient_dim
        z = f.zero()
        red = RowReducer(f, 2 * n)
        for r in self.basis.rows:
            red.insert(list(r) + list(r))
        for r in other.basis.rows:
            red.insert(list(r) + [z] * n)
        out = [row[n:] for row in red.rows if all(x == z for x in row[:n])]
        return Subspace.span(f, n, out)

    def complement_coords(self) -> list[int]:
        """Indices of standard basis vectors spanning a complement."""
        return [j for j in range(self.ambient_dim) if j not in self.pivots]

    def project_to_quotient(self, vec: Sequence) -> tuple:
        """Coordinates of ``vec + self`` on the complement basis."""
        residual = self.reducer().reduce(vec)
        return tuple(residual[j] for j in self.complement_coords())

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise LinAlgError("ambient space mismatch")


def nullspace(m: Matrix) -> Subspace:
    """Right kernel {v : M v = 0}."""
    f = m.field
    red = RowReducer(f, m.ncols)
    red.insert_all(m.rows)
    pivots = set(red.pivots)
    free = [j for j in range(m.ncols) if j not in pivots]
    basis = []
    one, zero = f.one(), f.zero()
    for j in free:
        v = [zero] * m.ncols
        v[j] = one
        for row, p in zip(red.rows, red.pivots):
            v[p] = f.neg(row[j])
        basis.append(v)
    return Subspace.span(f, m.ncols, basis)


def rank(m: Matrix) -> int:
    red = RowReducer(m.field, m.ncols)
    red.insert_all(m.rows)
    return red.rank


def induced_on_quotient(m: Matrix, space: Subspace) -> Matrix:
    """The matrix ``m`` induces on F^n / space, in the complement
    coordinates of ``space``; ``space`` must be ``m``-invariant."""
    red = space.reducer()
    keep = space.complement_coords()
    cols = [red.reduce(m.col(j)) for j in keep]
    return Matrix(m.field, [[c[i] for c in cols] for i in keep], len(keep))


def invert(m: Matrix) -> Matrix:
    """Inverse via Gauss-Jordan on [M | I]; raises if singular."""
    f = m.field
    if m.nrows != m.ncols:
        raise LinAlgError("only square matrices invert")
    n = m.nrows
    red = RowReducer(f, 2 * n)
    ident = Matrix.identity(f, n)
    for i in range(n):
        red.insert(list(m.rows[i]) + list(ident.rows[i]))
    if red.pivots[:n] != list(range(n)) or red.rank != n:
        raise LinAlgError("matrix is singular")
    return Matrix(f, [row[n:] for row in red.rows])


def determinant(m: Matrix):
    """(-1)^n times the constant coefficient of ``charpoly(m)``."""
    c0 = charpoly(m)[0]
    return m.field.neg(c0) if m.nrows % 2 else c0


def charpoly(m: Matrix) -> list:
    """Coefficients [c_0, ..., c_n] of det(tI - M), c_n = 1, in every
    characteristic.

    M is reduced to upper Hessenberg form H by similarity; the polynomials
    p_k of the leading k x k blocks of H then follow the standard recurrence
    p_{k+1} = t p_k - sum_{i<=k} h_ik h_{i+1,i} ... h_{k,k-1} p_i, in O(n^3)
    field operations (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9).
    """
    f = m.field
    n = m.nrows
    if n != m.ncols:
        raise LinAlgError("characteristic polynomial of non-square matrix")
    zero = f.zero()
    h = [list(r) for r in m.rows]
    for col in range(n - 2):
        r = col + 1
        piv = next((i for i in range(r, n) if h[i][col] != zero), None)
        if piv is None:
            continue
        h[piv], h[r] = h[r], h[piv]
        for row in h:
            row[piv], row[r] = row[r], row[piv]
        inv = f.inv(h[r][col])
        for i in range(r + 1, n):
            u = f.mul(h[i][col], inv)
            if u != zero:  # row_i -= u row_r, then column_r += u column_i
                h[i] = [f.sub(x, f.mul(u, y)) for x, y in zip(h[i], h[r])]
                for row in h:
                    row[r] = f.add(row[r], f.mul(u, row[i]))
    polys = [[f.one()]]
    for k in range(n):
        p = [zero] + polys[k]
        prod = f.one()  # h_{i+1,i} ... h_{k,k-1}
        for i in range(k, -1, -1):
            c = f.mul(prod, h[i][k])
            if c != zero:
                for j, q in enumerate(polys[i]):
                    p[j] = f.sub(p[j], f.mul(c, q))
            prod = f.mul(prod, h[i][i - 1]) if i else zero
            if prod == zero:
                break
        polys.append(p)
    return polys[n]


def eigenvalues_in_field(m: Matrix) -> list:
    """Eigenvalues of M that lie in the ground field, without multiplicity:
    the roots of ``charpoly(m)`` in the field.

    Over F_p every residue is a candidate, in ascending order; over Q the
    candidates are 0 and then the p/q of the rational root theorem, with
    p at most B * q for the largest absolute row sum B of M, which bounds
    every eigenvalue.  Each candidate p/q is tested by one integer Horner
    evaluation of q^deg * chi(p/q), which is a root exactly when it is 0
    (over Q) or divisible by the characteristic (over F_p).
    """
    f = m.field
    char = f.characteristic
    coeffs = charpoly(m)  # lowest degree first
    if char:
        ints, candidates = coeffs, f.elements()
    else:
        den = lcm(*(c.denominator for c in coeffs))
        ints = [int(c * den) for c in coeffs]
        low = next(c for c in ints if c)  # value of chi(t) / t^k at t = 0
        bound = int(max((sum(map(abs, r)) for r in m.rows), default=0) * den)
        candidates = dict.fromkeys(
            Fraction(num, q)
            for p in [0, *_divisors(abs(low), bound)]
            for q in _divisors(den, den)
            for num in (p, -p)
        )
    out = []
    for root in candidates:
        num, q = root.numerator, root.denominator
        value, qk = 0, 1
        for c in reversed(ints):
            value = value * num + c * qk
            qk *= q
        if (value % char if char else value) == 0:
            out.append(root)
    return out


def _divisors(n: int, bound: int) -> list[int]:
    """The divisors of n that are at most bound, ascending, in
    O(min(sqrt(n), bound)) trial divisions."""
    if bound < isqrt(n):
        return [i for i in range(1, bound + 1) if n % i == 0]
    small = [i for i in range(1, isqrt(n) + 1) if n % i == 0]
    return sorted(d for d in set(small + [n // i for i in small]) if d <= bound)


def eigenspace(m: Matrix, eigenvalue) -> Subspace:
    return nullspace(m - Matrix.identity(m.field, m.nrows).scale(eigenvalue))


def vec_add(field: Field, u: Sequence, v: Sequence) -> tuple:
    return tuple(field.add(field.coerce(a), field.coerce(b)) for a, b in zip(u, v))


def vec_kron(field: Field, u: Sequence, v: Sequence) -> tuple:
    return tuple(
        field.mul(field.coerce(a), field.coerce(b)) for a in u for b in v
    )


def unit_vector(field: Field, n: int, i: int) -> tuple:
    return tuple(field.one() if j == i else field.zero() for j in range(n))
