"""Exact linear algebra over Q and F_p: dense matrices, sparse row reduction.

Everything here is pure and value-semantic: matrices are tuples of tuples
of scalars, subspaces are row-reduced basis matrices, and the row reducer
keeps ``{column: scalar}`` rows.  Reduced row echelon form is the
canonical representative of a subspace, so two spanning sets of the same
space always produce equal ``Subspace`` objects.  There is one
characteristic polynomial, valid in every characteristic; the eigenvalues
in the field are its roots and the determinant is read off it.

The fixed tensor basis convention used throughout the package: the basis
vector ``u_i (x) w_j`` of ``U (x) W`` has flat index ``i*dim(W) + j``
(left factor major).  ``Matrix.kron`` realizes operators in exactly these
coordinates, i.e. ``A.kron(B) @ (u (x) w) == (A u) (x) (B w)``.
"""

from __future__ import annotations

import bisect
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
    """Incremental reduced row echelon form on sparse rows.

    Each row is a ``{column: nonzero scalar}`` dict kept under its pivot,
    its smallest column.  Rows stay fully reduced (each pivot entry is 1 and
    the only nonzero in its column), so ``basis()`` is canonical for the
    span regardless of insertion order, and reducing a vector subtracts
    each row whose pivot it hits once.  Vectors are dense sequences or
    ``{column: scalar}`` dicts; ``reduce`` answers in the form given.
    """

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.pivots: list[int] = []  # ascending
        self._rows: dict[int, dict] = {}  # pivot -> row

    def _sparse(self, vec) -> dict:
        """A fresh ``{column: nonzero scalar}`` copy of ``vec``."""
        coerce = self.field.coerce
        if isinstance(vec, dict):
            if any(not 0 <= j < self.width for j in vec):
                raise LinAlgError(f"column out of range in dimension {self.width}")
            return {j: x for j, x in zip(vec, map(coerce, vec.values())) if x}
        if len(vec) != self.width:
            raise LinAlgError(f"vector of length {len(vec)} in dimension {self.width}")
        return {j: x for j, x in enumerate(map(coerce, vec)) if x}

    def _dense(self, v: dict) -> list:
        out = [self.field.zero()] * self.width
        for j, x in v.items():
            out[j] = x
        return out

    def _eliminate(self, v: dict, rows: dict | None = None) -> dict:
        """Subtract from the sparse vector ``v``, in place, each of ``rows``
        (by default the stored rows) whose pivot column it hits, once."""
        f = self.field
        sub, mul, zero = f.sub, f.mul, f.zero()
        rows = self._rows if rows is None else rows
        for p in [j for j in v if j in rows]:
            c = v[p]
            for j, x in rows[p].items():
                y = sub(v.get(j, zero), mul(c, x))
                if y:
                    v[j] = y
                else:
                    del v[j]
        return v

    def _store(self, pivot: int, row: dict) -> None:
        """Add a reduced ``row`` with a 1 at ``pivot`` and clear that column
        in the other rows; only those with a smaller pivot can reach it."""
        at = bisect.bisect(self.pivots, pivot)
        for p in self.pivots[:at]:
            if pivot in self._rows[p]:
                self._eliminate(self._rows[p], {pivot: row})
        self._rows[pivot] = row
        self.pivots.insert(at, pivot)

    def reduce(self, vec):
        """Residual of ``vec`` after eliminating all current pivots."""
        v = self._eliminate(self._sparse(vec))
        return v if isinstance(vec, dict) else self._dense(v)

    def coords(self, vec) -> list | None:
        """Coefficients of ``vec`` over the current basis, or None."""
        v = self._sparse(vec)
        cs = [v.get(p, self.field.zero()) for p in self.pivots]
        return None if self._eliminate(v) else cs

    def contains(self, vec) -> bool:
        return not self._eliminate(self._sparse(vec))

    def insert(self, vec) -> bool:
        """Add ``vec`` to the span; True if the rank grew."""
        f = self.field
        v = self._eliminate(self._sparse(vec))
        if not v:
            return False
        pivot = min(v)
        c = f.inv(v[pivot])
        self._store(pivot, {j: f.mul(c, x) for j, x in v.items()})
        return True

    def insert_all(self, vecs: Iterable) -> None:
        for v in vecs:
            self.insert(v)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list[list]:
        """The rows as dense lists, in pivot order."""
        return [self._dense(self._rows[p]) for p in self.pivots]

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
        red.insert_all(vectors)
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
        red.pivots = list(self.pivots)
        red._rows = {
            p: {j: x for j, x in enumerate(r) if x}
            for p, r in zip(self.pivots, self.basis.rows)
        }
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
        """Zassenhaus: reduce [[U U],[V 0]]; the rows with zero left half,
        those pivoting at n or later, give the intersection in their right
        half, already in reduced echelon form."""
        self._check_ambient(other)
        f, n = self.field, self.ambient_dim
        z = f.zero()
        red = RowReducer(f, 2 * n)
        red.insert_all(r + r for r in self.basis.rows)
        red.insert_all(r + (z,) * n for r in other.basis.rows)
        k = bisect.bisect_left(red.pivots, n)
        rows = [row[n:] for row in red.rows[k:]]
        return Subspace(f, n, Matrix(f, rows, n), tuple(p - n for p in red.pivots[k:]))

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
    rows = list(zip(red.rows, red.pivots))
    basis = []
    one, zero = f.one(), f.zero()
    for j in free:
        v = [zero] * m.ncols
        v[j] = one
        for row, p in rows:
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
