"""Exact linear algebra over Q and F_p: dense matrices, sparse row reduction.

Everything here is pure and value-semantic: matrices are tuples of tuples
of scalars, subspaces are row-reduced basis matrices, and the row reducer
keeps ``{column: scalar}`` rows and, from the first row it stores, an index
of the rows that hold each column.  Reduced row echelon form is the
canonical representative of a subspace, so two spanning sets of the same
space always produce equal ``Subspace`` objects.  Quotients are read off it
too: ``Subspace.quotient_map`` projects F^n onto F^n / S in the complement
(non-pivot) coordinates of S, and its rows span the annihilator of S, which
is how ``nullspace`` finds a right kernel; the maps a family of matrices
induces on an invariant S and on F^n / S share one reducer of S, which also
checks invariance.  There is one characteristic polynomial, valid in every
characteristic; the eigenvalues in the field are its roots and the
determinant is read off it.

The kernel contract: entries are the field's native scalars, one per
value (over Q an ``int`` when integral and otherwise a ``Fraction`` with
denominator > 1; over F_p an ``int`` in ``[0, p)``), and every operation is
one loop of Python operators that skips zero operands (tested by
truthiness) and ends with the one normalisation ``_mod`` per entry it
writes: ``% p`` in characteristic p, and over Q an integral ``Fraction``
becomes its numerator.  Only the public boundary coerces:
``Matrix(field, rows)``, ``Matrix.scale`` and the vectors given to
``RowReducer``; matrices and rows the kernel builds itself skip it.

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


def _mod(p: int, xs: list) -> list:
    """The kernel's one normalisation: ``% p`` in characteristic p; over Q
    (p = 0), each integral ``Fraction`` becomes its numerator."""
    if p:
        return [x % p for x in xs]
    return [x if type(x) is int or x.denominator != 1 else x.numerator for x in xs]


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

    @classmethod
    def _of(cls, field: Field, rows: Iterable[Sequence], ncols: int) -> "Matrix":
        """The kernel's constructor: rows of native scalars, taken unchecked."""
        m = object.__new__(cls)
        m.field, m.rows, m.ncols = field, tuple(map(tuple, rows)), ncols
        m.nrows = len(m.rows)
        return m

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        return Matrix._of(field, [(field.zero(),) * ncols] * nrows, ncols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix._of(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

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
        self._same_shape(other)
        p = self.field.characteristic
        rows = [_mod(p, [a + b if a and b else a or b for a, b in zip(r1, r2)])
                for r1, r2 in zip(self.rows, other.rows)]
        return Matrix._of(self.field, rows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        p = self.field.characteristic
        rows = [_mod(p, [a - b if b else a for a, b in zip(r1, r2)])
                for r1, r2 in zip(self.rows, other.rows)]
        return Matrix._of(self.field, rows, self.ncols)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        f = self.field
        c, p, zero = f.coerce(c), f.characteristic, f.zero()
        rows = [_mod(p, [c * a if a else zero for a in r]) for r in self.rows]
        return Matrix._of(f, rows, self.ncols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise LinAlgError(f"shape mismatch {self.shape} * {other.shape}")
        p, zero, cols = self.field.characteristic, self.field.zero(), other.ncols
        sparse = [[(j, b) for j, b in enumerate(r) if b] for r in other.rows]
        out = []
        for r in self.rows:
            row = [zero] * cols
            for a, brow in zip(r, sparse):
                if a:
                    for j, b in brow:
                        row[j] += a * b
            out.append(_mod(p, row))
        return Matrix._of(self.field, out, cols)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix times column vector (given and returned as a flat tuple)."""
        if len(vec) != self.ncols:
            raise LinAlgError("vector length mismatch")
        p, zero = self.field.characteristic, self.field.zero()
        sparse = [(k, x) for k, x in enumerate(vec) if x]
        out = []
        for r in self.rows:
            s = zero
            for k, x in sparse:
                a = r[k]
                if a:
                    s += a * x
            out.append(s)
        return tuple(_mod(p, out))

    def transpose(self) -> "Matrix":
        return Matrix._of(self.field, self.columns(), self.nrows)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product in the left-factor-major basis ordering."""
        p, zero = self.field.characteristic, self.field.zero()
        zeros = [zero] * other.ncols
        out = []
        for arow in self.rows:
            for brow in other.rows:
                row = []
                for a in arow:
                    row += [a * b if b else zero for b in brow] if a else zeros
                out.append(_mod(p, row))
        return Matrix._of(self.field, out, self.ncols * other.ncols)

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[tuple]:
        return list(zip(*self.rows)) if self.rows else [()] * self.ncols

    def trace(self):
        t = sum((self.rows[i][i] for i in range(min(self.shape))), self.field.zero())
        return _mod(self.field.characteristic, [t])[0]

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

    A column index maps each non-pivot column to the pivots of the rows
    holding it (no empty sets), so a new pivot is cleared from just those;
    ``Subspace.reducer`` and ``copy`` set rows directly and leave it to the
    first store; ``drop_index`` frees it from a reducer that is complete.
    """

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.pivots: list[int] = []  # ascending
        self._rows: dict[int, dict] = {}  # pivot -> row
        self._cols: dict[int, set] | None = {}  # column -> pivots of rows holding it; None: unbuilt

    def _sparse(self, vec, native: bool = False) -> dict:
        """A fresh ``{column: nonzero scalar}`` copy of ``vec``; a ``native``
        row holds scalars that the kernel made and skips ``coerce``."""
        coerce = self.field.coerce
        if isinstance(vec, dict):
            if vec and not (0 <= min(vec) and max(vec) < self.width):
                raise LinAlgError(f"column out of range in dimension {self.width}")
            items = vec.items() if native else zip(vec, map(coerce, vec.values()))
            return {j: x for j, x in items if x}
        if len(vec) != self.width:
            raise LinAlgError(f"vector of length {len(vec)} in dimension {self.width}")
        return {j: x for j, x in enumerate(vec if native else map(coerce, vec)) if x}

    def copy(self) -> "RowReducer":
        """An independent reducer of the same span, its column index unbuilt."""
        red = RowReducer(self.field, self.width)
        red.pivots, red._rows = list(self.pivots), {q: dict(r) for q, r in self._rows.items()}
        red.drop_index()
        return red

    def drop_index(self) -> None:
        """Free the column index; a later store rebuilds it from the rows."""
        self._cols = None

    def _dense(self, v: dict) -> list:
        out = [self.field.zero()] * self.width
        for j, x in v.items():
            out[j] = x
        return out

    def _eliminate(self, v: dict, rows: dict | None = None) -> dict:
        """Subtract from the sparse vector ``v``, in place, each of ``rows``
        (by default the stored rows) whose pivot column it hits, once."""
        p = self.field.characteristic
        rows = self._rows if rows is None else rows
        for pivot in [j for j in v if j in rows]:
            c = -v[pivot]
            for j, x in rows[pivot].items():
                y = v[j] + c * x if j in v else c * x
                if p:
                    y %= p
                elif type(y) is not int and y.denominator == 1:
                    y = y.numerator
                if y:
                    v[j] = y
                else:
                    del v[j]
        return v

    def _store(self, pivot: int, row: dict) -> None:
        """Add a reduced ``row`` with a 1 at ``pivot`` and clear that column in
        the rows indexed under it, which change only at the columns of ``row``."""
        cols = self._cols
        if cols is None:
            cols = self._cols = {}
            for q, r in self._rows.items():
                for j in r.keys() - {q}:
                    cols.setdefault(j, set()).add(q)
        for q in cols.pop(pivot, ()):
            r = self._eliminate(self._rows[q], {pivot: row})
            for j in row:
                if j in r:
                    cols.setdefault(j, set()).add(q)
                elif q in cols.get(j, ()):
                    cols[j].remove(q)
                    if not cols[j]:
                        del cols[j]
        for j in row.keys() - {pivot}:
            cols.setdefault(j, set()).add(pivot)
        self._rows[pivot] = row
        bisect.insort(self.pivots, pivot)

    def reduce(self, vec, _native: bool = False):
        """Residual of ``vec`` after eliminating all current pivots."""
        v = self._eliminate(self._sparse(vec, _native))
        return v if isinstance(vec, dict) else self._dense(v)

    def contains(self, vec, _native: bool = False) -> bool:
        return not self._eliminate(self._sparse(vec, _native))

    def insert(self, vec, _native: bool = False) -> bool:
        """Add ``vec`` to the span; True if the rank grew.  Once the rows
        span the whole width, ``vec`` is only checked, not eliminated."""
        v = self._sparse(vec, _native)
        if self.rank == self.width or not self._eliminate(v):
            return False
        pivot = min(v)
        c, p = self.field.inv(v[pivot]), self.field.characteristic
        self._store(pivot, dict(zip(v, _mod(p, [c * x for x in v.values()]))))
        return True

    def insert_all(self, vecs: Iterable, _native: bool = False) -> None:
        for v in vecs:
            self.insert(v, _native)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list[list]:
        """The rows as dense lists, in pivot order."""
        return [self._dense(self._rows[p]) for p in self.pivots]

    def basis(self) -> Matrix:
        return Matrix._of(self.field, self.rows, self.width)


class Subspace:
    """A subspace of F^n, stored as its canonical RREF basis matrix."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: Field, ambient_dim: int, basis: Matrix, pivots: tuple):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @staticmethod
    def span(field: Field, ambient_dim: int, vectors: Iterable, _native: bool = False) -> "Subspace":
        red = RowReducer(field, ambient_dim)
        red.insert_all(vectors, _native)
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
        red._cols = None
        return red

    def contains_subspace(self, other: "Subspace") -> bool:
        red = self.reducer()
        return all(red.contains(v, _native=True) for v in other.basis.rows)

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
        red.insert_all(other.basis.rows, _native=True)
        return Subspace(self.field, self.ambient_dim, red.basis(), tuple(red.pivots))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: reduce [[U U],[V 0]]; the rows with zero left half,
        those pivoting at n or later, give the intersection in their right
        half, already in reduced echelon form."""
        self._check_ambient(other)
        f, n = self.field, self.ambient_dim
        z = f.zero()
        red = RowReducer(f, 2 * n)
        red.insert_all((r + r for r in self.basis.rows), _native=True)
        red.insert_all((r + (z,) * n for r in other.basis.rows), _native=True)
        k = bisect.bisect_left(red.pivots, n)
        rows = [row[n:] for row in red.rows[k:]]
        return Subspace(f, n, Matrix._of(f, rows, n), tuple(p - n for p in red.pivots[k:]))

    def complement_coords(self) -> list[int]:
        """Indices of standard basis vectors spanning a complement."""
        return [j for j in range(self.ambient_dim) if j not in self.pivots]

    def quotient_map(self) -> Matrix:
        """The projection F^n -> F^n / self in complement coordinates, read
        off the RREF basis B: column j is the unit vector of j for a
        complement coordinate j, and minus row i of B at the complement
        coordinates when j is the pivot of row i.  So P B^T = 0, and the
        rows of P span the annihilator of ``self``."""
        f, n = self.field, self.ambient_dim
        zero, one, rows = f.zero(), f.one(), []
        for c in self.complement_coords():
            row = [zero] * n
            row[c] = one
            for pivot, b in zip(self.pivots, self.basis.rows):
                row[pivot] = -b[c]
            rows.append(_mod(f.characteristic, row))
        return Matrix._of(f, rows, n)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise LinAlgError("ambient space mismatch")


def nullspace(m: Matrix) -> Subspace:
    """Right kernel {v : M v = 0}: the span of the rows of the quotient
    map by the row space of M."""
    rowspace = Subspace.span(m.field, m.ncols, m.rows, _native=True)
    return Subspace.span(m.field, m.ncols, rowspace.quotient_map().rows, _native=True)


def rank(m: Matrix) -> int:
    red = RowReducer(m.field, m.ncols)
    red.insert_all(m.rows, _native=True)
    return red.rank


def induced_on_subspace(mats: Sequence[Matrix], space: Subspace) -> list[Matrix]:
    """The matrices a family induces on an invariant subspace, in its RREF
    basis: an image of a basis row has its coordinates at the pivots."""
    _, images = _invariant_images(mats, space)
    return [Matrix._of(space.field, [[w[p] for w in ws] for p in space.pivots], space.dim)
            for ws in images]


def induced_on_quotient(mats: Sequence[Matrix], space: Subspace) -> list[Matrix]:
    """The matrices a family induces on F^n / space, in the complement
    coordinates of ``space``: the reduced complement columns."""
    red, keep = _invariant_images(mats, space)[0], space.complement_coords()
    cols = ([red.reduce(m.col(j), _native=True) for j in keep] for m in mats)
    return [Matrix._of(space.field, [[c[i] for c in cs] for i in keep], len(keep)) for cs in cols]


def _invariant_images(mats: Sequence[Matrix], space: Subspace) -> tuple[RowReducer, list]:
    """The reducer of ``space`` and, per matrix, the images of its basis
    rows, each checked to lie in ``space`` by that one reducer.  F^n, whose
    basis rows are the unit vectors, is invariant: its images are columns."""
    red, whole = space.reducer(), space.dim == space.ambient_dim
    images = [m.columns() if whole else [m.apply(v) for v in space.basis.rows] for m in mats]
    if not whole and not all(red.contains(w, _native=True) for ws in images for w in ws):
        raise LinAlgError("subspace is not invariant under every matrix")
    return red, images


def invert(m: Matrix) -> Matrix:
    """Inverse via Gauss-Jordan on [M | I]; raises if singular."""
    f = m.field
    if m.nrows != m.ncols:
        raise LinAlgError("only square matrices invert")
    n = m.nrows
    red = RowReducer(f, 2 * n)
    ident = Matrix.identity(f, n)
    for i in range(n):
        red.insert(m.rows[i] + ident.rows[i], _native=True)
    if red.pivots[:n] != list(range(n)) or red.rank != n:
        raise LinAlgError("matrix is singular")
    return Matrix._of(f, [row[n:] for row in red.rows], n)


def determinant(m: Matrix):
    """(-1)^n times the constant coefficient of ``charpoly(m)``."""
    c0 = charpoly(m)[0]
    return _mod(m.field.characteristic, [-c0])[0] if m.nrows % 2 else c0


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
    n, p, zero, one = m.nrows, f.characteristic, f.zero(), f.one()
    if n != m.ncols:
        raise LinAlgError("characteristic polynomial of non-square matrix")
    h = [list(r) for r in m.rows]
    for col in range(n - 2):
        r = col + 1
        piv = next((i for i in range(r, n) if h[i][col]), None)
        if piv is None:
            continue
        h[piv], h[r] = h[r], h[piv]
        for row in h:
            row[piv], row[r] = row[r], row[piv]
        inv = f.inv(h[r][col])
        for i in range(r + 1, n):
            (u,) = _mod(p, [h[i][col] * inv])
            if u:  # row_i -= u row_r, then column_r += u column_i
                h[i] = _mod(p, [x - u * y if y else x for x, y in zip(h[i], h[r])])
                column = _mod(p, [row[r] + u * row[i] if row[i] else row[r] for row in h])
                for row, x in zip(h, column):
                    row[r] = x
    polys = [[one]]
    for k in range(n):
        q = [zero] + polys[k]
        prod = one  # h_{i+1,i} ... h_{k,k-1}
        for i in range(k, -1, -1):
            c = prod * h[i][k]
            if c:
                for j, x in enumerate(polys[i]):
                    if x:
                        q[j] -= c * x
            (prod,) = _mod(p, [prod * h[i][i - 1]]) if i else (zero,)
            if not prod:
                break
        polys.append(_mod(p, q))
    return polys[n]


def eigenvalues_in_field(m: Matrix) -> list:
    """Eigenvalues of M that lie in the ground field, without multiplicity:
    the roots of ``charpoly(m)`` in the field.

    Over F_p every residue is a candidate, in ascending order; over Q the
    candidates are 0 and then the p/q of the rational root theorem, with
    p at most B * q for the largest absolute row sum B of M, which bounds
    every eigenvalue.  Each candidate p/q is tested by one integer Horner
    evaluation of q^deg * chi(p/q), which is a root exactly when it is 0
    (over Q) or divisible by the characteristic (over F_p).  The roots are
    native scalars.
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
    return _mod(char, out)


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
    """Sum of two equally long vectors of native scalars."""
    return (Matrix._of(field, [u], len(u)) + Matrix._of(field, [v], len(v))).rows[0]


def unit_vector(field: Field, n: int, i: int) -> tuple:
    return tuple(field.one() if j == i else field.zero() for j in range(n))
