"""Exact integer matrices and the Smith normal form.

Everything here works over plain Python ints, so there is no overflow and
no floating point anywhere.  Matrices are immutable; operations return new
objects.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def kron(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Rows of the Kronecker product of two matrices given by their rows.

    Row (i, k) is row i of a times row k of b, entry (j, l) being
    a[i][j] * b[k][l]; pairs run in row-major order.  So a linear map
    X -> A X B on matrices flattened row by row is kron(A, transpose(B)).
    """
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


@dataclass(frozen=True, init=False, repr=False)
class IntMatrix:
    """An immutable integer matrix.

    Stored as a tuple of row tuples.  `rows` and `cols` are counts.
    A matrix may have zero rows or zero columns; the missing dimension
    must then be passed explicitly.
    """

    # hand-written slots keep matrices small; slots=True would raise TypeError,
    # not FrozenInstanceError, for an unknown name on Python 3.10 and 3.11
    __slots__ = ("rows", "cols", "data")
    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __init__(self, data: Iterable[Sequence[int]], cols: int | None = None):
        rows = tuple([tuple(row) for row in data])
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise ValueError("ragged rows")
                # exact ints only: a bool, float or str entry is refused,
                # never rounded
                if not {int}.issuperset(map(type, r)):
                    raise TypeError("matrix entries must be integers")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", rows)

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(identity_rows(n), cols=n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: int | None = None) -> IntMatrix:
        if columns:
            rows = len(columns[0])
        elif rows is None:
            raise ValueError("need row count for a matrix with no columns")
        return cls([[col[i] for col in columns] for i in range(rows)], cols=len(columns))

    @classmethod
    def hstack(cls, left: IntMatrix, right: IntMatrix) -> IntMatrix:
        if left.rows != right.rows:
            raise ValueError("row counts differ")
        if not right.cols:  # matrices are immutable, so left can be shared
            return left
        return cls([lr + rr for lr, rr in zip(left.data, right.data)],
                   cols=left.cols + right.cols) if left.rows else \
            cls([], cols=left.cols + right.cols)

    @classmethod
    def vstack(cls, top: IntMatrix, bottom: IntMatrix) -> IntMatrix:
        if top.cols != bottom.cols:
            raise ValueError("column counts differ")
        return cls(list(top.data) + list(bottom.data), cols=top.cols)

    # -- basic access -------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.data]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: IntMatrix) -> IntMatrix:
        self._same_shape(other)
        return IntMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.data, other.data)], cols=self.cols)

    def __neg__(self) -> IntMatrix:
        return IntMatrix([[-a for a in r] for r in self.data], cols=self.cols)

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = list(zip(*other.data)) if other.data else []
        if not ot:
            return IntMatrix.zeros(self.rows, other.cols)
        out = [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.data]
        return IntMatrix(out, cols=other.cols) if out else IntMatrix([], cols=other.cols)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * v for a, v in zip(row, vec)) for row in self.data)

    def power(self, k: int) -> IntMatrix:
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        out = IntMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.data for a in r)

    def is_nonnegative(self) -> bool:
        return all(a >= 0 for r in self.data for a in r)

    def _same_shape(self, other: IntMatrix) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __repr__(self) -> str:
        if not self.data:
            return f"IntMatrix([], cols={self.cols})"
        return "IntMatrix(" + repr(self.to_lists()) + ")"

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular U, V and diagonal D with U @ M @ V == D.

    Diagonal entries are nonnegative and each divides the next.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n))

    def kernel(self) -> list[tuple[int, ...]]:
        """A basis (as column vectors) of the integer kernel of M: the
        columns of V whose diagonal entry is zero or missing."""
        r = min(self.D.rows, self.D.cols)
        return [self.V.column(j) for j in range(self.V.cols)
                if j >= r or self.D[j, j] == 0]

    def solve(self, b: Sequence[int]) -> tuple[int, ...] | None:
        """One integer x with M x = b, or None: U b = D (V^-1 x), entry by entry."""
        z = self.U.apply(b)
        diag = self.diagonal()
        # past the diagonal, and against a zero on it, U b must vanish
        if any(z[len(diag):]) or any(zi % d if d else zi for zi, d in zip(z, diag)):
            return None
        y = [zi // d if d else 0 for zi, d in zip(z, diag)]
        return self.V.apply(y + [0] * (self.D.cols - len(diag)))


def snf(M: IntMatrix) -> SmithDecomposition:
    """Smith normal form over the integers.

    Pivots are chosen as the smallest nonzero entry of the remaining
    submatrix, which keeps intermediate entries modest in practice.
    """
    m, n = M.rows, M.cols
    a = M.to_lists()
    u = identity_rows(m)
    v = identity_rows(n)

    def row_sub(i: int, k: int, q: int) -> None:
        # row i -= q * row k, mirrored on U
        ai, ak = a[i], a[k]
        for j in range(n):
            ai[j] -= q * ak[j]
        ui, uk = u[i], u[k]
        for j in range(m):
            ui[j] -= q * uk[j]

    def col_sub(j: int, k: int, q: int) -> None:
        # col j -= q * col k, mirrored on V
        for i in range(m):
            a[i][j] -= q * a[i][k]
        for i in range(n):
            v[i][j] -= q * v[i][k]

    t = 0
    bound = min(m, n)
    while t < bound:
        pi = pj = -1
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pi, pj = i, j
        if best is None:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            for j in range(n):
                a[t][j] = -a[t][j]
            for j in range(m):
                u[t][j] = -u[t][j]
        pivot = a[t][t]
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // pivot
                if q:
                    row_sub(i, t, q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // pivot
                if q:
                    col_sub(j, t, q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot now divides its row and column; force divisibility of the rest
        clean = True
        for i in range(t + 1, m):
            row = a[i]
            if any(x % pivot for x in row[t + 1:]):
                # fold row i into row t so the next pass shrinks the pivot to a gcd
                row_sub(t, i, -1)
                clean = False
                break
        if clean:
            t += 1
    return SmithDecomposition(IntMatrix(u, cols=m), IntMatrix(a, cols=n), IntMatrix(v, cols=n))


def unimodular_inverse(M: IntMatrix) -> IntMatrix:
    """Inverse of a matrix with determinant +-1, exactly."""
    dec = snf(M)
    if dec.D != IntMatrix.identity(M.rows) or M.rows != M.cols:
        raise ValueError("matrix is not unimodular")
    return dec.V @ dec.U


def kernel_basis(M: IntMatrix) -> list[tuple[int, ...]]:
    """A basis (as column vectors) of the integer kernel of M."""
    return snf(M).kernel()


def solve(M: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution x of M x = b, or None if there is none."""
    return snf(M).solve(b)


def preimage_lattice(F: IntMatrix, R: IntMatrix) -> list[tuple[int, ...]]:
    """Spanning vectors of the lattice {v : F v lies in the column span of R}.

    F and R must have the same number of rows.  When the columns of R are
    independent the vectors are a basis: they project a basis of the
    kernel of [F | R], and a kernel vector (0, w) has R w = 0, so w = 0.
    """
    if F.rows != R.rows:
        raise ValueError("row counts differ")
    return [col[:F.cols] for col in kernel_basis(IntMatrix.hstack(F, R))]
