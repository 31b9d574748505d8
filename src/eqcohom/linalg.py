"""Exact rational linear algebra: matrices, echelon forms, canonical subspaces.

Everything is built on fractions.Fraction, so all results are exact and no
tolerance appears anywhere. Subspaces are canonicalized by reduced row
echelon form, which makes equality and containment purely syntactic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Rat = Fraction


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational.

    A bool is not a rational, and "p/0" is not a number: the first raises
    TypeError and the second ValueError, which the JSON loaders report as
    input errors.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def rat_str(x: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def vec(values) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


class Mat:
    """Immutable dense matrix over the rationals, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_of_entries: Iterable[Iterable], cols: Optional[int] = None):
        """`cols` pins the width of a zero-row matrix, which the row data
        cannot convey."""
        data = tuple(tuple(rat(x) for x in row) for row in rows_of_entries)
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else (cols or 0)
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence]) -> "Mat":
        cols = [vec(c) for c in cols]
        n = len(cols[0]) if cols else 0
        return cls([[c[i] for c in cols] for i in range(n)], cols=len(cols))

    @classmethod
    def vstack(cls, mats: Sequence["Mat"]) -> "Mat":
        rows = []
        for m in mats:
            rows.extend(m.data)
        return cls(rows, cols=mats[0].cols if mats else 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"Mat({[[rat_str(x) for x in row] for row in self.data]})"

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.data)

    def transpose(self) -> "Mat":
        if self.rows == 0:
            return Mat.zeros(self.cols, 0)
        if self.cols == 0:
            return Mat.zeros(0, self.rows)
        return Mat(zip(*self.data))

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat(
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)
        )

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat(
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)
        )

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        if self.rows == 0 or other.cols == 0:
            return Mat.zeros(self.rows, other.cols)
        if self.cols == 0:
            return Mat.zeros(self.rows, other.cols)
        bt = list(zip(*other.data))
        return Mat(
            [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in bt]
            for row in self.data
        )

    def mulvec(self, v: Sequence) -> tuple[Fraction, ...]:
        v = vec(v)
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(
            sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in self.data
        )

    def rank(self) -> int:
        return len(rref(self)[1])

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def to_lists(self, as_str: bool = False) -> list[list]:
        if as_str:
            return [[rat_str(x) for x in row] for row in self.data]
        return [list(row) for row in self.data]


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot columns (deterministic)."""
    a = [list(row) for row in m.data]
    n_rows, n_cols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = None
        for i in range(r, n_rows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(n_rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return Mat(a, cols=n_cols), pivots


def solve(m: Mat, b: Sequence) -> Optional[tuple[Fraction, ...]]:
    """Particular solution of m x = b with free variables set to zero.

    Returns None when the system is inconsistent. The free-variables-zero
    convention makes the result deterministic.
    """
    b = vec(b)
    if len(b) != m.rows:
        raise ValueError("rhs length mismatch")
    aug = Mat([list(row) + [bi] for row, bi in zip(m.data, b)]) if m.rows else m
    if m.rows == 0:
        return (Fraction(0),) * m.cols
    red, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, c in enumerate(pivots):
        x[c] = red.data[r][m.cols]
    return tuple(x)


def inverse(m: Mat) -> Mat:
    """Exact inverse of a square invertible matrix (via rref of [m | I])."""
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    aug = Mat(
        [list(row) + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(m.data)]
    )
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Mat([row[n:] for row in red.data])


def kernel_basis(m: Mat) -> "Subspace":
    """Kernel of m as a canonical subspace of the column domain."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    vectors = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red.data[r][f]
        vectors.append(v)
    return Subspace(m.cols, vectors)


class Subspace:
    """Linear subspace in canonical form: RREF basis with no zero rows."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Iterable]):
        rows = [vec(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
        if rows:
            red, pivots = rref(Mat(rows, cols=ambient_dim))
            self.basis = Mat(red.data[: len(pivots)], cols=ambient_dim)
        else:
            self.basis = Mat.zeros(0, ambient_dim)
        self.ambient_dim = ambient_dim

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.identity(ambient_dim).data)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.basis.data

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def contains(self, v: Sequence) -> bool:
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        enlarged = Subspace(self.ambient_dim, list(self.basis.data) + [v])
        return enlarged.dim == self.dim

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        joined = Subspace(
            self.ambient_dim, list(other.basis.data) + list(self.basis.data)
        )
        return joined.dim == other.dim


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace(a.ambient_dim, list(a.basis.data) + list(b.basis.data))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked system [A^T | -B^T]."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    at = a.basis.transpose()
    bt = b.basis.transpose()
    stacked = Mat(
        [list(ra) + [-x for x in rb] for ra, rb in zip(at.data, bt.data)]
    )
    ker = kernel_basis(stacked)
    vectors = []
    for coeffs in ker.basis.data:
        alpha = coeffs[: a.dim]
        vectors.append(at.mulvec(alpha))
    return Subspace(a.ambient_dim, vectors)


def column_space(m: Mat) -> Subspace:
    return Subspace(m.rows, m.transpose().data)


def quotient_dim(a: Subspace, b: Subspace) -> int:
    """dim a/b for nested subspaces b <= a."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if not b.is_subspace_of(a):
        raise ValueError("quotient_dim requires the second space inside the first")
    return a.dim - b.dim
