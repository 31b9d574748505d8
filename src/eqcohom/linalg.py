"""Exact rational linear algebra: matrices, echelon forms, canonical subspaces.

Matrix entries are fractions.Fraction, so all results are exact and no
tolerance appears anywhere. The two kernels, `rref` and `Mat.__mul__`,
compute on Python ints: they clear denominators per row (and per column of
a right factor), run integer arithmetic, and make Fractions only for their
output. Subspaces are canonicalized by reduced row echelon form, which
makes equality and containment purely syntactic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

_ZERO = Fraction(0)
_SMALL = {-1: Fraction(-1), 0: _ZERO, 1: Fraction(1)}


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational.

    A bool is not a rational, and "p/0" is not a number: the first raises
    TypeError and the second ValueError, which the JSON loaders report as
    input errors.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        small = _SMALL.get(value)
        return Fraction(value) if small is None else small
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def integer(value) -> int:
    """Read an exact integer: an int, or a string such as "3" (JSON object
    keys are strings).

    A bool is not an integer, and neither is a float: both raise TypeError,
    and a string that is not an integer raises ValueError, which the JSON
    loaders report as input errors.
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        return int(value)
    raise TypeError(f"not an integer: {value!r}")


def json_list(value) -> list:
    """Read a JSON array as it is. Python iterates a string or an object
    too, so "10" would pass for [1, 0]; both raise TypeError instead, which
    the JSON loaders report as input errors."""
    if type(value) is not list:
        raise TypeError(f"not a JSON list: {value!r}")
    return value


def rat_str(x: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def vec(values) -> tuple[Fraction, ...]:
    return tuple([rat(v) for v in values])


def _cleared(row: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(den, ints) with row == ints / den: den is the lcm of the denominators."""
    den = lcm(*[x.denominator for x in row])
    if den == 1:
        return 1, [x.numerator for x in row]
    return den, [x.numerator * (den // x.denominator) for x in row]


def _frac(num: int, den: int) -> Fraction:
    """num / den as a Fraction, sharing the objects for -1, 0 and 1."""
    if den == 1:
        small = _SMALL.get(num)
        return Fraction(num) if small is None else small
    return Fraction(num, den) if num else _ZERO


class Mat:
    """Immutable dense matrix over the rationals, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_of_entries: Iterable[Iterable], cols: Optional[int] = None):
        """`cols` pins the width of a zero-row matrix, which the row data
        cannot convey."""
        data = tuple([tuple([rat(x) for x in row]) for row in rows_of_entries])
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else (cols or 0)
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def _trusted(cls, data: tuple, cols: int) -> "Mat":
        """Wrap a tuple of equal-length tuples of Fractions as they are, with
        no re-coercion: the constructor for rows computed in this module.

        Rows here are built at their known length, by tuple([...]) or zip,
        never by tuple(<generator>): that allocates by a length guess and
        resizes, so each freed row lands in the interpreter's free list for
        its length and is never reused, and over many calls those lists
        hold megabytes."""
        m = object.__new__(cls)
        m.data = data
        m.rows = len(data)
        m.cols = cols
        return m

    @classmethod
    def identity(cls, n: int) -> "Mat":
        one = _SMALL[1]
        return cls._trusted(
            tuple([tuple([one if i == j else _ZERO for j in range(n)]) for i in range(n)]),
            n,
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls._trusted(((_ZERO,) * cols,) * rows, cols)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence]) -> "Mat":
        cols = [vec(c) for c in cols]
        n = len(cols[0]) if cols else 0
        return cls([[c[i] for c in cols] for i in range(n)], cols=len(cols))

    @classmethod
    def vstack(cls, mats: Sequence["Mat"]) -> "Mat":
        cols = mats[0].cols if mats else 0
        if any(m.cols != cols for m in mats):
            raise ValueError("ragged rows")
        return cls._trusted(tuple([row for m in mats for row in m.data]), cols)

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

    def transpose(self) -> "Mat":
        if self.rows == 0:
            return Mat.zeros(self.cols, 0)
        if self.cols == 0:
            return Mat.zeros(0, self.rows)
        return Mat._trusted(tuple(zip(*self.data)), self.rows)

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat._trusted(
            tuple(
                [
                    tuple([a + b if b else a for a, b in zip(ra, rb)])
                    for ra, rb in zip(self.data, other.data)
                ]
            ),
            self.cols,
        )

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat._trusted(
            tuple(
                [
                    tuple([a - b if b else a for a, b in zip(ra, rb)])
                    for ra, rb in zip(self.data, other.data)
                ]
            ),
            self.cols,
        )

    def __mul__(self, other: "Mat") -> "Mat":
        """Product on integers: rows of self and columns of other are cleared
        of denominators, only nonzero entries are multiplied, and each output
        entry becomes one Fraction(acc, den_i * den_j)."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Mat.zeros(self.rows, other.cols)
        col_dens = [lcm(*[x.denominator for x in col]) for col in zip(*other.data)]
        right = [
            [
                (j, x.numerator * (cd // x.denominator))
                for j, (x, cd) in enumerate(zip(row, col_dens))
                if x
            ]
            for row in other.data
        ]
        width = other.cols
        out = []
        for row in self.data:
            den, ints = _cleared(row)
            acc = [0] * width
            for a, right_k in zip(ints, right):
                if a:
                    for j, b in right_k:
                        acc[j] += a * b
            out.append(tuple([_frac(v, den * cd) for v, cd in zip(acc, col_dens)]))
        return Mat._trusted(tuple(out), width)

    def mulvec(self, v: Sequence) -> tuple[Fraction, ...]:
        v = vec(v)
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        den_v, v_ints = _cleared(v)
        nonzero = [(k, b) for k, b in enumerate(v_ints) if b]
        out = []
        for row in self.data:
            den, ints = _cleared(row)
            out.append(_frac(sum(ints[k] * b for k, b in nonzero), den * den_v))
        return tuple(out)

    def rank(self) -> int:
        return len(rref(self)[1])

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def to_lists(self, as_str: bool = False) -> list[list]:
        if as_str:
            return [[rat_str(x) for x in row] for row in self.data]
        return [list(row) for row in self.data]


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot columns (deterministic).

    Fraction-free Gauss-Jordan on integer rows: each row is cleared of
    denominators, a pivot row r eliminates column c from row i as
    p*row_i - f*row_r (p, f divided by their gcd), and every updated row is
    divided by the gcd of its entries. Each integer row stays a nonzero
    multiple of the row that Fraction elimination would hold, so the pivots
    are the same, and dividing each pivot row by its pivot at the end gives
    the unique RREF.
    """
    a = [_cleared(row)[1] for row in m.data]
    n_rows, n_cols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = None
        for i in range(r, n_rows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        prow = a[r]
        p = prow[c]
        for i in range(n_rows):
            row = a[i]
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                pg, fg = p // g, f // g
                row = [pg * x - fg * y for x, y in zip(row, prow)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                a[i] = row
        pivots.append(c)
        r += 1
    out = [
        tuple([Fraction(x, a[i][c]) if x else _ZERO for x in a[i]])
        for i, c in enumerate(pivots)
    ]
    out += [(_ZERO,) * n_cols] * (n_rows - r)
    return Mat._trusted(tuple(out), n_cols), pivots


def solve_many(m: Mat, rhs: Sequence[Sequence]) -> list[Optional[tuple[Fraction, ...]]]:
    """Particular solutions of m x = b for every b in rhs, from one rref of
    [m | b_1 ... b_k]; None for an inconsistent b.

    The first r rows of the rref carry the r pivots of m, and the rows below
    have a zero m-part. Column b_j is consistent iff it is zero in every one
    of those lower rows; its solution reads the pivot entries off the first
    r rows and sets the free variables to zero, which makes it deterministic
    and the same as a one-column solve. A pivot in a right-hand-side column
    only adds a lower row to the others, and a lower row is zero in every
    consistent column, so it leaves those columns as they are.
    """
    rhs = [vec(b) for b in rhs]
    if any(len(b) != m.rows for b in rhs):
        raise ValueError("rhs length mismatch")
    n = m.cols
    if m.rows == 0 or not rhs:
        return [(_ZERO,) * n for _ in rhs]
    aug = Mat._trusted(
        tuple([row + bs for row, bs in zip(m.data, zip(*rhs))]), n + len(rhs)
    )
    red, pivots = rref(aug)
    rank = sum(1 for c in pivots if c < n)
    out: list[Optional[tuple[Fraction, ...]]] = []
    for j in range(n, n + len(rhs)):
        if any(row[j] for row in red.data[rank:]):
            out.append(None)
            continue
        x = [_ZERO] * n
        for row, c in zip(red.data, pivots[:rank]):
            x[c] = row[j]
        out.append(tuple(x))
    return out


def solve(m: Mat, b: Sequence) -> Optional[tuple[Fraction, ...]]:
    """Particular solution of m x = b with free variables set to zero, or
    None when the system is inconsistent; see solve_many."""
    return solve_many(m, [b])[0]


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
            self.basis = Mat._trusted(red.data[: len(pivots)], ambient_dim)
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
