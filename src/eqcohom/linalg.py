"""Exact rational linear algebra: matrices, echelon forms, canonical subspaces.

A matrix is stored as integer rows over one positive common denominator,
in lowest terms: the gcd of the denominator and every entry is 1, and a
zero matrix has denominator 1. That form is unique, so equality and
hashing compare integers, and no tolerance appears anywhere. Products,
sums, stacking, elimination and the subspace operations all run on the
integer rows; fractions.Fraction values are made only where entries and
vectors leave the module (`Mat.data`, built on first use, `mulvec` and
`solve_many`). Subspaces are canonicalized by reduced row echelon form,
which makes equality and containment purely syntactic.

Every elimination of the package runs here: `rref`, the `Reduction` of an
augmented system that every solve reads, `independent_rows`, which picks
independent rows and decides nonsingularity, and `hermite_normal_form`,
the one lattice routine, which reduces over Z and names the rows that
opened its pivots.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

_ZERO = Fraction(0)
_SMALL = {-1: Fraction(-1), 0: _ZERO, 1: Fraction(1)}
# The strings read with int(): on these, int() and Fraction() agree.
_int_literal = re.compile(r"-?[0-9]+").fullmatch


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational.

    A bool is not a rational, and "p/0" is not a number: the first raises
    TypeError and the second ValueError, which the JSON loaders report as
    input errors. A string of the exact form -?[0-9]+ is read by int;
    every other string is parsed by Fraction, so both accept the same
    strings.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        if not _int_literal(value):
            try:
                return Fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {value!r}") from None
        value = int(value)
    if type(value) is int:
        small = _SMALL.get(value)
        return Fraction(value) if small is None else small
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


def _cleared(values) -> tuple[int, list[int]]:
    """(den, ints) with values == ints / den for a vector of exact
    rationals entering the module (anything rat reads), in lowest terms:
    den is the lcm of the reduced denominators. Ints and -?[0-9]+ strings
    are read as ints, with no Fraction made; every other entry goes
    through rat, so the same entries are accepted with the same values and
    refused with the same errors, the first bad entry first."""
    v = [
        x if type(x) is int else int(x) if type(x) is str and _int_literal(x) else rat(x)
        for x in values
    ]
    den = lcm(*[x.denominator for x in v])
    if den == 1:
        return 1, [x.numerator for x in v]
    return den, [x.numerator * (den // x.denominator) for x in v]


def _frac(num: int, den: int) -> Fraction:
    """num / den as a Fraction, sharing the objects for -1, 0 and 1."""
    if den == 1:
        small = _SMALL.get(num)
        return Fraction(num) if small is None else small
    return Fraction(num, den) if num else _ZERO


def _lowest(ints: tuple, den: int) -> tuple[tuple, int]:
    """Integer rows and denominator divided by the gcd of den and every
    entry: the normal form of the matrix ints / den."""
    if den == 1:
        return ints, 1
    g = gcd(den, *chain.from_iterable(ints))
    if g == 1:
        return ints, den
    return tuple([tuple([x // g for x in row]) for row in ints]), den // g


def _scaled(ints: tuple, k: int) -> tuple:
    return ints if k == 1 else tuple([tuple([k * x for x in row]) for row in ints])


class Mat:
    """Immutable dense matrix over the rationals: the integer rows `ints`
    (a tuple of equal-length tuples) over the common denominator `den`,
    in lowest terms.

    Rows are built at their known length, by tuple([...]) or zip, never by
    tuple(<generator>): that allocates by a length guess and resizes, so
    each freed row lands in the interpreter's free list for its length and
    is never reused, and over many calls those lists hold megabytes.
    """

    __slots__ = ("rows", "cols", "den", "ints", "_data")

    def __init__(self, rows_of_entries: Iterable[Iterable], cols: Optional[int] = None):
        """Entries are ints, Fractions or "p/q" strings (see rat). `cols`
        pins the width of a zero-row matrix, which the row data cannot
        convey."""
        rows = [tuple(row) for row in rows_of_entries]
        width = len(rows[0]) if rows else (cols or 0)
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        den = 1
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            # The lcm of reduced denominators leaves the form in lowest terms.
            fracs = [[rat(x) for x in row] for row in rows]
            den = lcm(*[x.denominator for row in fracs for x in row])
            rows = [
                tuple([x.numerator * (den // x.denominator) for x in row])
                for row in fracs
            ]
        self.ints = tuple(rows)
        self.den = den
        self.rows = len(rows)
        self.cols = width
        self._data = None

    @classmethod
    def _new(cls, ints: tuple, den: int, cols: int) -> "Mat":
        """Wrap integer rows that are already in lowest terms over den: the
        constructor for matrices computed in this module."""
        m = object.__new__(cls)
        m.ints = ints
        m.den = den
        m.rows = len(ints)
        m.cols = cols
        m._data = None
        return m

    @classmethod
    def from_ints(cls, rows: Iterable[Sequence[int]], cols: Optional[int] = None) -> "Mat":
        """A matrix with the given integer entries, taken as they are."""
        ints = tuple([tuple(row) for row in rows])
        width = len(ints[0]) if ints else (cols or 0)
        if any(len(row) != width for row in ints):
            raise ValueError("ragged rows")
        return cls._new(ints, 1, width)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._new(
            tuple([tuple([1 if i == j else 0 for j in range(n)]) for i in range(n)]),
            1,
            n,
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls._new(((0,) * cols,) * rows, 1, cols)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence]) -> "Mat":
        return cls(cols, cols=0).transpose()

    @classmethod
    def vstack(cls, mats: Sequence["Mat"]) -> "Mat":
        """Rows of every matrix in turn. Over the lcm of the denominators
        the stack is in lowest terms already."""
        cols = mats[0].cols if mats else 0
        if any(m.cols != cols for m in mats):
            raise ValueError("ragged rows")
        den = lcm(*[m.den for m in mats])
        return cls._new(
            tuple([row for m in mats for row in _scaled(m.ints, den // m.den)]),
            den,
            cols,
        )

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, built on first use and kept."""
        if self._data is None:
            den = self.den
            self._data = tuple(
                [tuple([_frac(x, den) for x in row]) for row in self.ints]
            )
        return self._data

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.cols == other.cols
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.den, self.ints))

    def __repr__(self) -> str:
        return f"Mat({self.to_lists(as_str=True)})"

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def transpose(self) -> "Mat":
        if self.rows == 0 or self.cols == 0:
            return Mat.zeros(self.cols, self.rows)
        return Mat._new(tuple(zip(*self.ints)), self.den, self.rows)

    def _plus(self, other: "Mat", sign: int) -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        den = lcm(self.den, other.den)
        a = _scaled(self.ints, den // self.den)
        b = _scaled(other.ints, sign * (den // other.den))
        ints = tuple([tuple([x + y for x, y in zip(ra, rb)]) for ra, rb in zip(a, b)])
        return Mat._new(*_lowest(ints, den), self.cols)

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def __mul__(self, other: "Mat") -> "Mat":
        """Product of the integer rows, skipping zero entries, over the
        product of the denominators, reduced once."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        width = other.cols
        right = [[(j, b) for j, b in enumerate(row) if b] for row in other.ints]
        out = []
        for row in self.ints:
            acc = [0] * width
            for a, right_k in zip(row, right):
                if a:
                    for j, b in right_k:
                        acc[j] += a * b
            out.append(tuple(acc))
        return Mat._new(*_lowest(tuple(out), self.den * other.den), width)

    def mulvec(self, v: Sequence) -> tuple[Fraction, ...]:
        den_v, v_ints = _cleared(v)
        if len(v_ints) != self.cols:
            raise ValueError("shape mismatch")
        den = self.den * den_v
        nonzero = [(k, b) for k, b in enumerate(v_ints) if b]
        return tuple(
            [_frac(sum([row[k] * b for k, b in nonzero]), den) for row in self.ints]
        )

    def rank(self) -> int:
        return len(rref(self)[1])

    def is_invertible(self) -> bool:
        return self.rows == self.cols == len(independent_rows(self.ints))

    def to_lists(self, as_str: bool = False) -> list[list]:
        if as_str:
            return [[rat_str(x) for x in row] for row in self.data]
        return [list(row) for row in self.data]


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot columns (deterministic).

    Fraction-free Gauss-Jordan on the integer rows of m (its denominator
    scales every row alike and does not move the RREF): a pivot row r
    eliminates column c from row i as p*row_i - f*row_r (p, f divided by
    their gcd), and every updated row is divided by the gcd of its entries.
    Each integer row stays a nonzero multiple of the row that Fraction
    elimination would hold, so the pivots are the same. Scaling each pivot
    row to the lcm of the pivots gives the unique RREF in integer form.
    """
    a = [list(row) for row in m.ints]
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
    den = lcm(*[a[i][c] for i, c in enumerate(pivots)])
    out = []
    for i, c in enumerate(pivots):
        k = den // a[i][c]
        out.append(tuple(a[i]) if k == 1 else tuple([k * x for x in a[i]]))
    out += [(0,) * n_cols] * (n_rows - r)
    return Mat._new(*_lowest(tuple(out), den), n_cols), pivots


def independent_rows(rows: Sequence[Sequence[int]]) -> list[int]:
    """Positions of the integer rows that are independent of the rows
    before them, found greedily in order by fraction-free elimination: the
    pivot columns of the rref of the transpose. Each kept row is reduced
    against the kept rows before it, so its first nonzero entry is zero in
    every row kept after it."""
    chosen: list[int] = []
    basis: list[tuple[int, list[int]]] = []  # (pivot column, reduced row)
    for i, row in enumerate(rows):
        v = list(row)
        for c, b in basis:
            if v[c]:
                p, f = b[c], v[c]
                v = [p * x - f * y for x, y in zip(v, b)]
                common = gcd(*v)
                if common > 1:
                    v = [x // common for x in v]
        for c, x in enumerate(v):
            if x:
                basis.append((c, v))
                chosen.append(i)
                break
    return chosen


def hermite_normal_form(
    rows: Iterable[Sequence[int]], cols: int
) -> tuple[list[list[int]], list[int]]:
    """Row-style HNF of the lattice spanned by integer rows, and the
    positions of the rows that opened a pivot.

    Canonical form: positive pivots, entries above a pivot reduced into
    [0, pivot), zero rows dropped.

    Incremental (Cohen, A Course in Computational Algebraic Number Theory,
    2.4): the rows are read one at a time into an echelon basis of at most
    `cols` rows. A row is cleared column by column: where the basis row of
    pivot p meets an entry x that p does not divide, the unimodular step
    [[s, t], [-x/g, p/g]], with s*p + t*x = g = gcd(p, x), leaves g as the
    pivot and clears x; a row still nonzero at a column with no basis row
    opens a pivot there. That happens exactly when the row is independent
    of the rows before it, so the positions are independent_rows(rows).
    Each change is followed by reducing the entries above the pivots, so
    the basis is always the HNF of the rows read so far and its entries
    stay as small as that lattice's. Reading stops once the basis is the
    identity: the lattice is Z^cols, and no later row changes it.
    """
    basis: dict[int, list[int]] = {}  # pivot column -> row
    opened: list[int] = []
    for i, row in enumerate(rows):
        v = list(row)
        if len(v) != cols:
            raise ValueError("row length mismatch")
        changed = False
        for c in range(cols):
            x = v[c]
            if not x:
                continue
            b = basis.get(c)
            if b is None:
                basis[c] = v if x > 0 else [-y for y in v]
                opened.append(i)
                changed = True
                break
            p = b[c]
            if x % p:
                g, s, t = _xgcd(p, x)
                pg, xg = p // g, x // g
                basis[c] = [s * y + t * z for y, z in zip(b, v)]
                v = [pg * z - xg * y for y, z in zip(b, v)]
                changed = True
            else:
                q = x // p
                v = [z - q * y for y, z in zip(b, v)]
        if changed:
            pivots = sorted(basis)
            for k, c in enumerate(pivots):
                b = basis[c]
                p = b[c]
                for above in pivots[:k]:
                    r = basis[above]
                    q = r[c] // p
                    if q:
                        basis[above] = [y - q * z for y, z in zip(r, b)]
            if len(basis) == cols and all(basis[c][c] == 1 for c in pivots):
                break
    return [basis[c] for c in sorted(basis)], opened


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g == gcd(a, b) > 0, for a, b not both 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


class Reduction:
    """The rref of [m.ints | c_1 ... c_k]: the integer rows of m (its
    denominator dropped) with the integer columns c_j appended, reduced
    once and read for every c_j; an m with no rows needs no rref.

    The first `rank` rows carry the pivots of m, and the rows below have a
    zero m-part. Column c_j is consistent iff it is zero in every one of
    those lower rows, and its solution reads the pivot entries off the
    first rows with the free variables zero: the same as a one-column
    solve, since a pivot in some c_i only adds a lower row, which is zero
    in every consistent column.
    """

    __slots__ = ("_m", "_red", "_pivots", "rank")

    def __init__(self, m: Mat, columns: Sequence[Sequence[int]]):
        width = m.cols + len(columns)
        if m.rows == 0:
            self._red, self._pivots = Mat.zeros(0, width), []
        else:
            extra = list(zip(*columns)) if columns else [()] * m.rows
            aug = tuple([row + cs for row, cs in zip(m.ints, extra)])
            self._red, self._pivots = rref(Mat._new(aug, 1, width))
        self._m = m
        self.rank = sum(1 for c in self._pivots if c < m.cols)

    def consistent(self, j: int) -> bool:
        """Whether m x = c_j has a solution."""
        col = self._m.cols + j
        return not any(row[col] for row in self._red.ints[self.rank :])

    def solution(self, j: int, den: int = 1) -> Optional[tuple[int, list[int]]]:
        """(den_x, x), not reduced, with x / den_x the solution of
        m x = c_j / den whose free variables are zero, or None when c_j is
        inconsistent. m.ints y = c_j gives x = y * m.den, and the pivot
        rows read y at each pivot as row[col] / red.den."""
        if not self.consistent(j):
            return None
        m = self._m
        col = m.cols + j
        x = [0] * m.cols
        for row, c in zip(self._red.ints[: self.rank], self._pivots):
            x[c] = row[col] * m.den
        return self._red.den * den, x

    def kernel(self) -> "Subspace":
        """ker m in canonical form: for each free column f, the vector with
        red.den at f and minus column f of the pivot rows at their pivots.
        When every such column is zero those are unit vectors in increasing
        order, canonical already; otherwise one small rref of the n - rank
        vectors canonicalizes them."""
        n = self._m.cols
        top = self._red.ints[: self.rank]
        pivots = self._pivots[: self.rank]
        free = sorted(set(range(n)).difference(pivots))
        if not any(row[f] for row in top for f in free):
            units = [(0,) * f + (1,) + (0,) * (n - 1 - f) for f in free]
            return Subspace._canonical(Mat._new(tuple(units), 1, n))
        vectors = []
        for f in free:
            v = [0] * n
            v[f] = self._red.den
            for row, c in zip(top, pivots):
                v[c] = -row[f]
            vectors.append(tuple(v))
        return Subspace(n, Mat._new(tuple(vectors), 1, n))


def _solve_ints(
    m: Mat, rhs: Sequence[tuple[int, Sequence[int]]]
) -> list[Optional[tuple[int, list[int]]]]:
    """The integer core of solve_many: each right-hand side is (den_b, b)
    with b a vector of ints over den_b, and each solution is (den_x, x)
    with x a list of ints over den_x, not reduced; None for an
    inconsistent b."""
    if any(len(b) != m.rows for _, b in rhs):
        raise ValueError("rhs length mismatch")
    if not rhs:
        return []
    red = Reduction(m, [b for _, b in rhs])
    return [red.solution(j, den_b) for j, (den_b, _) in enumerate(rhs)]


def solve_many(m: Mat, rhs: Sequence[Sequence]) -> list[Optional[tuple[Fraction, ...]]]:
    """Particular solutions of m x = b for every b in rhs, from one
    Reduction of [m | b_1 ... b_k], each b_j cleared of its denominator
    d_j (so a solution y of that system gives x = y / d_j); None for an
    inconsistent b. Free variables are set to zero.
    """
    out: list[Optional[tuple[Fraction, ...]]] = []
    for sol in _solve_ints(m, [_cleared(b) for b in rhs]):
        if sol is None:
            out.append(None)
        else:
            den, x = sol
            out.append(tuple([_frac(v, den) for v in x]))
    return out


def solve(m: Mat, b: Sequence) -> Optional[tuple[Fraction, ...]]:
    """Particular solution of m x = b with free variables set to zero, or
    None when the system is inconsistent; see solve_many."""
    return solve_many(m, [b])[0]


def kernel_basis(m: Mat) -> "Subspace":
    """Kernel of m as a canonical subspace of the column domain, from one
    rref: that of m with its columns reversed.

    Reversed, the rref's pivots p_i pick the last column basis of m in
    column order, and its free columns the complement. By matroid duality
    the complement of a basis of the column matroid of m is a basis of the
    dual matroid, the column matroid of the kernel's basis matrix, and the
    complement of the last basis is the first one: the pivot columns of
    the kernel's RREF. For each such column f (free column n-1-f of the
    reversed m) the kernel vector has red.den at f and -red[i][n-1-f] at
    column n-1-p_i. Those nonzeros lie right of f (p_i < n-1-f, or the
    entry is zero) and on no other vector's pivot column, so the vectors
    in increasing f are already the kernel's RREF, with pivot entries
    red.den.
    """
    n = m.cols
    red, pivots = rref(Mat._new(tuple([row[::-1] for row in m.ints]), 1, n))
    pivot_set = set(pivots)
    last = n - 1
    vectors = []
    for f in range(n):
        col = last - f
        if col in pivot_set:
            continue
        v = [0] * n
        v[f] = red.den
        for row, p in zip(red.ints, pivots):
            v[last - p] = -row[col]
        vectors.append(tuple(v))
    return Subspace._canonical(Mat._new(*_lowest(tuple(vectors), red.den), n))


class Subspace:
    """Linear subspace in canonical form: RREF basis with no zero rows."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors):
        """The span of `vectors`: the rows of a Mat, or an iterable of
        vectors of exact rationals."""
        span = vectors if isinstance(vectors, Mat) else Mat(vectors, cols=ambient_dim)
        if span.cols != ambient_dim:
            raise ValueError("vector length != ambient dimension")
        if span.rows:
            red, pivots = rref(span)
            span = Mat._new(red.ints[: len(pivots)], red.den, ambient_dim)
        self.basis = span
        self.ambient_dim = ambient_dim

    @classmethod
    def _canonical(cls, basis: Mat) -> "Subspace":
        """Wrap a basis that is already the nonzero rows of an RREF in
        lowest terms: the constructor for spaces computed in this module."""
        space = object.__new__(cls)
        space.basis = basis
        space.ambient_dim = basis.cols
        return space

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.zeros(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._canonical(Mat.identity(ambient_dim))

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

    def _spans(self, rows: tuple) -> bool:
        """Whether integer rows (each scaled as it may be) lie in the span:
        the basis stacked on them keeps its rank. Row scaling moves no rank,
        so the stack needs no common denominator."""
        if not rows:
            return True
        return Mat._new(self.basis.ints + rows, 1, self.ambient_dim).rank() == self.dim

    def contains(self, v: Sequence) -> bool:
        _, ints = _cleared(v)
        if len(ints) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return self._spans((tuple(ints),))

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return other._spans(self.basis.ints)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked system [A^T | -B^T].

    A and B are taken as their integer rows: scaling a basis does not move
    its row space, so x = A^T alpha with (alpha, beta) in that kernel runs
    over the intersection, and the rows of alpha^T A span it."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    stacked = Mat._new(
        tuple(
            [
                ra + tuple([-x for x in rb])
                for ra, rb in zip(zip(*a.basis.ints), zip(*b.basis.ints))
            ]
        ),
        1,
        a.dim + b.dim,
    )
    ker = kernel_basis(stacked)
    alphas = Mat._new(tuple([row[: a.dim] for row in ker.basis.ints]), 1, a.dim)
    return Subspace(a.ambient_dim, alphas * a.basis)


def column_space(m: Mat) -> Subspace:
    return Subspace(m.rows, m.transpose())


def quotient_dim(a: Subspace, b: Subspace) -> int:
    """dim a/b for nested subspaces b <= a."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if not b.is_subspace_of(a):
        raise ValueError("quotient_dim requires the second space inside the first")
    return a.dim - b.dim
