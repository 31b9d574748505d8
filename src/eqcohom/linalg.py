"""Exact rational linear algebra: matrices, echelon forms, canonical subspaces.

A matrix is stored as integer rows over one positive common denominator,
in lowest terms: the gcd of the denominator and every entry is 1, and a
zero matrix has denominator 1. That form is unique, so equality and
hashing compare integers, and no tolerance appears anywhere. Products,
sums, stacking, elimination and the subspace operations all run on the
integer rows, and entries enter through `_cleared`; fractions.Fraction
values are made only where entries and vectors leave the module
(`Mat.data`, built on first use, `mulvec` and `solve`). Subspaces are
kept in reverse RREF (see `Subspace`), which is unique, so equality and
containment are purely syntactic.

Every elimination of the package runs here, and one routine does it: the
fraction-free forward pass `_echelon`, which reads the rows in order and
keeps each one that is independent of those before it, reduced. What it
yields:

- ranks: `independent_rows` is its positions, so `Mat.rank` and
  `Mat.is_invertible` build no RREF;
- a `Reduction` of an augmented system [m | c_1 ... c_k] runs it once and
  reads rank m, rank [m | c_1 ...] and the consistency of each c_j off the
  kept rows; the back-substitution `_back_substitute` runs only on the
  first solution or kernel read, and is kept, so every solve and every
  kernel (`kernel_basis`) is one forward pass and at most one
  back-substitution;
- `rref` is the forward pass and its back-substitution, and a
  `Subspace`'s canonical basis is one `rref`.

`hermite_normal_form`, the one lattice routine, reduces over Z and names
the rows that opened its pivots.
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


# Identity matrices shared by Mat.identity, up to this size.
_SHARED_IDENTITY_MAX = 64
_IDENTITIES: dict[int, "Mat"] = {}


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

    Rows, and tuples throughout the package, are built at their known
    length, from a list, a tuple or a slice (zip's own rows qualify), never
    by tuple() over a generator or over zip, map or filter: that allocates
    by a length guess and resizes, so each freed tuple lands in the
    interpreter's free list for its new length and is seldom reused, and
    over many calls those lists hold megabytes. tests/test_exact_tuples.py
    keeps the rule.
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
        den, flat = _cleared(chain.from_iterable(rows))
        self.ints = tuple(
            [tuple(flat[i * width : (i + 1) * width]) for i in range(len(rows))]
        )
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
        """I_n. A Mat is immutable, so the small ones are built once and
        shared; a larger one is built anew, so that none is held for the
        life of the process."""
        m = _IDENTITIES.get(n)
        if m is None:
            m = cls._new(
                tuple([tuple([1 if i == j else 0 for j in range(n)]) for i in range(n)]),
                1,
                n,
            )
            if n <= _SHARED_IDENTITY_MAX:
                _IDENTITIES[n] = m
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls._new(((0,) * cols,) * rows, 1, cols)

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
        return f"Mat({self.to_lists()})"

    def transpose(self) -> "Mat":
        if self.rows == 0 or self.cols == 0:
            return Mat.zeros(self.cols, self.rows)
        return Mat._new(tuple(list(zip(*self.ints))), self.den, self.rows)

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
        return len(independent_rows(self.ints))

    def is_invertible(self) -> bool:
        return self.rows == self.cols == self.rank()

    def to_lists(self) -> list[list[str]]:
        """The entries as "p/q" strings (see rat_str), row by row."""
        return [[rat_str(x) for x in row] for row in self.data]


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot columns (deterministic): the
    forward pass of the integer rows of m (its denominator scales every row
    alike and does not move the RREF), then its back-substitution. The
    RREF is unique and the result is in lowest terms, so it is the matrix
    that any exact Gauss-Jordan elimination gives."""
    den, pivots, rows = _back_substitute(_echelon(m.ints)[1])
    out = [tuple(row) for row in rows] + [(0,) * m.cols] * (m.rows - len(rows))
    return Mat._new(*_lowest(tuple(out), den), m.cols), pivots


def _echelon(
    rows: Sequence[Sequence[int]],
) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """The forward pass, the one elimination of the package: the positions
    of the integer rows that are independent of the rows before them, and
    those rows reduced, as (pivot column, row) in the order they were kept.

    Rows are read in order and each is reduced, fraction-free, against the
    rows kept before it: where the kept row b of pivot c meets an entry
    f != 0 of v at c, v becomes b[c] * v - f * b, divided by the gcd of its
    entries. A row still nonzero is kept, its first nonzero entry its
    pivot. So every kept row is zero left of its pivot and at the pivots of
    the rows kept before it; sorted by pivot the kept rows are a row
    echelon form of the rows, and their pivots are the RREF's. Reading
    stops once as many rows are kept as there are columns."""
    chosen: list[int] = []
    kept: list[tuple[int, list[int]]] = []
    for i, row in enumerate(rows):
        v = list(row)
        for c, b in kept:
            f = v[c]
            if f:
                p = b[c]
                v = [p * x - f * y for x, y in zip(v, b)]
                common = gcd(*v)
                if common > 1:
                    v = [x // common for x in v]
        for c, x in enumerate(v):
            if x:
                kept.append((c, v))
                chosen.append(i)
                break
        else:
            continue
        if len(kept) == len(v):
            break
    return chosen, kept


def _back_substitute(
    kept: Sequence[tuple[int, list[int]]],
) -> tuple[int, list[int], list[list[int]]]:
    """The back-substitution: the RREF of rows kept by `_echelon` (all of
    them, or any of them in the order kept) as (den, pivots, rows), the
    nonzero RREF rows times den, sorted by pivot, den the lcm of the pivot
    entries. Taken last to first, each row is cleared, fraction-free, at
    the pivots of the rows kept after it; those are cleared already, and
    zero at its pivot and at every other pivot, so one pass over them
    suffices."""
    done: list[tuple[int, list[int]]] = []
    for c, v in reversed(kept):
        for cb, b in done:
            f = v[cb]
            if f:
                p = b[cb]
                g = gcd(p, f)
                pg, fg = p // g, f // g
                v = [pg * x - fg * y for x, y in zip(v, b)]
                g = gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
        done.append((c, v))
    done.sort()  # the pivots differ, so no two rows are compared
    den = lcm(*[v[c] for c, v in done])
    rows = []
    for c, v in done:
        k = den // v[c]
        rows.append(v if k == 1 else [k * x for x in v])
    return den, [c for c, _ in done], rows


def independent_rows(rows: Sequence[Sequence[int]]) -> list[int]:
    """Positions of the integer rows that are independent of the rows
    before them, found greedily in order: the positions of the forward
    pass, which are the pivot columns of the rref of the transpose."""
    return _echelon(rows)[0]


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
    """The system m x = c_1, ..., c_k, eliminated once and read for every
    c_j: the forward pass (`_echelon`) of [m.ints | c_1 ... c_k], the
    integer rows of m (its denominator dropped) with the integer columns
    c_j appended. An m with no rows needs no elimination.

    `rank` counts the kept rows whose pivot lies in m's columns, and
    `augmented_rank` every kept row: the ranks of m and of [m | c_1 ...].
    The kept rows with a pivot past m's columns have a zero m-part, and
    they span every row of the row space that has one, so column c_j is
    consistent iff it is zero in each of them, as in the RREF.

    The back-substitution of the rows that carry m's pivots runs on the
    first `solution` or `kernel` and is kept. It gives the RREF's first
    `rank` rows up to multiples of the rows with a zero m-part, which are
    zero in m's columns and in every consistent column. A solution reads
    the pivot entries off those rows with the free variables zero: the
    same as a one-column solve, since a pivot in some c_i only adds a row
    with a zero m-part.
    """

    __slots__ = ("_m", "_top", "_lower", "_reduced", "rank", "augmented_rank")

    def __init__(self, m: Mat, columns: Sequence[Sequence[int]]):
        if any(len(c) != m.rows for c in columns):
            raise ValueError("rhs length mismatch")
        kept = []
        if m.rows:
            rows = m.ints
            if columns:
                rows = [row + cs for row, cs in zip(rows, zip(*columns))]
            kept = _echelon(rows)[1]
        n = m.cols
        self._m = m
        self._top = [pair for pair in kept if pair[0] < n]
        self._lower = [row for c, row in kept if c >= n]
        self._reduced = None
        self.rank = len(self._top)
        self.augmented_rank = len(kept)

    def _pivot_rows(self) -> tuple[int, list[int], list[list[int]]]:
        """(den, pivots, rows): the back-substituted rows that carry m's
        pivots, built on first use and kept; rank 0 needs none."""
        if self._reduced is None:
            self._reduced = _back_substitute(self._top) if self._top else (1, [], [])
        return self._reduced

    def consistent(self, j: int) -> bool:
        """Whether m x = c_j has a solution."""
        col = self._m.cols + j
        return not any(row[col] for row in self._lower)

    def solution(self, j: int, den: int = 1) -> Optional[tuple[int, list[int]]]:
        """(den_x, x), not reduced, with x / den_x the solution of
        m x = c_j / den whose free variables are zero, or None when c_j is
        inconsistent. m.ints y = c_j gives x = y * m.den, and the pivot
        rows read y at each pivot as row[col] / red_den."""
        if not self.consistent(j):
            return None
        m = self._m
        col = m.cols + j
        red_den, pivots, rows = self._pivot_rows()
        x = [0] * m.cols
        for row, c in zip(rows, pivots):
            x[c] = row[col] * m.den
        return red_den * den, x

    def kernel(self) -> "Subspace":
        """ker m in canonical form, with no further elimination: for each
        free column f, in increasing order, the vector with red_den at f and
        minus column f of the pivot rows at their pivots. A pivot row is
        zero left of its pivot, so f is that vector's last nonzero entry,
        and every other vector is 0 at f: the vectors are the reverse RREF
        of ker m. A full-rank m has the zero kernel and needs no
        back-substitution."""
        n = self._m.cols
        if self.rank == n:
            return Subspace._canonical(Mat.zeros(0, n))
        den, pivots, rows = self._pivot_rows()
        pivot_set = set(pivots)
        vectors = []
        for f in range(n):
            if f in pivot_set:
                continue
            v = [0] * n
            v[f] = den
            for row, c in zip(rows, pivots):
                v[c] = -row[f]
            vectors.append(tuple(v))
        return Subspace._canonical(Mat._new(*_lowest(tuple(vectors), den), n))


def solve(m: Mat, b: Sequence) -> Optional[tuple[Fraction, ...]]:
    """Particular solution of m x = b with free variables set to zero, or
    None when the system is inconsistent: one Reduction of [m | b], with b
    cleared of its denominator d_b, so a solution y of that system gives
    x = y / d_b."""
    den_b, b_ints = _cleared(b)
    sol = Reduction(m, [b_ints]).solution(0, den_b)
    if sol is None:
        return None
    den, x = sol
    return tuple([_frac(v, den) for v in x])


def kernel_basis(m: Mat) -> "Subspace":
    """Kernel of m as a canonical subspace of the column domain: the kernel
    of its Reduction, one forward pass and, unless m has full column rank,
    one back-substitution; neither runs when m has no rows."""
    return Reduction(m, ()).kernel()


class Subspace:
    """Linear subspace in canonical form: its basis in reverse RREF. Each
    basis vector's last nonzero entry is 1, every other basis vector is 0
    there, and the vectors are ordered by that position, ascending. That
    basis is unique, and it is the one a kernel's free columns give (see
    Reduction.kernel)."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors):
        """The span of `vectors`: the rows of a Mat, or an iterable of
        vectors of exact rationals. One rref of the rows with their columns
        reversed gives the basis, each kept row reversed back and the rows
        taken in reverse order."""
        span = vectors if isinstance(vectors, Mat) else Mat(vectors, cols=ambient_dim)
        if span.cols != ambient_dim:
            raise ValueError("vector length != ambient dimension")
        if span.rows:
            reversed_rows = tuple([row[::-1] for row in span.ints])
            red, pivots = rref(Mat._new(reversed_rows, 1, ambient_dim))
            kept = red.ints[: len(pivots)][::-1]
            span = Mat._new(tuple([row[::-1] for row in kept]), red.den, ambient_dim)
        self.basis = span
        self.ambient_dim = ambient_dim

    @classmethod
    def _canonical(cls, basis: Mat) -> "Subspace":
        """Wrap a basis that is already in reverse RREF and in lowest terms:
        the constructor for spaces computed in this module."""
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

    def is_subspace_of(self, other: "Subspace") -> bool:
        """Whether other's basis stacked on this one's integer rows keeps
        its rank. Row scaling moves no rank, so the stack needs no common
        denominator."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if not self.dim:
            return True
        stack = Mat._new(other.basis.ints + self.basis.ints, 1, self.ambient_dim)
        return stack.rank() == other.dim


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


def quotient_dim(a: Subspace, b: Subspace) -> int:
    """dim a/b for nested subspaces b <= a."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if not b.is_subspace_of(a):
        raise ValueError("quotient_dim requires the second space inside the first")
    return a.dim - b.dim
