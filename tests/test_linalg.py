import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

import eqcohom.linalg
from eqcohom.linalg import (
    Mat,
    Reduction,
    Subspace,
    hermite_normal_form,
    independent_rows,
    integer,
    kernel_basis,
    quotient_dim,
    rat,
    rat_str,
    rref,
    solve,
    solve_many,
    subspace_intersection,
)

from conftest import (
    RAT_STRINGS,
    fraction_of,
    hnf_reference,
    kernel_reference,
    subspace_sum,
)


def fraction_free_rank(rows):
    """Independent oracle: Bareiss-style fraction-free elimination over the
    integers (after clearing denominators), returning the rank."""
    cleared = []
    for row in rows:
        denom = 1
        for x in row:
            denom = denom * x.denominator // _gcd(denom, x.denominator)
        cleared.append([int(x * denom) for x in row])
    a = [r[:] for r in cleared]
    m = len(a)
    n = len(a[0]) if a else 0
    rank = 0
    prev = 1
    for col in range(n):
        piv = None
        for i in range(rank, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, m):
            for j in range(col + 1, n):
                a[i][j] = (a[rank][col] * a[i][j] - a[i][col] * a[rank][j]) // prev
            a[i][col] = 0
        prev = a[rank][col]
        rank += 1
    return rank


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def random_matrix(rng, rows, cols, denoms=(1, 1, 2, 3)):
    return Mat(
        [
            [Fraction(rng.randint(-4, 4), rng.choice(denoms)) for _ in range(cols)]
            for _ in range(rows)
        ],
        cols=cols,
    )


def test_rat_roundtrip():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(-2, 1)) == "-2"
    with pytest.raises(TypeError):
        rat(1.5)


def test_rat_rejects_bool_and_zero_denominator():
    for value in (True, False):
        with pytest.raises(TypeError):
            rat(value)
    with pytest.raises(ValueError):
        rat("1/0")
    assert rat(0) == 0 and rat(-3) == Fraction(-3)


@pytest.mark.parametrize("text", RAT_STRINGS, ids=ascii)
def test_rat_reads_strings_as_fraction_does(text):
    # The -?[0-9]+ fast path must not change what is accepted, the value
    # read, or the error class of what is refused.
    try:
        expected = fraction_of(text)
    except ValueError:
        with pytest.raises(ValueError):
            rat(text)
    else:
        value = rat(text)
        assert type(value) is Fraction and value == expected


def test_integer_reader():
    assert integer(7) == 7 and integer("-3") == -3
    for value in (True, False, 2.0, None, [1]):
        with pytest.raises(TypeError):
            integer(value)
    for value in ("1/2", "2.5", ""):
        with pytest.raises(ValueError):
            integer(value)


def mixed_matrix(rng, rows, cols):
    """Entries with mixed and negative denominators, many zeros, and rows
    that repeat combinations of earlier rows, so rank deficits occur."""
    data = []
    for _ in range(rows):
        if data and rng.random() < 0.3:
            a, b = rng.choice(data), rng.choice(data)
            k = Fraction(rng.randint(-3, 3), rng.choice((1, -2, 5)))
            data.append([x + k * y for x, y in zip(a, b)])
        else:
            data.append(
                [
                    Fraction(rng.randint(-6, 6), rng.choice((1, 2, -3, 4, -7, 9)))
                    if rng.random() < 0.6
                    else Fraction(0)
                    for _ in range(cols)
                ]
            )
    return Mat(data, cols=cols)


SHAPES = [(0, 0), (0, 4), (3, 0), (1, 1), (1, 5), (5, 1), (4, 4), (6, 3), (3, 7), (8, 8)]


def test_rref_output_is_reduced_row_echelon_form():
    rng = random.Random(2024)
    for rows, cols in SHAPES * 6:
        m = mixed_matrix(rng, rows, cols)
        red, pivots = rref(m)
        assert (red.rows, red.cols) == (rows, cols)
        assert all(type(x) is Fraction for row in red.data for x in row)
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        for i, c in enumerate(pivots):
            assert all(x == 0 for x in red.data[i][:c])
            assert red.data[i][c] == 1
            assert all(red.data[k][c] == 0 for k in range(rows) if k != i)
        for row in red.data[len(pivots):]:
            assert all(x == 0 for x in row)


def test_rref_is_row_equivalent_to_input():
    # Every input row is the combination sum_i row[p_i] * red_i of the
    # nonzero RREF rows, and the rank agrees with the independent
    # fraction-free oracle, so both row spaces are equal.
    rng = random.Random(99)
    for rows, cols in SHAPES * 6:
        m = mixed_matrix(rng, rows, cols)
        red, pivots = rref(m)
        for row in m.data:
            combo = [Fraction(0)] * cols
            for i, p in enumerate(pivots):
                combo = [x + row[p] * y for x, y in zip(combo, red.data[i])]
            assert tuple(combo) == row
        assert len(pivots) == fraction_free_rank([list(r) for r in m.data])


def test_mat_mul_matches_definition():
    rng = random.Random(5150)
    for _ in range(40):
        n, k, p = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a, b = mixed_matrix(rng, n, k), mixed_matrix(rng, k, p)
        expected = tuple(
            tuple(
                sum((a.data[i][t] * b.data[t][j] for t in range(k)), Fraction(0))
                for j in range(p)
            )
            for i in range(n)
        )
        product = a * b
        assert (product.rows, product.cols) == (n, p)
        assert product.data == expected
        v = [Fraction(rng.randint(-4, 4), rng.choice((1, -3, 8))) for _ in range(k)]
        assert a.mulvec(v) == tuple(
            sum((a.data[i][t] * v[t] for t in range(k)), Fraction(0)) for i in range(n)
        )
    with pytest.raises(ValueError):
        Mat.identity(2) * Mat.identity(3)


def test_rref_identity():
    ident = Mat.identity(2)
    red, pivots = rref(ident)
    assert red == ident
    assert pivots == [0, 1]


def test_rref_rank_one():
    red, pivots = rref(Mat([[1, 2], [2, 4]]))
    assert red == Mat([[1, 2], [0, 0]])
    assert pivots == [0]
    assert Subspace(2, [[1, 2], [2, 4]]).basis == Mat([[1, 2]])


def test_rref_rank_matches_fraction_free_oracle():
    rng = random.Random(42)
    for _ in range(30):
        m = random_matrix(rng, 5, 7)
        assert len(rref(m)[1]) == fraction_free_rank(m.data)


def test_kernel_identity():
    assert kernel_basis(Mat.identity(3)).dim == 0


def test_kernel_coordinate_projection():
    ker = kernel_basis(Mat([[1, 0]]))
    assert ker.basis == Mat([[0, 1]])


def test_rank_nullity():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        assert len(rref(m)[1]) + kernel_basis(m).dim == cols


def test_kernel_basis_one_rref_matches_reference(monkeypatch):
    # The one-rref kernel (of m with its columns reversed) equals the
    # free-column construction canonicalized by a second rref, on zero,
    # empty, tall, wide and full-rank matrices, over non-unit denominators.
    rng = random.Random(29)
    mats = [
        Mat.zeros(0, 0), Mat.zeros(0, 4), Mat.zeros(3, 0), Mat.zeros(3, 5),
        Mat.identity(4), Mat([["1/2", "2/3"], ["3/4", "5/6"]]),
    ]
    shapes = [(1, 1), (2, 6), (6, 2), (7, 3), (3, 7), (4, 4), (5, 5), (1, 8), (8, 1)]
    for rows, cols in shapes * 12:
        mats.append(random_matrix(rng, rows, cols, denoms=(1, 2, 3, 6)))
        mats.append(_sixths_matrix(rng, rows, cols))
    for rows, cols in shapes:
        # Full column rank or full row rank, whichever the shape allows.
        while True:
            m = random_matrix(rng, rows, cols, denoms=(1, 5))
            if m.rank() == min(rows, cols):
                break
        mats.append(m)
    calls = []

    def counted(m):
        calls.append((m.rows, m.cols))
        return rref(m)

    for m in mats:
        expected = kernel_reference(m)
        monkeypatch.setattr(eqcohom.linalg, "rref", counted)
        ker = kernel_basis(m)
        monkeypatch.setattr(eqcohom.linalg, "rref", rref)
        assert calls == [(m.rows, m.cols)]
        calls.clear()
        assert ker == expected
        assert (ker.ambient_dim, ker.dim) == (m.cols, m.cols - m.rank())
        _check_normal_form(ker.basis)
        assert ker.basis == Subspace(m.cols, ker.basis).basis


def test_kernel_vectors_annihilated():
    rng = random.Random(3)
    for _ in range(20):
        m = random_matrix(rng, 4, 5)
        for v in kernel_basis(m).basis_vectors():
            assert all(x == 0 for x in m.mulvec(v))


def test_solve_identity():
    assert solve(Mat.identity(3), [1, 2, 3]) == (
        Fraction(1),
        Fraction(2),
        Fraction(3),
    )


def test_solve_inconsistent():
    # x = 1 and x = 2 simultaneously.
    assert solve(Mat([[1], [1]]), [1, 2]) is None


def test_solve_exact_defining_property():
    rng = random.Random(11)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        target = [Fraction(rng.randint(-3, 3)) for _ in range(m.cols)]
        b = m.mulvec(target)
        x = solve(m, b)
        assert x is not None
        assert m.mulvec(x) == tuple(b)


def _low_rank_matrix(rng, rows, cols):
    """Random rows x cols matrix of rank at most a random inner width."""
    inner = rng.randint(0, min(rows, cols))
    return random_matrix(rng, rows, inner) * random_matrix(rng, inner, cols)


def _free_columns(m):
    """Columns that raise no rank over the columns before them (the oracle's
    own pivot test, independent of rref)."""
    ranks = [fraction_free_rank([row[:c] for row in m.data]) for c in range(m.cols + 1)]
    return [c for c in range(m.cols) if ranks[c + 1] == ranks[c]]


def test_solve_many_matches_the_defining_equation():
    rng = random.Random(29)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (4, 4)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(80)]
    kinds = {"consistent": 0, "inconsistent": 0}
    for rows, cols in shapes:
        low_rank = rng.random() < 0.7
        m = (_low_rank_matrix if low_rank else random_matrix)(rng, rows, cols)
        rhs = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.5:
                target = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
                rhs.append(m.mulvec(target))
            else:
                rhs.append([Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(rows)])
        xs = solve_many(m, rhs)
        assert len(xs) == len(rhs)
        rank = fraction_free_rank([list(row) for row in m.data])
        free = _free_columns(m)
        for b, x in zip(rhs, xs):
            assert x == solve(m, b)
            augmented = [list(row) + [bi] for row, bi in zip(m.data, b)]
            if x is None:
                kinds["inconsistent"] += 1
                assert fraction_free_rank(augmented) > rank
            else:
                kinds["consistent"] += 1
                assert m.mulvec(x) == tuple(b)
                assert all(x[c] == 0 for c in free)
    assert min(kinds.values()) > 20, kinds


def test_solve_many_inconsistent_column_before_consistent_ones():
    # The first column lands a pivot in the right-hand side; the later
    # consistent columns still read their solutions off the pivot rows.
    m = Mat([[1, 2, 0], [0, 0, 1], [1, 2, 1]])
    xs = solve_many(m, [[0, 0, 1], [3, 4, 7], [0, 0, 0], [1, 1, 1], [2, -1, 1]])
    assert xs[0] is None and xs[3] is None
    assert xs[1] == (3, 0, 4) and xs[2] == (0, 0, 0) and xs[4] == (2, 0, -1)
    assert solve_many(m, []) == []
    with pytest.raises(ValueError):
        solve_many(m, [[1, 2]])


def test_independent_rows_are_the_transpose_rref_pivots():
    # The greedy echelon choice against the pivot columns of the rref of the
    # transpose, on seeded rectangular and rank-deficient integer matrices,
    # some with zero rows spliced in.
    assert independent_rows([]) == []
    assert independent_rows([(0, 0), (0, 0)]) == []
    assert independent_rows([(1, 2), (2, 4), (0, 1), (5, 5)]) == [0, 2]
    rng = random.Random(41)
    kinds = set()
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        low_rank = rng.random() < 0.5
        m = (_low_rank_matrix if low_rank else random_matrix)(rng, rows, cols)
        ints = [list(row) for row in m.ints]
        for _ in range(rng.randint(0, 2)):
            ints.insert(rng.randint(0, len(ints)), [0] * cols)
        copy = [row[:] for row in ints]
        expected = rref(Mat.from_ints(ints).transpose())[1]
        got = independent_rows(ints)
        assert ints == copy
        assert got == expected
        kinds.add(len(expected) < min(len(ints), cols))
    assert kinds == {True, False}


def _hnf_rows(rng):
    """A seeded row set for the HNF: up to 9 rows of width d <= 8, with
    |entries| up to 10^6. Half are rank-deficient: the rows are small
    combinations of fewer base rows, and some columns may be zero. Zero or
    repeated rows may be spliced into either kind."""
    cols = rng.randint(1, 8)
    scale = rng.choice([1, 3, 40, 1000, 250_000])

    def entry():
        return int(rng.random() * (2 * scale + 1)) - scale

    n_rows = rng.randint(0, 9)
    if rng.random() < 0.5:
        live = [c for c in range(cols) if rng.random() < 0.75]
        base = []
        for _ in range(rng.randint(0, min(cols, 4))):
            b = [0] * cols
            for c in live:
                b[c] = entry()
            base.append(b)
        rows = []
        for _ in range(n_rows):
            coeffs = [rng.choice((-2, -1, 0, 1, 2)) for _ in base]
            rows.append([sum([k * b[c] for k, b in zip(coeffs, base)]) for c in range(cols)])
    else:
        rows = [[entry() for _ in range(cols)] for _ in range(n_rows)]
    for _ in range(rng.randint(0, 2)):
        extra = rng.choice(rows) if rows and rng.random() < 0.5 else [0] * cols
        rows.insert(rng.randint(0, len(rows)), list(extra))
    return rows, cols


def test_hnf_matches_the_euclid_reference():
    # The incremental HNF against the Euclid HNF it replaced, and the rows
    # that opened its pivots against the greedy independent rows, on 20,000
    # seeded row sets; the input rows are left as they were.
    assert hermite_normal_form([], 3) == ([], [])
    assert hermite_normal_form([(0, 0)], 2) == ([], [])
    assert hermite_normal_form([(4, 6), (6, 9), (0, 5)], 2) == ([[2, 3], [0, 5]], [0, 2])
    assert hermite_normal_form([(-3, 7, 1)], 3) == ([[3, -7, -1]], [0])
    with pytest.raises(ValueError):
        hermite_normal_form([(1, 2), (3,)], 2)
    rng = random.Random(47)
    kinds = Counter()
    for _ in range(20_000):
        rows, cols = _hnf_rows(rng)
        copy = [row[:] for row in rows]
        basis, opened = hermite_normal_form(rows, cols)
        assert rows == copy
        assert basis == hnf_reference(rows, cols), (rows, cols)
        assert opened == independent_rows(rows), (rows, cols)
        kinds["rank-deficient" if len(basis) < cols else "full rank"] += 1
        kinds["identity"] += basis == [[int(i == j) for j in range(cols)] for i in range(cols)]
        kinds["entries above 10^5"] += any(abs(x) > 10**5 for row in rows for x in row)
        kinds["dependent rows"] += len(opened) < len(rows)
    assert min(kinds.values()) >= 2000, kinds


def test_hnf_reads_no_row_past_the_identity():
    # Once the basis is the identity the lattice is Z^d, and the rows left
    # cannot change it: an iterator that raises when read past that point
    # is never read there, and the answer is still the reference's.
    rng = random.Random(53)
    stopped = 0
    for _ in range(1000):
        cols = rng.randint(1, 5)
        rows = [
            [rng.choice([-2, -1, 0, 0, 1, 2, 3]) for _ in range(cols)]
            for _ in range(rng.randint(1, 10))
        ]
        identity = [[int(i == j) for j in range(cols)] for i in range(cols)]
        read = next(
            (k for k in range(1, len(rows) + 1) if hnf_reference(rows[:k], cols) == identity),
            None,
        )
        if read is None:
            continue

        def feed():
            yield from rows[:read]
            raise AssertionError(f"row {read} read past the identity")

        assert hermite_normal_form(feed(), cols) == (identity, independent_rows(rows))
        stopped += read < len(rows)
    assert stopped >= 200, stopped


def test_hnf_on_consecutive_fibonacci_pairs_finishes_fast():
    # Consecutive Fibonacci numbers are Euclid's worst case: each gcd takes
    # as many steps as the index. 200 rows at d = 8 whose lattice is never
    # Z^8, so every row is read: eight consecutive Fibonacci numbers (a
    # rank-2 lattice), and a pair twice over at sliding columns.
    fib = [0, 1]
    while len(fib) < 1300:
        fib.append(fib[-1] + fib[-2])
    runs = [
        [fib[k : k + 8] for k in range(1000, 1200)],
        [
            [2 * fib[1200 - k + (c - k % 7)] if c - k % 7 in (0, 1) else 0 for c in range(8)]
            for k in range(200)
        ],
    ]
    for rows in runs:
        start = time.perf_counter()
        basis, opened = hermite_normal_form(rows, 8)
        assert time.perf_counter() - start < 0.5
        assert basis == hnf_reference(rows, 8)
        assert opened == independent_rows(rows)
        assert basis != [[int(i == j) for j in range(8)] for i in range(8)]
    assert len(hermite_normal_form(runs[0], 8)[1]) == 2


def test_reduction_reads_rank_consistency_solutions_and_kernel():
    # One Reduction of [m | c_1 ... c_k] against the separate answers: the
    # rank, solve_many for each column (its consistency and its solution),
    # and kernel_basis; m with denominators and with no rows among them.
    rng = random.Random(43)
    shapes = [(0, 0), (0, 3), (3, 0), (2, 2)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(120)]
    kinds = set()
    for rows, cols in shapes:
        m = (_low_rank_matrix if rng.random() < 0.6 else random_matrix)(rng, rows, cols)
        columns = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                target = [rng.randint(-3, 3) for _ in range(cols)]
                columns.append([sum(map(int.__mul__, row, target)) for row in m.ints])
            else:
                columns.append([rng.randint(-3, 3) for _ in range(rows)])
        red = Reduction(m, columns)
        assert red.rank == fraction_free_rank([list(row) for row in m.data])
        assert red.kernel() == kernel_basis(m)
        for j, x in enumerate(solve_many(m, columns)):
            assert red.consistent(j) == (x is not None)
            if x is None:
                assert red.solution(j, 5) is None
            else:
                den, ints = red.solution(j, 5)
                assert tuple(Fraction(5 * v, den) for v in ints) == x
        kinds.add((m.den > 1, red.rank < cols, any(x is None for x in solve_many(m, columns))))
    assert {(True, True), (True, False), (False, True), (False, False)} <= {k[:2] for k in kinds}
    assert {k[2] for k in kinds} == {True, False}


def _inverse_columns(m):
    """solve_many against the identity columns: the columns of m^-1, with
    None for each unit vector outside the image of m."""
    return solve_many(m, Mat.identity(m.rows).data)


def test_inverse():
    m = Mat([[2, 1], [1, 1]])
    cols = _inverse_columns(m)
    assert cols == [(1, -1), (-1, 2)]
    assert m * Mat.from_cols(cols) == Mat.identity(2)
    assert None in _inverse_columns(Mat([[1, 2], [2, 4]]))


def test_inverse_roundtrip_and_singular():
    rng = random.Random(31)
    assert _inverse_columns(Mat.zeros(0, 0)) == []
    inverted = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n)
        cols = _inverse_columns(m)
        if fraction_free_rank([list(row) for row in m.data]) < n:
            assert None in cols
            continue
        inv = Mat.from_cols(cols)
        assert m * inv == Mat.identity(n) and inv * m == Mat.identity(n)
        inverted += 1
    assert inverted > 20
    for n in range(2, 6):
        singular = random_matrix(rng, n, n - 1) * random_matrix(rng, n - 1, n)
        assert None in _inverse_columns(singular)


def test_subspace_canonical_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        m = random_matrix(rng, 3, 5)
        s = Subspace(5, m.data)
        if s.dim == 0:
            continue
        # Any basis of the same space canonicalizes identically.
        mixed = [
            [2 * a + b for a, b in zip(s.basis.data[0], s.basis.data[-1])]
        ] + [list(v) for v in reversed(s.basis.data)]
        assert Subspace(5, mixed) == s
        assert Subspace(5, s.basis.data) == s


def test_quotient_dim_equal_spaces():
    s = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    assert quotient_dim(s, s) == 0


def test_quotient_dim_requires_nesting():
    a = Subspace(2, [[1, 0]])
    b = Subspace(2, [[0, 1]])
    with pytest.raises(ValueError):
        quotient_dim(a, b)


def test_intersection_coordinate_subspaces():
    a = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace(3, [[0, 1, 0], [0, 0, 1]])
    assert subspace_intersection(a, b) == Subspace(3, [[0, 1, 0]])


def test_grassmann_identity():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 6)
        a = Subspace(n, random_matrix(rng, rng.randint(0, n), n).data)
        b = Subspace(n, random_matrix(rng, rng.randint(0, n), n).data)
        lhs = a.dim + b.dim
        rhs = subspace_sum(a, b).dim + subspace_intersection(a, b).dim
        assert lhs == rhs


def test_containment():
    a = Subspace(3, [[1, 0, 0]])
    b = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    assert a.is_subspace_of(b)
    assert not b.is_subspace_of(a)
    assert b.contains([1, 2, 0])
    assert not b.contains([0, 0, 1])


# Integer form against plain-Fraction definitions. A Mat holds integer rows
# over one positive common denominator in lowest terms; every operation
# below is recomputed here on lists of Fractions, with no Mat arithmetic.

def _check_normal_form(m):
    entries = [x for row in m.ints for x in row]
    assert all(type(x) is int for x in entries) and type(m.den) is int
    assert m.den >= 1
    assert gcd(m.den, *entries) == 1
    if not any(entries):
        assert m.den == 1
    assert len(m.ints) == m.rows and all(len(row) == m.cols for row in m.ints)


def _fractions(m):
    """The entries of m from its integer form, without Mat.data."""
    return [[Fraction(x, m.den) for x in row] for row in m.ints]


def _ref_rref(rows, n_cols):
    """Textbook Gauss-Jordan over Fractions: first nonzero entry of each
    column as pivot, row scaled to 1, column cleared above and below."""
    a = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(n_cols):
        i = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for k in range(len(a)):
            if k != r and a[k][c] != 0:
                f = a[k][c]
                a[k] = [x - f * y for x, y in zip(a[k], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def _ref_span(rows, n_cols):
    """Canonical basis of a row space: nonzero rows of its RREF."""
    red, pivots = _ref_rref(rows, n_cols)
    return [tuple(row) for row in red[: len(pivots)]]


def _ref_kernel(rows, n_cols):
    red, pivots = _ref_rref(rows, n_cols)
    vectors = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        vectors.append(v)
    return _ref_span(vectors, n_cols)


def _ref_intersection(a_rows, b_rows, n):
    """Zassenhaus: the rows of rref [[A, A], [B, 0]] whose left half is 0
    carry a basis of the intersection in their right half."""
    stacked = [list(r) + list(r) for r in a_rows] + [
        list(r) + [Fraction(0)] * n for r in b_rows
    ]
    red, _ = _ref_rref(stacked, 2 * n)
    rows = [row[n:] for row in red if not any(row[:n]) and any(row[n:])]
    return _ref_span(rows, n)


def _sixths_matrix(rng, rows, cols):
    """Entries over the denominators {1, 2, 3, 6}, often negative (so
    pivots are), some zero, with repeated rows to force rank deficits."""
    data = []
    for _ in range(rows):
        if data and rng.random() < 0.25:
            k = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 6)))
            data.append([k * x for x in rng.choice(data)])
        else:
            data.append(
                [
                    Fraction(rng.randint(-5, 3), rng.choice((1, 2, 3, 6)))
                    if rng.random() < 0.7
                    else Fraction(0)
                    for _ in range(cols)
                ]
            )
    return Mat(data, cols=cols)


def test_equal_rationals_by_different_routes_give_equal_mats():
    routes = [
        Mat([["2/4"]]),
        Mat([[Fraction(1, 2)]]),
        Mat([["3/4"]]) * Mat([["2/3"]]),
        Mat.from_ints([[3]]) * Mat([["1/6"]]) + Mat([["1/3"]]) - Mat([["1/3"]]),
        Mat([["1/3", "-1/6"]]).transpose().transpose() * Mat([[3], [3]]),
    ]
    for m in routes:
        _check_normal_form(m)
        assert (m.ints, m.den) == (((1,),), 2)
        assert m == routes[0] and hash(m) == hash(routes[0])
    zero = Mat([["1/6", "-1/6"]]) - Mat([["1/6", "-1/6"]])
    assert zero == Mat.zeros(1, 2) == Mat([[0, "0/5"]]) and zero.den == 1
    assert hash(zero) == hash(Mat.zeros(1, 2))
    assert Mat([["1/2"]]) != Mat([[1]]) and Mat.zeros(0, 2) != Mat.zeros(0, 3)
    assert Mat.zeros(2, 0) != Mat.zeros(3, 0)


def test_integer_form_matches_fraction_definitions():
    rng = random.Random(6)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1), (2, 4), (4, 2), (3, 3), (5, 5), (4, 6)]
    for rows, cols in shapes * 8:
        a = _sixths_matrix(rng, rows, cols)
        b = _sixths_matrix(rng, rows, cols)
        fa, fb = _fractions(a), _fractions(b)
        for m in (a, b):
            _check_normal_form(m)
            assert [list(r) for r in m.data] == _fractions(m)
        plus, minus = a + b, a - b
        assert _fractions(plus) == [[x + y for x, y in zip(r, s)] for r, s in zip(fa, fb)]
        assert _fractions(minus) == [[x - y for x, y in zip(r, s)] for r, s in zip(fa, fb)]
        t = a.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert _fractions(t) == [[fa[i][j] for i in range(rows)] for j in range(cols)]
        k = rng.randint(0, 4)
        c = _sixths_matrix(rng, cols, k)
        fc = _fractions(c)
        prod = a * c
        assert (prod.rows, prod.cols) == (rows, k)
        assert _fractions(prod) == [
            [sum((fa[i][t] * fc[t][j] for t in range(cols)), Fraction(0)) for j in range(k)]
            for i in range(rows)
        ]
        stack = Mat.vstack([a, Mat.zeros(0, cols), b])
        assert _fractions(stack) == fa + fb
        v = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 6))) for _ in range(cols)]
        assert a.mulvec(v) == tuple(
            sum((x * y for x, y in zip(r, v)), Fraction(0)) for r in fa
        )
        red, pivots = rref(a)
        ref_red, ref_pivots = _ref_rref(fa, cols)
        assert pivots == ref_pivots and _fractions(red) == ref_red
        assert kernel_basis(a).basis_vectors() == tuple(_ref_kernel(fa, cols))
        # One right-hand side in the image of a, one most likely not.
        xs = [Fraction(rng.randint(-3, 3), 2) for _ in range(cols)]
        bs = [
            [sum((x * y for x, y in zip(r, xs)), Fraction(0)) for r in fa],
            [Fraction(rng.randint(-3, 3), 3) for _ in range(rows)],
        ]
        for b_vec, x in zip(bs, solve_many(a, bs)):
            aug_red, aug_pivots = _ref_rref(
                [list(r) + [y] for r, y in zip(fa, b_vec)], cols + 1
            )
            if cols in aug_pivots:
                assert x is None
                continue
            expected = [Fraction(0)] * cols
            for row, p in zip(aug_red, aug_pivots):
                expected[p] = row[cols]
            assert x == tuple(expected)
        sa, sb = Subspace(cols, a), Subspace(cols, b)
        assert sa.basis_vectors() == tuple(_ref_span(fa, cols))
        meet = subspace_intersection(sa, sb)
        assert meet.basis_vectors() == tuple(_ref_intersection(fa, fb, cols))
        for m in (plus, minus, t, prod, stack, red, sa.basis, meet.basis):
            _check_normal_form(m)
