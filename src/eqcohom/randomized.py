"""Seeded random instance generation and the property-verification harness.

Random equivariant instances are built in a basis adapted to ker pi, where
equivariance is a block-shape condition: both linear families draw their
blocks and build each generator pair through one `_block_pair`. They are
then conjugated by random unimodular matrices. This guarantees validity by
construction while still sampling instances on both sides of the sharp
characterization.
Every integer draw is `_below`'s, off rng.getrandbits: what randrange,
randint or choice would draw, without their three Python frames per draw.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd
from typing import Callable, NamedTuple, Sequence

from .errors import VERIFY_BUDGET, InputError, PreconditionError
from .graphs import Graph, GraphAction, to_instance
from .instance import (
    Decomposer,
    LinearInstance,
    _apply,
    slot_solutions,
    verify_iff,
)
from .linalg import Mat, independent_rows
from .records import Record

MAX_GENS = 3  # most generators of a random linear instance


def _below(bits: Callable[[int], int], n: int) -> int:
    """rng.randrange(n) for bits = rng.getrandbits, by the standard
    library's own rejection loop on the same stream; rng.randint(a, b) is
    a + _below(bits, b - a + 1) and rng.choice(seq) is seq[_below(bits, len(seq))]."""
    if n < 1:
        raise ValueError(f"no integer below {n} to draw")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_invertible(rng: random.Random, n: int) -> Mat:
    """A random invertible n x n integer matrix: dense blocks with entries
    in [-2, 2] are drawn until one is nonsingular, tested on the drawn rows
    before a Mat is made."""
    if n == 0:
        return Mat.zeros(0, 0)
    bits = rng.getrandbits
    while True:
        rows = [tuple([_below(bits, 5) - 2 for _ in range(n)]) for _ in range(n)]
        if len(independent_rows(rows)) == n:
            return Mat._new(tuple(rows), 1, n)


def _elementary_ops(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """2n random elementary integer row operations, each of determinant
    +-1: (0, i, j, k) adds k times row i to row j, (1, i, j) swaps rows i
    and j, and (2, i) negates row i."""
    bits = rng.getrandbits
    ops = []
    for _ in range(2 * n):
        kind = _below(bits, 3)
        i, j = _below(bits, n), _below(bits, n)
        if kind == 0 and i != j:
            ops.append((0, i, j, (-2, -1, 1, 2)[_below(bits, 4)]))
        elif kind == 1:
            ops.append((1, i, j))
        else:
            ops.append((2, i))
    return ops


def _apply_ops(
    ops: list[tuple[int, ...]], rows: Sequence[Sequence[int]], inverse: bool = False
) -> list:
    """Apply each row operation in turn to the row lists of a matrix, or
    with inverse=True the inverse of each, in the same order. Applied to
    the rows of X^T, the inverses are the column operations that give
    X E_1^-1 ... E_2n^-1. Each operation costs O(row length)."""
    rows = list(rows)
    for op in ops:
        if op[0] == 0:
            _, i, j, k = op
            if inverse:
                rows[i] = [x - k * y for x, y in zip(rows[i], rows[j])]
            else:
                rows[j] = [x + k * y for x, y in zip(rows[j], rows[i])]
        elif op[0] == 1:
            _, i, j = op
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[op[1]] = [-x for x in rows[op[1]]]
    return rows


def _transposed(rows: list, width: int) -> list:
    """The columns of the matrix with these rows, as tuples of exact
    length; `width` is their number, which no row shows when there is
    none."""
    return list(zip(*rows)) if rows else [()] * width


def _beside(n: int, mats: list[Mat]) -> list[list[int]]:
    """The integer rows of [I_n | m_1 | ... | m_k], each a list."""
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        for m in mats:
            row += m.ints[i]
        rows.append(row)
    return rows


@lru_cache(maxsize=256)
def _adapted_pi(m: int, r: int, s: int) -> Mat:
    """pi0 = [0 I_r; 0 0], of shape (r + s) x (m + r): ker pi0 is spanned
    by the first m coordinates of U. A Mat is immutable, so one is built
    per (m, r, s) and shared."""
    dim_u = m + r
    return Mat.from_ints(
        [[1 if c == m + row else 0 for c in range(dim_u)] for row in range(r)]
        + [[0] * dim_u for _ in range(s)],
        cols=dim_u,
    )


def _block_pair(
    a: Mat, b: Sequence[Sequence[int]], dmat: Mat, f: Sequence[Sequence[int]], h: Mat
) -> tuple[Mat, Mat]:
    """The adapted-basis generator gu0 = [a b; 0 dmat] on U and
    gw0 = [dmat f; 0 h] on W, for square integer a (m x m), dmat (r x r)
    and h (s x s), and integer rows b (m x r) and f (r x s); their integer
    rows are wrapped as they are. Both are block triangular with the same
    dmat, so pi0 gu0 = [0 dmat; 0 0] = gw0 pi0 for
    pi0 = _adapted_pi(m, r, s)."""
    m, r, s = a.rows, dmat.rows, h.rows
    gu0 = Mat._new(
        tuple(
            [a.ints[i] + tuple(b[i]) for i in range(m)]
            + [(0,) * m + dmat.ints[i] for i in range(r)]
        ),
        1,
        m + r,
    )
    gw0 = Mat._new(
        tuple(
            [dmat.ints[i] + tuple(f[i]) for i in range(r)]
            + [(0,) * r + h.ints[i] for i in range(s)]
        ),
        1,
        r + s,
    )
    return gu0, gw0


def _check_max_dim(max_dim: int) -> None:
    """Refuse a max_dim below 2, which leaves no designed equality
    instance to draw (it needs dim_U >= 2)."""
    if max_dim < 2:
        raise InputError(f"max_dim must be >= 2, got {max_dim}")


def random_linear_instance(rng: random.Random, max_dim: int = 6) -> LinearInstance:
    """Valid random instance, drawn from one of the two linear families:
    the designed equality instances or the general block instances. A
    designed equality instance needs dim_U >= 2, so a max_dim below 2 is
    refused with InputError before anything is drawn."""
    _check_max_dim(max_dim)
    if rng.random() < 0.35:
        return _designed_equality_instance(rng, max_dim)
    return _block_instance(rng, max_dim)


def _block_instance(rng: random.Random, max_dim: int) -> LinearInstance:
    """Adapted-basis block construction with random blocks + conjugation."""
    bits = rng.getrandbits
    dim_u = 1 + _below(bits, max_dim)
    m = _below(bits, min(2, dim_u) + 1)
    r = dim_u - m
    s_min = 0 if r > 0 else 1
    s = s_min + _below(bits, max_dim - r - s_min + 1)
    d = 1 + _below(bits, MAX_GENS)

    pi0 = _adapted_pi(m, r, s)

    gens0 = []
    for _ in range(d):
        a = Mat.identity(m) if rng.random() < 0.6 else random_invertible(rng, m)
        dmat = Mat.identity(r) if rng.random() < 0.5 else random_invertible(rng, r)
        b = [[(-1, 0, 0, 1, 2)[_below(bits, 5)] for _ in range(r)] for _ in range(m)]
        f = [[(-1, 0, 0, 1)[_below(bits, 4)] for _ in range(s)] for _ in range(r)]
        h = Mat.identity(s) if rng.random() < 0.5 else random_invertible(rng, s)
        gens0.append(_block_pair(a, b, dmat, f, h))
    return _conjugated(rng, pi0, gens0)


def _conjugated(
    rng: random.Random, pi0: Mat, gens0: list[tuple[Mat, Mat]]
) -> LinearInstance:
    """Conjugate an adapted-basis instance by random unimodular P on U and Q
    on W: pi = Q pi0 P^-1, g = P g0 P^-1 and Q g0 Q^-1.

    P and Q are never formed. A row operation acts alike on every block of
    a side-by-side stack, and a column operation on every block of a
    vertical one, so each side's operations run in one pass over all its
    matrices: ops_u on the rows of [I | gu0_1 ... gu0_d] and ops_w on those
    of [I | pi0 | gw0_1 ... gw0_d]; then the inverse ops_u on the columns
    of [P ; Q pi0 ; P gu0_1 ; ...] and the inverse ops_w on those of
    [Q ; Q gw0_1 ; ...], that is on the rows of their transposes. Four
    passes in all, each operation one pass over a row. Every block keeps
    its own denominator: the operations are unimodular, so it stays in
    lowest terms.

    The identity blocks come out as P P^-1 and Q Q^-1, and must be I: the
    inverse operations undo the operations. The checks need no
    elimination, and they raise AssertionError explicitly, so they run
    under python -O too. Each g0 is block triangular with diagonal blocks
    that are identities or checked by random_invertible, so it is
    invertible, and so is its conjugate; equivariance is checked on the
    conjugates themselves by dense products. The full validate runs in the
    tests, on many seeded draws.
    """
    dim_u, dim_w = pi0.cols, pi0.rows
    d = len(gens0)
    ops_u = _elementary_ops(rng, dim_u)
    ops_w = _elementary_ops(rng, dim_w)
    # The columns of P [I | gu0_1 ...] and of Q [I | pi0 | gw0_1 ...].
    pu = _transposed(
        _apply_ops(ops_u, _beside(dim_u, [gu0 for gu0, _ in gens0])),
        dim_u * (1 + d),
    )
    qw = _transposed(
        _apply_ops(ops_w, _beside(dim_w, [pi0] + [gw0 for _, gw0 in gens0])),
        dim_w * (1 + d) + dim_u,
    )
    # Row c of each transpose holds column c of every block in turn.
    rows_u = []
    for c in range(dim_u):
        row = [*pu[c], *qw[dim_w + c]]
        for col in pu[dim_u + c :: dim_u]:
            row += col
        rows_u.append(row)
    rows_w = []
    for c in range(dim_w):
        row = list(qw[c])
        for col in qw[dim_w + dim_u + c :: dim_w]:
            row += col
        rows_w.append(row)
    # The rows of [P P^-1 ; pi ; gu_1 ...] and of [Q Q^-1 ; gw_1 ...].
    su = _transposed(_apply_ops(ops_u, rows_u, inverse=True), dim_u * (1 + d) + dim_w)
    sw = _transposed(_apply_ops(ops_w, rows_w, inverse=True), dim_w * (1 + d))
    if (
        tuple(su[:dim_u]) != Mat.identity(dim_u).ints
        or tuple(sw[:dim_w]) != Mat.identity(dim_w).ints
    ):
        raise AssertionError("the inverse operations do not undo")
    pi = Mat._new(tuple(su[dim_u : dim_u + dim_w]), pi0.den, dim_u)
    gens = []
    for i, (gu0, gw0) in enumerate(gens0):
        at_u, at_w = dim_u + dim_w + i * dim_u, (i + 1) * dim_w
        gu = Mat._new(tuple(su[at_u : at_u + dim_u]), gu0.den, dim_u)
        gw = Mat._new(tuple(sw[at_w : at_w + dim_w]), gw0.den, dim_w)
        if pi * gu != gw * pi:
            raise AssertionError(f"generator {i}: equivariance fails")
        gens.append((gu, gw))
    return LinearInstance(dim_u, dim_w, pi, tuple(gens), {})


def _designed_equality_instance(rng: random.Random, max_dim: int) -> LinearInstance:
    """Instance where both sharp conditions hold by construction: each
    generator shears its own block of complement coordinates onto the
    kernel (a multi-generator version of the basic shear)."""
    choices = [
        (m, d)
        for m in (1, 2)
        for d in range(1, MAX_GENS + 1)
        if m + m * d <= max_dim
    ]
    bits = rng.getrandbits
    m, d = choices[_below(bits, len(choices))]
    r = m * d + _below(bits, max_dim - m - m * d + 1)
    s = _below(bits, max(0, max_dim - r) + 1)
    pi0 = _adapted_pi(m, r, s)
    gens0 = []
    for j in range(d):
        b = [[0] * r for _ in range(m)]
        for k in range(m):
            b[k][j * m + k] = 1
        f = [[(-1, 0, 0, 1)[_below(bits, 4)] for _ in range(s)] for _ in range(r)]
        h = Mat.identity(s) if rng.random() < 0.5 else random_invertible(rng, s)
        gens0.append(_block_pair(Mat.identity(m), b, Mat.identity(r), f, h))
    return _conjugated(rng, pi0, gens0)


def random_graph(rng: random.Random, max_vertices: int = 7) -> Graph:
    """Random graph allowing multi-edges, loops, and isolated vertices."""
    bits = rng.getrandbits
    n = 1 + _below(bits, max_vertices)
    n_edges = _below(bits, 2 * n + 1)
    edges = []
    for i in range(n_edges):
        o = _below(bits, n)
        t = _below(bits, n)
        edges.append((i, o, t))
    return Graph.make(n, edges)


def random_graph_instance(rng: random.Random) -> LinearInstance:
    """Instance from a small graph-with-automorphism family."""
    bits = rng.getrandbits
    kind = _below(bits, 4)
    if kind == 0:
        # Cycle with a rotation.
        n = 3 + _below(bits, 4)
        g = Graph.make(n, [(i, i, (i + 1) % n) for i in range(n)])
        shift = 1 + _below(bits, n - 1)
        perm = tuple([(v + shift) % n for v in range(n)])
        act = GraphAction((perm,), {0: n // gcd(n, shift)})
    elif kind == 1:
        # Two disjoint copies of a random graph, swapped.
        base = random_graph(rng, 3)
        n = base.n_vertices
        edges = list(zip(base.ids, base.origins, base.targets))
        edges += [
            (len(edges) + i, o + n, t + n)
            for i, (o, t) in enumerate(zip(base.origins, base.targets))
        ]
        g = Graph.make(2 * n, edges)
        perm = tuple(list(range(n, 2 * n)) + list(range(n)))
        act = GraphAction((perm,), {0: 2})
    elif kind == 2:
        # Path with the end-to-end reflection.
        n = 2 + _below(bits, 5)
        g = Graph.make(n, [(i, i, i + 1) for i in range(n - 1)])
        perm = tuple([n - 1 - v for v in range(n)])
        act = GraphAction((perm,), {0: 2})
    else:
        # Identity action on an arbitrary random graph.
        g = random_graph(rng, 5)
        act = GraphAction((tuple(range(g.n_vertices)),), {0: 1})
    return to_instance(g, act)


class Violation(NamedTuple):
    index: int
    kind: str
    detail: str
    instance_json: dict


class VerifyResult(Record):
    _fields = ("seed", "count", "checked", "decompositions", "violations")

    def __init__(self, seed: int, count: int):
        self.seed, self.count = seed, count
        self.checked = self.decompositions = 0
        self.violations: list[Violation] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "checked": self.checked,
            "decompositions": self.decompositions,
            "violations": [
                {"index": v.index, "kind": v.kind, "detail": v.detail}
                for v in self.violations
            ],
            "ok": self.ok,
        }


def _combination(rng: random.Random, basis: Mat, bound: int) -> list[int]:
    """sum_i c_i b_i over the integer rows b_i of `basis`, each c_i drawn in
    turn from [-bound, bound]: an integer vector over basis.den."""
    bits = rng.getrandbits
    coeffs = [_below(bits, 2 * bound + 1) - bound for _ in range(basis.rows)]
    out = [0] * basis.cols
    for c, row in zip(coeffs, basis.ints):
        if c:
            out = [x + c * y for x, y in zip(out, row)]
    return out


def check_one_instance(
    inst: LinearInstance, rng: random.Random, result: VerifyResult, index: int
) -> None:
    """Flag the bound/iff failures that verify_iff reports and, when
    possible, run a decomposition round-trip with a coefficient-invariance
    shift.

    The round trip runs on integers: w = pi u for a random integer
    combination u of the basis of U~ = pi^-1(W^G), the u_jk are the slot
    solutions of the canonical basis of ker pi, and one Decomposer of w
    assembles both those u_jk and the u_jk shifted by random fixed
    vectors. Its coefficients do not depend on the u_jk, so the shifted
    ones must pass the same two checks with the same coefficients.
    """
    iff = verify_iff(inst)
    m, d, dim = iff.m, iff.d, iff.dim
    ci, cii = iff.condition_i, iff.condition_ii

    def flag(kind: str, detail: str) -> None:
        result.violations.append(Violation(index, kind, detail, inst.to_json()))

    if not iff.bound_ok:
        flag("bound", f"dim {dim} > m*d = {m * d}")
    if not iff.iff_ok:
        flag(
            "iff",
            f"dim {dim}, m*d {m * d}, condition_i {ci}, condition_ii {cii}",
        )
    result.checked += 1

    if not (ci and cii and m > 0):
        return
    ujk = slot_solutions(inst)
    if ujk is None:
        flag("find-ujk", "condition (ii) holds but the ujk solve failed")
        return
    # ker pi lies in U~, so U~ is not zero.
    ut = inst.fixed_preimage.basis
    u = _combination(rng, ut, 3)
    w = _apply(inst.pi, u)  # pi u, over inst.pi.den * ut.den
    core = Decomposer(inst, inst.pi.den * ut.den, w, inst.kernel.basis)
    try:
        core.assemble(ujk)
    except AssertionError as exc:
        flag("decompose", str(exc))
        return
    result.decompositions += 1
    # Shift every ujk by a random fixed vector: the same coefficients must
    # still decompose w.
    fixed = inst.fixed_U.basis
    if fixed.rows == 0:
        return
    shifted = []
    for row in ujk:
        out = []
        for den_u, x in row:
            s = _combination(rng, fixed, 2)
            out.append(
                (den_u * fixed.den, [fixed.den * a + den_u * b for a, b in zip(x, s)])
            )
        shifted.append(out)
    try:
        core.assemble(shifted)
    except AssertionError as exc:
        flag("shift-invariance", f"{exc} under a fixed-vector shift")


def run_verification(seed: int, count: int, max_dim: int = 6) -> VerifyResult:
    """Check `count` seeded random instances. A designed equality instance
    needs dim_U >= 2, so max_dim < 2 has no instance to draw. A max_dim
    whose predicted elimination work per instance is above VERIFY_BUDGET
    raises PreconditionError("budget", ...) before any instance is drawn."""
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")
    _check_max_dim(max_dim)
    cells = MAX_GENS * max_dim**3
    if cells > VERIFY_BUDGET:
        raise PreconditionError(
            "budget",
            f"max_dim {max_dim} predicts {cells} elimination cells per "
            f"instance, MAX_GENS*max_dim^3, over the budget of {VERIFY_BUDGET}",
        )
    rng = random.Random(seed)
    result = VerifyResult(seed=seed, count=count)
    for i in range(count):
        if rng.random() < 0.8:
            inst = random_linear_instance(rng, max_dim=max_dim)
        else:
            inst = random_graph_instance(rng)
        check_one_instance(inst, rng, result, i)
    return result
