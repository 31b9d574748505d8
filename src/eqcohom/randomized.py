"""Seeded random instance generation and the property-verification harness.

Random equivariant instances are built in a basis adapted to ker pi, where
equivariance is a block-shape condition, and then conjugated by random
unimodular matrices. This guarantees validity by construction while still
sampling instances on both sides of the sharp characterization.
"""

from __future__ import annotations

import random
from math import gcd
from typing import NamedTuple, Sequence

from .errors import VERIFY_BUDGET, InputError, PreconditionError
from .graphs import Graph, GraphAction, to_instance
from .instance import (
    Decomposer,
    LinearInstance,
    _apply,
    slot_solutions,
    verify_iff,
)
from .linalg import Mat
from .records import Record

MAX_GENS = 3  # most generators of a random linear instance


def random_invertible(rng: random.Random, n: int, lo: int = -2, hi: int = 2) -> Mat:
    """A random invertible n x n integer matrix: dense blocks with entries
    in [lo, hi] are drawn until one is nonsingular."""
    if n == 0:
        return Mat.zeros(0, 0)
    while True:
        m = Mat.from_ints([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def _elementary_ops(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """2n random elementary integer row operations, each of determinant
    +-1: (0, i, j, k) adds k times row i to row j, (1, i, j) swaps rows i
    and j, and (2, i) negates row i."""
    ops = []
    for _ in range(2 * n):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            ops.append((0, i, j, rng.choice([-2, -1, 1, 2])))
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


def _conjugate(left: list, right: list, m: Mat) -> Mat:
    """L m R^-1 for L the product of the row operations `left` and R that
    of `right`: the row operations applied to m's rows, then the inverse
    operations of `right` applied to the columns. L and R are unimodular,
    so the result keeps m's denominator and stays in lowest terms."""
    rows = _apply_ops(left, m.ints)
    cols = _apply_ops(right, list(zip(*rows)) if rows else [()] * m.cols, inverse=True)
    out = tuple(zip(*cols)) if cols else ((),) * m.rows
    return Mat._new(out, m.den, m.cols)


def random_unimodular(rng: random.Random, n: int) -> tuple[Mat, Mat]:
    """(P, P^-1) for a product P = E_2n ... E_1 of 2n random elementary
    integer row operations; det P = +-1.

    P is the operations applied to the rows of the identity, and P^-1 =
    E_1^-1 ... E_2n^-1 their inverses applied, as column operations, to
    the identity: the same operations that _conjugated applies to each
    matrix of an instance.
    """
    ops = _elementary_ops(rng, n)
    ident = Mat.identity(n).ints
    p = Mat.from_ints(_apply_ops(ops, ident), cols=n)
    p_inv = Mat.from_ints(_apply_ops(ops, ident, inverse=True), cols=n).transpose()
    return p, p_inv


def random_linear_instance(rng: random.Random, max_dim: int = 6) -> LinearInstance:
    """Valid random instance: adapted-basis block construction + conjugation."""
    if rng.random() < 0.35:
        return _designed_equality_instance(rng, max_dim)
    dim_u = rng.randint(1, max_dim)
    m = rng.randint(0, min(2, dim_u))
    r = dim_u - m
    s_min = 0 if r > 0 else 1
    s = rng.randint(s_min, max_dim - r)
    dim_w = r + s
    d = rng.randint(1, MAX_GENS)

    pi0 = Mat.from_ints(
        [[1 if c == m + row else 0 for c in range(dim_u)] for row in range(r)]
        + [[0] * dim_u for _ in range(s)],
        cols=dim_u,
    )

    gens0 = []
    for _ in range(d):
        a = Mat.identity(m) if rng.random() < 0.6 else random_invertible(rng, m)
        dmat = Mat.identity(r) if rng.random() < 0.5 else random_invertible(rng, r)
        b = [[rng.choice([-1, 0, 0, 1, 2]) for _ in range(r)] for _ in range(m)]
        f = [[rng.choice([-1, 0, 0, 1]) for _ in range(s)] for _ in range(r)]
        h = Mat.identity(s) if rng.random() < 0.5 else random_invertible(rng, s)
        gu0 = Mat.from_ints(
            [a.ints[i] + tuple(b[i]) for i in range(m)]
            + [(0,) * m + dmat.ints[i] for i in range(r)]
        )
        gw0 = Mat.from_ints(
            [dmat.ints[i] + tuple(f[i]) for i in range(r)]
            + [(0,) * r + h.ints[i] for i in range(s)]
        )
        gens0.append((gu0, gw0))
    return _conjugated(rng, pi0, gens0)


def _conjugated(
    rng: random.Random, pi0: Mat, gens0: list[tuple[Mat, Mat]]
) -> LinearInstance:
    """Conjugate an adapted-basis instance by random unimodular P on U and Q
    on W: pi = Q pi0 P^-1, g = P g0 P^-1 and Q g0 Q^-1.

    P and Q are never formed: their row operations, and the inverses as
    column operations, are applied to each matrix directly (_conjugate),
    one pass over a row or a column per operation. The checks need no
    elimination, and they raise AssertionError explicitly, so they run
    under python -O too. The inverse operations must undo the operations
    on the identity, which is P P^-1 = I and Q Q^-1 = I. Each g0 is block
    triangular with diagonal blocks that are identities or checked by
    random_invertible, so it is invertible, and so is its conjugate;
    equivariance is checked on the conjugates themselves by dense products.
    The full validate runs in the tests, on many seeded draws.
    """
    dim_u, dim_w = pi0.cols, pi0.rows
    ops_u = _elementary_ops(rng, dim_u)
    ops_w = _elementary_ops(rng, dim_w)
    for ops, ident in ((ops_u, Mat.identity(dim_u)), (ops_w, Mat.identity(dim_w))):
        if _conjugate(ops, ops, ident) != ident:
            raise AssertionError("the inverse operations do not undo")
    pi = _conjugate(ops_w, ops_u, pi0)
    gens = tuple(
        (_conjugate(ops_u, ops_u, gu0), _conjugate(ops_w, ops_w, gw0))
        for gu0, gw0 in gens0
    )
    for i, (gu, gw) in enumerate(gens):
        if pi * gu != gw * pi:
            raise AssertionError(f"generator {i}: equivariance fails")
    return LinearInstance(dim_u, dim_w, pi, gens, {})


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
    m, d = rng.choice(choices)
    r = m * d + rng.randint(0, max_dim - m - m * d)
    dim_u = m + r
    s = rng.randint(0, max(0, max_dim - r))
    dim_w = r + s
    pi0 = Mat.from_ints(
        [[1 if c == m + row else 0 for c in range(dim_u)] for row in range(r)]
        + [[0] * dim_u for _ in range(s)],
        cols=dim_u,
    )
    gens0 = []
    for j in range(d):
        b = [[0] * r for _ in range(m)]
        for k in range(m):
            b[k][j * m + k] = 1
        gu0 = Mat.from_ints(
            [
                [1 if i == c else 0 for c in range(m)] + b[i]
                for i in range(m)
            ]
            + [
                [0] * m + [1 if i == c else 0 for c in range(r)]
                for i in range(r)
            ]
        )
        f = [[rng.choice([-1, 0, 0, 1]) for _ in range(s)] for _ in range(r)]
        h = Mat.identity(s) if rng.random() < 0.5 else random_invertible(rng, s)
        gw0 = Mat.from_ints(
            [
                [1 if i == c else 0 for c in range(r)] + f[i]
                for i in range(r)
            ]
            + [[0] * r + list(h.ints[i]) for i in range(s)],
            cols=dim_w,
        )
        gens0.append((gu0, gw0))
    return _conjugated(rng, pi0, gens0)


def random_graph(rng: random.Random, max_vertices: int = 7) -> Graph:
    """Random graph allowing multi-edges, loops, and isolated vertices."""
    n = rng.randint(1, max_vertices)
    n_edges = rng.randint(0, 2 * n)
    edges = []
    for i in range(n_edges):
        o = rng.randrange(n)
        t = rng.randrange(n)
        edges.append((i, o, t))
    return Graph.make(n, edges)


def random_graph_instance(rng: random.Random) -> LinearInstance:
    """Instance from a small graph-with-automorphism family."""
    kind = rng.randrange(4)
    if kind == 0:
        # Cycle with a rotation.
        n = rng.randint(3, 6)
        g = Graph.make(n, [(i, i, (i + 1) % n) for i in range(n)])
        shift = rng.randint(1, n - 1)
        perm = tuple((v + shift) % n for v in range(n))
        act = GraphAction((perm,), {0: n // gcd(n, shift)})
    elif kind == 1:
        # Two disjoint copies of a random graph, swapped.
        base = random_graph(rng, 3)
        n = base.n_vertices
        edges = [(e.id, e.o, e.t) for e in base.edges]
        edges += [
            (len(edges) + i, e.o + n, e.t + n) for i, e in enumerate(base.edges)
        ]
        g = Graph.make(2 * n, edges)
        perm = tuple(list(range(n, 2 * n)) + list(range(n)))
        act = GraphAction((perm,), {0: 2})
    elif kind == 2:
        # Path with the end-to-end reflection.
        n = rng.randint(2, 6)
        g = Graph.make(n, [(i, i, i + 1) for i in range(n - 1)])
        perm = tuple(n - 1 - v for v in range(n))
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
    coeffs = [rng.randint(-bound, bound) for _ in range(basis.rows)]
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
    if max_dim < 2:
        raise InputError(f"max_dim must be >= 2, got {max_dim}")
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
