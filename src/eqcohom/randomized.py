"""Seeded random instance generation and the property-verification harness.

Random equivariant instances are built in a basis adapted to ker pi, where
equivariance is a block-shape condition, and then conjugated by random
unimodular matrices. This guarantees validity by construction while still
sampling instances on both sides of the sharp characterization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import VERIFY_BUDGET, InputError, PreconditionError
from .graphs import Graph, GraphAction, to_instance
from .instance import LinearInstance, decompose, find_ujk, u_tilde, verify_iff
from .linalg import Mat, Subspace

MAX_GENS = 3  # most generators of a random linear instance


def random_invertible(rng: random.Random, n: int, lo: int = -2, hi: int = 2) -> Mat:
    """A random invertible n x n integer matrix: dense blocks with entries
    in [lo, hi] are drawn until one is nonsingular."""
    if n == 0:
        return Mat.zeros(0, 0)
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if _nonsingular(rows):
            return Mat.from_ints(rows)


def _nonsingular(rows: list[list[int]]) -> bool:
    """Whether a square integer matrix has nonzero determinant, by
    fraction-free (Bareiss) elimination: after step k every entry below
    row k is a (k+1) x (k+1) minor, so each division by the previous pivot
    is exact and the entries stay integers. `rows` is left as it is."""
    a = list(rows)
    n = len(a)
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return False
        a[k], a[p] = a[p], a[k]
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            a[i] = [0] * (k + 1) + [
                (pivot * x - f * y) // prev
                for x, y in zip(row[k + 1 :], pivot_row[k + 1 :])
            ]
        prev = pivot
    return True


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
    one pass over a row or a column per operation. The asserts need no
    elimination. The
    inverse operations must undo the operations on the identity, which is
    P P^-1 = I and Q Q^-1 = I. Each g0 is block triangular with diagonal
    blocks that are identities or checked by random_invertible, so it is
    invertible, and so is its conjugate; equivariance is checked on the
    conjugates themselves by dense products. The full validate runs in the
    tests, on many seeded draws.
    """
    dim_u, dim_w = pi0.cols, pi0.rows
    ops_u = _elementary_ops(rng, dim_u)
    ops_w = _elementary_ops(rng, dim_w)
    for ops, ident in ((ops_u, Mat.identity(dim_u)), (ops_w, Mat.identity(dim_w))):
        assert _conjugate(ops, ops, ident) == ident, "the inverse operations do not undo"
    pi = _conjugate(ops_w, ops_u, pi0)
    gens = tuple(
        (_conjugate(ops_u, ops_u, gu0), _conjugate(ops_w, ops_w, gw0))
        for gu0, gw0 in gens0
    )
    for i, (gu, gw) in enumerate(gens):
        assert pi * gu == gw * pi, f"generator {i}: equivariance fails"
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


@dataclass
class Violation:
    index: int
    kind: str
    detail: str
    instance_json: dict


@dataclass
class VerifyResult:
    seed: int
    count: int
    checked: int = 0
    decompositions: int = 0
    violations: list[Violation] = field(default_factory=list)

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


def _random_combination(
    rng: random.Random, space: Subspace, bound: int
) -> tuple[Fraction, ...]:
    """sum_i c_i b_i over the canonical basis b_i of `space`, each c_i drawn
    in turn from [-bound, bound]."""
    coeffs = [rng.randint(-bound, bound) for _ in range(space.dim)]
    return (Mat.from_ints([coeffs], cols=space.dim) * space.basis).row(0)


def _random_invariant_image_vector(
    rng: random.Random, inst: LinearInstance
) -> Optional[tuple[Fraction, ...]]:
    """Random w in im(pi) fixed by the action, as pi of a random preimage."""
    ut = u_tilde(inst)
    if ut.dim == 0:
        return None
    return inst.pi.mulvec(_random_combination(rng, ut, 3))


def check_one_instance(
    inst: LinearInstance, rng: random.Random, result: VerifyResult, index: int
) -> None:
    """Flag the bound/iff failures that verify_iff reports and, when
    possible, run a decomposition round-trip with a coefficient-invariance
    shift."""
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
    kernel_vecs = [list(v) for v in inst.kernel.basis_vectors()]
    ujk = find_ujk(inst, kernel_vecs)
    if ujk is None:
        flag("find-ujk", "condition (ii) holds but the ujk solve failed")
        return
    w = _random_invariant_image_vector(rng, inst)
    if w is None:
        return
    try:
        dec = decompose(inst, w, ujk, kernel_vecs)
    except AssertionError as exc:
        flag("decompose", str(exc))
        return
    result.decompositions += 1
    # Shift every ujk by a random fixed vector: coefficients must not move.
    if inst.fixed_U.dim == 0:
        return
    shifted = [
        [
            tuple(x + y for x, y in zip(u, _random_combination(rng, inst.fixed_U, 2)))
            for u in row
        ]
        for row in ujk
    ]
    dec2 = decompose(inst, w, shifted, kernel_vecs)
    if dec2.coefficients != dec.coefficients:
        flag("shift-invariance", "coefficients changed under a fixed-vector shift")


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
