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
from typing import Optional

from .errors import VERIFY_BUDGET, InputError, PreconditionError
from .graphs import Graph, GraphAction, to_instance
from .instance import LinearInstance, decompose, find_ujk, u_tilde, verify_iff
from .linalg import Mat, Subspace

MAX_GENS = 3  # most generators of a random linear instance


def random_invertible(rng: random.Random, n: int, lo: int = -2, hi: int = 2) -> Mat:
    if n == 0:
        return Mat.zeros(0, 0)
    while True:
        m = Mat.from_ints([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def random_unimodular(rng: random.Random, n: int) -> tuple[Mat, Mat]:
    """(P, P^-1) for a product P of 2n random elementary integer row
    operations; det P = +-1.

    P^-1 is built alongside: the inverse of each row operation on P is
    applied as a column operation on P^-1, so P^-1 = E_1^-1 ... E_2n^-1.
    Its columns are kept as rows of `inv_cols`.
    """
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv_cols = [row[:] for row in rows]
    for _ in range(2 * n):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            k = rng.choice([-2, -1, 1, 2])
            rows[j] = [x + k * y for x, y in zip(rows[j], rows[i])]
            inv_cols[i] = [x - k * y for x, y in zip(inv_cols[i], inv_cols[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
            inv_cols[i], inv_cols[j] = inv_cols[j], inv_cols[i]
        else:
            rows[i] = [-x for x in rows[i]]
            inv_cols[i] = [-x for x in inv_cols[i]]
    return Mat.from_ints(rows, cols=n), Mat.from_ints(inv_cols, cols=n).transpose()


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

    The asserts need no elimination. Each g0 is block triangular with
    diagonal blocks that are identities or checked by random_invertible, so
    it is invertible, and so is its conjugate once P P^-1 = I and
    Q Q^-1 = I hold; equivariance is checked on the conjugates themselves.
    The full validate runs in the tests, on many seeded draws.
    """
    dim_u, dim_w = pi0.cols, pi0.rows
    p, p_inv = random_unimodular(rng, dim_u)
    q, q_inv = random_unimodular(rng, dim_w)
    assert p * p_inv == Mat.identity(dim_u), "P^-1 is not the inverse of P"
    assert q * q_inv == Mat.identity(dim_w), "Q^-1 is not the inverse of Q"
    pi = q * pi0 * p_inv
    gens = tuple((p * gu0 * p_inv, q * gw0 * q_inv) for gu0, gw0 in gens0)
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
