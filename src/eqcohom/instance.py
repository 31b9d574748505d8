"""Equivariant linear instances and the quotient-dimension machinery.

A LinearInstance packages a rational linear map pi : U -> W together with a
finite list of commuting-with-pi generator actions (gU_i, gW_i), and keeps
ker pi, the fixed space U^G and the spaces below once computed. The module
computes the quotient dimension dim (im(pi) ^ fixed) / pi(fixed), checks the
two sharp conditions that characterize when it equals m*d, and performs the
constructive decomposition of an invariant image vector into period
coefficients plus an invariant preimage part.

The quotient dimension is read off three dimensions, with no subspace
intersection. Write K for the basis of ker pi (m vectors), G for the stack
of the blocks gU_i - id, and U~ = pi^-1(W^G), the common kernel of the
blocks (gW_i - id) pi. Then:

- im(pi) ^ W^G = pi(U~), and ker pi lies in U~, so its dimension is
  dim U~ - m;
- U^G ^ ker pi = ker(G restricted to ker pi), of dimension m - rank(G K),
  so dim pi(U^G) = dim U^G - m + rank(G K);
- U^G lies in U~, so pi(U^G) lies in pi(U~), and

      dim pi(U)^G / pi(U^G) = dim U~ - dim U^G - rank(G K).

Condition (i), ker pi inside U^G, is G K = 0. U~ and G K are kept on the
instance; oracle_quotient_dim computes the two spaces themselves and stays
as the independent reference.

Which elimination yields what, each run at most once per instance:

- ker pi: kernel_basis(pi), one rref.
- U^G, condition (ii) and the u_jk for the canonical basis of ker pi: one
  rref of [G | T], where T holds the d*m slot targets (0, ..., u_k, ..., 0)
  (the MovesReduction kept as `moves_reduction`). Condition (ii) holds iff
  no pivot falls in T; the u_jk are read off the target columns; U^G is
  spanned by one vector per free column of G, brought to canonical form by
  one small rref of those n - rank(G) vectors (none when they are unit
  vectors already).
- U~: kernel_basis of the stacked (gW_i - id) pi, its own rref, so that
  the rank identity above is not true by construction.
- rank(G K): one rref of the (d * dim_U) x m matrix G K.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from typing import Optional, Sequence

from .errors import DENSE_BUDGET, InputError, PreconditionError
from .linalg import (
    Mat,
    Subspace,
    _cleared,
    _frac,
    _rref_augmented,
    _solve_ints,
    column_space,
    integer,
    json_list,
    kernel_basis,
    quotient_dim,
    rat_str,
    subspace_intersection,
    vec,
)


@dataclass(frozen=True)
class LinearInstance:
    dim_U: int
    dim_W: int
    pi: Mat
    generators: tuple[tuple[Mat, Mat], ...]  # (gU, gW) pairs
    orders: dict[int, int] = field(default_factory=dict)  # index -> finite order

    @property
    def d(self) -> int:
        return len(self.generators)

    @cached_property
    def kernel(self) -> Subspace:
        """ker pi, computed on first use and kept with the instance."""
        return kernel_basis(self.pi)

    @property
    def m(self) -> int:
        return self.kernel.dim

    @cached_property
    def moves_U(self) -> tuple[Mat, ...]:
        """The blocks gU_i - id, one per generator, kept like `kernel`."""
        return tuple([_minus_identity(gu) for gu, _ in self.generators])

    @cached_property
    def moves_W(self) -> tuple[Mat, ...]:
        """The blocks gW_i - id, one per generator, kept like `kernel`."""
        return tuple([_minus_identity(gw) for _, gw in self.generators])

    @cached_property
    def moves_reduction(self) -> "MovesReduction":
        """The rref of [G | T] for the canonical basis of ker pi, kept like
        `kernel`: the one elimination behind U^G, condition (ii) and
        find_ujk on that basis."""
        return _reduce_moves(self, self.kernel.basis)

    @cached_property
    def fixed_U(self) -> Subspace:
        """U^G, the vectors of U fixed by every gU, kept like `kernel`: the
        kernel of G, read off the free columns of `moves_reduction`."""
        return self.moves_reduction.kernel()

    @cached_property
    def fixed_preimage(self) -> Subspace:
        """U~ = pi^-1(W^G), the u with pi u fixed by every gW: the common
        kernel of the blocks (gW_i - id) pi, kept like `kernel`."""
        return _stacked_kernel([move * self.pi for move in self.moves_W], self.dim_U)

    @cached_property
    def kernel_moves(self) -> Mat:
        """G K, the (d * dim_U) x m matrix of the blocks gU_i - id applied
        to the canonical basis of ker pi, kept like `kernel`."""
        return gbar_map(self) * self.kernel.basis.transpose()

    def to_json(self) -> dict:
        gens = []
        for i, (gu, gw) in enumerate(self.generators):
            g = {"gU": gu.to_lists(as_str=True), "gW": gw.to_lists(as_str=True)}
            if i in self.orders:
                g["order"] = self.orders[i]
            gens.append(g)
        return {
            "dim_U": self.dim_U,
            "dim_W": self.dim_W,
            "pi": self.pi.to_lists(as_str=True),
            "generators": gens,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LinearInstance":
        """Read an instance, refusing with PreconditionError("budget", ...)
        before any matrix is built when its dense matrices would hold more
        than DENSE_BUDGET cells."""
        try:
            dim_u = integer(obj["dim_U"])
            dim_w = integer(obj["dim_W"])
            gens_json = json_list(obj["generators"])
            # A negative dimension counts as 0 here and reads as width 0
            # below, and fails validate's shape check.
            cells = (len(gens_json) + 1) * (max(dim_u, 0) + max(dim_w, 0)) ** 2
            if cells > DENSE_BUDGET:
                raise PreconditionError(
                    "budget",
                    f"instance predicts {cells} dense matrix cells, "
                    f"(d+1)*(dim_U+dim_W)^2, over the budget of {DENSE_BUDGET}",
                )
            pi = _matrix(obj["pi"], cols=max(dim_u, 0))
            gens = []
            orders = {}
            for i, g in enumerate(gens_json):
                gens.append((_matrix(g["gU"]), _matrix(g["gW"])))
                if "order" in g and g["order"] is not None:
                    orders[i] = integer(g["order"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad instance JSON: {exc}") from exc
        return cls(dim_u, dim_w, pi, tuple(gens), orders)


def _matrix(rows, cols: Optional[int] = None) -> Mat:
    """A matrix read from JSON: a list of rows, each a list of entries.
    `cols` is the width of a matrix with no rows (pi when dim_W = 0)."""
    return Mat([json_list(row) for row in json_list(rows)], cols=cols)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[str, ...]


def validate(inst: LinearInstance) -> ValidationReport:
    """Check shapes, invertibility, equivariance, and declared orders."""
    issues: list[str] = []
    if inst.pi.rows != inst.dim_W or inst.pi.cols != inst.dim_U:
        issues.append("pi shape does not match dim_W x dim_U")
        return ValidationReport(False, tuple(issues))
    for i, (gu, gw) in enumerate(inst.generators):
        if (gu.rows, gu.cols) != (inst.dim_U, inst.dim_U):
            issues.append(f"generator {i}: gU shape mismatch")
            continue
        if (gw.rows, gw.cols) != (inst.dim_W, inst.dim_W):
            issues.append(f"generator {i}: gW shape mismatch")
            continue
        if not gu.is_invertible():
            issues.append(f"generator {i}: gU not invertible")
        if not gw.is_invertible():
            issues.append(f"generator {i}: gW not invertible")
        if inst.pi * gu != gw * inst.pi:
            issues.append(f"generator {i}: equivariance pi*gU = gW*pi fails")
        n = inst.orders.get(i)
        if n is not None:
            if n < 1:
                issues.append(f"generator {i}: declared order {n} < 1")
            else:
                if _power(gu, n) != Mat.identity(inst.dim_U):
                    issues.append(f"generator {i}: gU^{n} != identity")
                if _power(gw, n) != Mat.identity(inst.dim_W):
                    issues.append(f"generator {i}: gW^{n} != identity")
    for i in sorted(set(inst.orders) - set(range(inst.d))):
        issues.append(f"declared order for generator {i}, which does not exist")
    return ValidationReport(not issues, tuple(issues))


def _power(m: Mat, n: int) -> Mat:
    """m**n for n >= 0 by binary exponentiation: about 2*log2(n) products."""
    acc = Mat.identity(m.rows)
    while n:
        if n & 1:
            acc = acc * m
        n >>= 1
        if n:
            m = m * m
    return acc


def _minus_identity(g: Mat) -> Mat:
    """g - id for a square g: den subtracted on the diagonal of g.ints. That
    is in lowest terms already, because gcd(den, a - den) = gcd(den, a)."""
    if g.rows != g.cols:
        raise ValueError("shape mismatch")
    den = g.den
    return Mat._new(
        tuple([row[:i] + (row[i] - den,) + row[i + 1 :] for i, row in enumerate(g.ints)]),
        den,
        g.cols,
    )


@dataclass(frozen=True)
class MovesReduction:
    """The rref of [G | T]: G = gbar_map(inst) as integer rows over G.den,
    and T the d*m slot targets (0, ..., u_k, ..., 0), u_k in slot j, with
    the rows u_k of `basis` (a basis of ker pi, over basis.den) as the
    integer columns j*m + k of T.

    The rows with a pivot in G come first, and any nonzero row below them
    has a zero G-part, so its pivot lies in T. Column scaling leaves each
    solution with free variables zero the same rational vector, so the
    solutions read here are those of solve_many(gbar_map(inst), targets).
    """

    red: Mat
    pivots: tuple[int, ...]
    n: int  # dim_U: the columns of G
    d: int
    m: int
    g_den: int  # G.den
    t_den: int  # basis.den

    @property
    def solvable(self) -> bool:
        """Condition (ii): every target is hit, that is, no pivot in T."""
        return all(c < self.n for c in self.pivots)

    def solutions(self) -> Optional[list[list[tuple[Fraction, ...]]]]:
        """ujk[j][k] with G ujk[j][k] the target u_k in slot j and every free
        variable zero, or None when condition (ii) fails."""
        if not self.solvable:
            return None
        n, m, top = self.n, self.m, self.red.ints
        # G.ints y = T_ints gives x = y * G.den / basis.den, and the pivot
        # rows read y at each pivot as row[t] / red.den.
        den = self.red.den * self.t_den
        xs = []
        for t in range(n, n + self.d * m):
            x = [0] * n
            for row, c in zip(top, self.pivots):
                x[c] = row[t] * self.g_den
            xs.append(tuple([_frac(v, den) for v in x]))
        return [xs[j * m : (j + 1) * m] for j in range(self.d)]

    def kernel(self) -> Subspace:
        """ker G in canonical form: for each free column f of G, the vector
        with red.den at f and minus column f of the pivot rows at their
        pivots. When every such column is zero those are unit vectors in
        increasing order, canonical already; otherwise one small rref of
        the n - rank(G) vectors canonicalizes them."""
        n = self.n
        top = self.red.ints[: sum(1 for c in self.pivots if c < n)]
        pivot_set = set(self.pivots)
        free = [f for f in range(n) if f not in pivot_set]
        if not any(row[f] for row in top for f in free):
            units = [(0,) * f + (1,) + (0,) * (n - 1 - f) for f in free]
            return Subspace._canonical(Mat._new(tuple(units), 1, n))
        vectors = []
        for f in free:
            v = [0] * n
            v[f] = self.red.den
            for row, c in zip(top, self.pivots):
                v[c] = -row[f]
            vectors.append(tuple(v))
        return Subspace(n, Mat._new(tuple(vectors), 1, n))


def _reduce_moves(inst: LinearInstance, basis: Mat) -> MovesReduction:
    """Reduce [G | T] for the kernel basis `basis` (its rows) with one rref;
    see MovesReduction. A G with no rows (d = 0 or dim_U = 0) needs no
    rref: nothing is pivoted, and every target is the empty vector."""
    n, d, m = inst.dim_U, inst.d, basis.rows
    gbar = gbar_map(inst)
    if gbar.rows == 0:
        red, pivots = Mat.zeros(0, n + d * m), []
    else:
        targets = [
            (0,) * (j * n) + u_k + (0,) * ((d - 1 - j) * n)
            for j in range(d)
            for u_k in basis.ints
        ]
        red, pivots = _rref_augmented(gbar, targets)
    return MovesReduction(red, tuple(pivots), n, d, m, gbar.den, basis.den)


def _stacked_kernel(blocks: Sequence[Mat], dim: int) -> Subspace:
    """Common kernel of the blocks, each with `dim` columns. With no blocks
    (d = 0) nothing constrains the vector, and this is the full space."""
    if not blocks:
        return Subspace.full(dim)
    return kernel_basis(Mat.vstack(blocks))


def u_tilde(inst: LinearInstance) -> Subspace:
    """Preimage of the W fixed space under pi: {u : pi u is fixed by all g},
    the cached `fixed_preimage`."""
    return inst.fixed_preimage


def gbar_map(inst: LinearInstance) -> Mat:
    """The (d * dim_U) x dim_U matrix of u -> ((g_1 - id)u, ..., (g_d - id)u),
    with no rows when d = 0."""
    return Mat.vstack([Mat.zeros(0, inst.dim_U), *inst.moves_U])


@dataclass(frozen=True)
class OracleResult:
    dim: int
    pi_U_G: Subspace  # im(pi) intersected with the W fixed space
    pi_of_UG: Subspace  # image of the U fixed space


def oracle_quotient_dim(inst: LinearInstance) -> OracleResult:
    """Brute-force the quotient dimension from the defining subspaces: the
    reference that verify_iff's rank identity is checked against."""
    fixed_w = _stacked_kernel(inst.moves_W, inst.dim_W)
    pi_u_g = subspace_intersection(column_space(inst.pi), fixed_w)
    pi_of_ug = Subspace(inst.dim_W, inst.fixed_U.basis * inst.pi.transpose())
    return OracleResult(quotient_dim(pi_u_g, pi_of_ug), pi_u_g, pi_of_ug)


def check_condition_i(inst: LinearInstance) -> bool:
    """ker pi contained in the U fixed space: every gU fixes every basis
    vector of ker pi, that is, G K = 0."""
    return not any(chain.from_iterable(inst.kernel_moves.ints))


def check_condition_ii(inst: LinearInstance) -> bool:
    """(ker pi)^d contained in the image of the stacked (g_i - id) map.

    It holds iff every slot target (0, ..., u_k, ..., 0), with a basis
    vector u_k of ker pi in slot j, is hit, since those d*m targets span
    (ker pi)^d: iff the kept rref of [G | T] (`moves_reduction`, shared
    with U^G and find_ujk) has no pivot in T.
    """
    return inst.moves_reduction.solvable


@dataclass(frozen=True)
class IffReport:
    m: int
    d: int
    dim: int
    condition_i: bool
    condition_ii: bool
    bound_ok: bool
    iff_ok: bool


def verify_iff(inst: LinearInstance) -> IffReport:
    """Check the bound dim <= m*d and the sharp characterization.

    The dimension is dim U~ - dim U^G - rank(G K) (see the module
    docstring): im(pi) ^ W^G = pi(U~) has dimension dim U~ - m, because
    ker pi lies in U~, and pi(U^G) has dimension dim U^G - m + rank(G K),
    because U^G ^ ker pi is the kernel of G on ker pi.

    iff_ok must always be True; a False value flags a genuine violation of
    the characterization and is treated as a hard failure by callers.
    """
    m = inst.m
    d = inst.d
    dim = inst.fixed_preimage.dim - inst.fixed_U.dim - inst.kernel_moves.rank()
    ci = check_condition_i(inst)
    cii = check_condition_ii(inst)
    bound_ok = dim <= m * d
    iff_ok = (dim == m * d) == (ci and cii)
    return IffReport(m, d, dim, ci, cii, bound_ok, iff_ok)


def find_ujk(
    inst: LinearInstance, kernel_basis_choice: Sequence[Sequence]
) -> Optional[list[list[tuple[Fraction, ...]]]]:
    """Solve (g_i - id) x = delta_{ij} u_k simultaneously over all i.

    All d*m slot targets (0, ..., u_k, ..., 0), u_k in slot j, are the
    right-hand sides of one system in the stacked (g_i - id) map, reduced
    by one rref of [G | T]; a target is consistent iff no pivot falls in T
    (see MovesReduction), and each solution sets the free variables to
    zero. For the canonical basis of ker pi this reads the instance's kept
    reduction, so it runs no rref; another basis costs one rref to check
    that it spans ker pi and one for its own [G | T]. Returns ujk[j][k], or
    None when some target is inconsistent, which happens exactly when
    condition (ii) fails.
    """
    basis = [vec(u) for u in kernel_basis_choice]
    ker = inst.kernel
    if tuple(basis) == ker.basis_vectors():
        return inst.moves_reduction.solutions()
    if len(basis) != ker.dim or Subspace(inst.dim_U, basis) != ker:
        raise PreconditionError(
            "kernel-basis", "supplied vectors are not a basis of ker pi"
        )
    return _reduce_moves(inst, Mat(basis, cols=inst.dim_U)).solutions()


@dataclass(frozen=True)
class Decomposition:
    coefficients: tuple[tuple[Fraction, ...], ...]  # d x m
    invariant_part: tuple[Fraction, ...]
    preimage: tuple[Fraction, ...]
    target: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "coefficients": [[rat_str(a) for a in row] for row in self.coefficients],
            "invariant_part": [rat_str(x) for x in self.invariant_part],
            "preimage": [rat_str(x) for x in self.preimage],
            "target": [rat_str(x) for x in self.target],
        }


def decompose(
    inst: LinearInstance,
    w: Sequence,
    ujk: Sequence[Sequence[Sequence]],
    kernel_basis_choice: Sequence[Sequence],
) -> Decomposition:
    """Split an invariant image vector as pi(sum a_{j,k} u_{j,k} + u), u fixed.

    The coefficients come from expressing each (g_j - id)u0 in the chosen
    kernel basis, where u0 is the deterministic preimage of w. They do not
    depend on the particular ujk solutions. Everything runs on integer
    vectors over one denominator; Fractions are made only for the result.
    """
    w = vec(w)
    den_w, w_ints = _cleared(w)
    (sol,) = _solve_ints(inst.pi, [(den_w, w_ints)])
    if sol is None:
        raise PreconditionError("not-in-image", "w is not in the image of pi")
    if any(_moved(move, w_ints) for move in inst.moves_W):
        raise PreconditionError("not-invariant", "w is not fixed by the action")
    den_0, u0 = sol
    basis = [vec(u) for u in kernel_basis_choice]
    kmat = Mat.from_cols(basis) if basis else Mat.zeros(inst.dim_U, 0)
    coeffs = _solve_ints(
        kmat, [(move.den * den_0, _apply(move, u0)) for move in inst.moves_U]
    )
    if None in coeffs:
        raise PreconditionError(
            "kernel-escape",
            "(g - id)u0 left ker pi; conditions (i)/(ii) do not hold",
        )
    # The nonzero terms a_{j,k} u_{j,k}, each as (a, den_t, u) with the
    # term equal to a * u / den_t for integers a and u.
    terms = []
    for j, (den_a, a_ints) in enumerate(coeffs):
        for k, a in enumerate(a_ints):
            if a:
                den_u, u_ints = _cleared(ujk[j][k])
                terms.append((a, den_a * den_u, u_ints))
    den = lcm(den_0, *[t[1] for t in terms])
    periods = [0] * inst.dim_U
    for a, den_t, u_ints in terms:
        k = a * (den // den_t)
        periods = [x + k * y for x, y in zip(periods, u_ints)]
    scale = den // den_0
    u_inv = [scale * x - y for x, y in zip(u0, periods)]
    for move in inst.moves_U:
        assert not _moved(move, u_inv), "invariant part not fixed"
    preimage = [x + y for x, y in zip(u_inv, periods)]
    image = _apply(inst.pi, preimage)
    assert [den_w * x for x in image] == [
        inst.pi.den * den * x for x in w_ints
    ], "reconstruction failed"
    return Decomposition(
        tuple([tuple([_frac(x, den_a) for x in a]) for den_a, a in coeffs]),
        tuple([_frac(x, den) for x in u_inv]),
        tuple([_frac(x, den) for x in preimage]),
        w,
    )


def _apply(m: Mat, v: Sequence[int]) -> list[int]:
    """m.ints times the integer vector v: m v, scaled by m.den."""
    nonzero = [(k, x) for k, x in enumerate(v) if x]
    return [sum([row[k] * x for k, x in nonzero]) for row in m.ints]


def _moved(move: Mat, v: Sequence[int]) -> bool:
    """Whether the block g - id moves the vector v, i.e. g v != v."""
    return any(_apply(move, v))


def check_lemma_commutation(inst: LinearInstance) -> bool:
    """Generator pairs commute on the preimage of the W fixed space.

    Requires ker pi inside the U fixed space; refuses otherwise.
    """
    if not check_condition_i(inst):
        raise PreconditionError(
            "condition-i", "ker pi is not contained in the U fixed space"
        )
    ut = u_tilde(inst).basis
    gts = [gu.transpose() for gu, _ in inst.generators]
    for a in range(len(gts)):
        for b in range(a + 1, len(gts)):
            # Row u of ut * gb^T * ga^T is (ga gb u)^T.
            if ut * gts[b] * gts[a] != ut * gts[a] * gts[b]:
                return False
    return True


@dataclass(frozen=True)
class TorsionReport:
    checked: tuple[int, ...]  # generator indices with a declared finite order
    all_fixed: Optional[bool]  # None when vacuous

    @property
    def vacuous(self) -> bool:
        return not self.checked


def check_torsion_trivial(inst: LinearInstance) -> TorsionReport:
    """Declared finite-order generators must fix the preimage space pointwise."""
    if not check_condition_i(inst):
        raise PreconditionError(
            "condition-i", "ker pi is not contained in the U fixed space"
        )
    indices = tuple(sorted(i for i, n in inst.orders.items() if n >= 1))
    if not indices:
        return TorsionReport((), None)
    ut = u_tilde(inst).basis
    ok = all(ut * inst.generators[i][0].transpose() == ut for i in indices)
    return TorsionReport(indices, ok)
