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
    _solve_ints,
    column_space,
    integer,
    json_list,
    kernel_basis,
    quotient_dim,
    rat_str,
    solve_many,
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
        ident = Mat.identity(self.dim_U)
        return tuple([gu - ident for gu, _ in self.generators])

    @cached_property
    def moves_W(self) -> tuple[Mat, ...]:
        """The blocks gW_i - id, one per generator, kept like `kernel`."""
        ident = Mat.identity(self.dim_W)
        return tuple([gw - ident for _, gw in self.generators])

    @cached_property
    def fixed_U(self) -> Subspace:
        """U^G, the vectors of U fixed by every gU, kept like `kernel`."""
        return _stacked_kernel(self.moves_U, self.dim_U)

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

    This is the system that find_ujk solves: it holds iff every slot target
    (0, ..., u_k, ..., 0), with a basis vector u_k of ker pi in slot j, is
    hit, and those d*m targets span (ker pi)^d. So it is exactly "find_ujk
    succeeds on the canonical basis of ker pi", one rref in all.
    """
    return find_ujk(inst, inst.kernel.basis_vectors()) is not None


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
    right-hand sides of one system in the stacked (g_i - id) map, solved by
    one solve_many (one rref); a target is consistent iff it is zero in
    every row of the reduced system whose map part is zero. Returns
    ujk[j][k], or None when some target is inconsistent, which happens
    exactly when condition (ii) fails.
    """
    basis = [vec(u) for u in kernel_basis_choice]
    ker = inst.kernel
    # The canonical basis, which condition (ii) passes, needs no rref to check.
    if len(basis) != ker.dim or (
        tuple(basis) != ker.basis_vectors() and Subspace(inst.dim_U, basis) != ker
    ):
        raise PreconditionError(
            "kernel-basis", "supplied vectors are not a basis of ker pi"
        )
    n, d, m = inst.dim_U, inst.d, len(basis)
    blank = (Fraction(0),) * n
    targets = [
        blank * j + u_k + blank * (d - 1 - j) for j in range(d) for u_k in basis
    ]
    xs = solve_many(gbar_map(inst), targets)
    if None in xs:
        return None
    return [xs[j * m : (j + 1) * m] for j in range(d)]


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
