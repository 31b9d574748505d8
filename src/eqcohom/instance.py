"""Equivariant linear instances and the quotient-dimension machinery.

A LinearInstance packages a rational linear map pi : U -> W together with a
finite list of commuting-with-pi generator actions (gU_i, gW_i), and keeps
ker pi, the fixed space U^G and the spaces below once computed; its fields
are read-only (records.Frozen), so what it keeps cannot go stale. The module
computes the quotient dimension dim (im(pi) ^ fixed) / pi(fixed), checks the
two sharp conditions that characterize when it equals m*d, and performs the
constructive decomposition of an invariant image vector into period
coefficients plus an invariant preimage part.

The quotient dimension is read off three ranks, with no subspace
intersection. Write K for the basis of ker pi (m vectors), G for the stack
of the blocks gU_i - id, and U~ = pi^-1(W^G), the common kernel of the
blocks (gW_i - id) pi. The moves are held in that one shape: `moves_U` is
G and `moves_W` the stack of the blocks gW_i - id, each one Mat written
straight from the generators' integer rows, with no rows when d = 0. Then:

- im(pi) ^ W^G = pi(U~), and ker pi lies in U~, so its dimension is
  dim U~ - m;
- U^G ^ ker pi = ker(G restricted to ker pi), of dimension m - rank(G K),
  so dim pi(U^G) = dim U^G - m + rank(G K);
- U^G lies in U~, so pi(U^G) lies in pi(U~), and

      dim pi(U)^G / pi(U^G) = dim U~ - dim U^G - rank(G K)
                            = rank G - rank((gW - id) pi) - rank(G K),

  with dim U^G = dim_U - rank G and dim U~ = dim_U - rank((gW - id) pi).

Condition (i), ker pi inside U^G, is G K = 0. oracle_quotient_dim computes
the two spaces themselves and stays as the independent reference.

Which elimination yields what, all of them in linalg (a forward pass, and
a back-substitution only where a basis or a solution is read), each run at
most once per instance:

- ker pi: kernel_basis(pi), one forward pass and one back-substitution
  (none when ker pi = 0; no elimination when dim_W = 0).
- rank G, condition (ii), U^G and the u_jk for the canonical basis of
  ker pi: one linalg.Reduction of [G | T], where T holds the d*m slot
  targets (0, ..., u_k, ..., 0), kept as `moves_reduction`. Its forward
  pass gives rank G, and condition (ii) holds iff rank [G | T] = rank G,
  that is iff every target column is consistent. Its back-substitution
  runs only when U^G or the u_jk are read: the u_jk are its solutions
  with the free variables zero, and U^G is its kernel, canonical as read
  (linalg.Reduction.kernel).
- U~: the Reduction of the one product `moves_W` * pi, kept as
  `preimage_reduction`, its own forward pass, so that the rank identity
  above is not true by construction; its kernel, U~ itself, is
  back-substituted only when read.
- rank(G K): Mat.rank counts the independent rows of G K, the dot
  products of the rows of G and K (linalg.independent_rows, a forward pass).

So verify_iff runs forward passes only, beyond the kernel of pi.

The decomposition of one target w, once per target rather than once per
choice of the u_jk (Decomposer):

- the preimage u0 of w: one Reduction of [pi | w];
- the coefficients of each (g_j - id)u0 in the chosen basis of ker pi: one
  Reduction of [K^T | (g_1 - id)u0 ... (g_d - id)u0], the columns cut
  from the one product G u0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import DENSE_BUDGET, InputError, PreconditionError
from .linalg import (
    Mat,
    Reduction,
    Subspace,
    _cleared,
    _frac,
    _lowest,
    integer,
    json_list,
    kernel_basis,
    quotient_dim,
    rat_str,
    subspace_intersection,
    vec,
)
from .records import Frozen, cached


class LinearInstance(Frozen):
    _fields = ("dim_U", "dim_W", "pi", "generators", "orders")

    def __init__(self, dim_U: int, dim_W: int, pi: Mat, generators, orders=None):
        # generators: (gU, gW) pairs of Mats; orders: index -> finite order
        orders = {} if orders is None else orders
        self.__dict__.update(dim_U=dim_U, dim_W=dim_W, pi=pi, generators=generators, orders=orders)

    @property
    def d(self) -> int:
        return len(self.generators)

    @cached
    def kernel(self) -> Subspace:
        """ker pi, computed on first use and kept with the instance."""
        return kernel_basis(self.pi)

    @property
    def m(self) -> int:
        return self.kernel.dim

    @cached
    def moves_U(self) -> Mat:
        """G, the (d * dim_U) x dim_U stack of the blocks gU_i - id: the map
        u -> ((g_1 - id)u, ..., (g_d - id)u), kept like `kernel`."""
        return _stacked_moves([gu for gu, _ in self.generators], self.dim_U)

    @cached
    def moves_W(self) -> Mat:
        """The (d * dim_W) x dim_W stack of the blocks gW_i - id, kept like
        `kernel`."""
        return _stacked_moves([gw for _, gw in self.generators], self.dim_W)

    @cached
    def moves_reduction(self) -> Reduction:
        """The Reduction of [G | T] for the canonical basis of ker pi, kept
        like `kernel`: the one elimination behind rank G, U^G, condition
        (ii) and find_ujk."""
        return _reduce_moves(self)

    @cached
    def fixed_U(self) -> Subspace:
        """U^G, the vectors of U fixed by every gU, kept like `kernel`: the
        kernel of G, read off the free columns of `moves_reduction`."""
        return self.moves_reduction.kernel()

    @cached
    def preimage_reduction(self) -> Reduction:
        """The Reduction of the stacked (gW_i - id) pi, kept like `kernel`:
        its rank is dim_U - dim U~."""
        return Reduction(self.moves_W * self.pi, ())

    @cached
    def fixed_preimage(self) -> Subspace:
        """U~ = pi^-1(W^G), the u with pi u fixed by every gW: the kernel
        of `preimage_reduction`, kept like `kernel`."""
        return self.preimage_reduction.kernel()

    @cached
    def kernel_moves(self) -> Mat:
        """G K, the (d * dim_U) x m matrix of the blocks gU_i - id on the
        canonical basis of ker pi, dot products of rows, kept like `kernel`."""
        moves, basis = self.moves_U, self.kernel.basis
        ints = [tuple([sum(map(mul, row, u)) for u in basis.ints]) for row in moves.ints]
        return Mat._new(*_lowest(tuple(ints), moves.den * basis.den), basis.rows)

    def to_json(self) -> dict:
        gens = []
        for i, (gu, gw) in enumerate(self.generators):
            g = {"gU": gu.to_lists(), "gW": gw.to_lists()}
            if i in self.orders:
                g["order"] = self.orders[i]
            gens.append(g)
        return {
            "dim_U": self.dim_U,
            "dim_W": self.dim_W,
            "pi": self.pi.to_lists(),
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


class ValidationReport(NamedTuple):
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
                # g^n = id iff g^gcd(n, M) = id, M = _order_bound(size).
                u_exp = gcd(n, _order_bound(inst.dim_U))
                if _power(gu, u_exp) != Mat.identity(inst.dim_U):
                    issues.append(f"generator {i}: gU^{n} != identity")
                w_exp = gcd(n, _order_bound(inst.dim_W))
                if _power(gw, w_exp) != Mat.identity(inst.dim_W):
                    issues.append(f"generator {i}: gW^{n} != identity")
    for i in sorted(set(inst.orders) - set(range(inst.d))):
        issues.append(f"declared order for generator {i}, which does not exist")
    return ValidationReport(not issues, tuple(issues))


def _order_bound(n: int) -> int:
    """M_n = lcm{k : phi(k) <= n}, a multiple of every finite order in
    GL_n(Q). A g of finite order is diagonalizable over C with roots of
    unity as eigenvalues; one of order k has the cyclotomic polynomial
    Phi_k, of degree phi(k) <= n, as its minimal polynomial over Q, and the
    order of g is the lcm of those k. phi(p^a) = p^(a-1)(p - 1) divides
    phi(k) for each p^a exactly dividing k, so M_n is the product over the
    primes p <= n + 1 of the largest p^a with p^(a-1)(p - 1) <= n. Hence
    g^N = id iff g^gcd(N, M_n) = id for every N >= 1; for a g of infinite
    order both are false."""
    bound = 1
    for p in range(2, n + 2):
        if all(p % q for q in range(2, isqrt(p) + 1)):
            power = p
            while power * (p - 1) <= n:
                power *= p
            bound *= power
    return bound


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


def _stacked_moves(gens: Sequence[Mat], n: int) -> Mat:
    """The blocks g - id of n x n matrices g, stacked, as rows of one tuple
    over den = lcm(1, g.den, ...); d = 0 gives no rows, whose kernel is the
    whole space. In lowest terms already: gcd(g.den, a - g.den) =
    gcd(g.den, a), and the scales den // g.den have gcd 1."""
    den = lcm(1, *[g.den for g in gens])
    rows = []
    for g in gens:
        if (g.rows, g.cols) != (n, n):
            raise ValueError("shape mismatch")
        k = den // g.den
        for i, row in enumerate(g.ints):
            if k != 1:
                row = tuple([k * x for x in row])
            rows.append(row[:i] + (row[i] - den,) + row[i + 1 :])
    return Mat._new(tuple(rows), den, n)


def _reduce_moves(inst: LinearInstance) -> Reduction:
    """The Reduction of [G | T]: G = inst.moves_U, and T the d*m slot
    targets (0, ..., u_k, ..., 0), u_k in slot j, with the rows u_k of the
    canonical basis of ker pi (over its den) as the integer columns
    j*m + k of T."""
    n, d = inst.dim_U, inst.d
    targets = [
        (0,) * (j * n) + u_k + (0,) * ((d - 1 - j) * n)
        for j in range(d)
        for u_k in inst.kernel.basis.ints
    ]
    return Reduction(inst.moves_U, targets)


def u_tilde(inst: LinearInstance) -> Subspace:
    """Preimage of the W fixed space under pi: {u : pi u is fixed by all g},
    the cached `fixed_preimage`."""
    return inst.fixed_preimage


class OracleResult(NamedTuple):
    dim: int
    pi_U_G: Subspace  # im(pi) intersected with the W fixed space
    pi_of_UG: Subspace  # image of the U fixed space


def oracle_quotient_dim(inst: LinearInstance) -> OracleResult:
    """Brute-force the quotient dimension from the defining subspaces: the
    reference that verify_iff's rank identity is checked against."""
    fixed_w = kernel_basis(inst.moves_W)
    pi_u_g = subspace_intersection(Subspace(inst.dim_W, inst.pi.transpose()), fixed_w)
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
    (ker pi)^d: iff the targets T add no rank to G, rank [G | T] = rank G,
    read off the forward pass of the kept Reduction of [G | T]
    (`moves_reduction`, shared with U^G and find_ujk).
    """
    reduction = inst.moves_reduction
    return reduction.augmented_rank == reduction.rank


class IffReport(NamedTuple):
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
    because U^G ^ ker pi is the kernel of G on ker pi. It is read as
    rank G - rank((gW - id) pi) - rank(G K), off the forward passes of the
    two kept Reductions and of G K, so no basis of U^G or U~ is built.

    iff_ok must always be True; a False value flags a genuine violation of
    the characterization and is treated as a hard failure by callers.
    """
    m = inst.m
    d = inst.d
    dim = (
        inst.moves_reduction.rank
        - inst.preimage_reduction.rank
        - inst.kernel_moves.rank()
    )
    ci = check_condition_i(inst)
    cii = check_condition_ii(inst)
    bound_ok = dim <= m * d
    iff_ok = (dim == m * d) == (ci and cii)
    return IffReport(m, d, dim, ci, cii, bound_ok, iff_ok)


def slot_solutions(inst: LinearInstance) -> Optional[list[list[tuple[int, list[int]]]]]:
    """find_ujk on the canonical basis of ker pi, in integers: ujk[j][k] is
    (den, x), not reduced, with u_jk = x / den, G x / den the target u_k in
    slot j and every free variable zero, or None when condition (ii) fails.
    They are read off the kept `moves_reduction`: condition (ii) off its
    ranks, and the solutions off its back-substitution, which runs on the
    first read, so this runs no forward pass."""
    reduction = inst.moves_reduction
    if reduction.augmented_rank != reduction.rank:
        return None
    basis = inst.kernel.basis
    m = basis.rows
    sols = [reduction.solution(t, basis.den) for t in range(inst.d * m)]
    return [sols[j * m : (j + 1) * m] for j in range(inst.d)]


def find_ujk(
    inst: LinearInstance, kernel_basis_choice: Sequence[Sequence]
) -> Optional[list[list[tuple[Fraction, ...]]]]:
    """Solve (g_i - id) x = delta_{ij} u_k simultaneously over all i.

    All d*m slot targets (0, ..., u_k, ..., 0), u_k in slot j, are the
    right-hand sides of one system in the stacked (g_i - id) map, and each
    solution sets the free variables to zero. For the canonical basis K of
    ker pi they are the instance's slot_solutions, so this runs no forward
    pass.
    Each K_l is 1 at its last nonzero entry f_l, where every other K_l' is
    0, so another basis B is C K with C[k][l] = B_k[f_l]; such a solution
    is linear in its target and G alone fixes the pivots, so the u_jk of B
    are C times the canonical ones. Another basis costs only the rref that
    checks it spans ker pi. Returns ujk[j][k], or None when some target is
    inconsistent, which happens exactly when condition (ii) fails.
    """
    basis = [vec(u) for u in kernel_basis_choice]
    ker = inst.kernel
    canonical = tuple(basis) == ker.basis_vectors()
    if not canonical and (len(basis) != ker.dim or Subspace(inst.dim_U, basis) != ker):
        raise PreconditionError(
            "kernel-basis", "supplied vectors are not a basis of ker pi"
        )
    ujk = slot_solutions(inst)
    if ujk is None:
        return None
    ujk = [[tuple([_frac(v, den) for v in x]) for den, x in row] for row in ujk]
    if canonical:
        return ujk
    lasts = [max([i for i, x in enumerate(row) if x]) for row in ker.basis.ints]
    change = Mat([[u[f] for f in lasts] for u in basis], cols=ker.dim)
    return [list((change * Mat(row, cols=inst.dim_U)).data) for row in ujk]


class Decomposition(NamedTuple):
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


class Decomposer:
    """The integer core of the decomposition of one invariant image vector
    w = w_ints / den_w in one basis of ker pi, the rows of `kernel`.

    It solves pi u0 = w once, checks that w is fixed by the action, and
    solves the coordinates a_j of each (g_j - id)u0 in the basis once; the
    coefficients do not depend on the u_jk. assemble then builds
    sum a_{j,k} u_{j,k} and the invariant part for any choice of the u_jk,
    and checks both properties. Refusals are PreconditionErrors, with the
    codes `not-in-image`, `not-invariant` and `kernel-escape` in that
    order; a failed property check is an AssertionError.
    """

    __slots__ = ("_inst", "_den_w", "_w", "_den_0", "_u0", "coefficients")

    def __init__(
        self, inst: LinearInstance, den_w: int, w_ints: Sequence[int], kernel: Mat
    ):
        sol = Reduction(inst.pi, [w_ints]).solution(0, den_w)
        if sol is None:
            raise PreconditionError("not-in-image", "w is not in the image of pi")
        if any(_apply(inst.moves_W, w_ints)):
            raise PreconditionError("not-invariant", "w is not fixed by the action")
        den_0, u0 = sol
        # G u0 over moves.den, cut into the d blocks (g_j - id)u0.
        moves, n = inst.moves_U, inst.dim_U
        moved = _apply(moves, u0)
        red = Reduction(kernel.transpose(), [moved[j * n : (j + 1) * n] for j in range(inst.d)])
        coeffs = [red.solution(j, moves.den * den_0) for j in range(inst.d)]
        if None in coeffs:
            raise PreconditionError(
                "kernel-escape",
                "(g - id)u0 left ker pi; conditions (i)/(ii) do not hold",
            )
        self._inst = inst
        self._den_w, self._w = den_w, w_ints
        self._den_0, self._u0 = den_0, u0
        # One (den_a, a) per generator j, with a_{j,k} = a[k] / den_a.
        self.coefficients: list[tuple[int, list[int]]] = coeffs

    def assemble(
        self, ujk: Sequence[Sequence[tuple[int, Sequence[int]]]]
    ) -> tuple[int, list[int], list[int]]:
        """(den, u, preimage) with u the invariant part u0 - sum a_{j,k}
        u_{j,k} and preimage = u + sum a_{j,k} u_{j,k}, both integer
        vectors over den, for ujk[j][k] = (den_u, x) meaning x / den_u.
        Raises AssertionError when u is not fixed by every generator or pi
        of the preimage is not w."""
        inst = self._inst
        # The nonzero terms a_{j,k} u_{j,k}, each as (a, den_t, u) with the
        # term equal to a * u / den_t for integers a and u.
        terms = []
        for j, (den_a, a_ints) in enumerate(self.coefficients):
            for k, a in enumerate(a_ints):
                if a:
                    den_u, u_ints = ujk[j][k]
                    terms.append((a, den_a * den_u, u_ints))
        den_0 = self._den_0
        den = lcm(den_0, *[t[1] for t in terms])
        periods = [0] * inst.dim_U
        for a, den_t, u_ints in terms:
            k = a * (den // den_t)
            periods = [x + k * y for x, y in zip(periods, u_ints)]
        scale = den // den_0
        u_inv = [scale * x - y for x, y in zip(self._u0, periods)]
        if any(_apply(inst.moves_U, u_inv)):
            raise AssertionError("invariant part not fixed")
        preimage = [x + y for x, y in zip(u_inv, periods)]
        image = _apply(inst.pi, preimage)
        den_w = self._den_w
        if [den_w * x for x in image] != [inst.pi.den * den * x for x in self._w]:
            raise AssertionError("reconstruction failed")
        return den, u_inv, preimage


def decompose(
    inst: LinearInstance,
    w: Sequence,
    ujk: Sequence[Sequence[Sequence]],
    kernel_basis_choice: Sequence[Sequence],
) -> Decomposition:
    """Split an invariant image vector as pi(sum a_{j,k} u_{j,k} + u), u fixed.

    The coefficients come from expressing each (g_j - id)u0 in the chosen
    kernel basis, where u0 is the deterministic preimage of w. They do not
    depend on the particular ujk solutions. The work is a Decomposer's, on
    integer vectors over one denominator; Fractions are made only for the
    result.
    """
    w = vec(w)
    kernel = Mat([vec(u) for u in kernel_basis_choice], cols=inst.dim_U)
    core = Decomposer(inst, *_cleared(w), kernel)
    den, u_inv, preimage = core.assemble(
        [[_cleared(u) for u in row] for row in ujk]
    )
    return Decomposition(
        tuple([tuple([_frac(x, den_a) for x in a]) for den_a, a in core.coefficients]),
        tuple([_frac(x, den) for x in u_inv]),
        tuple([_frac(x, den) for x in preimage]),
        w,
    )


def _apply(m: Mat, v: Sequence[int]) -> list[int]:
    """m.ints times the integer vector v: m v, scaled by m.den."""
    nonzero = [(k, x) for k, x in enumerate(v) if x]
    return [sum([row[k] * x for k, x in nonzero]) for row in m.ints]


def _require_condition_i(inst: LinearInstance) -> None:
    """Refuse unless ker pi lies in the U fixed space: condition (i)."""
    if not check_condition_i(inst):
        raise PreconditionError(
            "condition-i", "ker pi is not contained in the U fixed space"
        )


def check_lemma_commutation(inst: LinearInstance) -> bool:
    """Generator pairs commute on the preimage of the W fixed space.

    Requires ker pi inside the U fixed space; refuses otherwise.
    """
    _require_condition_i(inst)
    ut = u_tilde(inst).basis
    gts = [gu.transpose() for gu, _ in inst.generators]
    for a in range(len(gts)):
        for b in range(a + 1, len(gts)):
            # Row u of ut * gb^T * ga^T is (ga gb u)^T.
            if ut * gts[b] * gts[a] != ut * gts[a] * gts[b]:
                return False
    return True


class TorsionReport(NamedTuple):
    checked: tuple[int, ...]  # generator indices with a declared finite order
    all_fixed: Optional[bool]  # None when vacuous

    @property
    def vacuous(self) -> bool:
        return not self.checked


def check_torsion_trivial(inst: LinearInstance) -> TorsionReport:
    """Declared finite-order generators must fix the preimage space pointwise."""
    _require_condition_i(inst)
    indices = tuple(sorted(i for i, n in inst.orders.items() if n >= 1))
    if not indices:
        return TorsionReport((), None)
    ut = u_tilde(inst).basis
    ok = all(ut * inst.generators[i][0].transpose() == ut for i in indices)
    return TorsionReport(indices, ok)
