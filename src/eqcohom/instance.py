"""Equivariant linear instances and the quotient-dimension machinery.

A LinearInstance packages a rational linear map pi : U -> W together with a
finite list of commuting-with-pi generator actions (gU_i, gW_i). The module
computes the invariant subspaces, the quotient dimension
dim (im(pi) ^ fixed) / pi(fixed), checks the two sharp conditions that
characterize when it equals m*d, and performs the constructive decomposition
of an invariant image vector into period coefficients plus an invariant
preimage part.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError, PreconditionError
from .linalg import (
    Mat,
    Subspace,
    column_space,
    integer,
    kernel_basis,
    quotient_dim,
    rat,
    rat_str,
    solve,
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

    @property
    def m(self) -> int:
        return kernel_basis(self.pi).dim

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
        try:
            dim_u = integer(obj["dim_U"])
            dim_w = integer(obj["dim_W"])
            pi = Mat(obj["pi"])
            gens = []
            orders = {}
            for i, g in enumerate(obj["generators"]):
                gens.append((Mat(g["gU"]), Mat(g["gW"])))
                if "order" in g and g["order"] is not None:
                    orders[i] = integer(g["order"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad instance JSON: {exc}") from exc
        return cls(dim_u, dim_w, pi, tuple(gens), orders)


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


def require_valid(inst: LinearInstance) -> None:
    report = validate(inst)
    if not report.ok:
        raise InputError("invalid instance: " + "; ".join(report.issues))


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


def _fixed_space(mats: Sequence[Mat], dim: int) -> Subspace:
    """Common fixed space of the given square matrices: intersect ker(g - I)."""
    if not mats:
        return Subspace.full(dim)
    ident = Mat.identity(dim)
    stacked = Mat.vstack([g - ident for g in mats])
    return kernel_basis(stacked)


def invariant_subspace_U(inst: LinearInstance) -> Subspace:
    return _fixed_space([gu for gu, _ in inst.generators], inst.dim_U)


def invariant_subspace_W(inst: LinearInstance) -> Subspace:
    return _fixed_space([gw for _, gw in inst.generators], inst.dim_W)


def u_tilde(inst: LinearInstance) -> Subspace:
    """Preimage of the W fixed space under pi: {u : pi u is fixed by all g}."""
    mats = [(gw - Mat.identity(inst.dim_W)) * inst.pi for _, gw in inst.generators]
    if not mats:
        return Subspace.full(inst.dim_U)
    return kernel_basis(Mat.vstack(mats))


def gbar_map(inst: LinearInstance) -> Mat:
    """The (d * dim_U) x dim_U matrix of u -> ((g_1 - id)u, ..., (g_d - id)u)."""
    ident = Mat.identity(inst.dim_U)
    return Mat.vstack([gu - ident for gu, _ in inst.generators])


@dataclass(frozen=True)
class OracleResult:
    dim: int
    pi_U_G: Subspace  # im(pi) intersected with the W fixed space
    pi_of_UG: Subspace  # image of the U fixed space


def oracle_quotient_dim(inst: LinearInstance) -> OracleResult:
    """Brute-force the quotient dimension from the defining subspaces."""
    image = column_space(inst.pi)
    w_fixed = invariant_subspace_W(inst)
    pi_u_g = subspace_intersection(image, w_fixed)
    u_fixed = invariant_subspace_U(inst)
    pi_of_ug = Subspace(
        inst.dim_W, [inst.pi.mulvec(v) for v in u_fixed.basis_vectors()]
    )
    assert pi_of_ug.is_subspace_of(pi_u_g), "pi(U^G) must sit inside pi(U)^G"
    return OracleResult(quotient_dim(pi_u_g, pi_of_ug), pi_u_g, pi_of_ug)


def check_condition_i(inst: LinearInstance) -> bool:
    """ker pi contained in the U fixed space."""
    return kernel_basis(inst.pi).is_subspace_of(invariant_subspace_U(inst))


def check_condition_ii(inst: LinearInstance) -> bool:
    """(ker pi)^d contained in the image of the stacked (g_i - id) map.

    Checked on the basis vectors of ker pi placed in each of the d slots.
    """
    ker = kernel_basis(inst.pi)
    if ker.dim == 0:
        return True
    gbar = gbar_map(inst)
    n = inst.dim_U
    for j in range(inst.d):
        for u_k in ker.basis_vectors():
            target = [Fraction(0)] * (inst.d * n)
            target[j * n : (j + 1) * n] = list(u_k)
            if solve(gbar, target) is None:
                return False
    return True


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

    iff_ok must always be True; a False value flags a genuine violation of
    the characterization and is treated as a hard failure by callers.
    """
    m = kernel_basis(inst.pi).dim
    d = inst.d
    dim = oracle_quotient_dim(inst).dim
    ci = check_condition_i(inst)
    cii = check_condition_ii(inst)
    bound_ok = dim <= m * d
    iff_ok = (dim == m * d) == (ci and cii)
    return IffReport(m, d, dim, ci, cii, bound_ok, iff_ok)


def find_ujk(
    inst: LinearInstance, kernel_basis_choice: Sequence[Sequence]
) -> Optional[list[list[tuple[Fraction, ...]]]]:
    """Solve (g_i - id) x = delta_{ij} u_k simultaneously over all i.

    Returns ujk[j][k], or None when some system is inconsistent (which
    happens exactly when the slot condition on (ker pi)^d fails).
    """
    basis = [vec(u) for u in kernel_basis_choice]
    ker = kernel_basis(inst.pi)
    if Subspace(inst.dim_U, basis) != ker or len(basis) != ker.dim:
        raise PreconditionError(
            "kernel-basis", "supplied vectors are not a basis of ker pi"
        )
    gbar = gbar_map(inst)
    n = inst.dim_U
    out: list[list[tuple[Fraction, ...]]] = []
    for j in range(inst.d):
        row = []
        for u_k in basis:
            target = [Fraction(0)] * (inst.d * n)
            target[j * n : (j + 1) * n] = list(u_k)
            x = solve(gbar, target)
            if x is None:
                return None
            row.append(x)
        out.append(row)
    return out


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
    depend on the particular ujk solutions.
    """
    w = vec(w)
    u0 = solve(inst.pi, w)
    if u0 is None:
        raise PreconditionError("not-in-image", "w is not in the image of pi")
    if not invariant_subspace_W(inst).contains(w):
        raise PreconditionError("not-invariant", "w is not fixed by the action")
    basis = [vec(u) for u in kernel_basis_choice]
    kmat = Mat.from_cols(basis) if basis else Mat.zeros(inst.dim_U, 0)
    ident = Mat.identity(inst.dim_U)
    coeffs: list[tuple[Fraction, ...]] = []
    for gu, _ in inst.generators:
        moved = (gu - ident).mulvec(u0)
        a_j = solve(kmat, moved)
        if a_j is None:
            raise PreconditionError(
                "kernel-escape",
                "(g - id)u0 left ker pi; conditions (i)/(ii) do not hold",
            )
        coeffs.append(a_j)
    u_inv = list(u0)
    for j in range(inst.d):
        for k in range(len(basis)):
            u_inv = [
                x - coeffs[j][k] * y for x, y in zip(u_inv, vec(ujk[j][k]))
            ]
    u_inv = tuple(u_inv)
    for gu, _ in inst.generators:
        assert gu.mulvec(u_inv) == u_inv, "invariant part not fixed"
    preimage = list(u_inv)
    for j in range(inst.d):
        for k in range(len(basis)):
            preimage = [
                x + coeffs[j][k] * y for x, y in zip(preimage, vec(ujk[j][k]))
            ]
    preimage = tuple(preimage)
    assert inst.pi.mulvec(preimage) == w, "reconstruction failed"
    return Decomposition(tuple(coeffs), u_inv, preimage, w)


def check_lemma_commutation(inst: LinearInstance) -> bool:
    """Generator pairs commute on the preimage of the W fixed space.

    Requires ker pi inside the U fixed space; refuses otherwise.
    """
    if not check_condition_i(inst):
        raise PreconditionError(
            "condition-i", "ker pi is not contained in the U fixed space"
        )
    ut = u_tilde(inst)
    gus = [gu for gu, _ in inst.generators]
    for a in range(len(gus)):
        for b in range(a + 1, len(gus)):
            for u in ut.basis_vectors():
                if gus[a].mulvec(gus[b].mulvec(u)) != gus[b].mulvec(gus[a].mulvec(u)):
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
    ut = u_tilde(inst)
    ok = True
    for i in indices:
        gu = inst.generators[i][0]
        for u in ut.basis_vectors():
            if gu.mulvec(u) != u:
                ok = False
    return TorsionReport(indices, ok)
