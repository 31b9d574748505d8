"""Periodic graphs: finite quotient graphs carrying integer voltage labels.

The quotient graph plus a Z^d voltage per edge presents an infinite lift
with a free Z^d translation action. All invariant data lives on the
quotient: period lattices of fundamental-cycle voltages decide whether the
translation action is closed in lift components, and an invariant closed
1-form decomposes into period coefficients (one per generator and quotient
component) plus a periodic potential. The lift is only ever materialized by
the finite-window truncation oracle.

Every traversal reads the quotient's one spanning forest (`Graph.forest`),
and a PeriodicGraph keeps its fundamental-cycle voltages and period lattices
once computed. No elimination runs beyond one small solve per component, and
the realized quotient dimension is the sum of the period lattices' ranks.

The request path computes on Python ints, the way `linalg.Mat` does: w is
cleared of its denominators once (D), each component's coefficients are
brought to one integer row over a common E, and the residual, its
closedness check and the reconstruct round trip all run on integers over
D*E. Fractions are made only for the returned PeriodicDecomposition. The
truncation oracle likewise clears one common denominator of w, f and a and
tabulates the lift window in one flat int list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import mul
from typing import Optional, Sequence

from .errors import TRUNCATION_BUDGET, InputError, PreconditionError
from .graphs import Cochain0, Cochain1, Graph, closed_potential
from .linalg import Mat, _cleared, _frac, integer, json_list, rat_str, solve


def hermite_normal_form(rows: Sequence[Sequence[int]], cols: int) -> list[list[int]]:
    """Row-style HNF of the lattice spanned by integer rows.

    Canonical form: positive pivots, entries above a pivot reduced into
    [0, pivot), zero rows dropped. The column walk stops once every row
    holds a pivot, so the work is bounded by the rows, not by `cols`.
    """
    a = [list(map(int, r)) for r in rows]
    for r in a:
        if len(r) != cols:
            raise ValueError("row length mismatch")
    m = len(a)
    r = 0
    for c in range(cols):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            a[r], a[i0] = a[i0], a[r]
            done = True
            for i in range(r + 1, m):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
    return a[:r]


@dataclass(frozen=True)
class PeriodLattice:
    d: int
    basis: tuple[tuple[int, ...], ...]  # HNF rows

    @property
    def rank(self) -> int:
        return len(self.basis)

    def is_full(self) -> bool:
        """True when the lattice is all of Z^d."""
        return self.rank == self.d and self.index() == 1

    def index(self) -> Optional[int]:
        """Index in Z^d (product of HNF pivots), or None when rank-deficient."""
        if self.rank < self.d:
            return None
        # Full-rank HNF rows have their (positive) pivots on the diagonal.
        idx = 1
        for i, row in enumerate(self.basis):
            idx *= row[i]
        return idx


@dataclass(frozen=True)
class PeriodicGraph:
    d: int
    quotient: Graph
    voltages: dict[int, tuple[int, ...]]  # edge id -> Z^d label

    @classmethod
    def make(cls, d: int, quotient: Graph, voltages: dict[int, Sequence[int]]) -> "PeriodicGraph":
        if d < 1:
            raise InputError("periodic rank d must be >= 1")
        volt = {}
        for e in quotient.edges:
            if e.id not in voltages:
                raise InputError(f"missing voltage for edge {e.id}")
            t = tuple(int(x) for x in voltages[e.id])
            if len(t) != d:
                raise InputError(f"voltage of edge {e.id} has length != d")
            volt[e.id] = t
        return cls(d, quotient, volt)

    def to_json(self) -> dict:
        obj = self.quotient.to_json()
        obj["d"] = self.d
        obj["voltages"] = {str(i): list(t) for i, t in sorted(self.voltages.items())}
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "PeriodicGraph":
        graph = Graph.from_json(obj)
        try:
            d = integer(obj["d"])
            voltages = {
                integer(i): [integer(x) for x in json_list(t)]
                for i, t in obj["voltages"].items()
            }
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad periodic graph JSON: {exc}") from exc
        return cls.make(d, graph, voltages)

    @cached_property
    def cycles(self) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
        """Per quotient component, (edge position, cycle voltage) of each
        non-tree edge of the quotient's spanning forest: the cycle voltage
        is the Z^d label summed around that edge's fundamental cycle."""
        g = self.quotient
        forest = g.forest
        volts = [self.voltages[e.id] for e in g.edges]
        # Tree translation b(v) of each vertex, one coordinate at a time, for
        # the coordinates some tree edge moves; the others are 0. So the work
        # follows the voltages given, not d.
        moved = sorted(
            {j for pos in forest.tree_positions for j, x in enumerate(volts[pos]) if x}
        )
        b = {j: forest.integrate([t[j] for t in volts]) for j in moved}
        cycles: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in forest.comps]
        for pos, e in enumerate(g.edges):
            if pos not in forest.tree_positions:
                cv = list(volts[pos])
                for j, bj in b.items():
                    cv[j] += bj[e.o] - bj[e.t]
                cycles[forest.comp_of[e.o]].append((pos, tuple(cv)))
        return tuple(map(tuple, cycles))

    @cached_property
    def lattices(self) -> tuple["PeriodLattice", ...]:
        """Per quotient component, its period lattice; see period_lattices."""
        return tuple(
            PeriodLattice(
                self.d,
                tuple(map(tuple, hermite_normal_form([cv for _, cv in comp], self.d))),
            )
            for comp in self.cycles
        )


def period_lattices(pg: PeriodicGraph) -> list[PeriodLattice]:
    """Per quotient component, the sublattice of Z^d spanned by the voltages
    of its fundamental cycles, in canonical HNF."""
    return list(pg.lattices)


def lift_component_count(pg: PeriodicGraph):
    """Number of connected components of the lift, or "infinite"."""
    total = 0
    for lat in pg.lattices:
        idx = lat.index()
        if idx is None:
            return "infinite"
        total += idx
    return total


def _cochain_ints(pg: PeriodicGraph, w: Cochain1) -> tuple[int, list[int]]:
    """(D, w_int) with w == w_int / D: w cleared of its denominators once."""
    if len(w.values) != pg.quotient.n_edges:
        raise InputError("1-cochain length does not match edge count")
    return _cleared(w.values)


def _period_coefficients(pg: PeriodicGraph, w_int: Sequence[int]):
    """Per quotient component k, the coefficients a_k with T_k a_k = sums_k,
    where the rows of T_k are the voltages of k's fundamental cycles and
    sums_k their sums of the integer cochain w_int; each as (integer row,
    denominator), or None where that system is inconsistent.

    A lift cycle is a zero-voltage cycle inside one component, so the lift
    of w is closed exactly when every component's system is consistent.
    Yields lazily, so a caller may stop at the first None.
    """
    g = pg.quotient
    pw = g.forest.integrate(w_int)
    for comp_cycles in pg.cycles:
        sums = [
            w_int[pos] + pw[g.edges[pos].o] - pw[g.edges[pos].t]
            for pos, _ in comp_cycles
        ]
        t_k = Mat.from_ints([cv for _, cv in comp_cycles], cols=pg.d)
        a_k = solve(t_k, sums)
        if a_k is None:
            yield None
            continue
        den, row = _cleared(a_k)
        # Well-definedness: every fundamental cycle, not just a spanning
        # subset, must agree with these coefficients.
        assert all(
            sum(map(mul, cv, row)) == den * s for (_, cv), s in zip(comp_cycles, sums)
        )
        yield row, den


def is_invariant_closed(pg: PeriodicGraph, w: Cochain1) -> bool:
    """Closedness of the G-invariant lift of w, decided per quotient
    component: in each component, the w-sum of every combination of its
    fundamental cycles with zero total voltage must vanish, i.e. the cycle
    sums must be a linear function of the cycle voltages."""
    _, w_int = _cochain_ints(pg, w)
    return all(a_k is not None for a_k in _period_coefficients(pg, w_int))


@dataclass(frozen=True)
class PeriodicDecomposition:
    a: tuple[tuple[Fraction, ...], ...]  # d x n_components
    f: Cochain0  # quotient potential, 0 at each component root
    lattices: tuple[PeriodLattice, ...]

    def to_json(self) -> dict:
        return {
            "a": [[rat_str(x) for x in row] for row in self.a],
            "f": [rat_str(x) for x in self.f.values],
            "certificate": {
                "closed": True,
                "lattices": [
                    [list(row) for row in lat.basis] for lat in self.lattices
                ],
            },
        }


def parse_invariant_cochain(pg: PeriodicGraph, obj) -> Cochain1:
    """Parse a 1-cochain on the quotient. Only zero-voltage loops lift to
    genuine loops, so only those are forced to carry value 0."""
    w = Cochain1.from_json(pg.quotient, obj, forbid_loop_values=False)
    for pos, e in enumerate(pg.quotient.edges):
        if e.o == e.t and all(x == 0 for x in pg.voltages[e.id]):
            if w.values[pos] != 0:
                raise InputError(
                    f"zero-voltage loop edge {e.id} must carry value 0"
                )
    return w


def decompose_periodic(pg: PeriodicGraph, w: Cochain1) -> PeriodicDecomposition:
    """Split an invariant closed 1-form into period coefficients plus a
    periodic potential: w(e) = f(te) - f(oe) + sum_j a_{j,k} t(e)_j on each
    edge of component k, exactly.

    Closedness is decided per quotient component, by the same consistency
    check as is_invariant_closed; the first component whose cycle sums are
    inconsistent is named in the `not-closed` error.
    """
    for k, lat in enumerate(pg.lattices):
        if not lat.is_full():
            raise PreconditionError(
                "action-not-closed",
                f"period lattice not full in component {k}: "
                f"rank {lat.rank} of {pg.d}"
                + (f", index {lat.index()}" if lat.index() is not None else ""),
            )
    den_w, w_int = _cochain_ints(pg, w)
    rows, dens = [], []
    for k, a_k in enumerate(_period_coefficients(pg, w_int)):
        if a_k is None:
            raise PreconditionError(
                "not-closed", f"inconsistent cycle sums in component {k}"
            )
        rows.append(a_k[0])
        dens.append(a_k[1])
    # Everything below is an integer over den = den_w * den_a.
    den_a = lcm(*dens)
    a_int = [[x * (den_a // dk) for x in row] for row, dk in zip(rows, dens)]
    w_int = [den_a * x for x in w_int]
    periods = _reconstruct_ints(pg, a_int, [0] * pg.quotient.n_vertices)
    residual = [x - p for x, p in zip(w_int, periods)]
    f_int = closed_potential(pg.quotient, residual)
    assert f_int is not None, "residual 1-form must be exact on the quotient"
    assert _reconstruct_ints(pg, a_int, f_int) == w_int
    den = den_w * den_a
    a = tuple(tuple(_frac(row[j], den) for row in a_int) for j in range(pg.d))
    return PeriodicDecomposition(
        a, Cochain0(tuple(_frac(x, den) for x in f_int)), pg.lattices
    )


def _reconstruct_ints(
    pg: PeriodicGraph, a_int: Sequence[Sequence[int]], f_int: Sequence[int]
) -> list[int]:
    """w(e) = f(te) - f(oe) + sum_j a_{j,k} t(e)_j on integers, with a_int
    one row per quotient component."""
    comp_of = pg.quotient.forest.comp_of
    return [
        f_int[e.t]
        - f_int[e.o]
        + sum([a * t for a, t in zip(a_int[comp_of[e.o]], pg.voltages[e.id]) if t])
        for e in pg.quotient.edges
    ]


def reconstruct(
    pg: PeriodicGraph, a: Sequence[Sequence], f: Cochain0
) -> Cochain1:
    """Inverse of decompose_periodic: build w from coefficients and potential.

    Every a[j][k] and f value is read once through rat, so a float or a
    bool raises TypeError rather than entering the exact arithmetic; all
    are cleared to one common denominator and w is built on integers.
    """
    rows = [list(row) for row in a]
    den, ints = _cleared([x for row in rows for x in row] + list(f.values))
    flat = iter(ints)
    a_rows = [[next(flat) for _ in row] for row in rows]
    values = _reconstruct_ints(pg, list(zip(*a_rows)), list(flat))
    return Cochain1(tuple(_frac(x, den) for x in values))


def truncation_oracle(
    pg: PeriodicGraph, w: Cochain1, dec: PeriodicDecomposition, radius: int
) -> dict:
    """Materialize the lift on the window [-radius, radius]^d and verify the
    given decomposition of w edge by edge against w itself.

    The lift potential F(v, cell) = f(v) + sum_j a_{j,k(v)} cell_j is
    tabulated once per lift vertex of the window; every lift edge whose two
    ends lie in the window is then checked exactly against the table. All
    values are scaled by one common denominator of w, f and a, so the table
    and the comparisons are on Python ints. The table is one flat list: the
    vertex (v, cell) is entry index(cell) * n + v, with index(cell) =
    sum_j (cell_j + radius) * side**j, so the far end of an edge e with
    voltage t sits a fixed (sum_j t_j * side**j) * n + te - oe entries past
    its near end. Any mismatch means `dec` does not decompose w and raises
    AssertionError naming the edge and the cell; the returned report counts
    the checks performed.

    The work is predicted first, as (2r+1)^d table entries per quotient
    vertex plus, per edge of voltage t, the prod_j max(0, 2r+1-|t_j|) cells
    whose translate stays in the window; above TRUNCATION_BUDGET it raises
    PreconditionError("budget", ...) before anything is tabulated.
    """
    if radius < 0:
        raise InputError(f"truncation radius must be >= 0, got {radius}")
    side = 2 * radius + 1
    work = side**pg.d * pg.quotient.n_vertices + sum(
        prod(max(0, side - abs(tj)) for tj in t) for t in pg.voltages.values()
    )
    if work > TRUNCATION_BUDGET:
        raise PreconditionError(
            "budget",
            f"truncation at radius {radius} predicts {work} table entries "
            f"and checks, over the budget of {TRUNCATION_BUDGET}",
        )
    g = pg.quotient
    comp_of = g.forest.comp_of
    m = len(g.forest.comps)
    den = lcm(
        *(x.denominator for x in w.values),
        *(x.denominator for x in dec.f.values),
        *(x.denominator for row in dec.a for x in row),
    )

    def scaled(values) -> list[int]:
        return [x.numerator * (den // x.denominator) for x in values]

    w_int, f_int = scaled(w.values), scaled(dec.f.values)
    a_int = [scaled(row) for row in dec.a]
    n = g.n_vertices
    lo, hi = -radius, radius
    # Cell c of the window has index sum_j (c_j - lo) * side**j, and the lift
    # vertex (v, c) is entry index * n + v of one flat table of F.
    strides = [side**j * n for j in range(pg.d)]
    shifts = [[0] * m]  # per cell, sum_j a_{j,k} c_j for each component k
    for j in range(pg.d):
        shifts = [
            [s + a_jk * c for s, a_jk in zip(sh, a_int[j])]
            for c in range(lo, hi + 1)
            for sh in shifts
        ]
    table = [fv + sh[k] for sh in shifts for fv, k in zip(f_int, comp_of)]

    checks = 0
    for pos, e in enumerate(g.edges):
        t = pg.voltages[e.id]
        value = w_int[pos]
        # Entry of (e.o, cell) for every cell whose translate by t stays in
        # the window, in lexicographic cell order; (e.t, cell + t) sits a
        # fixed offset further on.
        starts = [e.o]
        for tj, stride in zip(t, strides):
            steps = [
                (c - lo) * stride
                for c in range(max(lo, lo - tj), min(hi, hi - tj) + 1)
            ]
            starts = [b + s for b in starts for s in steps]
        offset = sum(map(mul, t, strides)) + e.t - e.o
        for b in starts:
            if table[b + offset] - table[b] != value:
                index = (b - e.o) // n
                cell = tuple(index // side**j % side + lo for j in range(pg.d))
                raise AssertionError(
                    f"truncation mismatch on edge {e.id} at cell {cell}"
                )
        checks += len(starts)
    return {"radius": radius, "checks": checks, "ok": True}


def realized_quotient_dim(pg: PeriodicGraph) -> int:
    """Dimension spanned by the d*m period generator forms
    (e -> t(e)_j on component k) modulo quotient-exact forms.

    It equals sum_k rank(L_k) over the period lattices: a 1-form is exact
    iff its sum over every fundamental cycle vanishes, and the period form
    (j, k) sums over component k's fundamental cycles to column j of the
    cycle-voltage matrix whose rows span L_k (and to 0 elsewhere).
    """
    return sum(lat.rank for lat in pg.lattices)
