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
once computed; its fields are read-only (records.Frozen), so these cannot go
stale. The module eliminates nothing itself. Per component,
linalg.hermite_normal_form reduces the cycle voltages to the period
lattice's HNF and names the rank(L_k) cycles that opened its pivots; one
linalg.Reduction of those at most d rows gives the period coefficients,
and every other cycle is checked against that answer by a dot product.
The realized quotient dimension is the sum of the period lattices' ranks.

The request path computes on Python ints, the way `linalg.Mat` does: w
arrives as integers over one denominator D (a Cochain1 reads its JSON
straight to that form), each component's coefficients are one integer row
over a common E, and the residual, its closedness check and the
reconstruct round trip all run on integers over D*E. Fractions are made
only for the returned PeriodicDecomposition. The truncation oracle likewise
brings w, f and a to one common denominator, tabulates the lift window as
one int row per quotient vertex, and checks the edges of each voltage class
on their shared box of cells with C-level gathers.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import itemgetter, mul, sub
from typing import NamedTuple, Optional, Sequence

from .errors import TRUNCATION_BUDGET, InputError, PreconditionError
from .graphs import Cochain0, Cochain1, Edge, Graph, closed_potential
from .linalg import (
    Mat,
    Reduction,
    _cleared,
    _frac,
    hermite_normal_form,
    integer,
    json_list,
    rat_str,
)
from .records import Frozen, Record


class PeriodLattice(Record):
    # independent_cycles: positions, among its component's fundamental
    # cycles, of the rank-many cycles whose voltages opened the HNF's pivots:
    # independent, and spanning the lattice over Q. Not part of the
    # lattice's value, so not among its _fields.
    __slots__ = ("d", "basis", "independent_cycles")
    _fields = ("d", "basis")  # basis: the HNF rows

    def __init__(self, d: int, basis: tuple[tuple[int, ...], ...], independent_cycles=()):
        self.d, self.basis, self.independent_cycles = d, basis, independent_cycles

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


class PeriodicGraph(Frozen):
    _fields = ("d", "quotient", "voltages")

    def __init__(self, d: int, quotient: Graph, voltages: dict[int, tuple[int, ...]]):
        # voltages: edge id -> Z^d label
        self.__dict__.update(d=d, quotient=quotient, voltages=voltages)

    @classmethod
    def make(cls, d: int, quotient: Graph, voltages: dict[int, Sequence[int]]) -> "PeriodicGraph":
        """A periodic graph from one voltage per quotient edge, keyed by edge
        id. Each entry is read once with `integer`, so a float or a bool is
        refused rather than truncated, and so is a key that names no edge."""

        def read(e: Edge, t: Sequence) -> tuple[int, ...]:
            try:
                return tuple([integer(x) for x in t])
            except (TypeError, ValueError) as exc:
                raise InputError(f"bad voltage of edge {e.id}: {exc}") from exc

        return cls._build(d, quotient, voltages, read)

    @classmethod
    def _build(cls, d: int, quotient: Graph, voltages: dict, read) -> "PeriodicGraph":
        """A periodic graph whose edge e has the voltage read(e, t) of the
        entry t under e.id. An edge with no entry, a voltage whose length
        is not d, and a key that names no edge are refused."""
        if d < 1:
            raise InputError("periodic rank d must be >= 1")
        volt = {}
        for e in quotient.edges:
            if e.id not in voltages:
                raise InputError(f"missing voltage for edge {e.id}")
            t = read(e, voltages[e.id])
            if len(t) != d:
                raise InputError(f"voltage of edge {e.id} has length != d")
            volt[e.id] = t
        if len(volt) != len(voltages):
            unknown = sorted(key for key in voltages if key not in volt)
            raise InputError(
                "voltage keys name no edge of the graph: "
                + ", ".join(map(str, unknown))
            )
        return cls(d, quotient, volt)

    def to_json(self) -> dict:
        obj = self.quotient.to_json()
        obj["d"] = self.d
        obj["voltages"] = {str(i): list(t) for i, t in sorted(self.voltages.items())}
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "PeriodicGraph":
        """Read a graph with "d" and "voltages", an object keyed by edge id.
        As with 1-cochains, a key must be an edge id exactly as str(id)
        writes it, so "01" and " 1" name no edge rather than edge 1."""
        graph = Graph.from_json(obj)
        try:
            d = integer(obj["d"])
            given = obj["voltages"]
            if type(given) is not dict:
                raise TypeError('"voltages" is not a JSON object')
            voltages = {
                key: tuple([integer(x) for x in json_list(t)])
                for key, t in given.items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad periodic graph JSON: {exc}") from exc
        # Keys that are edge ids as str writes them become the ids; every
        # other key stays a string, which names no edge.
        ids = {str(e.id): e.id for e in graph.edges}
        voltages = {ids.get(key, key): t for key, t in voltages.items()}
        return cls._build(d, graph, voltages, lambda e, t: t)

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
        """Per quotient component, its period lattice, with the positions of
        the cycles that opened its pivots; see period_lattices."""
        out = []
        for comp in self.cycles:
            basis, opened = hermite_normal_form((cv for _, cv in comp), self.d)
            out.append(PeriodLattice(self.d, tuple(map(tuple, basis)), tuple(opened)))
        return tuple(out)


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


def _cochain_ints(pg: PeriodicGraph, w: Cochain1) -> tuple[int, Sequence[int]]:
    """(D, w_int) with w == w_int / D, as w keeps them."""
    if len(w.ints) != pg.quotient.n_edges:
        raise InputError("1-cochain length does not match edge count")
    return w.den, w.ints


def _period_coefficients(pg: PeriodicGraph, w_int: Sequence[int]):
    """Per quotient component k, the coefficients a_k with T_k a_k = sums_k,
    where the rows of T_k are the voltages of k's fundamental cycles and
    sums_k their sums of the integer cochain w_int; each as (integer row,
    denominator), or None where that system is inconsistent. When L_k has
    full rank the RREF's identity block holds the denominator, so the row
    is in lowest terms.

    Only rank(L_k) <= d independent cycles are eliminated: those whose
    voltages opened the pivots of L_k's HNF, and the Reduction of their
    r x (d+1) block [T_k | sums_k] gives a_k with the free variables set
    to zero. The system is consistent iff
    T_k a_k = sums_k on every cycle. When it is, every row of
    [T_k | sums_k] is a combination of the chosen rows, so the full system
    has the same RREF and the same solution.

    A lift cycle is a zero-voltage cycle inside one component, so the lift
    of w is closed exactly when every component's system is consistent.
    Yields lazily, so a caller may stop at the first None.
    """
    g = pg.quotient
    pw = g.forest.integrate(w_int)
    for comp_cycles, lat in zip(pg.cycles, pg.lattices):
        sums = [
            w_int[pos] + pw[g.edges[pos].o] - pw[g.edges[pos].t]
            for pos, _ in comp_cycles
        ]
        chosen = lat.independent_cycles
        block = Mat.from_ints([comp_cycles[i][1] for i in chosen], cols=pg.d)
        den, row = Reduction(block, [[sums[i] for i in chosen]]).solution(0)
        # Well-definedness: every fundamental cycle, not just the chosen
        # ones, must agree with these coefficients.
        if all(
            sum(map(mul, cv, row)) == den * s for (_, cv), s in zip(comp_cycles, sums)
        ):
            yield row, den
        else:
            yield None


def is_invariant_closed(pg: PeriodicGraph, w: Cochain1) -> bool:
    """Closedness of the G-invariant lift of w, decided per quotient
    component: in each component, the w-sum of every combination of its
    fundamental cycles with zero total voltage must vanish, i.e. the cycle
    sums must be a linear function of the cycle voltages."""
    _, w_int = _cochain_ints(pg, w)
    return all(a_k is not None for a_k in _period_coefficients(pg, w_int))


class PeriodicDecomposition(NamedTuple):
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
    for e, x in zip(pg.quotient.edges, w.ints):
        if x and e.o == e.t and not any(pg.voltages[e.id]):
            raise InputError(f"zero-voltage loop edge {e.id} must carry value 0")
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
    if f_int is None:
        raise AssertionError("residual 1-form must be exact on the quotient")
    if _reconstruct_ints(pg, a_int, f_int) != w_int:
        raise AssertionError
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
    return Cochain1.from_ints(den, values)


def truncation_oracle(
    pg: PeriodicGraph, w: Cochain1, dec: PeriodicDecomposition, radius: int
) -> dict:
    """Materialize the lift on the window [-radius, radius]^d and verify the
    given decomposition of w edge by edge against w itself.

    The lift potential F(v, cell) = f(v) + sum_j a_{j,k(v)} cell_j is
    tabulated once per lift vertex of the window, as one int row per
    quotient vertex indexed by index(cell) = sum_j (cell_j + radius) *
    side**j; every lift edge whose two ends lie in the window is then
    checked exactly against the table. All values are scaled by one common
    denominator of w, f and a, so the table and the comparisons are on
    Python ints.

    The edges are grouped by voltage. For each distinct voltage t, the box
    of cells c with c and c + t both in the window is the product of one
    range per coordinate, and its index list (in lexicographic cell order)
    and that list shifted by sum_j t_j * side**j are built once. An edge e
    of voltage t is then checked on its whole box at once: both lists are
    gathered from the rows of te and oe, every difference is formed, and
    each is compared with w(e). Edges are checked in stored order; any
    mismatch means `dec` does not decompose w and raises AssertionError
    naming the edge and the first bad cell of its box; the returned report
    counts the checks performed.

    The work is predicted first, from the box sizes alone, as (2r+1)^d
    table entries per quotient vertex plus, per edge of voltage t, the
    prod_j max(0, 2r+1-|t_j|) cells of its box; above TRUNCATION_BUDGET it
    raises PreconditionError("budget", ...) before any index list or table
    is built.
    """
    if radius < 0:
        raise InputError(f"truncation radius must be >= 0, got {radius}")
    side = 2 * radius + 1
    g = pg.quotient
    by_voltage = Counter(pg.voltages.values())  # voltage -> number of edges
    box_size = {t: prod([max(0, side - abs(tj)) for tj in t]) for t in by_voltage}
    work = side**pg.d * g.n_vertices + sum(
        count * box_size[t] for t, count in by_voltage.items()
    )
    if work > TRUNCATION_BUDGET:
        raise PreconditionError(
            "budget",
            f"truncation at radius {radius} predicts {work} table entries "
            f"and checks, over the budget of {TRUNCATION_BUDGET}",
        )
    den = lcm(
        w.den,
        *[x.denominator for x in dec.f.values],
        *[x.denominator for row in dec.a for x in row],
    )

    def scaled(values) -> list[int]:
        return [x.numerator * (den // x.denominator) for x in values]

    w_scale = den // w.den
    w_int = [x * w_scale for x in w.ints] if w_scale > 1 else w.ints
    f_int = scaled(dec.f.values)
    a_int = [scaled(row) for row in dec.a]
    lo, hi = -radius, radius
    strides = [side**j for j in range(pg.d)]
    # Per component k, sum_j a_{j,k} cell_j at every cell index; F(v, .) is
    # f(v) plus the row of v's component.
    shift_rows = []
    for k in range(len(g.forest.comps)):
        row = [0]
        for j in range(pg.d):
            a_jk = a_int[j][k]
            row = [s + a_jk * c for c in range(lo, hi + 1) for s in row]
        shift_rows.append(row)
    table = [
        [fv + s for s in shift_rows[k]] for fv, k in zip(f_int, g.forest.comp_of)
    ]

    # Per voltage with a nonempty box: its near-end cell indices, and the
    # gathers of those indices and of their translates by t.
    boxes = {}
    for t, size in box_size.items():
        if not size:
            continue
        near = [0]
        for tj, stride in zip(t, strides):
            steps = [
                (c - lo) * stride
                for c in range(max(lo, lo - tj), min(hi, hi - tj) + 1)
            ]
            near = [b + s for b in near for s in steps]
        offset = sum(map(mul, t, strides))
        far = [b + offset for b in near]
        boxes[t] = (near, _gather(near), _gather(far))

    checks = 0
    for e, value in zip(g.edges, w_int):
        box = boxes.get(pg.voltages[e.id])
        if box is None:
            continue
        near, gather_near, gather_far = box
        diffs = list(map(sub, gather_far(table[e.t]), gather_near(table[e.o])))
        if diffs.count(value) != len(diffs):
            index = near[next(i for i, x in enumerate(diffs) if x != value)]
            cell = tuple(index // stride % side + lo for stride in strides)
            raise AssertionError(f"truncation mismatch on edge {e.id} at cell {cell}")
        checks += len(diffs)
    return {"radius": radius, "checks": checks, "ok": True}


def _gather(indices: Sequence[int]):
    """A function reading the entries at `indices` (nonempty) of a list as
    a tuple, at C level; itemgetter alone returns a bare entry for one
    index."""
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return itemgetter(*indices)


def realized_quotient_dim(pg: PeriodicGraph) -> int:
    """Dimension spanned by the d*m period generator forms
    (e -> t(e)_j on component k) modulo quotient-exact forms.

    It equals sum_k rank(L_k) over the period lattices: a 1-form is exact
    iff its sum over every fundamental cycle vanishes, and the period form
    (j, k) sums over component k's fundamental cycles to column j of the
    cycle-voltage matrix whose rows span L_k (and to 0 elsewhere).
    """
    return sum(lat.rank for lat in pg.lattices)
