"""Periodic graphs: finite quotient graphs carrying integer voltage labels.

The quotient graph plus a Z^d voltage per edge presents an infinite lift
with a free Z^d translation action. All invariant data lives on the
quotient: period lattices of fundamental-cycle voltages decide whether the
translation action is closed in lift components, and an invariant closed
1-form decomposes into period coefficients (one per generator and quotient
component) plus a periodic potential. The lift is never materialized, not
even by the finite-window truncation oracle, which checks the lift's edges
through the one identity described below.

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
over a common E, and the residual is integrated once along the forest and
checked once, by the reconstruct round trip (which implies its exactness),
all on integers over D*E. Fractions are made only for the returned
PeriodicDecomposition.

A PeriodicGraph also keeps its voltages by edge position and its voltage
classes: each voltage with the positions of the edges that carry it. The
truncation oracle likewise brings w, f and a to one common denominator.
On the lift, F(v, c) = f(v) + <a_k(v), c>, so F(te, c + t) - F(oe, c) is
the same integer f(te) - f(oe) + <a_k, t> at every cell c of an edge's
window box: one comparison per edge with a nonempty box checks every cell
of it, and the voltage classes give the number of those cells.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm, prod
from operator import eq, mul, ne, sub
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import GRAPH_BUDGET, TRUNCATION_BUDGET, InputError, PreconditionError
from .graphs import Cochain0, Cochain1, Graph
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
from .records import Frozen, Record, cached


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

        def read(i: int, t: Sequence) -> tuple[int, ...]:
            try:
                return tuple([integer(x) for x in t])
            except (TypeError, ValueError) as exc:
                raise InputError(f"bad voltage of edge {i}: {exc}") from exc

        return cls._build(d, quotient, voltages, read)

    @classmethod
    def _build(
        cls, d: int, quotient: Graph, voltages: dict, read: Optional[Callable] = None
    ) -> "PeriodicGraph":
        """A periodic graph whose edge of id i has the voltage read(i, t) of
        the entry t under i, or t itself when there is no `read` (entries
        read already). An edge with no entry, a voltage whose length is not
        d, and a key that names no edge are refused, and so is a d that
        brings vertices plus edges plus d over GRAPH_BUDGET."""
        if d < 1:
            raise InputError("periodic rank d must be >= 1")
        size = quotient.n_vertices + quotient.n_edges + d
        if size > GRAPH_BUDGET:
            raise PreconditionError(
                "budget",
                f"periodic graph has {size} vertices plus edges plus rank d, "
                f"over the budget of {GRAPH_BUDGET}",
            )
        volt = {}
        for i in quotient.ids:
            if i not in voltages:
                raise InputError(f"missing voltage for edge {i}")
            t = voltages[i]
            if read is not None:
                t = read(i, t)
            if len(t) != d:
                raise InputError(f"voltage of edge {i} has length != d")
            volt[i] = t
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
        writes it, so "01" and " 1" name no edge rather than edge 1. An
        entry is read with `integer` only when it is not exactly an int, so
        the first bad entry is the one refused."""
        graph = Graph.from_json(obj)
        try:
            d = obj["d"]
            if type(d) is not int:
                d = integer(d)
            given = obj["voltages"]
            if type(given) is not dict:
                raise TypeError('"voltages" is not a JSON object')
            # One pass in the object's order: each entry is read, and its
            # key becomes the edge id when it is one as str writes it; every
            # other key stays a string, which names no edge.
            ids = dict(zip(map(str, graph.ids), graph.ids))
            voltages = {
                ids.get(key, key): tuple(
                    [x if type(x) is int else integer(x) for x in json_list(t)]
                )
                for key, t in given.items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad periodic graph JSON: {exc}") from exc
        return cls._build(d, graph, voltages)

    @cached
    def edge_voltages(self) -> tuple[tuple[int, ...], ...]:
        """The voltage of each quotient edge, by stored position."""
        return tuple(list(map(self.voltages.__getitem__, self.quotient.ids)))

    @cached
    def voltage_classes(self) -> dict[tuple[int, ...], list[int]]:
        """Each voltage, in order of first appearance, with the positions of
        the edges that carry it, in stored order; built in one pass and not
        to be changed by its readers."""
        classes: dict[tuple[int, ...], list[int]] = {}
        for pos, t in enumerate(self.edge_voltages):
            classes.setdefault(t, []).append(pos)
        return classes

    @cached
    def cycles(self) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
        """Per quotient component, (edge position, cycle voltage) of each
        non-tree edge of the quotient's spanning forest: the cycle voltage
        is the Z^d label summed around that edge's fundamental cycle."""
        g = self.quotient
        forest = g.forest
        volts = self.edge_voltages
        # Tree translation b(v) of each vertex, one coordinate at a time, for
        # the coordinates some tree edge moves; the others are 0. So the work
        # follows the voltages given, not d.
        moved = sorted(
            {j for pos in forest.tree_positions for j, x in enumerate(volts[pos]) if x}
        )
        b = {j: forest.integrate([t[j] for t in volts]) for j in moved}
        cycles: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in forest.comps]
        for pos, (o, t) in enumerate(zip(g.origins, g.targets)):
            if pos not in forest.tree_positions:
                cv = list(volts[pos])
                for j, bj in b.items():
                    cv[j] += bj[o] - bj[t]
                cycles[forest.comp_of[o]].append((pos, tuple(cv)))
        return tuple([tuple(comp) for comp in cycles])

    @cached
    def lattices(self) -> tuple["PeriodLattice", ...]:
        """Per quotient component, its period lattice, with the positions of
        the cycles that opened its pivots; see period_lattices."""
        out = []
        for comp in self.cycles:
            basis, opened = hermite_normal_form((cv for _, cv in comp), self.d)
            rows = tuple([tuple(row) for row in basis])
            out.append(PeriodLattice(self.d, rows, tuple(opened)))
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
    origins, targets = g.origins, g.targets
    pw = g.forest.integrate(w_int)
    for comp_cycles, lat in zip(pg.cycles, pg.lattices):
        sums = [
            w_int[pos] + pw[origins[pos]] - pw[targets[pos]] for pos, _ in comp_cycles
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
    g = pg.quotient
    w = Cochain1.from_json(g, obj)
    volts = pg.edge_voltages
    for pos in compress(range(g.n_edges), map(eq, g.origins, g.targets)):  # the loops
        if w.ints[pos] and not any(volts[pos]):
            raise InputError(f"zero-voltage loop edge {g.ids[pos]} must carry value 0")
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
    f_int = pg.quotient.forest.integrate(list(map(sub, w_int, periods)))
    # The round trip w = reconstruct(a, f): on the tree edges it holds by
    # construction, and on the others it is the residual's exactness.
    g = pg.quotient
    if [f_int[t] - f_int[o] + p for o, t, p in zip(g.origins, g.targets, periods)] != w_int:
        raise AssertionError("round trip w = reconstruct(a, f) fails")
    den = den_w * den_a
    a = tuple([tuple([_frac(row[j], den) for row in a_int]) for j in range(pg.d)])
    return PeriodicDecomposition(
        a, Cochain0(tuple([_frac(x, den) for x in f_int])), pg.lattices
    )


def _reconstruct_ints(
    pg: PeriodicGraph, a_int: Sequence[Sequence[int]], f_int: Sequence[int]
) -> list[int]:
    """w(e) = f(te) - f(oe) + sum_j a_{j,k} t(e)_j on integers, with a_int
    one row per quotient component."""
    g = pg.quotient
    comp_of = g.forest.comp_of
    return [
        f_int[t] - f_int[o] + sum(map(mul, a_int[comp_of[o]], v))
        for o, t, v in zip(g.origins, g.targets, pg.edge_voltages)
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
    """Verify the given decomposition of w against w itself on every edge of
    the lift whose two ends lie in the window [-radius, radius]^d.

    w must have one value per quotient edge, dec.f one per quotient vertex
    and dec.a d rows of one coefficient per quotient component; any other
    shape raises InputError before any work. All values are scaled by one
    common denominator of w, f and a, so every comparison is on Python ints.

    The lift potential is F(v, c) = f(v) + sum_j a_{j,k(v)} c_j, so the lift
    edge of quotient edge e from (oe, c) to (te, c + t), t its voltage, asks
    F(te, c + t) - F(oe, c) = w(e). The left side is
    f(te) - f(oe) + sum_j a_{j,k} t_j whatever the cell c, the value
    `_reconstruct_ints` gives, so each edge's whole box (the cells c with c
    and c + t both in the window: per coordinate j, side - |t_j| cells,
    side = 2 * radius + 1) is checked by that one identity, and an edge with
    an empty box (some |t_j| > 2 * radius) is not checked at all. The
    returned report counts the cells of every box, sum_e prod_j
    max(0, side - |t_j|), as `checks`. Any mismatch means `dec` does not
    decompose w and raises AssertionError naming the first failing edge in
    stored order and the lexicographically first cell of its box,
    (max(-radius, -radius - t_j))_j, where every cell of that box fails.

    The radius comes from outside, so the window it asks for is bounded:
    (2r+1)^d table entries per quotient vertex plus the checks, predicted
    from the voltage classes' sizes alone, may not exceed TRUNCATION_BUDGET,
    or PreconditionError("budget", ...) is raised before any value is
    scaled.
    """
    if radius < 0:
        raise InputError(f"truncation radius must be >= 0, got {radius}")
    g = pg.quotient
    _cochain_ints(pg, w)
    if len(dec.f.values) != g.n_vertices:
        raise InputError("potential length does not match vertex count")
    n_comps = len(g.forest.comps)
    if len(dec.a) != pg.d or {*map(len, dec.a)} - {n_comps}:
        raise InputError(
            f"period coefficients are not {pg.d} rows of {n_comps} (one per component)"
        )
    if not g.n_vertices:
        # No vertex and no edge: no window cell, whatever d is.
        return {"radius": radius, "checks": 0, "ok": True}
    side = 2 * radius + 1
    checks = sum(
        [
            len(positions) * prod([max(0, side - abs(tj)) for tj in t])
            for t, positions in pg.voltage_classes.items()
        ]
    )
    work = side**pg.d * g.n_vertices + checks
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
    a_int = list(zip(*[scaled(row) for row in dec.a]))
    lifted = _reconstruct_ints(pg, a_int, scaled(dec.f.values))
    for pos in compress(range(g.n_edges), map(ne, lifted, w_int)):
        t = pg.edge_voltages[pos]
        if max(map(abs, t)) <= 2 * radius:  # a nonempty box
            cell = tuple([max(-radius, -radius - tj) for tj in t])
            raise AssertionError(f"truncation mismatch on edge {g.ids[pos]} at cell {cell}")
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
