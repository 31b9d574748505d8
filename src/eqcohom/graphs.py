"""Finite symmetric directed graphs, their 0/1-cochains, and group actions.

A graph stores one chosen orientation per geometric edge; the reversed edge
is implicit and 1-cochains obey w(reversed e) = -w(e) through accessors.
Components, potentials and the periodic cycle voltages all read one BFS
spanning forest per graph (`Graph.forest`), built on first use and kept on
the Graph, whose fields are read-only (records.Frozen), so it cannot go stale.
A graph automorphism lifts to a signed permutation of the edges as a
homomorphism, so one group G acts on 0- and 1-cochains alike.
`ActionOrbits` reads an action once: each generator's signed edge map and
order, and the vertex orbit sizes. `analyze_graph_action` reports from
those and from the averaging theorem (the quotient dimension of a finite
permutation group is 0), so a `graph` request builds no matrix and
eliminates nothing. An action also compiles into a LinearInstance
(0-cochains as U, 1-cochains as W, coboundary as pi), on which the tests'
abstract quotient-dimension oracle checks the theorem. A compiled action is
valid by construction; declared orders are checked on the vertex cycles
alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .errors import CLOSURE_ENTRY_BUDGET, GRAPH_BUDGET, InputError, PreconditionError
from .instance import LinearInstance
from .linalg import Mat, _cleared, _frac, integer, json_list
from .records import Frozen, Record, cached

GROUP_CLOSURE_CAP = 100000


class Edge(Record):
    __slots__ = _fields = ("id", "o", "t")  # o the origin, t the target

    def __init__(self, id: int, o: int, t: int):
        self.id, self.o, self.t = id, o, t


class Graph(Frozen):
    _fields = ("n_vertices", "edges")

    def __init__(self, n_vertices: int, edges: tuple[Edge, ...]):
        # edges sorted by id; row index in C^1 = position
        self.__dict__.update(n_vertices=n_vertices, edges=edges)

    @classmethod
    def make(cls, n_vertices: int, edges: Sequence[tuple[int, int, int]]) -> "Graph":
        """A validated graph, refused with PreconditionError("budget", ...)
        before anything is built when its vertices plus edges exceed
        GRAPH_BUDGET, and with InputError for a negative vertex count, a
        repeated edge id or an endpoint that names no vertex."""
        size = n_vertices + len(edges)
        if size > GRAPH_BUDGET:
            raise PreconditionError(
                "budget",
                f"graph has {size} vertices plus edges, "
                f"over the budget of {GRAPH_BUDGET}",
            )
        es = tuple([Edge(i, o, t) for i, o, t in sorted(edges)])
        if n_vertices < 0:
            raise InputError(f"vertex count {n_vertices} < 0")
        ids = [e.id for e in es]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate edge ids")
        for e in es:
            if not (0 <= e.o < n_vertices and 0 <= e.t < n_vertices):
                raise InputError(f"edge {e.id} has a dangling endpoint")
        return cls(n_vertices, es)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached
    def forest(self) -> "Forest":
        """The BFS spanning forest, built on first use and kept with the graph."""
        return Forest.build(self)

    def to_json(self) -> dict:
        return {
            "vertices": self.n_vertices,
            "edges": [{"id": e.id, "o": e.o, "t": e.t} for e in self.edges],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Graph":
        try:
            n = integer(obj["vertices"])
            edges = [
                (integer(e["id"]), integer(e["o"]), integer(e["t"]))
                for e in json_list(obj["edges"])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad graph JSON: {exc}") from exc
        return cls.make(n, edges)


class Forest(Record):
    """BFS spanning forest of a graph: the one traversal that components,
    potentials and the periodic cycle voltages all read.

    Each component is searched from its smallest vertex id, neighbours in
    edge-position order; loops are never tree edges. No report depends on
    which spanning forest this is: potentials are 0 at each component's
    smallest vertex, period lattices are canonical HNFs, and full-rank
    period coefficients are unique.
    """

    __slots__ = _fields = ("comps", "comp_of", "order", "parent", "tree_positions")
    comps: tuple[tuple[int, ...], ...]  # sorted, ordered by smallest vertex
    comp_of: tuple[int, ...]  # vertex -> component index
    order: tuple[int, ...]  # BFS order: every vertex after its parent
    # vertex -> (parent vertex, edge position, +1 if the edge points to the
    # vertex else -1), or None for a root
    parent: tuple[Optional[tuple[int, int, int]], ...]
    tree_positions: frozenset[int]

    def __init__(self, comps, comp_of, order, parent, tree_positions):
        self.comps, self.comp_of, self.order = comps, comp_of, order
        self.parent, self.tree_positions = parent, tree_positions

    @classmethod
    def build(cls, graph: Graph) -> "Forest":
        n = graph.n_vertices
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for pos, e in enumerate(graph.edges):
            if e.o != e.t:
                adj[e.o].append((e.t, pos, +1))
                adj[e.t].append((e.o, pos, -1))
        comp_of = [-1] * n
        parent: list[Optional[tuple[int, int, int]]] = [None] * n
        order: list[int] = []
        comps = []
        for root in range(n):
            if comp_of[root] >= 0:
                continue
            k = len(comps)
            comp_of[root] = k
            start = len(order)
            order.append(root)
            i = start
            while i < len(order):  # `order` doubles as the BFS queue
                v = order[i]
                i += 1
                for u, pos, sign in adj[v]:
                    if comp_of[u] < 0:
                        comp_of[u] = k
                        parent[u] = (v, pos, sign)
                        order.append(u)
            comps.append(tuple(sorted(order[start:])))
        return cls(
            tuple(comps),
            tuple(comp_of),
            tuple(order),
            tuple(parent),
            frozenset(link[1] for link in parent if link is not None),
        )

    def integrate(self, labels: Sequence[int]) -> list[int]:
        """Tree potential of integer edge labels: 0 at each root, and
        p(u) = p(parent) +/- labels[pos] along each tree edge, with the sign
        of the edge's orientation toward u."""
        out = [0] * len(self.parent)
        for u in self.order:
            link = self.parent[u]
            if link is not None:
                p, pos, sign = link
                out[u] = out[p] + labels[pos] if sign > 0 else out[p] - labels[pos]
        return out


class Cochain0(NamedTuple):
    values: tuple[Fraction, ...]  # indexed by vertex id


class Cochain1:
    """A 1-cochain, indexed by stored edge position, kept as `Mat` keeps its
    entries: the integers `ints` over one positive common denominator
    `den`, in lowest terms, so equality compares integers. The Fraction
    `values` are built on first use; equality and hashing are those of
    the values."""

    __slots__ = ("den", "ints", "_values")

    def __init__(self, values: Sequence):
        """Values are ints, Fractions or "p/q" strings (see linalg.rat)."""
        den, ints = _cleared(values)
        self.den, self.ints, self._values = den, tuple(ints), None

    @classmethod
    def from_ints(cls, den: int, ints: Sequence[int]) -> "Cochain1":
        """The cochain ints / den, for a positive den."""
        g = gcd(den, *ints)
        if g > 1:
            den, ints = den // g, [x // g for x in ints]
        w = object.__new__(cls)
        w.den, w.ints, w._values = den, tuple(ints), None
        return w

    @property
    def values(self) -> tuple[Fraction, ...]:
        if self._values is None:
            den = self.den
            self._values = tuple([_frac(x, den) for x in self.ints])
        return self._values

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.den == other.den and self.ints == other.ints

    def __hash__(self) -> int:
        return hash((self.values,))

    def __repr__(self) -> str:
        return f"Cochain1(values={self.values!r})"

    @classmethod
    def from_json(cls, graph: Graph, obj) -> "Cochain1":
        """Read a list of values in stored edge order, or an object keyed by
        edge id, bare or as {"values": {...}}. An object must name every
        edge and nothing else: a key that names no edge is refused, and so
        is a key beside "values". Values are read straight to integers over
        one denominator (linalg._cleared): the same values, and the same
        errors, as reading each one with linalg.rat."""
        try:
            if isinstance(obj, dict):
                src = obj["values"] if "values" in obj else obj
                if type(src) is not dict:
                    raise TypeError("1-cochain values are not a JSON object")
                keys = [str(e.id) for e in graph.edges]
                # Lazily, so a missing key and a bad value are met in edge order.
                den, ints = _cleared(map(src.__getitem__, keys))
            else:
                den, ints = _cleared(json_list(obj))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad 1-cochain JSON: {exc}") from exc
        if isinstance(obj, dict):
            # Every edge's key is in src, so src has more keys iff some
            # name no edge.
            if len(src) != len(keys):
                ids = set(keys)
                unknown = sorted(key for key in src if key not in ids)
                raise InputError(
                    f"1-cochain keys name no edge of the graph: {', '.join(unknown)}"
                )
            beside = [] if src is obj else sorted(key for key in obj if key != "values")
            if beside:
                raise InputError(f'1-cochain keys beside "values": {", ".join(beside)}')
        if len(ints) != graph.n_edges:
            raise InputError("1-cochain length does not match edge count")
        return cls.from_ints(den, ints)


def coboundary(graph: Graph) -> Mat:
    """|E| x |V| matrix of f -> (e -> f(te) - f(oe)); loop rows are zero."""
    rows = []
    for e in graph.edges:
        row = [0] * graph.n_vertices
        if e.o != e.t:
            row[e.t] = 1
            row[e.o] = -1
        rows.append(row)
    return Mat.from_ints(rows, cols=graph.n_vertices)


def components(graph: Graph) -> list[list[int]]:
    """Connected components, each sorted, ordered by their smallest vertex id."""
    return [list(comp) for comp in graph.forest.comps]


def potential(graph: Graph, w: Cochain1) -> Optional[Cochain0]:
    """Integrate w along the BFS spanning forest, 0 at each component root.

    The integers w.ints are integrated, and divided by w.den once. Returns
    None when w is not closed (some non-tree edge disagrees).
    """
    forest = graph.forest
    f = forest.integrate(w.ints)
    for pos, e in enumerate(graph.edges):
        if pos not in forest.tree_positions and w.ints[pos] != f[e.t] - f[e.o]:
            return None
    return Cochain0(tuple([_frac(x, w.den) for x in f]))


class GraphAction(Frozen):
    _fields = ("generators", "orders")

    def __init__(self, generators: tuple[tuple[int, ...], ...], orders: Optional[dict] = None):
        # generators: vertex permutations; orders: index -> declared order
        self.__dict__.update(generators=generators, orders={} if orders is None else orders)

    def to_json(self) -> dict:
        out: dict = {"generators": [list(p) for p in self.generators]}
        if self.orders:
            out["orders"] = {str(i): n for i, n in self.orders.items()}
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "GraphAction":
        """Read "generators" and the optional "orders", an object keyed by
        generator index; null reads as no orders, and any other non-object
        is refused. As with 1-cochain and voltage keys, an order key
        must be the index exactly as str(index) writes it, so "00" and " 0"
        are refused rather than read as generator 0."""
        try:
            gens = tuple(
                [
                    tuple([integer(x) for x in json_list(p)])
                    for p in json_list(obj["generators"])
                ]
            )
            given = obj.get("orders")
            if given is None:
                given = {}
            elif type(given) is not dict:
                raise TypeError('"orders" is not a JSON object')
            orders = {}
            for key, n in given.items():
                i = integer(key)
                if str(i) != key:
                    raise ValueError(f"order key {key!r} is not a generator index")
                orders[i] = integer(n)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad action JSON: {exc}") from exc
        return cls(gens, orders)


def _edge_image_map(
    graph: Graph, perm: tuple[int, ...], by_pair: dict[tuple[int, int], list[int]]
) -> Optional[list[tuple[int, int]]]:
    """Per stored edge position: (image position, sign), or None if the
    permutation is not a graph automorphism. `by_pair` lists the edge
    positions per unordered endpoint pair (a, b), a <= b, in id order. The
    k-th edge of {a, b} maps to the k-th edge of {g a, g b}, with sign +1
    iff g sends its origin to the image's origin, so a loop gets +1. This
    lift is a homomorphism, lift(g o h) = lift(g) o lift(h), so gU^N = id
    implies gW^N = id; and it takes time linear in the edges."""
    edges = graph.edges
    out: list = [None] * len(edges)
    for (a, b), positions in by_pair.items():
        ga, gb = perm[a], perm[b]
        image = by_pair.get((ga, gb) if ga <= gb else (gb, ga))
        if image is None or len(image) != len(positions):
            return None
        for src, dst in zip(positions, image):
            out[src] = (dst, 1 if perm[edges[src].o] == edges[dst].o else -1)
    return out


class ActionOrbits:
    """A graph action read once: each generator's signed edge map and its
    order as a vertex permutation, and the sizes of the vertex orbits of the
    generated group, computed on first use.

    `issues` names each generator that is no permutation of the vertices or
    no automorphism; the action is an automorphism action iff it is empty,
    and only then do `edge_maps` and `vertex_orders` (one entry per
    generator) and `orbit_sizes` mean anything.
    """

    def __init__(self, graph: Graph, action: GraphAction):
        self.graph, self.action = graph, action
        by_pair: dict[tuple[int, int], list[int]] = {}
        for pos, e in enumerate(graph.edges):
            o, t = e.o, e.t
            by_pair.setdefault((o, t) if o <= t else (t, o), []).append(pos)
        issues, maps, orders = [], [], []
        n = graph.n_vertices
        for i, perm in enumerate(action.generators):
            if len(perm) != n or sorted(perm) != list(range(n)):
                issues.append(f"generator {i}: not a permutation of 0..{n - 1}")
                continue
            emap = _edge_image_map(graph, perm, by_pair)
            if emap is None:
                issues.append(f"generator {i}: does not map edges to edges")
            else:
                maps.append(emap)
                orders.append(_order(perm))
        self.issues: tuple[str, ...] = tuple(issues)
        self.edge_maps: tuple[list[tuple[int, int]], ...] = () if issues else tuple(maps)
        self.vertex_orders: tuple[int, ...] = () if issues else tuple(orders)

    @cached
    def orbit_sizes(self) -> list[int]:
        """The size of each vertex orbit, orbits ordered by their least
        vertex. Each orbit is grown from its least unseen vertex through the
        generators' images alone: a permutation's inverse is one of its
        powers, so the images reach the whole orbit."""
        gens = self.action.generators
        seen = [False] * self.graph.n_vertices
        sizes = []
        for start in range(len(seen)):
            if seen[start]:
                continue
            seen[start] = True
            orbit = [start]
            for v in orbit:  # `orbit` doubles as the queue
                for perm in gens:
                    u = perm[v]
                    if not seen[u]:
                        seen[u] = True
                        orbit.append(u)
            sizes.append(len(orbit))
        return sizes


def close_group(
    generators: Sequence[tuple[int, ...]], n: int, orders: Sequence[int]
) -> set[tuple[int, ...]]:
    """Closure of the group generated by permutations of 0..n-1, given with
    their orders, refused with PreconditionError("closure-cap", ...) when it
    has more than GROUP_CLOSURE_CAP elements or more than
    CLOSURE_ENTRY_BUDGET entries (|G| * n). |G| is a multiple of the lcm of
    the orders, so a group whose lcm passes a bound is refused before any
    product is built; otherwise the element that would pass a bound is
    never stored. Repeated generators are dropped first: a repeat adds no
    element and no order, but costs a product per element."""
    cap = GROUP_CLOSURE_CAP
    if n and CLOSURE_ENTRY_BUDGET // n < cap:
        limit = CLOSURE_ENTRY_BUDGET // n
        detail = (
            f"group closure exceeded the budget of {CLOSURE_ENTRY_BUDGET} "
            f"entries (at most {limit} permutations of {n} vertices)"
        )
    else:
        limit, detail = cap, f"group closure exceeded the cap of {cap} elements"
    if lcm(*orders) > limit:
        raise PreconditionError("closure-cap", detail)
    ident = tuple(range(n))
    els = {ident}
    if n < 2:  # only the identity; and itemgetter of one index returns no tuple
        return els
    generators = list(dict.fromkeys(generators))
    frontier = [ident]
    while frontier:
        new = []
        for h in frontier:
            compose = itemgetter(*h)  # g -> g o h, at C speed
            for g in generators:
                p = compose(g)
                if p not in els:
                    if len(els) == limit:
                        raise PreconditionError("closure-cap", detail)
                    els.add(p)
                    new.append(p)
        frontier = new
    return els


class ActionChecks(NamedTuple):
    is_free_on_generated_group: bool
    is_closed_in_components: bool
    group_order: int


def action_checks(orbits: ActionOrbits) -> ActionChecks:
    """Freeness, closedness in components and group order of an
    automorphism action (`orbits.issues` empty), read once.

    Freeness is read off the orbits (orbit-stabilizer: every stabilizer is
    trivial iff every vertex orbit has |G| elements), and closedness off the
    generators, since products of component-preserving permutations preserve
    components. Only the group order needs the capped closure.
    """
    graph, gens = orbits.graph, orbits.action.generators
    order = len(close_group(gens, graph.n_vertices, orbits.vertex_orders))
    comp_of = graph.forest.comp_of
    closed = all(comp_of[u] == comp_of[v] for perm in gens for v, u in enumerate(perm))
    return ActionChecks(all(k == order for k in orbits.orbit_sizes), closed, order)


def _order(perm: Sequence[int]) -> int:
    """Order of a permutation of 0..len(perm)-1: the lcm of its cycle lengths."""
    order, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        length, v = 0, start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        if length:
            order = lcm(order, length)
    return order


def _check_declared_orders(orbits: ActionOrbits) -> None:
    """Raise InputError unless each declared order N belongs to an existing
    generator and is a multiple of its true order, read off the vertex
    cycles alone: gU^N = id iff the vertex permutation's order divides N,
    and then gW^N = id too, since the edge lift is a homomorphism
    (`_edge_image_map`). No edge map is read, whatever N is."""
    action = orbits.action
    issues = []
    for i, order in enumerate(orbits.vertex_orders):
        n = action.orders.get(i)
        if n is None:
            continue
        if n < 1:
            issues.append(f"generator {i}: declared order {n} < 1")
        elif n % order:
            issues.append(f"generator {i}: gU^{n} != identity")
    for i in sorted(set(action.orders) - set(range(len(action.generators)))):
        issues.append(f"declared order for generator {i}, which does not exist")
    if issues:
        raise InputError("invalid declared order: " + "; ".join(issues))


def to_instance(graph: Graph, action: GraphAction) -> LinearInstance:
    """Compile to a LinearInstance: gU permutes vertices, gW permutes signed
    edges.

    The compiled action is valid by construction: `_edge_image_map` exists
    only for an automorphism and is a bijection on edge positions, so gU is
    a permutation matrix, gW a signed one, and pi*gU = gW*pi row by row.
    The lift is a homomorphism, so the pairs (gU, gW) generate the vertex
    group G. The declared orders are the caller's: one that the vertex
    permutation does not have, or one for a generator that does not exist,
    raises InputError (`_check_declared_orders`).
    """
    orbits = ActionOrbits(graph, action)
    if orbits.issues:
        raise InputError("invalid graph action: " + "; ".join(orbits.issues))
    _check_declared_orders(orbits)
    gens = []
    for perm, emap in zip(action.generators, orbits.edge_maps):
        gu = Mat.from_ints(
            [
                [1 if perm[u] == v else 0 for u in range(graph.n_vertices)]
                for v in range(graph.n_vertices)
            ]
        )
        gw_rows = [[0] * graph.n_edges for _ in range(graph.n_edges)]
        for src, (dst, sign) in enumerate(emap):
            gw_rows[dst][src] = sign
        gw = Mat.from_ints(gw_rows)
        gens.append((gu, gw))
    return LinearInstance(
        graph.n_vertices,
        graph.n_edges,
        coboundary(graph),
        tuple(gens),
        dict(action.orders),
    )


def analyze_graph_action(graph: Graph, action: GraphAction) -> dict:
    """Report the action checks and the quotient dimension, which is 0 on
    every automorphism action by the averaging theorem.

    Each generator must be an automorphism (pi*gU = gW*pi edge by edge,
    `_edge_image_map`). Then G is a finite permutation group, and over Q
    its average R = |G|^-1 sum_g g projects each G-stable space onto its
    fixed vectors and commutes with pi, because every g does. So
    pi(U)^G = R(pi(U)) = pi(R(U)) = pi(U^G): the quotient dimension is 0,
    and it agrees with the finite-group prediction (`consistent`). The
    action is read once (`ActionOrbits`); no matrix is built and nothing is
    eliminated. The tests check the theorem against the dense oracle
    (`to_instance` + `oracle_quotient_dim`) and against the rank of the
    signed edge orbits' cycle sums (tests/conftest.py). Errors keep their
    order: a non-automorphism, then the group closure cap, then a wrong
    declared order.
    """
    orbits = ActionOrbits(graph, action)
    if orbits.issues:
        raise InputError("action generators are not graph automorphisms")
    checks = action_checks(orbits)
    _check_declared_orders(orbits)
    m = len(graph.forest.comps)
    d = len(action.generators)
    # Finite permutation groups have no free abelianized part, so the
    # quotient dimension is predicted to vanish for nontrivial actions. A
    # nontrivial group has a generator and moves a vertex, so d, m >= 1
    # and both notes apply.
    predicted_zero = checks.group_order > 1
    notes = []
    if predicted_zero:
        notes.append("finite symmetry group: free abelian rank 0, expect dim 0")
        notes.append("hypothesis of a free-abelian symmetry group not satisfied")
    return {
        "is_automorphism": True,
        "is_free": checks.is_free_on_generated_group,
        "is_closed_in_components": checks.is_closed_in_components,
        "group_order": checks.group_order,
        "components": m,
        "generators": d,
        "quotient_dim": 0,
        "md": m * d,
        "predicted_zero": predicted_zero,
        "consistent": True,
        "notes": notes,
    }
