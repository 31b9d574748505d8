"""Finite symmetric directed graphs, their 0/1-cochains, and group actions.

A graph stores one chosen orientation per geometric edge, as three tuples
of edge ids, origins and targets; the reversed edge is implicit and
1-cochains obey w(reversed e) = -w(e) through accessors.
Components, potentials and the periodic cycle voltages all read one BFS
spanning forest per graph (`Graph.forest`), built on first use and kept on
the Graph, whose fields are read-only (records.Frozen), so it cannot go stale.
A graph automorphism lifts to a signed permutation of the edges as a
homomorphism, so one group G acts on 0- and 1-cochains alike.
`ActionOrbits` reads an action once: which generators are automorphisms
and their orders, and, on first use, their signed edge maps and the vertex
orbit sizes. `analyze_graph_action` reports from those and from the
averaging theorem (the quotient dimension of a finite
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
from typing import Iterable, NamedTuple, Optional, Sequence

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
    """A graph kept as three tuples of equal length, `ids`, `origins` and
    `targets`, sorted by edge id: the edge at position p (its row in C^1)
    has id ids[p] and runs from origins[p] to targets[p]. Every traversal
    reads these arrays; `edges`, the same edges as Edge records, is built
    only when something reads it."""

    _fields = ("n_vertices", "edges")

    def __init__(self, n_vertices: int, ids: tuple, origins: tuple, targets: tuple):
        self.__dict__.update(n_vertices=n_vertices, ids=ids, origins=origins, targets=targets)

    @classmethod
    def make(cls, n_vertices: int, edges: Sequence[tuple[int, int, int]]) -> "Graph":
        """A validated graph, refused with PreconditionError("budget", ...)
        before anything is built when its vertices plus edges exceed
        GRAPH_BUDGET, and with InputError for a negative vertex count, a
        repeated edge id or an endpoint that names no vertex (the first
        such edge by id), in that order."""
        size = n_vertices + len(edges)
        if size > GRAPH_BUDGET:
            raise PreconditionError(
                "budget",
                f"graph has {size} vertices plus edges, "
                f"over the budget of {GRAPH_BUDGET}",
            )
        rows = sorted(edges)
        if n_vertices < 0:
            raise InputError(f"vertex count {n_vertices} < 0")
        if not rows:
            return cls(n_vertices, (), (), ())
        ids, origins, targets = zip(*rows)
        if len(set(ids)) != len(ids):
            raise InputError("duplicate edge ids")
        if min(min(origins), min(targets)) < 0 or max(max(origins), max(targets)) >= n_vertices:
            for i, o, t in rows:
                if not (0 <= o < n_vertices and 0 <= t < n_vertices):
                    raise InputError(f"edge {i} has a dangling endpoint")
        return cls(n_vertices, ids, origins, targets)

    @property
    def n_edges(self) -> int:
        return len(self.ids)

    @cached
    def edges(self) -> tuple[Edge, ...]:
        """The edges as Edge records, by position; built on first read."""
        return tuple([Edge(*row) for row in zip(self.ids, self.origins, self.targets)])

    @cached
    def forest(self) -> "Forest":
        """The BFS spanning forest, built on first use and kept with the graph."""
        return Forest.build(self)

    def to_json(self) -> dict:
        return {
            "vertices": self.n_vertices,
            "edges": [
                {"id": i, "o": o, "t": t}
                for i, o, t in zip(self.ids, self.origins, self.targets)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Graph":
        """Read "vertices" and "edges", a list of {"id", "o", "t"} objects.
        Each entry is read with `integer`, which is called only on an entry
        that is not exactly an int, so the first bad entry, in edge order
        and id, o, t within an edge, is the one refused."""
        try:
            n = obj["vertices"]
            if type(n) is not int:
                n = integer(n)
            edges = [
                (
                    i if type(i := e["id"]) is int else integer(i),
                    o if type(o := e["o"]) is int else integer(o),
                    t if type(t := e["t"]) is int else integer(t),
                )
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
        for pos, (o, t) in enumerate(zip(graph.origins, graph.targets)):
            if o != t:
                adj[o].append((t, pos, +1))
                adj[t].append((o, pos, -1))
        comp_of = [-1] * n
        parent: list[Optional[tuple[int, int, int]]] = [None] * n
        order: list[int] = []
        comps = []
        tree = []
        for root in range(n):
            if comp_of[root] >= 0:
                continue
            k = len(comps)
            comp_of[root] = k
            queue = [root]
            for v in queue:  # `queue` grows as it is read
                for u, pos, sign in adj[v]:
                    if comp_of[u] < 0:
                        comp_of[u] = k
                        parent[u] = (v, pos, sign)
                        tree.append(pos)
                        queue.append(u)
            order += queue
            queue.sort()
            comps.append(tuple(queue))
        return cls(tuple(comps), tuple(comp_of), tuple(order), tuple(parent), frozenset(tree))

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
                keys = list(map(str, graph.ids))
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
    for o, t in zip(graph.origins, graph.targets):
        row = [0] * graph.n_vertices
        if o != t:
            row[t] = 1
            row[o] = -1
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
    for pos, (o, t) in enumerate(zip(graph.origins, graph.targets)):
        if pos not in forest.tree_positions and w.ints[pos] != f[t] - f[o]:
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
        are refused rather than read as generator 0. An entry is read with
        `integer` only when it is not exactly an int, so the first bad entry
        is the one refused."""
        try:
            gens = tuple(
                [
                    tuple([x if type(x) is int else integer(x) for x in json_list(p)])
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
                orders[i] = n if type(n) is int else integer(n)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad action JSON: {exc}") from exc
        return cls(gens, orders)


def _pair_codes(n: int, origins: Iterable[int], targets: Iterable[int]) -> list[int]:
    """Each edge's unordered endpoint pair {a, b}, a <= b < n, as a * n + b."""
    return [a * n + b if a <= b else b * n + a for a, b in zip(origins, targets)]


def _edge_image_map(
    graph: Graph, perm: tuple[int, ...], by_pair: dict[tuple[int, int], list[int]]
) -> list[tuple[int, int]]:
    """Per stored edge position of the automorphism `perm`: (image
    position, sign). `by_pair` lists the edge positions per unordered
    endpoint pair (a, b), a <= b, in id order. The k-th edge of {a, b} maps
    to the k-th edge of {g a, g b}, which has as many, with sign +1 iff g
    sends its origin to the image's origin, so a loop gets +1. This lift is
    a homomorphism, lift(g o h) = lift(g) o lift(h), so gU^N = id implies
    gW^N = id; and it takes time linear in the edges."""
    origins = graph.origins
    out: list = [None] * len(origins)
    for (a, b), positions in by_pair.items():
        ga, gb = perm[a], perm[b]
        image = by_pair[(ga, gb) if ga <= gb else (gb, ga)]
        for src, dst in zip(positions, image):
            out[src] = (dst, 1 if perm[origins[src]] == origins[dst] else -1)
    return out


class ActionOrbits:
    """A graph action read once: whether each generator is an automorphism,
    and its order as a vertex permutation; its signed edge map and the sizes
    of the vertex orbits of the generated group are computed on first use.

    A permutation of the vertices is an automorphism iff it preserves the
    multiset of unordered endpoint pairs, compared as sorted pair codes
    (`_pair_codes`): exactly when every pair's k-th edge has a k-th edge to
    map to (`_edge_image_map`). `issues` names each generator that is no
    permutation of the vertices or no automorphism; the action is an
    automorphism action iff it is empty, and only then do `edge_maps` and
    `vertex_orders` (one entry per generator) and `orbit_sizes` mean
    anything.
    """

    def __init__(self, graph: Graph, action: GraphAction):
        self.graph, self.action = graph, action
        n, origins, targets = graph.n_vertices, graph.origins, graph.targets
        issues, orders = [], []
        vertices = list(range(n))
        pairs = None
        for i, perm in enumerate(action.generators):
            if len(perm) != n or sorted(perm) != vertices:
                issues.append(f"generator {i}: not a permutation of 0..{n - 1}")
                continue
            if pairs is None:
                pairs = sorted(_pair_codes(n, origins, targets))
            image = _pair_codes(n, map(perm.__getitem__, origins), map(perm.__getitem__, targets))
            image.sort()
            if image != pairs:
                issues.append(f"generator {i}: does not map edges to edges")
            else:
                orders.append(_order(perm))
        self.issues: tuple[str, ...] = tuple(issues)
        self.vertex_orders: tuple[int, ...] = () if issues else tuple(orders)

    @cached
    def edge_maps(self) -> tuple[list[tuple[int, int]], ...]:
        """Each generator's signed edge map (`_edge_image_map`), or () when
        some generator is no automorphism."""
        if self.issues:
            return ()
        by_pair: dict[tuple[int, int], list[int]] = {}
        for pos, (o, t) in enumerate(zip(self.graph.origins, self.graph.targets)):
            by_pair.setdefault((o, t) if o <= t else (t, o), []).append(pos)
        return tuple([_edge_image_map(self.graph, p, by_pair) for p in self.action.generators])

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


def _closure_bound(n: int, orders: Sequence[int]) -> tuple[int, str]:
    """The most elements a group of permutations of 0..n-1 may have, the
    lesser of GROUP_CLOSURE_CAP and CLOSURE_ENTRY_BUDGET // n, with the
    detail that refuses one over it. A group generated by permutations of
    these orders has a multiple of their lcm as its order, so one whose lcm
    passes the bound is refused here, with PreconditionError("closure-cap",
    ...)."""
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
    return limit, detail


def close_group(
    generators: Sequence[tuple[int, ...]], n: int, orders: Sequence[int]
) -> set[tuple[int, ...]]:
    """Closure of the group generated by permutations of 0..n-1, given with
    their orders, refused with PreconditionError("closure-cap", ...) when it
    has more than GROUP_CLOSURE_CAP elements or more than
    CLOSURE_ENTRY_BUDGET entries (|G| * n). A group whose orders' lcm passes
    a bound is refused before any product is built (`_closure_bound`);
    otherwise the element that would pass a bound is never stored.
    Repeated generators are dropped first: a repeat adds no element and no
    order, but costs a product per element."""
    limit, detail = _closure_bound(n, orders)
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
    components. With at most one distinct generator g the group is cyclic,
    and |<g>| = ord(g) is read off g's cycles (`orbits.vertex_orders`; 1
    with no generator), after the bound checks that `close_group` makes
    first, so it is refused exactly where the closure would be. Only two or
    more distinct generators are closed, under the same caps.
    """
    graph, gens = orbits.graph, orbits.action.generators
    n, orders = graph.n_vertices, orbits.vertex_orders
    if len(set(gens)) > 1:
        order = len(close_group(gens, n, orders))
    else:
        _closure_bound(n, orders)
        order = lcm(*orders)
    comp_of = list(graph.forest.comp_of)
    closed = all(list(map(comp_of.__getitem__, perm)) == comp_of for perm in gens)
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
