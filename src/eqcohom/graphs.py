"""Finite symmetric directed graphs, their 0/1-cochains, and group actions.

A graph stores one chosen orientation per geometric edge; the reversed edge
is implicit and 1-cochains obey w(reversed e) = -w(e) through accessors.
Components, potentials and the periodic cycle voltages all read one BFS
spanning forest per graph (`Graph.forest`), built on first use.
A vertex permutation that induces a graph automorphism permutes vertices
and signed edges, and `analyze_graph_action` answers from those orbits
(`orbit_quotient_dim`): pi(U^G) is read off the vertex orbits and the
components, and pi(U) ^ W^G off the signed edge orbits and their
fundamental-cycle sums, with one small elimination and no |V|- or |E|-sized
matrix. An action also compiles into a LinearInstance (0-cochains as U,
1-cochains as W, coboundary as pi), on which the abstract quotient-dimension
oracle checks the orbit answer. A compiled action is valid by construction;
declared orders are checked on the permutations' cycles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .errors import InputError, PreconditionError
from .instance import LinearInstance
from .linalg import Mat, integer, json_list, rat, rat_str, vec

GROUP_CLOSURE_CAP = 100000


@dataclass(frozen=True)
class Edge:
    id: int
    o: int  # origin
    t: int  # target


@dataclass(frozen=True)
class Graph:
    n_vertices: int
    edges: tuple[Edge, ...]  # sorted by id; row index in C^1 = position

    @classmethod
    def make(cls, n_vertices: int, edges: Sequence[tuple[int, int, int]]) -> "Graph":
        es = tuple(Edge(i, o, t) for i, o, t in sorted(edges))
        g = cls(n_vertices, es)
        g.validate()
        return g

    def validate(self) -> list[str]:
        """Raises on structural errors; returns warnings (loops)."""
        if self.n_vertices < 0:
            raise InputError(f"vertex count {self.n_vertices} < 0")
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate edge ids")
        warnings = []
        for e in self.edges:
            if not (0 <= e.o < self.n_vertices and 0 <= e.t < self.n_vertices):
                raise InputError(f"edge {e.id} has a dangling endpoint")
            if e.o == e.t:
                warnings.append(f"edge {e.id} is a loop; its 1-form value must be 0")
        return warnings

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
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


@dataclass(frozen=True)
class Forest:
    """BFS spanning forest of a graph: the one traversal that components,
    potentials and the periodic cycle voltages all read.

    Each component is searched from its smallest vertex id, neighbours in
    (vertex, edge position) order; loops are never tree edges.
    """

    comps: tuple[tuple[int, ...], ...]  # sorted, ordered by smallest vertex
    comp_of: tuple[int, ...]  # vertex -> component index
    order: tuple[int, ...]  # BFS order: every vertex after its parent
    # vertex -> (parent vertex, edge position, +1 if the edge points to the
    # vertex else -1), or None for a root
    parent: tuple[Optional[tuple[int, int, int]], ...]
    tree_positions: frozenset[int]

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
                for u, pos, sign in sorted(adj[v]):
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

    def integrate(self, labels: Sequence, zero=0) -> list:
        """Tree potential of edge labels (numbers of any exact type): `zero`
        at each root, and p(u) = p(parent) +/- labels[pos] along each tree
        edge, with the sign of the edge's orientation toward u."""
        out = [zero] * len(self.parent)
        for u in self.order:
            link = self.parent[u]
            if link is not None:
                p, pos, sign = link
                out[u] = out[p] + labels[pos] if sign > 0 else out[p] - labels[pos]
        return out


@dataclass(frozen=True)
class Cochain0:
    values: tuple[Fraction, ...]  # indexed by vertex id

    @classmethod
    def make(cls, values: Sequence) -> "Cochain0":
        return cls(vec(values))

    def to_json(self) -> dict:
        return {str(i): rat_str(v) for i, v in enumerate(self.values)}


@dataclass(frozen=True)
class Cochain1:
    values: tuple[Fraction, ...]  # indexed by stored edge position

    @classmethod
    def make(cls, values: Sequence) -> "Cochain1":
        return cls(vec(values))

    @classmethod
    def from_json(cls, graph: Graph, obj, forbid_loop_values: bool = True) -> "Cochain1":
        """Read a list of values in stored edge order, or an object keyed by
        edge id, bare or as {"values": {...}}. An object must name every
        edge and nothing else: a key that names no edge is refused, and so
        is a key beside "values"."""
        try:
            if isinstance(obj, dict):
                src = obj["values"] if "values" in obj else obj
                if type(src) is not dict:
                    raise TypeError("1-cochain values are not a JSON object")
                vals = [rat(src[str(e.id)]) for e in graph.edges]
            else:
                vals = [rat(x) for x in json_list(obj)]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad 1-cochain JSON: {exc}") from exc
        if isinstance(obj, dict):
            ids = {str(e.id) for e in graph.edges}
            unknown = sorted(key for key in src if key not in ids)
            if unknown:
                raise InputError(
                    f"1-cochain keys name no edge of the graph: {', '.join(unknown)}"
                )
            beside = [] if src is obj else sorted(key for key in obj if key != "values")
            if beside:
                raise InputError(f'1-cochain keys beside "values": {", ".join(beside)}')
        if len(vals) != graph.n_edges:
            raise InputError("1-cochain length does not match edge count")
        if forbid_loop_values:
            for e, v in zip(graph.edges, vals):
                if e.o == e.t and v != 0:
                    raise InputError(f"loop edge {e.id} must carry value 0")
        return cls(tuple(vals))

    def to_json(self, graph: Graph) -> dict:
        return {str(e.id): rat_str(v) for e, v in zip(graph.edges, self.values)}


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

    Returns None when w is not closed (some non-tree edge disagrees).
    """
    f = closed_potential(graph, w.values, Fraction(0))
    return None if f is None else Cochain0(tuple(f))


def closed_potential(graph: Graph, values: Sequence, zero=0) -> Optional[list]:
    """Tree potential of edge values of one exact type (ints stay ints),
    `zero` at each component root, or None when some non-tree edge
    disagrees with it."""
    forest = graph.forest
    f = forest.integrate(values, zero)
    for pos, e in enumerate(graph.edges):
        if pos not in forest.tree_positions and values[pos] != f[e.t] - f[e.o]:
            return None
    return f


@dataclass(frozen=True)
class GraphAction:
    generators: tuple[tuple[int, ...], ...]  # vertex permutations
    orders: dict[int, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        out: dict = {"generators": [list(p) for p in self.generators]}
        if self.orders:
            out["orders"] = {str(i): n for i, n in self.orders.items()}
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "GraphAction":
        try:
            gens = tuple(
                tuple(integer(x) for x in json_list(p))
                for p in json_list(obj["generators"])
            )
            orders = {
                integer(i): integer(n) for i, n in (obj.get("orders") or {}).items()
            }
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad action JSON: {exc}") from exc
        return cls(gens, orders)


def _edge_image_map(
    graph: Graph, perm: tuple[int, ...], by_endpoints: dict[tuple[int, int], list[int]]
) -> Optional[list[tuple[int, int]]]:
    """Per stored edge position: (image position, sign), or None if the
    permutation is not a graph automorphism. `by_endpoints` lists the edge
    positions per (origin, target); parallel edges are matched greedily in id
    order."""
    used = [False] * graph.n_edges
    out: list[tuple[int, int]] = []
    for e in graph.edges:
        io, it = perm[e.o], perm[e.t]
        chosen = None
        for cand_pos in by_endpoints.get((io, it), []):
            if not used[cand_pos]:
                chosen = (cand_pos, +1)
                break
        if chosen is None and io != it:
            for cand_pos in by_endpoints.get((it, io), []):
                if not used[cand_pos]:
                    chosen = (cand_pos, -1)
                    break
        if chosen is None:
            return None
        used[chosen[0]] = True
        out.append(chosen)
    return out


def _find(root: list[int], v: int) -> int:
    """Union-find representative of v, halving the path on the way."""
    while root[v] != v:
        root[v] = root[root[v]]
        v = root[v]
    return v


class ActionOrbits:
    """A graph action read once: each generator's signed edge map, and the
    vertex orbits of the generated group, computed on first use.

    `issues` names each generator that is no permutation of the vertices or
    no automorphism; the action is an automorphism action iff it is empty,
    and only then do `edge_maps` (one map per generator) and
    `vertex_orbit` mean anything.
    """

    def __init__(self, graph: Graph, action: GraphAction):
        self.graph, self.action = graph, action
        by_endpoints: dict[tuple[int, int], list[int]] = {}
        for pos, e in enumerate(graph.edges):
            by_endpoints.setdefault((e.o, e.t), []).append(pos)
        issues, maps = [], []
        n = graph.n_vertices
        for i, perm in enumerate(action.generators):
            if len(perm) != n or sorted(perm) != list(range(n)):
                issues.append(f"generator {i}: not a permutation of 0..{n - 1}")
                continue
            emap = _edge_image_map(graph, perm, by_endpoints)
            if emap is None:
                issues.append(f"generator {i}: does not map edges to edges")
            else:
                maps.append(emap)
        self.issues: tuple[str, ...] = tuple(issues)
        self.edge_maps: tuple[list[tuple[int, int]], ...] = () if issues else tuple(maps)

    @cached_property
    def vertex_orbit(self) -> tuple[int, ...]:
        """vertex -> representative of its orbit (union-find over v ~ g(v))."""
        root = list(range(self.graph.n_vertices))
        for perm in self.action.generators:
            for v, u in enumerate(perm):
                a, b = _find(root, v), _find(root, u)
                if a != b:
                    root[b] = a
        return tuple(_find(root, v) for v in range(len(root)))


def _perm_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([a[x] for x in b])


def close_group(
    generators: Sequence[tuple[int, ...]], n: int, cap: int = GROUP_CLOSURE_CAP
) -> set[tuple[int, ...]]:
    """Closure of the generated permutation group, with an explicit cap."""
    ident = tuple(range(n))
    els = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in generators]
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                p = _perm_mul(g, h)
                if p not in els:
                    els.add(p)
                    new.append(p)
                    if len(els) > cap:
                        raise PreconditionError(
                            "closure-cap",
                            f"group closure exceeded the cap of {cap} elements",
                        )
        frontier = new
    return els


@dataclass(frozen=True)
class ActionChecks:
    is_automorphism: bool
    is_free_on_generated_group: Optional[bool]
    is_closed_in_components: Optional[bool]
    group_order: Optional[int]


def action_checks(
    graph: Graph, action: GraphAction, orbits: Optional[ActionOrbits] = None
) -> ActionChecks:
    """Automorphism, freeness, closedness in components and group order.

    Freeness is read off the orbits (orbit-stabilizer: every stabilizer is
    trivial iff every vertex orbit has |G| elements), and closedness off the
    generators, since products of component-preserving permutations preserve
    components. Only the group order needs the capped closure. Pass
    `orbits` when the action has been read already.
    """
    if orbits is None:
        orbits = ActionOrbits(graph, action)
    if orbits.issues:
        return ActionChecks(False, None, None, None)
    order = len(close_group(action.generators, graph.n_vertices))
    sizes = Counter(orbits.vertex_orbit)
    comp_of = graph.forest.comp_of
    closed = all(
        comp_of[u] == comp_of[v] for perm in action.generators for v, u in enumerate(perm)
    )
    return ActionChecks(True, all(k == order for k in sizes.values()), closed, order)


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
    generator and is a multiple of its true order. gU^N = id iff the vertex
    permutation's order divides N, and gW^N = id iff the order of the signed
    edge map, as a permutation of the half-edges 2*pos + (0 or 1), divides
    N: O(|V| + |E|) per generator, whatever N is."""
    action = orbits.action
    issues = []
    for i, (perm, emap) in enumerate(zip(action.generators, orbits.edge_maps)):
        n = action.orders.get(i)
        if n is None:
            continue
        if n < 1:
            issues.append(f"generator {i}: declared order {n} < 1")
            continue
        if n % _order(perm):
            issues.append(f"generator {i}: gU^{n} != identity")
        half_edges = [2 * dst + (b ^ (sign < 0)) for dst, sign in emap for b in (0, 1)]
        if n % _order(half_edges):
            issues.append(f"generator {i}: gW^{n} != identity")
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
    The declared orders are the caller's: one that the compiled generator
    does not have, or one for a generator that does not exist, raises
    InputError (`_check_declared_orders`).
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


class OrbitQuotient(NamedTuple):
    dim: int  # dim pi(U)^G / pi(U^G)
    pi_U_G: int  # dim of pi(U) ^ W^G
    pi_of_UG: int  # dim of pi(U^G)


def _signed_edge_orbits(
    n_edges: int, edge_maps: Sequence[list[tuple[int, int]]]
) -> list[list[tuple[int, int]]]:
    """The orbit forms spanning W^G: per signed edge orbit without a parity
    conflict, its (position, sign) list, the signs relative to the orbit's
    representative, ordered by smallest position.

    A signed union-find over the relations w[dst] = sign * w[src] of every
    edge map; `rel[x]` is w[x] / w[root[x]]. An orbit that relates an edge
    to its own negative forces every form on it to 0 and spans nothing.
    """
    root = list(range(n_edges))
    rel = [1] * n_edges
    conflict = [False] * n_edges

    def find(x: int) -> tuple[int, int]:
        path = []
        while root[x] != x:
            path.append(x)
            x = root[x]
        sign = 1
        for y in reversed(path):  # nearest the root first
            sign *= rel[y]
            root[y], rel[y] = x, sign
        return x, (rel[path[0]] if path else 1)

    for emap in edge_maps:
        for src, (dst, sign) in enumerate(emap):
            (a, sa), (b, sb) = find(src), find(dst)
            if a == b:
                conflict[a] = conflict[a] or sb != sign * sa
            else:
                root[b], rel[b] = a, sb * sign * sa
                conflict[a] = conflict[a] or conflict[b]
    forms: dict[int, list[tuple[int, int]]] = {}
    for pos in range(n_edges):
        r, sign = find(pos)
        if not conflict[r]:
            forms.setdefault(r, []).append((pos, sign))
    return list(forms.values())


def orbit_quotient_dim(orbits: ActionOrbits) -> OrbitQuotient:
    """The quotient dimension of an automorphism action, from its orbits.

    U^G is spanned by the vertex-orbit indicators, and pi kills exactly the
    functions constant on components, so dim pi(U^G) = #vertex orbits -
    #classes of (vertex orbit v component). W^G is spanned by the k orbit
    forms of `_signed_edge_orbits`, which have disjoint supports; a form
    lies in pi(U) iff its sum around every fundamental cycle of
    `Graph.forest` is 0 (a loop is a non-tree edge whose cycle is itself).
    So dim pi(U) ^ W^G = k - rank(C), C the k x c matrix of those sums:
    the only elimination, of small integers.
    """
    graph = orbits.graph
    forest = graph.forest
    orbit = orbits.vertex_orbit
    n_orbits = sum(1 for v, r in enumerate(orbit) if v == r)
    root = list(orbit)
    classes = n_orbits
    for e in graph.edges:
        a, b = _find(root, e.o), _find(root, e.t)
        if a != b:
            root[b] = a
            classes -= 1
    pi_of_ug = n_orbits - classes

    cycles = [
        (pos, e) for pos, e in enumerate(graph.edges) if pos not in forest.tree_positions
    ]
    sums = []
    for form in _signed_edge_orbits(graph.n_edges, orbits.edge_maps):
        labels = [0] * graph.n_edges
        for pos, sign in form:
            labels[pos] = sign
        p = forest.integrate(labels)
        sums.append([labels[pos] - p[e.t] + p[e.o] for pos, e in cycles])
    rank = Mat.from_ints(sums).rank() if sums and cycles else 0
    pi_u_g = len(sums) - rank
    return OrbitQuotient(pi_u_g - pi_of_ug, pi_u_g, pi_of_ug)


def analyze_graph_action(graph: Graph, action: GraphAction) -> dict:
    """Bundle action checks, the quotient dimension and the finite-group
    prediction (dimension 0) into one report.

    The action is read once (`ActionOrbits`), and the quotient dimension
    comes from its orbits (`orbit_quotient_dim`), never from a compiled
    instance. Errors keep their order: a non-automorphism, then the group
    closure cap, then a wrong declared order.
    """
    orbits = ActionOrbits(graph, action)
    checks = action_checks(graph, action, orbits)
    if not checks.is_automorphism:
        raise InputError("action generators are not graph automorphisms")
    _check_declared_orders(orbits)
    quotient = orbit_quotient_dim(orbits)
    comps = components(graph)
    m = len(comps)
    d = len(action.generators)
    # Finite permutation groups have no free abelianized part, so the
    # quotient dimension is predicted to vanish for nontrivial actions.
    predicted_zero = checks.group_order is not None and checks.group_order > 1
    notes = []
    if predicted_zero:
        notes.append("finite symmetry group: free abelian rank 0, expect dim 0")
        if d >= 1 and m >= 1:
            notes.append("hypothesis of a free-abelian symmetry group not satisfied")
    consistent = (not predicted_zero) or quotient.dim == 0
    return {
        "is_automorphism": checks.is_automorphism,
        "is_free": checks.is_free_on_generated_group,
        "is_closed_in_components": checks.is_closed_in_components,
        "group_order": checks.group_order,
        "components": m,
        "generators": d,
        "quotient_dim": quotient.dim,
        "md": m * d,
        "predicted_zero": predicted_zero,
        "consistent": consistent,
        "notes": notes,
    }
