import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import comb, lcm

import pytest

import eqcohom.graphs
import eqcohom.instance
import eqcohom.linalg
from eqcohom.errors import CLOSURE_ENTRY_BUDGET, GRAPH_BUDGET, InputError, PreconditionError
from eqcohom.fixtures import (
    c4_graph,
    c4_rotation,
    k3_graph,
    k3_s3_action,
    p2_graph,
    p2_swap,
    two_triangles_graph,
    two_triangles_swap,
)
from eqcohom.graphs import (
    ActionChecks,
    ActionOrbits,
    Cochain0,
    Cochain1,
    Graph,
    GraphAction,
    action_checks,
    analyze_graph_action,
    close_group,
    coboundary,
    components,
    potential,
    to_instance,
)
from eqcohom.instance import check_condition_i, oracle_quotient_dim, validate
from eqcohom.linalg import Mat, Subspace, kernel_basis, rat, vec
from eqcohom.randomized import random_graph, random_graph_instance

from conftest import (
    READER_ENTRIES,
    cycle_sum_pi_U_G,
    edge_map,
    fixed_W,
    half_edge_permutation,
    lifts_compose,
    signed_edge_orbits,
)


def test_coboundary_single_edge():
    g = Graph.make(2, [(0, 0, 1)])
    assert coboundary(g) == Mat([[-1, 1]])


def test_coboundary_path():
    g = Graph.make(3, [(0, 0, 1), (1, 1, 2)])
    pi = coboundary(g)
    assert pi.rank() == 2
    assert kernel_basis(pi) == Subspace(3, [[1, 1, 1]])


def test_coboundary_two_triangles_kernel():
    assert kernel_basis(coboundary(two_triangles_graph())).dim == 2


def test_coboundary_loop_row_zero():
    g = Graph.make(1, [(0, 0, 0)])
    assert coboundary(g) == Mat([[0]])


def _indicators(graph):
    """Component indicator functions, read off `components`."""
    return [
        tuple(Fraction(int(v in comp)) for v in range(graph.n_vertices))
        for comp in components(graph)
    ]


def test_components_connected():
    assert components(k3_graph()) == [[0, 1, 2]]
    assert _indicators(k3_graph()) == [(Fraction(1),) * 3]


def test_components_edgeless():
    g = Graph.make(4, [])
    assert components(g) == [[0], [1], [2], [3]]
    assert len(_indicators(g)) == 4


def test_components_two_triangles():
    assert components(two_triangles_graph()) == [[0, 1, 2], [3, 4, 5]]


def test_indicators_span_kernel():
    rng = random.Random(31)
    for _ in range(25):
        g = random_graph(rng)
        span = Subspace(g.n_vertices, _indicators(g))
        assert span == kernel_basis(coboundary(g))


def test_potential_recovers_function():
    rng = random.Random(5)
    perturbed = 0
    for _ in range(20):
        g = random_graph(rng)
        f = Cochain0(vec([rng.randint(-5, 5) for _ in range(g.n_vertices)]))
        w = Cochain1(coboundary(g).mulvec(f.values))
        rec = potential(g, w)
        assert rec is not None
        # Agreement up to the per-component root normalization.
        for comp in components(g):
            root = comp[0]
            for v in comp:
                assert rec.values[v] == f.values[v] - f.values[root]
        assert coboundary(g).mulvec(rec.values) == w.values
        # Editing any non-tree edge (loops included) breaks closedness.
        for pos in range(g.n_edges):
            if pos not in g.forest.tree_positions:
                vals = list(w.values)
                vals[pos] += Fraction(1, 3)
                assert potential(g, Cochain1(tuple(vals))) is None
                perturbed += 1
    assert perturbed > 20


def test_triangle_circulation_not_closed():
    w = Cochain1([1, 1, 1])
    assert potential(k3_graph(), w) is None


def test_tree_always_closed():
    g = Graph.make(4, [(0, 0, 1), (1, 1, 2), (2, 1, 3)])
    rng = random.Random(1)
    for _ in range(10):
        w = Cochain1([rng.randint(-4, 4) for _ in range(3)])
        assert potential(g, w) is not None


def test_loop_forces_zero_value():
    g = Graph.make(1, [(0, 0, 0)])
    assert potential(g, Cochain1([0])) is not None
    assert potential(g, Cochain1([1])) is None


@pytest.mark.parametrize("entry", READER_ENTRIES, ids=lambda e: ascii(e)[:12])
def test_cochain_reader_matches_rat(entry):
    # Cochain1.from_json reads values straight to integers over one
    # denominator; each entry must give what reading it with rat gave (the
    # reader before): the same value, or the same InputError text.
    g = Graph.make(2, [(0, 0, 1), (1, 1, 0)])
    try:
        expected = (rat(entry), Fraction(-3, 2))
    except (TypeError, ValueError) as exc:
        expected = f"bad 1-cochain JSON: {exc}"
    sources = ([entry, "-3/2"], {"0": entry, "1": "-3/2"}, {"values": {"1": "-3/2", "0": entry}})
    for obj in sources:
        if isinstance(expected, str):
            with pytest.raises(InputError) as err:
                Cochain1.from_json(g, obj)
            assert str(err.value) == expected
        else:
            w = Cochain1.from_json(g, obj)
            assert w.values == expected
            assert all(type(x) is Fraction for x in w.values)
            assert (w.den, w.ints) == (lcm(*[x.denominator for x in expected]),
                                       tuple(x * w.den for x in expected))


def test_cochain_equality_hash_and_values():
    # A Cochain1 keeps integers over one denominator; equality, hashing and
    # the Fraction values are those of the values alone, however they were
    # written, as when the values were the stored field.
    g = Graph.make(2, [(0, 0, 1), (1, 1, 0), (2, 0, 1)])
    values = (Fraction(1, 2), Fraction(-3), Fraction(0))
    spellings = [
        Cochain1(values),
        Cochain1(["2/4", -3, "0"]),
        Cochain1.from_json(g, ["1/2", "-3", "-0"]),
        Cochain1.from_json(g, {"2": 0, "1": "-6/2", "0": "3/6"}),
        Cochain1.from_ints(4, [2, -12, 0]),
    ]
    for w in spellings:
        assert w == spellings[0] and not w != spellings[0]
        assert w.values == values and all(type(x) is Fraction for x in w.values)
        assert hash(w) == hash((values,))
        assert (w.den, w.ints) == (2, (1, -6, 0))
        assert repr(w) == f"Cochain1(values={values!r})"
    assert len(set(spellings)) == 1
    assert Cochain1(values) != Cochain1((Fraction(1, 2), Fraction(-3), Fraction(1)))
    assert Cochain1(values) != Cochain0(values) and Cochain1(values) != values
    zero = Cochain1.from_ints(6, [0, 0])
    assert (zero.den, zero.ints, zero.values) == (1, (0, 0), (0, 0))
    assert Cochain1([]) == Cochain1.from_json(Graph.make(1, []), {})


def test_action_checks_c4():
    orbits = ActionOrbits(c4_graph(), c4_rotation())
    assert orbits.issues == ()
    checks = action_checks(orbits)
    assert checks.is_free_on_generated_group
    assert checks.is_closed_in_components
    assert checks.group_order == 4


def test_action_checks_p2_swap_free():
    checks = action_checks(ActionOrbits(p2_graph(), p2_swap()))
    assert checks.is_free_on_generated_group  # no fixed vertex
    assert checks.is_closed_in_components
    assert checks.group_order == 2


def test_action_checks_p3_reflection_not_free():
    g = Graph.make(3, [(0, 0, 1), (1, 1, 2)])
    act = GraphAction(((2, 1, 0),), {0: 2})
    orbits = ActionOrbits(g, act)
    assert orbits.issues == ()
    checks = action_checks(orbits)
    assert not checks.is_free_on_generated_group  # vertex 1 is fixed


def test_action_rejects_non_automorphism():
    g = Graph.make(3, [(0, 0, 1)])
    act = GraphAction(((1, 2, 0),), {})
    assert ActionOrbits(g, act).issues
    with pytest.raises(InputError):
        to_instance(g, act)


def test_close_group_cap(monkeypatch):
    # S_6 has 720 elements; a tiny cap must trip the guardrail.
    gens = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
    with monkeypatch.context() as m:
        m.setattr(eqcohom.graphs, "GROUP_CLOSURE_CAP", 10)
        with pytest.raises(PreconditionError) as err:
            close_group(gens, 6, (2, 6))
    assert err.value.code == "closure-cap"
    assert len(close_group(gens, 6, (2, 6))) == 720


def test_close_group_refuses_over_the_entry_budget_at_once():
    # A 100,000-vertex cyclic action is within GRAPH_BUDGET and its 100,000
    # elements within the element cap, but its closure would hold 10**10
    # entries. |G| is a multiple of the generator's order, so it is refused
    # before any product is built; and before its wrong declared order.
    n = 100_000
    shift = tuple(list(range(1, n)) + [0])
    start = time.perf_counter()
    with pytest.raises(PreconditionError) as err:
        analyze_graph_action(Graph.make(n, []), GraphAction((shift,), {0: 3}))
    assert time.perf_counter() - start < 1
    assert err.value.code == "closure-cap"
    assert str(CLOSURE_ENTRY_BUDGET) in err.value.detail
    # The 60 x 60 torus grid with both translations still answers.
    assert 60 * 60 * 60 * 60 <= CLOSURE_ENTRY_BUDGET


def test_close_group_entry_budget_boundary(monkeypatch):
    # Two reflections of C_6 have order 2 and generate D_6, 12 elements of
    # 6 entries: the closure is built at 72 entries, and one entry less
    # refuses it while enumerating. A rotation of order 6 is refused off
    # its order, before any product, when the budget admits fewer than 6
    # permutations.
    refl = [tuple((-v) % 6 for v in range(6)), tuple((1 - v) % 6 for v in range(6))]
    monkeypatch.setattr(eqcohom.graphs, "CLOSURE_ENTRY_BUDGET", 72)
    assert len(close_group(refl, 6, (2, 2))) == 12
    monkeypatch.setattr(eqcohom.graphs, "CLOSURE_ENTRY_BUDGET", 71)
    with pytest.raises(PreconditionError) as err:
        close_group(refl, 6, (2, 2))
    assert err.value.code == "closure-cap"
    assert "at most 11 permutations of 6 vertices" in err.value.detail
    monkeypatch.setattr(eqcohom.graphs, "CLOSURE_ENTRY_BUDGET", 35)
    with monkeypatch.context() as m:
        m.setattr(eqcohom.graphs, "itemgetter", None)
        with pytest.raises(PreconditionError) as err:
            close_group([tuple((v + 1) % 6 for v in range(6))], 6, (6,))
    assert "at most 5 permutations" in err.value.detail
    # The element cap keeps its own message where it binds first.
    monkeypatch.setattr(eqcohom.graphs, "CLOSURE_ENTRY_BUDGET", 10**6)
    monkeypatch.setattr(eqcohom.graphs, "GROUP_CLOSURE_CAP", 11)
    with pytest.raises(PreconditionError) as err:
        close_group(refl, 6, (2, 2))
    assert err.value.detail == "group closure exceeded the cap of 11 elements"


def test_close_group_drops_repeated_generators():
    # A transposition and an 8-cycle generate S_8, 40,320 elements. Repeated
    # to 400 generators they generate the same group, at the same cost.
    swap = (1, 0, 2, 3, 4, 5, 6, 7)
    cycle = tuple((v + 1) % 8 for v in range(8))
    assert len(close_group([swap, cycle], 8, (2, 8))) == 40320
    start = time.perf_counter()
    group = close_group([swap, cycle] * 200, 8, (2, 8) * 200)
    assert time.perf_counter() - start < 1
    assert len(group) == 40320


def test_to_instance_identity():
    g = k3_graph()
    inst = to_instance(g, GraphAction((tuple(range(3)),), {0: 1}))
    assert inst.generators[0][0] == Mat.identity(3)
    assert inst.generators[0][1] == Mat.identity(3)


def test_to_instance_c4_equivariance():
    inst = to_instance(c4_graph(), c4_rotation())
    assert validate(inst).ok
    gu, gw = inst.generators[0]
    assert inst.pi * gu == gw * inst.pi


def test_to_instance_p2_swap_sign():
    inst = to_instance(p2_graph(), p2_swap())
    assert inst.generators[0][1] == Mat([[-1]])


def test_analyze_k3():
    rep = analyze_graph_action(k3_graph(), k3_s3_action())
    assert rep["quotient_dim"] == 0
    assert rep["predicted_zero"] and rep["consistent"]


def test_analyze_c6_rotation():
    g = Graph.make(6, [(i, i, (i + 1) % 6) for i in range(6)])
    act = GraphAction(((1, 2, 3, 4, 5, 0),), {0: 6})
    rep = analyze_graph_action(g, act)
    assert rep["quotient_dim"] == 0


def test_component_exchanging_action():
    # Two disjoint edges swapped: indicators are not invariant, so (i) fails.
    g = Graph.make(4, [(0, 0, 1), (1, 2, 3)])
    act = GraphAction(((2, 3, 0, 1),), {0: 2})
    inst = to_instance(g, act)
    assert not check_condition_i(inst)
    res = oracle_quotient_dim(inst)
    m = kernel_basis(inst.pi).dim
    assert res.dim < m * 1
    rep = analyze_graph_action(g, act)
    assert rep["consistent"]


def test_two_triangles_swap_condition_i_fails():
    inst = to_instance(two_triangles_graph(), two_triangles_swap())
    assert not check_condition_i(inst)
    assert oracle_quotient_dim(inst).dim == 0


def test_graph_json_roundtrip():
    g = two_triangles_graph()
    assert Graph.from_json(g.to_json()) == g
    act = k3_s3_action()
    again = GraphAction.from_json(act.to_json())
    assert again.generators == act.generators
    assert again.orders == act.orders


def test_multigraph_automorphism_matching():
    # Two parallel edges; swapping endpoints reverses both.
    g = Graph.make(2, [(0, 0, 1), (1, 0, 1)])
    inst = to_instance(g, GraphAction(((1, 0),), {0: 2}))
    assert validate(inst).ok


def _symmetric_multigraph(rng, n, perm):
    """A multigraph on n vertices that perm maps onto itself: the orbits of
    a few random edges under perm, each edge of an orbit stored in either
    orientation and each orbit taken one to three times, so there are
    loops, parallel and antiparallel edges; sometimes one edge is dropped,
    which most often breaks the symmetry. Edge ids are shuffled."""
    edges = []
    for _ in range(rng.randint(0, 4)):
        o, t = rng.randrange(n), rng.randrange(n)
        for _ in range(rng.randint(1, 3)):
            a, b = o, t
            while True:
                edges.append((a, b) if rng.random() < 0.7 else (b, a))
                a, b = perm[a], perm[b]
                if (a, b) == (o, t):
                    break
    if edges and rng.random() < 0.2:
        edges.pop(rng.randrange(len(edges)))
    ids = rng.sample(range(3 * len(edges) + 1), len(edges))
    return Graph.make(n, [(i, o, t) for i, (o, t) in zip(ids, edges)])


def _unordered_pairs(graph, perm):
    """The multiset of unordered endpoint pairs of perm's image of every edge."""
    return Counter(
        (perm[e.o], perm[e.t]) if perm[e.o] <= perm[e.t] else (perm[e.t], perm[e.o])
        for e in graph.edges
    )


def test_edge_maps_lift_automorphisms_as_a_homomorphism():
    # ActionOrbits' lift on seeded multigraphs with loops, parallel and
    # antiparallel edges. A generator is refused exactly when it does not
    # preserve the multiset of unordered endpoint pairs. An accepted one
    # maps the edges one to one onto edges with the image endpoints, sign
    # -1 iff they come reversed (never on a loop), and every pair of
    # accepted generators satisfies lift(g o h) = lift(g) o lift(h).
    rng = random.Random(341)
    seen = {"automorphism": 0, "refused": 0, "loop": 0, "parallel": 0, "reversed": 0}
    for _ in range(2000):
        n = rng.randint(1, 6)
        perm = list(range(n))
        rng.shuffle(perm)
        g = _symmetric_multigraph(rng, n, tuple(perm))
        gens = [tuple(perm)]
        if rng.random() < 0.3:
            other = list(range(n))
            rng.shuffle(other)
            gens.insert(rng.randint(0, 1), tuple(other))
        ends = _unordered_pairs(g, tuple(range(n)))
        accepted = [p for p in gens if _unordered_pairs(g, p) == ends]
        issues = tuple(
            f"generator {i}: does not map edges to edges"
            for i, p in enumerate(gens)
            if p not in accepted
        )
        maps = [edge_map(g, p) for p in gens]
        orbits = ActionOrbits(g, GraphAction(tuple(gens)))
        assert orbits.issues == issues
        assert orbits.edge_maps == (() if issues else tuple(maps))
        for p, emap in zip(gens, maps):
            if p not in accepted:
                assert emap is None
                seen["refused"] += 1
                continue
            seen["automorphism"] += 1
            assert sorted(dst for dst, _ in emap) == list(range(g.n_edges))
            for e, (dst, sign) in zip(g.edges, emap):
                image = g.edges[dst]
                ends_of_image = (image.o, image.t) if sign > 0 else (image.t, image.o)
                assert (p[e.o], p[e.t]) == ends_of_image
                assert sign > 0 or e.o != e.t
            seen["reversed"] += any(sign < 0 for _, sign in emap)
        assert all(lifts_compose(g, a, b) for a in accepted for b in accepted)
        pairs = [(e.o, e.t) for e in g.edges]
        seen["loop"] += any(o == t for o, t in pairs)
        seen["parallel"] += len(set(pairs)) < len(pairs)
    assert min(seen.values()) > 200, seen


def test_parallel_edges_are_matched_in_linear_time():
    # 60,000 parallel edges swapped end to end: the k-th edge of the one
    # list of pair {0, 1} maps to the k-th, reversed, found without a scan.
    k = 60_000
    g = Graph.make(2, [(i, 0, 1) for i in range(k)])
    start = time.perf_counter()
    rep = analyze_graph_action(g, GraphAction(((1, 0),), {0: 2}))
    assert time.perf_counter() - start < 3
    assert (rep["components"], rep["group_order"], rep["quotient_dim"]) == (1, 2, 0)
    assert ActionOrbits(g, GraphAction(((1, 0),))).edge_maps == (
        [(pos, -1) for pos in range(k)],
    )


def union_find_partition(g):
    """Components of g by union-find, as sorted vertex lists ordered by their
    smallest vertex: an independent reference for the BFS forest."""
    root = list(range(g.n_vertices))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for e in g.edges:
        root[find(e.o)] = find(e.t)
    parts: dict[int, list[int]] = {}
    for v in range(g.n_vertices):
        parts.setdefault(find(v), []).append(v)
    return sorted(parts.values())


def test_components_match_union_find():
    rng = random.Random(41)
    seen = set()
    for _ in range(200):
        g = random_graph(rng, 12)
        comps = components(g)
        assert comps == union_find_partition(g)
        forest = g.forest
        assert forest is g.forest  # built once per graph
        assert all(forest.comp_of[v] == k for k, c in enumerate(comps) for v in c)
        # A spanning forest has |V| - (number of components) tree edges.
        assert len(forest.tree_positions) == g.n_vertices - len(comps)
        if len(comps) > 1:
            seen.add("components")
        if any(len(c) == 1 for c in comps):
            seen.add("singleton")
        if any(e.o == e.t for e in g.edges):
            seen.add("loop")
        if len({(e.o, e.t) for e in g.edges}) < g.n_edges:
            seen.add("multi-edge")
    assert seen == {"components", "singleton", "loop", "multi-edge"}


def random_symmetric_graph(rng, n_gens):
    """A random action of 1 or 2 vertex permutations and a graph it
    preserves: unions of orbits of directed pairs, each stored in a random
    orientation, some orbits repeated, so loops and parallel and
    anti-parallel edges all occur."""
    n = rng.randint(1, 5)
    gens = tuple(tuple(rng.sample(range(n), n)) for _ in range(n_gens))
    edges = []
    for _ in range(rng.randint(0, 2)):
        seed = (rng.randrange(n), rng.randrange(n))
        orbit, frontier = {seed}, [seed]
        while frontier:
            a, b = frontier.pop()
            for p in gens:
                if (p[a], p[b]) not in orbit:
                    orbit.add((p[a], p[b]))
                    frontier.append((p[a], p[b]))
        for _ in range(rng.choice((1, 1, 2))):
            for a, b in sorted(orbit):
                o, t = (a, b) if rng.random() < 0.5 else (b, a)
                edges.append((len(edges), o, t))
    return Graph.make(n, edges), gens


def dense_order_issues(inst, i, top):
    """Per N = 1..top, the declared-order issues of generator i, read off
    the dense powers gU^N and gW^N (one product per N). The edge lift is a
    homomorphism, so gW^N is the identity whenever gU^N is, and only the
    gU string can occur."""
    gu, gw = inst.generators[i]
    pu, pw = gu, gw
    id_u, id_w = Mat.identity(inst.dim_U), Mat.identity(inst.dim_W)
    out = {}
    for n in range(1, top + 1):
        out[n] = []
        if pu != id_u:
            out[n].append(f"generator {i}: gU^{n} != identity")
        else:
            assert pw == id_w
        pu, pw = pu * gu, pw * gw
    return out


def test_to_instance_matches_dense_validation():
    # Dense validate is the oracle: the compiled action must pass all of it,
    # and a declared order N must be accepted exactly when gU^N is the
    # identity, and then gW^N is too, with the same issue strings.
    rng = random.Random(57)
    seen = set()
    for k in range(150):
        g, gens = random_symmetric_graph(rng, 1 + k % 2)
        inst = to_instance(g, GraphAction(gens))
        assert validate(inst).ok
        for i in range(len(gens)):
            for n, issues in dense_order_issues(inst, i, 24).items():
                act = GraphAction(gens, {i: n})
                if not issues:
                    assert to_instance(g, act).orders == {i: n}
                    continue
                with pytest.raises(InputError) as err:
                    to_instance(g, act)
                assert str(err.value) == "invalid declared order: " + "; ".join(issues)
        if any(e.o == e.t for e in g.edges):
            seen.add("loop")
        pairs = [(e.o, e.t) for e in g.edges if e.o != e.t]
        if len(set(pairs)) < len(pairs):
            seen.add("parallel")
        if any((t, o) in pairs for o, t in pairs):
            seen.add("anti-parallel")
    assert seen == {"loop", "parallel", "anti-parallel"}
    for _ in range(200):
        assert validate(random_graph_instance(rng)).ok


def test_to_instance_rejects_bad_declared_orders():
    g = k3_graph()
    rotation = (1, 2, 0)
    cases = [
        ({0: 0}, "generator 0: declared order 0 < 1"),
        ({0: -3}, "generator 0: declared order -3 < 1"),
        ({0: 2}, "generator 0: gU^2 != identity"),
        ({0: 3, 4: 3}, "declared order for generator 4, which does not exist"),
        ({2: 1, -1: 1}, "declared order for generator -1, which does not exist; "
         "declared order for generator 2, which does not exist"),
    ]
    for orders, issues in cases:
        with pytest.raises(InputError) as err:
            to_instance(g, GraphAction((rotation,), orders))
        assert str(err.value) == "invalid declared order: " + issues


def torus_grid(k):
    """The k x k torus grid graph with its two unit translations."""
    edges = []
    for x in range(k):
        for y in range(k):
            v = x * k + y
            edges.append((len(edges), v, ((x + 1) % k) * k + y))
            edges.append((len(edges), v, x * k + (y + 1) % k))
    shift_x = tuple(((v // k + 1) % k) * k + v % k for v in range(k * k))
    shift_y = tuple((v // k) * k + (v % k + 1) % k for v in range(k * k))
    return Graph.make(k * k, edges), (shift_x, shift_y)


def test_to_instance_checks_orders_without_matrix_work(monkeypatch):
    # The compiled action is valid by construction, and declared orders are
    # read off its cycles: no elimination, matrix product or powering.
    def forbidden(*args, **kwargs):
        raise AssertionError("to_instance must not do matrix work")

    monkeypatch.setattr(eqcohom.linalg, "rref", forbidden)
    monkeypatch.setattr(Mat, "__mul__", forbidden)
    monkeypatch.setattr(eqcohom.instance, "_power", forbidden)
    g, gens = torus_grid(8)
    inst = to_instance(g, GraphAction(gens, {0: 8, 1: 16}))
    assert (inst.dim_U, inst.dim_W, inst.d) == (64, 128, 2)
    huge = 8 * 10**40
    assert to_instance(g, GraphAction(gens, {0: huge, 1: huge})).orders == {0: huge, 1: huge}
    with pytest.raises(InputError) as err:
        to_instance(g, GraphAction(gens, {1: huge + 4}))
    assert str(err.value) == f"invalid declared order: generator 1: gU^{huge + 4} != identity"


def cycle_graph(n):
    return Graph.make(n, [(i, i, (i + 1) % n) for i in range(n)])


def prism_graph(n):
    """C_n x K_2: outer cycle 0..n-1, inner cycle n..2n-1, spokes i -> n+i."""
    edges = [(i, i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(2 * n + i, i, n + i) for i in range(n)]
    return Graph.make(2 * n, edges)


def random_action(rng, k):
    """Draw k of a seeded mix of automorphism actions: random orbit unions
    with 1 or 2 generators, swapped doubled graphs with loops and
    multi-edges, rotated and reflected cycles, prisms with two or three of
    rotation, layer swap and reflection in random order, d = 0,
    identities, and the empty graph."""
    kind = k % 8
    if k % 50 == 49:
        return Graph.make(0, []), rng.choice(((), ((),), ((), ())))
    if kind in (0, 1):
        return random_symmetric_graph(rng, 1 + kind)
    if kind == 2:
        base = random_graph(rng, 4)
        n = base.n_vertices
        edges = [(e.id, e.o, e.t) for e in base.edges]
        edges += [(len(edges) + i, e.o + n, e.t + n) for i, e in enumerate(base.edges)]
        return Graph.make(2 * n, edges), (tuple(range(n, 2 * n)) + tuple(range(n)),)
    if kind in (3, 4):
        n = rng.randint(1, 9)
        s = rng.randrange(n)
        perm = tuple((v + s) % n if kind == 3 else (s - v) % n for v in range(n))
        return cycle_graph(n), (perm,)
    if kind == 5:
        n = rng.randint(3, 6)
        s = rng.randrange(n)
        rot = tuple((v + 1) % n if v < n else n + (v + 1) % n for v in range(2 * n))
        swap = tuple((v + n) % (2 * n) for v in range(2 * n))
        refl = tuple((s - v) % n if v < n else n + (s - v) % n for v in range(2 * n))
        return prism_graph(n), tuple(rng.sample((rot, swap, refl), rng.randint(2, 3)))
    g = random_graph(rng, 6)
    return g, (() if kind == 6 else (tuple(range(g.n_vertices)),))


def edge_orbit_count(g, gens):
    """The number of edge orbits with the signs ignored: a plain union-find
    over src ~ dst of every edge map. An orbit carries an invariant form iff
    its signs are consistent, so W^G is smaller than this count exactly when
    some orbit is forced to 0."""
    root = list(range(g.n_edges))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for emap in ActionOrbits(g, GraphAction(gens)).edge_maps:
        for src, (dst, _) in enumerate(emap):
            root[find(src)] = find(dst)
    return sum(1 for x in range(g.n_edges) if find(x) == x)


def test_orbit_quotient_dim_matches_dense_oracle():
    # The dense instance is the oracle: the reported quotient dimension 0
    # must agree with it on every kind of draw, both subspaces must have
    # the same dimension, as the averaging theorem says, and so must the
    # cycle-sum rank of the reference orbit forms, which must span exactly
    # the dense W^G.
    rng = random.Random(83)
    seen = set()
    positive = forced_zero = 0
    for k in range(400):
        g, gens = random_action(rng, k)
        act = GraphAction(gens)
        inst = to_instance(g, act)
        oracle = oracle_quotient_dim(inst)
        orbits = ActionOrbits(g, act)
        w_fixed = fixed_W(inst)
        assert analyze_graph_action(g, act)["quotient_dim"] == oracle.dim == 0
        assert cycle_sum_pi_U_G(orbits) == oracle.pi_U_G.dim == oracle.pi_of_UG.dim
        forms = []
        for form in signed_edge_orbits(g.n_edges, orbits.edge_maps):
            vector = [0] * g.n_edges
            for pos, sign in form:
                vector[pos] = sign
            forms.append(vector)
        assert Subspace(g.n_edges, forms) == w_fixed
        assert len(forms) == w_fixed.dim
        positive += oracle.pi_U_G.dim > 0
        if w_fixed.dim < edge_orbit_count(g, gens):
            forced_zero += 1
        if any(e.o == e.t for e in g.edges):
            seen.add("loop")
        if len({(e.o, e.t) for e in g.edges}) < g.n_edges:
            seen.add("multi-edge")
        if len(components(g)) > 1:
            seen.add("components")
        seen.add(f"d={len(gens)}")
        if g.n_vertices == 0:
            seen.add("empty")
    assert seen == {
        "loop", "multi-edge", "components", "d=0", "d=1", "d=2", "d=3", "empty"
    }
    assert (positive, forced_zero) == (174, 106)


def closure_size(perms, points):
    """The order of the group that permutations of 0..points-1 generate."""
    return len(close_group(perms, points, [eqcohom.graphs._order(p) for p in perms]))


def test_action_checks_match_whole_group_definition():
    # Freeness by orbit-stabilizer and closedness on the generators agree
    # with the definitions over every element of the generated group, and
    # so do the orbit sizes; each generator's order is the least k >= 1
    # with p^k = id. The edge lifts compose as the vertex permutations do,
    # so the action on vertices and half-edges together generates G again,
    # and the half-edges alone see G with the vertices that carry no edge
    # ignored.
    rng = random.Random(83)
    seen = set()
    for k in range(400):
        g, gens = random_action(rng, k)
        orbits = ActionOrbits(g, GraphAction(gens))
        assert orbits.issues == ()
        checks = action_checks(orbits)
        group = close_group(gens, g.n_vertices, orbits.vertex_orders)
        ident = tuple(range(g.n_vertices))
        for p, order in zip(gens, orbits.vertex_orders):
            power = p
            for _ in range(order - 1):
                assert power != ident
                power = tuple(p[v] for v in power)
            assert power == ident
        free = all(p[v] != v for p in group if p != ident for v in range(g.n_vertices))
        comp_of = g.forest.comp_of
        closed = all(comp_of[p[v]] == comp_of[v] for p in group for v in range(g.n_vertices))
        assert checks == ActionChecks(free, closed, len(group))
        # Each orbit, ordered by its least vertex, has |{p[v] : p in G}|
        # elements.
        orbit = [{p[v] for p in group} for v in range(g.n_vertices)]
        assert orbits.orbit_sizes == [len(o) for v, o in enumerate(orbit) if min(o) == v]
        assert all(lifts_compose(g, a, b) for a in gens for b in gens)
        halves = [half_edge_permutation(emap) for emap in orbits.edge_maps]
        n, h = g.n_vertices, 2 * g.n_edges
        joint = [p + tuple(n + x for x in half) for p, half in zip(gens, halves)]
        assert closure_size(joint, n + h) == len(group)
        ends = sorted({v for e in g.edges for v in (e.o, e.t)})
        assert closure_size(halves, h) == len({tuple(p[v] for v in ends) for p in group})
        seen.add((free, closed))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def small_actions():
    """Every graph on at most 3 vertices with at most 3 edges (one multiset
    of stored (origin, target) pairs per graph, ids in order), with every
    tuple of at most 2 of its automorphisms as generators."""
    for n in range(4):
        pairs = [(o, t) for o in range(n) for t in range(n)]
        perms = list(itertools.permutations(range(n)))
        for m in range(4):
            for ends in itertools.combinations_with_replacement(pairs, m):
                g = Graph.make(n, [(i, o, t) for i, (o, t) in enumerate(ends)])
                autos = [p for p in perms if not ActionOrbits(g, GraphAction((p,))).issues]
                for d in range(3):
                    for gens in itertools.product(autos, repeat=d):
                        yield g, gens


def test_group_order_matches_the_closure():
    # The order of <g> read off g's cycles, for at most one distinct
    # generator, and the closure's size for more, are |close_group|: on the
    # seeded actions and in the bounded-exhaustive scope.
    rng = random.Random(83)
    actions = [random_action(rng, k) for k in range(400)]
    cases = Counter()
    for g, gens in itertools.chain(actions, small_actions()):
        orbits = ActionOrbits(g, GraphAction(gens))
        closure = close_group(gens, g.n_vertices, orbits.vertex_orders)
        assert action_checks(orbits).group_order == len(closure)
        cases[min(len(set(gens)), 2), len(closure) > 1] += 1
    assert sum(cases.values()) == 400 + 1592
    # Two distinct generators always generate more than the identity.
    assert min(cases[0, False], cases[1, False], cases[1, True], cases[2, True]) > 20


def test_cyclic_action_order_needs_no_closure(monkeypatch):
    # With at most one distinct generator no group is enumerated: one
    # generator, a repeated one, the identity, no generator, and n = 0 and
    # 1. Two distinct generators are closed.
    def forbidden(*args):
        raise AssertionError("close_group called")

    monkeypatch.setattr(eqcohom.graphs, "close_group", forbidden)
    c6 = cycle_graph(6)
    rot = tuple((v + 1) % 6 for v in range(6))
    refl = tuple((-v) % 6 for v in range(6))
    ident = tuple(range(6))
    cases = [
        (c6, (rot,), 6),
        (c6, (rot, rot), 6),
        (c6, (refl, refl, refl), 2),
        (c6, (ident,), 1),
        (c6, (ident, ident), 1),
        (c6, (), 1),
        (Graph.make(0, []), ((),), 1),
        (Graph.make(0, []), ((), ()), 1),
        (Graph.make(0, []), (), 1),
        (Graph.make(1, [(0, 0, 0)]), ((0,),), 1),
        (Graph.make(1, []), ((0,), (0,)), 1),
    ]
    for g, gens, order in cases:
        checks = action_checks(ActionOrbits(g, GraphAction(gens)))
        assert checks.group_order == order
        assert analyze_graph_action(g, GraphAction(gens))["group_order"] == order
    # Cycles of lengths 16, 9, 25 and 7: 25,200 elements, none enumerated.
    perm = []
    for start, length in ((0, 16), (16, 9), (25, 25), (50, 7)):
        perm += [start + (i + 1) % length for i in range(length)]
    rep = analyze_graph_action(Graph.make(57, []), GraphAction((tuple(perm),)))
    assert (rep["group_order"], rep["is_free"]) == (25200, False)
    with pytest.raises(AssertionError, match="close_group called"):
        action_checks(ActionOrbits(c6, GraphAction((rot, refl))))


def test_cyclic_action_refusals_match_the_closure(monkeypatch):
    # The element cap and the entry budget refuse <g> with the closure's
    # code and detail, and admit it at the boundary.
    c6 = cycle_graph(6)
    rot = tuple((v + 1) % 6 for v in range(6))

    def refusal(run):
        with pytest.raises(PreconditionError) as err:
            run()
        return err.value.code, err.value.detail

    def checks():
        return action_checks(ActionOrbits(c6, GraphAction((rot, rot))))

    for name, limit, detail in (
        ("GROUP_CLOSURE_CAP", 6, "group closure exceeded the cap of 5 elements"),
        (
            "CLOSURE_ENTRY_BUDGET",
            36,
            "group closure exceeded the budget of 35 entries "
            "(at most 5 permutations of 6 vertices)",
        ),
    ):
        with monkeypatch.context() as m:
            m.setattr(eqcohom.graphs, name, limit)
            assert checks().group_order == len(close_group([rot], 6, (6,))) == 6
            m.setattr(eqcohom.graphs, name, limit - 1)
            assert refusal(checks) == refusal(lambda: close_group([rot], 6, (6,)))
            assert refusal(checks) == ("closure-cap", detail)
    # Cycles of lengths 47, 53 and 59: 146,969 elements, over the cap.
    perm = []
    for start, length in ((0, 47), (47, 53), (100, 59)):
        perm += [start + (i + 1) % length for i in range(length)]
    code, detail = refusal(
        lambda: analyze_graph_action(Graph.make(159, []), GraphAction((tuple(perm),)))
    )
    assert (code, detail) == ("closure-cap", "group closure exceeded the cap of 100000 elements")


def test_orbit_quotient_dim_forced_zero_reflection():
    # Reflecting C5 in vertex 0 maps edge 2 = (2, 3) to itself reversed, so
    # its orbit carries no invariant form. Edges 0 and 4, and 1 and 3, pair
    # up with sign -1: the reference finds k = 2 forms, each summing to 0
    # around the one cycle, so rank C = 0. The vertex orbits {0}, {1, 4},
    # {2, 3} lie in one component: dim pi(U^G) = 3 - 1.
    g, act = cycle_graph(5), GraphAction(((0, 4, 3, 2, 1),))
    orbits = ActionOrbits(g, act)
    assert orbits.edge_maps == ([(4, -1), (3, -1), (2, -1), (1, -1), (0, -1)],)
    oracle = oracle_quotient_dim(to_instance(g, act))
    assert analyze_graph_action(g, act)["quotient_dim"] == oracle.dim == 0
    assert (oracle.pi_U_G.dim, oracle.pi_of_UG.dim) == (2, 2)
    assert cycle_sum_pi_U_G(orbits) == 2


def test_signed_edge_orbits_merge_signs_and_conflicts():
    # Each map lists (image position, sign) per position. The first map
    # makes w2 = -w1; the second makes w2 = w0, so the merge must carry
    # edge 2's own sign relative to its representative: w1 = -w0.
    maps = [[(0, 1), (2, -1), (1, -1)], [(2, 1), (1, 1), (0, 1)]]
    assert signed_edge_orbits(3, maps) == [[(0, 1), (1, -1), (2, 1)]]
    # The first map forces w1 = -w1 before the second joins edges 0 and 1:
    # the merged orbit keeps the conflict and spans nothing.
    maps = [[(0, 1), (1, -1)], [(1, 1), (0, 1)]]
    assert signed_edge_orbits(2, maps) == []


def test_action_errors_keep_their_precedence():
    # Non-automorphism before the closure cap, the cap before a wrong
    # declared order.
    with pytest.raises(InputError) as err:
        analyze_graph_action(Graph.make(3, [(0, 0, 1)]), GraphAction(((1, 2, 0),), {0: 2}))
    assert str(err.value) == "action generators are not graph automorphisms"
    # S_9 (9! elements, above the cap) acts on K_9; the transposition's
    # declared order 3 is wrong too.
    pairs = [(a, b) for a in range(9) for b in range(a + 1, 9)]
    k9 = Graph.make(9, [(i, a, b) for i, (a, b) in enumerate(pairs)])
    s9 = GraphAction(((1, 0, 2, 3, 4, 5, 6, 7, 8), (1, 2, 3, 4, 5, 6, 7, 8, 0)), {0: 3})
    with pytest.raises(PreconditionError) as cap:
        analyze_graph_action(k9, s9)
    assert cap.value.code == "closure-cap"


def test_analyze_graph_action_does_no_dense_work(monkeypatch):
    # The orbit path builds no compiled instance and no matrix, runs no
    # dense oracle, no matrix product, no kernel and no rref.
    def forbidden(*args, **kwargs):
        raise AssertionError("analyze_graph_action must not do dense work")

    rref_calls = []
    rref = eqcohom.linalg.rref

    def counted_rref(m):
        rref_calls.append((m.rows, m.cols))
        return rref(m)

    monkeypatch.setattr(eqcohom.graphs, "to_instance", forbidden)
    for module in (eqcohom.instance, eqcohom.graphs):
        monkeypatch.setattr(module, "oracle_quotient_dim", forbidden, raising=False)
    for module in (eqcohom.linalg, eqcohom.instance):
        monkeypatch.setattr(module, "kernel_basis", forbidden)
    for name in ("__init__", "_new", "__mul__"):
        monkeypatch.setattr(Mat, name, forbidden)
    monkeypatch.setattr(eqcohom.linalg, "rref", counted_rref)
    g, gens = torus_grid(12)
    rep = analyze_graph_action(g, GraphAction(gens, {0: 12, 1: 24}))
    assert (rep["quotient_dim"], rep["group_order"], rep["is_free"]) == (0, 144, True)
    assert rref_calls == []


def test_analyze_graph_action_reads_each_order_once(monkeypatch):
    # One vertex-permutation order per generator, shared by the closure's
    # bound and the declared-order check, which reads no edge map.
    calls = []
    order = eqcohom.graphs._order

    def counted_order(perm):
        calls.append(len(perm))
        return order(perm)

    monkeypatch.setattr(eqcohom.graphs, "_order", counted_order)
    g, gens = torus_grid(6)
    n = g.n_vertices
    for orders in ({}, {0: 6}, {0: 6, 1: 12}):
        calls.clear()
        rep = analyze_graph_action(g, GraphAction(gens, orders))
        assert rep["group_order"] == 36
        assert calls == [n, n]


def test_graph_budget_counts_vertices_plus_edges():
    # At the budget a graph is built; one vertex or one edge more is
    # refused before any edge is read.
    assert Graph.make(GRAPH_BUDGET, []).n_vertices == GRAPH_BUDGET
    assert Graph.make(GRAPH_BUDGET - 1, [(0, 0, 1)]).n_edges == 1
    for n, edges in ((GRAPH_BUDGET + 1, []), (GRAPH_BUDGET, [(0, 0, 1)])):
        with pytest.raises(PreconditionError) as err:
            Graph.make(n, edges)
        assert err.value.code == "budget"
        assert str(GRAPH_BUDGET + 1) in err.value.detail


def ring_configurations(n_species, n_sites):
    """The configuration graph of the exchange interaction on a ring, the
    finite model of Bannai, Kametani and Sasada's configuration spaces: a
    vertex is a configuration x in S^N (|S| = n_species, N = n_sites >= 3),
    numbered in itertools.product order, and an edge swaps the differing
    states of two adjacent sites, stored once, from the configuration with
    the smaller state first. Returns the graph, the cyclic shift (the state
    at site i moves to site i + 1) and each vertex's conserved totals (the
    number of sites in each state)."""
    configs = list(itertools.product(range(n_species), repeat=n_sites))
    index = {x: v for v, x in enumerate(configs)}
    edges = []
    for v, x in enumerate(configs):
        for i in range(n_sites):
            j = (i + 1) % n_sites
            if x[i] < x[j]:
                y = list(x)
                y[i], y[j] = x[j], x[i]
                edges.append((len(edges), v, index[tuple(y)]))
    shift = tuple([index[x[-1:] + x[:-1]] for x in configs])
    totals = [tuple([x.count(s) for s in range(n_species)]) for x in configs]
    return Graph.make(len(configs), edges), shift, totals


@pytest.mark.parametrize("species, sites", [(2, 3), (2, 8), (3, 3), (3, 6)])
def test_configuration_graph_components_are_conserved_totals(species, sites):
    # The components of an exchange configuration graph are the level sets
    # of the conserved totals: N + 1 for exclusion (|S| = 2), C(N+2, 2) for
    # three species. The shift generates a group of order N, and the
    # quotient dimension is 0, as the dense oracle confirms on small rings.
    g, shift, totals = ring_configurations(species, sites)
    comp_of = g.forest.comp_of
    level_sets = len(set(totals))
    assert level_sets == comb(sites + species - 1, species - 1)
    assert len({(comp_of[v], totals[v]) for v in range(g.n_vertices)}) == level_sets
    act = GraphAction((shift,), {0: sites})
    rep = analyze_graph_action(g, act)
    assert rep["components"] == level_sets
    assert (rep["group_order"], rep["quotient_dim"], rep["consistent"]) == (sites, 0, True)
    if g.n_vertices <= 27:
        oracle = oracle_quotient_dim(to_instance(g, act))
        assert rep["quotient_dim"] == oracle.dim == 0
        assert cycle_sum_pi_U_G(ActionOrbits(g, act)) == oracle.pi_U_G.dim
        assert oracle.pi_U_G.dim == oracle.pi_of_UG.dim


def test_three_species_ring_of_8_sites_runs_no_elimination(monkeypatch):
    # 3^8 = 6,561 configurations and 8 * 2,187 = 17,496 exchanges. The
    # k x c cycle-sum rank took 23.8 s here; the orbit path runs no rref
    # and answers in well under a second on a 2-core x86-64 host.
    rref_calls = []
    rref = eqcohom.linalg.rref

    def counted_rref(m):
        rref_calls.append((m.rows, m.cols))
        return rref(m)

    monkeypatch.setattr(eqcohom.linalg, "rref", counted_rref)
    g, shift, _ = ring_configurations(3, 8)
    assert (g.n_vertices, g.n_edges) == (6561, 17496)
    start = time.perf_counter()
    rep = analyze_graph_action(g, GraphAction((shift,), {0: 8}))
    assert time.perf_counter() - start < 5
    assert (rep["components"], rep["group_order"], rep["quotient_dim"]) == (45, 8, 0)
    assert rref_calls == []


def test_orbit_quotient_dim_matches_dense_oracle_on_every_small_graph():
    # Bounded-exhaustive scope: every graph on at most 3 vertices with at
    # most 3 edges, loops and multi-edges included (one multiset of stored
    # (origin, target) pairs per graph, ids in order), with every tuple of
    # at most 2 of its automorphisms as generators. The reported quotient
    # dimension 0 must match the oracle, and the cycle-sum reference must
    # agree with both of the oracle's subspace dimensions. The edge lifts of
    # every pair of automorphisms compose as the permutations do.
    cases = positive = 0
    for n in range(4):
        pairs = [(o, t) for o in range(n) for t in range(n)]
        perms = list(itertools.permutations(range(n)))
        for m in range(4):
            for ends in itertools.combinations_with_replacement(pairs, m):
                g = Graph.make(n, [(i, o, t) for i, (o, t) in enumerate(ends)])
                autos = [p for p in perms if not ActionOrbits(g, GraphAction((p,))).issues]
                assert all(lifts_compose(g, a, b) for a in autos for b in autos)
                for d in range(3):
                    for gens in itertools.product(autos, repeat=d):
                        act = GraphAction(gens)
                        oracle = oracle_quotient_dim(to_instance(g, act))
                        rep = analyze_graph_action(g, act)
                        assert rep["quotient_dim"] == oracle.dim == 0
                        assert (
                            cycle_sum_pi_U_G(ActionOrbits(g, act))
                            == oracle.pi_U_G.dim
                            == oracle.pi_of_UG.dim
                        )
                        cases += 1
                        positive += oracle.pi_U_G.dim > 0
    assert (cases, positive) == (1592, 867)
