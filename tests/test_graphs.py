import random
from fractions import Fraction
from math import lcm

import pytest

import eqcohom.graphs
import eqcohom.instance
import eqcohom.linalg
from eqcohom.errors import GRAPH_BUDGET, InputError, PreconditionError
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
    OrbitQuotient,
    _signed_edge_orbits,
    action_checks,
    analyze_graph_action,
    close_group,
    coboundary,
    components,
    orbit_quotient_dim,
    potential,
    to_instance,
)
from eqcohom.instance import check_condition_i, oracle_quotient_dim, validate
from eqcohom.linalg import Mat, Subspace, kernel_basis, rat
from eqcohom.randomized import random_graph, random_graph_instance

from conftest import fixed_W


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
    assert g.validate() == ["edge 0 is a loop; its 1-form value must be 0"]


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
        f = Cochain0.make([rng.randint(-5, 5) for _ in range(g.n_vertices)])
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
    w = Cochain1.make([1, 1, 1])
    assert potential(k3_graph(), w) is None


def test_tree_always_closed():
    g = Graph.make(4, [(0, 0, 1), (1, 1, 2), (2, 1, 3)])
    rng = random.Random(1)
    for _ in range(10):
        w = Cochain1.make([rng.randint(-4, 4) for _ in range(3)])
        assert potential(g, w) is not None


def test_loop_forces_zero_value():
    g = Graph.make(1, [(0, 0, 0)])
    assert potential(g, Cochain1.make([0])) is not None
    assert potential(g, Cochain1.make([1])) is None
    with pytest.raises(InputError):
        Cochain1.from_json(g, ["1"])


# Cochain entries at the edge of what linalg.rat reads: padded, signed,
# underscored and exponent strings, a non-ASCII digit, zero and leading
# zeros, fractions in and out of lowest terms, a zero denominator, strings
# that are no number, JSON numbers that are not exact integers, and a
# string one digit over int()'s default limit of 4,300.
READER_ENTRIES = (
    " 1", "+1", "1_0", "1e3", "\u0661", "-0", "007", "1/2", "2/4", "1/0", "",
    "abc", 1.5, True, None, "9" * 4301,
)


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
        Cochain1.make(["2/4", -3, "0"]),
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
    checks = action_checks(c4_graph(), c4_rotation())
    assert checks.is_automorphism
    assert checks.is_free_on_generated_group
    assert checks.is_closed_in_components
    assert checks.group_order == 4


def test_action_checks_p2_swap_free():
    checks = action_checks(p2_graph(), p2_swap())
    assert checks.is_free_on_generated_group  # no fixed vertex
    assert checks.is_closed_in_components
    assert checks.group_order == 2


def test_action_checks_p3_reflection_not_free():
    g = Graph.make(3, [(0, 0, 1), (1, 1, 2)])
    act = GraphAction(((2, 1, 0),), {0: 2})
    checks = action_checks(g, act)
    assert checks.is_automorphism
    assert not checks.is_free_on_generated_group  # vertex 1 is fixed


def test_action_rejects_non_automorphism():
    g = Graph.make(3, [(0, 0, 1)])
    act = GraphAction(((1, 2, 0),), {})
    assert ActionOrbits(g, act).issues
    with pytest.raises(InputError):
        to_instance(g, act)


def test_close_group_cap():
    # S_6 has 720 elements; a tiny cap must trip the guardrail.
    gens = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
    with pytest.raises(PreconditionError) as err:
        close_group(gens, 6, cap=10)
    assert err.value.code == "closure-cap"
    assert len(close_group(gens, 6)) == 720


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
    the dense powers gU^N and gW^N (one product per N)."""
    gu, gw = inst.generators[i]
    pu, pw = gu, gw
    id_u, id_w = Mat.identity(inst.dim_U), Mat.identity(inst.dim_W)
    out = {}
    for n in range(1, top + 1):
        out[n] = []
        if pu != id_u:
            out[n].append(f"generator {i}: gU^{n} != identity")
        if pw != id_w:
            out[n].append(f"generator {i}: gW^{n} != identity")
        pu, pw = pu * gu, pw * gw
    return out


def test_to_instance_matches_dense_validation():
    # Dense validate is the oracle: the compiled action must pass all of it,
    # and a declared order N must be accepted exactly when gU^N and gW^N
    # are the identity, with the same issue strings.
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
                if issues == [f"generator {i}: gW^{n} != identity"]:
                    seen.add("gW only")
        if any(e.o == e.t for e in g.edges):
            seen.add("loop")
        pairs = [(e.o, e.t) for e in g.edges if e.o != e.t]
        if len(set(pairs)) < len(pairs):
            seen.add("parallel")
        if any((t, o) in pairs for o, t in pairs):
            seen.add("anti-parallel")
    assert seen == {"gW only", "loop", "parallel", "anti-parallel"}
    for _ in range(200):
        assert validate(random_graph_instance(rng)).ok


def test_to_instance_rejects_bad_declared_orders():
    g = k3_graph()
    rotation = (1, 2, 0)
    cases = [
        ({0: 0}, "generator 0: declared order 0 < 1"),
        ({0: -3}, "generator 0: declared order -3 < 1"),
        ({0: 2}, "generator 0: gU^2 != identity; generator 0: gW^2 != identity"),
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
    assert str(err.value) == (
        f"invalid declared order: generator 1: gU^{huge + 4} != identity; "
        f"generator 1: gW^{huge + 4} != identity"
    )


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
    # The dense instance is the oracle: the orbit answer must agree on both
    # subspace dimensions, on every kind of draw, and the orbit forms must
    # span exactly the dense W^G.
    rng = random.Random(83)
    seen = set()
    positive = forced_zero = 0
    for k in range(400):
        g, gens = random_action(rng, k)
        act = GraphAction(gens)
        inst = to_instance(g, act)
        oracle = oracle_quotient_dim(inst)
        orbits = ActionOrbits(g, act)
        orbit = orbit_quotient_dim(orbits)
        w_fixed = fixed_W(inst)
        assert (orbit.dim, orbit.pi_U_G, orbit.pi_of_UG) == (
            oracle.dim, oracle.pi_U_G.dim, oracle.pi_of_UG.dim
        )
        forms = []
        for form in _signed_edge_orbits(g.n_edges, orbits.edge_maps):
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
    assert (positive, forced_zero) == (174, 95)


def test_action_checks_match_whole_group_definition():
    # Freeness by orbit-stabilizer and closedness on the generators agree
    # with the definitions over every element of the generated group.
    rng = random.Random(83)
    seen = set()
    for k in range(400):
        g, gens = random_action(rng, k)
        checks = action_checks(g, GraphAction(gens))
        group = close_group(gens, g.n_vertices)
        ident = tuple(range(g.n_vertices))
        free = all(p[v] != v for p in group if p != ident for v in range(g.n_vertices))
        comp_of = g.forest.comp_of
        closed = all(comp_of[p[v]] == comp_of[v] for p in group for v in range(g.n_vertices))
        assert checks == ActionChecks(True, free, closed, len(group))
        seen.add((free, closed))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_orbit_quotient_dim_forced_zero_reflection():
    # Reflecting C5 in vertex 0 maps edge 2 = (2, 3) to itself reversed, so
    # its orbit carries no invariant form. Edges 0 and 4, and 1 and 3, pair
    # up with sign -1: k = 2 forms, each summing to 0 around the one cycle,
    # so rank C = 0. The vertex orbits {0}, {1, 4}, {2, 3} lie in one
    # component: dim pi(U^G) = 3 - 1.
    orbits = ActionOrbits(cycle_graph(5), GraphAction(((0, 4, 3, 2, 1),)))
    assert orbits.edge_maps == ([(4, -1), (3, -1), (2, -1), (1, -1), (0, -1)],)
    assert orbit_quotient_dim(orbits) == OrbitQuotient(0, 2, 2)


def test_signed_edge_orbits_merge_signs_and_conflicts():
    # Each map lists (image position, sign) per position. The first map
    # makes w2 = -w1; the second makes w2 = w0, so the merge must carry
    # edge 2's own sign relative to its representative: w1 = -w0.
    maps = [[(0, 1), (2, -1), (1, -1)], [(2, 1), (1, 1), (0, 1)]]
    assert _signed_edge_orbits(3, maps) == [[(0, 1), (1, -1), (2, 1)]]
    # The first map forces w1 = -w1 before the second joins edges 0 and 1:
    # the merged orbit keeps the conflict and spans nothing.
    maps = [[(0, 1), (1, -1)], [(1, 1), (0, 1)]]
    assert _signed_edge_orbits(2, maps) == []


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
    # The orbit path builds no compiled instance, runs no dense oracle, no
    # matrix product and no kernel, and at most one rref (of the cycle-sum
    # matrix).
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
    monkeypatch.setattr(Mat, "__mul__", forbidden)
    monkeypatch.setattr(eqcohom.linalg, "rref", counted_rref)
    g, gens = torus_grid(12)
    rep = analyze_graph_action(g, GraphAction(gens, {0: 12, 1: 24}))
    assert (rep["quotient_dim"], rep["group_order"], rep["is_free"]) == (0, 144, True)
    # Two edge orbits (the two translation directions), 145 fundamental cycles.
    assert rref_calls == [(2, 145)]


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
