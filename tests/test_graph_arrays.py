"""Graphs kept as endpoint arrays, and the typed JSON loaders.

A Graph keeps its edges as three tuples, `ids`, `origins` and `targets`,
sorted by id, and builds Edge records only when `edges` is read. The loaders
read an entry with `integer` only when it is not exactly an int. On seeded
inputs, valid and broken, they must give what the Edge-record loaders gave
(kept in conftest as references): the same edges, or the same exception
class and message, so the first bad entry still wins."""

import random

import pytest

import eqcohom.graphs
import eqcohom.periodic
from eqcohom.errors import InputError
from eqcohom.graphs import (
    Cochain1,
    Graph,
    GraphAction,
    analyze_graph_action,
    coboundary,
    potential,
    to_instance,
)
from eqcohom.periodic import (
    PeriodicGraph,
    decompose_periodic,
    is_invariant_closed,
    parse_invariant_cochain,
    reconstruct,
    truncation_oracle,
)
from eqcohom.randomized import random_graph_instance

from conftest import (
    reference_action_from_json,
    reference_graph_from_json,
    reference_graph_make,
    reference_periodic_from_json,
)

BIG = 10**30
# Entries that are not exactly an int: bools, floats (integral or not),
# strings int() reads (padded, underscored, signed) and ones it does not,
# and other JSON values.
ODD = (True, False, 1.0, 2.5, "3", " 3", "1_0", "-1", "x", "", None, [1], {"a": 1})
NON_DICT_EDGES = ([0, 0, 1], "e", 7, None, True)


def outcome(read, obj):
    """("ok", value) or (exception class, message)."""
    try:
        return "ok", read(obj)
    except Exception as exc:  # every class is compared, none is expected
        return type(exc), str(exc)


def _endpoint(rng, n):
    if n > 0 and rng.random() > 0.06:
        return rng.randrange(n)
    return rng.choice((-1, n, n + 5, BIG))


def graph_json(rng, mutations):
    """A random graph object: ids unsorted or repeated now and then, an
    endpoint off the vertex range now and then, and then up to `mutations`
    breakages: an odd entry, a numeric string for an entry, a missing key at
    any position, a non-dict edge, a non-list "edges"."""
    n = rng.choice((-2, -1, 0, 1, 2, 3, 4, 5, 6, BIG)) if rng.random() < 0.1 else rng.randint(0, 6)
    m = rng.randint(0, 7)
    ids = rng.sample(range(m + 3), m)
    if m and rng.random() < 0.12:
        ids[rng.randrange(m)] = ids[rng.randrange(m)]
    if rng.random() < 0.5:
        ids.sort()
    edges = [{"id": i, "o": _endpoint(rng, n), "t": _endpoint(rng, n)} for i in ids]
    obj = {"vertices": n, "edges": edges}
    for _ in range(rng.randint(0, mutations)):
        kind = rng.randrange(6)
        if kind == 0 and edges:
            e = rng.choice(edges)
            if isinstance(e, dict):
                key = rng.choice(("id", "o", "t"))
                e[key] = rng.choice(ODD) if rng.random() < 0.6 else rng.choice(
                    (str(e.get(key, 0)), " " + str(e.get(key, 0)), BIG)
                )
        elif kind == 1 and edges:
            e = rng.choice(edges)
            if isinstance(e, dict):
                e.pop(rng.choice(("id", "o", "t")), None)
        elif kind == 2 and edges:
            edges[rng.randrange(len(edges))] = rng.choice(NON_DICT_EDGES)
        elif kind == 3:
            obj["vertices"] = rng.choice(ODD + (str(n),))
        elif kind == 4 and rng.random() < 0.3:
            obj.pop(rng.choice(("vertices", "edges")), None)
        elif kind == 5 and rng.random() < 0.2:
            obj["edges"] = rng.choice(({"0": 1}, "abc", None))
    return obj


def _assert_arrays_agree(g):
    assert all(type(a) is tuple for a in (g.ids, g.origins, g.targets))
    assert g.ids == tuple([e.id for e in g.edges])
    assert g.origins == tuple([e.o for e in g.edges])
    assert g.targets == tuple([e.t for e in g.edges])
    assert list(g.ids) == sorted(g.ids) and g.n_edges == len(g.edges)


def test_graph_loader_matches_the_edge_record_loader():
    rng = random.Random(2024)
    seen = set()
    for _ in range(2000):
        obj = graph_json(rng, 3)

        def new(obj):
            g = Graph.from_json(obj)
            _assert_arrays_agree(g)
            return g.n_vertices, g.edges

        got, want = outcome(new, obj), outcome(reference_graph_from_json, obj)
        assert got == want, obj
        seen.add(want[0] if want[0] == "ok" else want[1].split(":")[0].split(" ")[0])
    assert {"ok", "bad", "duplicate", "vertex", "budget", "edge"} <= seen


def test_graph_make_matches_the_edge_record_make():
    # Rows straight to make: unsorted and repeated ids, negative counts,
    # dangling endpoints, big ints, and the error order budget, negative
    # count, duplicate ids, first dangling endpoint by id.
    rng = random.Random(2025)
    for _ in range(2000):
        n = rng.randint(-2, 6) if rng.random() < 0.9 else rng.choice((BIG, 10**6))
        m = rng.randint(0, 7)
        ids = [rng.randrange(m + 2) for _ in range(m)]
        rows = [(i, _endpoint(rng, n), _endpoint(rng, n)) for i in ids]

        def new(rows):
            g = Graph.make(n, rows)
            _assert_arrays_agree(g)
            return g.n_vertices, g.edges

        assert outcome(new, rows) == outcome(lambda r: reference_graph_make(n, r), rows)


def test_first_bad_entry_wins():
    # Edge 0's bad origin comes before edge 1's bad id and edge 2's missing
    # key, in edge order and id, o, t within an edge.
    obj = {
        "vertices": 3,
        "edges": [{"id": 0, "o": 1.5, "t": "x"}, {"id": True, "o": 0, "t": 1}, {"id": 2}],
    }
    with pytest.raises(InputError) as err:
        Graph.from_json(obj)
    assert str(err.value) == "bad graph JSON: not an integer: 1.5"
    obj["edges"][0]["o"] = " 1"
    with pytest.raises(InputError) as err:
        Graph.from_json(obj)
    assert "invalid literal" in str(err.value) and "'x'" in str(err.value)
    obj["edges"][0]["t"] = "1_0"
    with pytest.raises(InputError) as err:
        Graph.from_json(obj)
    assert str(err.value) == "bad graph JSON: not an integer: True"
    obj["edges"][1]["id"] = "1"
    with pytest.raises(InputError) as err:
        Graph.from_json(obj)
    assert str(err.value) == "bad graph JSON: 'o'"
    obj["edges"][2] = {"id": 2, "o": 0, "t": 0}
    with pytest.raises(InputError) as err:
        Graph.from_json(obj)
    assert str(err.value) == "edge 0 has a dangling endpoint"  # t = "1_0" is 10
    obj["edges"][0]["t"] = 2
    assert Graph.from_json(obj).edges == reference_graph_from_json(obj)[1]


def action_json(rng):
    n = rng.randint(0, 5)
    gens = [rng.sample(range(n), n) for _ in range(rng.randint(0, 3))]
    obj = {"generators": gens}
    if rng.random() < 0.7:
        obj["orders"] = {str(i): rng.randint(-1, 6) for i in range(len(gens) + 1)
                         if rng.random() < 0.6}
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(6)
        lists = [p for p in gens if isinstance(p, list) and p]
        if kind == 0 and lists:
            p = rng.choice(lists)
            p[rng.randrange(len(p))] = rng.choice(ODD + (BIG, str(n)))
        elif kind == 1 and gens:
            gens[rng.randrange(len(gens))] = rng.choice(("012", {"0": 1}, 3, None))
        elif kind == 2 and "orders" in obj:
            obj["orders"] = rng.choice((None, [], "x", 3, {}))
        elif kind == 3 and isinstance(obj.get("orders"), dict):
            obj["orders"][rng.choice(("00", " 0", "x", "-1", "1_0", "+1"))] = 2
        elif kind == 4 and isinstance(obj.get("orders"), dict) and obj["orders"]:
            obj["orders"][rng.choice(list(obj["orders"]))] = rng.choice(ODD + (BIG,))
        elif kind == 5 and rng.random() < 0.2:
            obj.pop("generators", None)
    return obj


def test_action_loader_matches_the_integer_loader():
    rng = random.Random(2026)
    seen = set()
    for _ in range(2000):
        obj = action_json(rng)

        def new(obj):
            act = GraphAction.from_json(obj)
            assert type(act.generators) is tuple
            assert all(type(p) is tuple and all(type(x) is int for x in p)
                       for p in act.generators)
            return act.generators, act.orders

        want = outcome(reference_action_from_json, obj)
        assert outcome(new, obj) == want, obj
        seen.add(want[0] == "ok")
    assert seen == {True, False}


def periodic_json(rng):
    obj = graph_json(rng, 1 if rng.random() < 0.3 else 0)
    d = rng.randint(1, 3)
    obj["d"] = d
    edges = obj.get("edges")
    keys = [str(e["id"]) for e in edges if isinstance(e, dict) and "id" in e] if isinstance(
        edges, list
    ) else []
    voltages = {key: [rng.randint(-3, 3) for _ in range(d)] for key in keys}
    obj["voltages"] = voltages
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(7)
        if kind == 0 and voltages:
            t = voltages[rng.choice(list(voltages))]
            if isinstance(t, list) and t:
                t[rng.randrange(len(t))] = rng.choice(ODD + (BIG,))
        elif kind == 1 and voltages:
            voltages[rng.choice(list(voltages))] = rng.choice(("12", {"0": 1}, 3, None))
        elif kind == 2 and voltages:
            del voltages[rng.choice(list(voltages))]
        elif kind == 3:
            voltages[rng.choice(("01", " 1", "x", "99", "-0"))] = [0] * d
        elif kind == 4 and voltages:
            voltages[rng.choice(list(voltages))] = [0] * rng.choice((d - 1, d + 1))
        elif kind == 5:
            obj["d"] = rng.choice(ODD + (0, -1, str(d), BIG))
        elif kind == 6 and rng.random() < 0.2:
            obj["voltages"] = rng.choice((None, [], "x"))
    return obj


def test_periodic_loader_matches_the_integer_loader():
    rng = random.Random(2027)
    seen = set()
    for _ in range(2000):
        obj = periodic_json(rng)

        def new(obj):
            pg = PeriodicGraph.from_json(obj)
            g = pg.quotient
            _assert_arrays_agree(g)
            assert pg.edge_voltages == tuple([pg.voltages[i] for i in g.ids])
            return pg.d, g.n_vertices, g.edges, list(pg.voltages.items())

        def old(obj):
            d, n, edges, volt = reference_periodic_from_json(obj)
            return d, n, edges, list(volt.items())

        want = outcome(old, obj)
        assert outcome(new, obj) == want, obj
        seen.add(want[0] if want[0] == "ok" else want[1].split(" ")[0])
    assert {"ok", "bad", "missing", "voltage", "periodic"} <= seen


def test_loaders_call_integer_only_on_entries_that_are_not_ints(monkeypatch):
    calls = []
    integer = eqcohom.graphs.integer

    def recorded(value):
        calls.append(value)
        return integer(value)

    monkeypatch.setattr(eqcohom.graphs, "integer", recorded)
    monkeypatch.setattr(eqcohom.periodic, "integer", recorded)
    obj = {
        "vertices": 3,
        "edges": [{"id": 1, "o": 0, "t": 1}, {"id": 0, "o": 1, "t": 2}],
        "d": 2,
        "voltages": {"0": [1, 0], "1": [0, 1]},
    }
    pg = PeriodicGraph.from_json(obj)
    act = GraphAction.from_json({"generators": [[0, 1, 2]], "orders": {"0": 1}})
    assert calls == ["0"]  # the order key, a string
    assert pg.quotient.ids == (0, 1) and act.orders == {0: 1}
    calls.clear()
    obj["vertices"] = "3"
    obj["edges"][0]["t"] = " 1"
    obj["voltages"]["1"] = ["0", 1]
    PeriodicGraph.from_json(obj)
    GraphAction.from_json({"generators": [[0, "1", 2]], "orders": {"0": "1"}})
    assert calls == ["3", " 1", "0", "1", "0", "1"]


def test_requests_read_the_arrays_and_build_no_edge_record(monkeypatch):
    # Every graph and periodic computation reads ids, origins and targets;
    # Edge records are built only when `edges` itself is read.
    def no_edge(*args):
        raise AssertionError("an Edge record was built")

    monkeypatch.setattr(eqcohom.graphs, "Edge", no_edge)
    g = Graph.from_json({
        "vertices": 4,
        "edges": [{"id": i, "o": i, "t": (i + 1) % 4} for i in range(4)]
        + [{"id": 4, "o": 2, "t": 2}],
    })
    rotation = GraphAction(((1, 2, 3, 0),))
    with pytest.raises(InputError):
        analyze_graph_action(g, rotation)  # the loop at 2 is not moved along
    act = GraphAction(((0, 1, 2, 3), (0, 1, 2, 3)))
    assert analyze_graph_action(g, act)["group_order"] == 1
    to_instance(g, act)
    coboundary(g)
    w = Cochain1.from_json(g, {str(i): i for i in range(5)})
    assert potential(g, w) is None
    rng = random.Random(5)
    for _ in range(40):
        random_graph_instance(rng)
    pg = PeriodicGraph.from_json({
        "vertices": 2,
        "edges": [{"id": 0, "o": 0, "t": 1}, {"id": 1, "o": 1, "t": 0}, {"id": 2, "o": 1, "t": 1}],
        "d": 2,
        "voltages": {"0": [0, 0], "1": [1, 0], "2": [0, 1]},
    })
    w = parse_invariant_cochain(pg, {"0": "1", "1": "1/2", "2": "3"})
    assert is_invariant_closed(pg, w)
    dec = decompose_periodic(pg, w)
    assert truncation_oracle(pg, w, dec, 2)["ok"]
    assert reconstruct(pg, dec.a, dec.f) == w
    assert pg.quotient.to_json()["edges"][2] == {"id": 2, "o": 1, "t": 1}
    for graph in (g, pg.quotient):
        assert "edges" not in graph.__dict__
    with pytest.raises(AssertionError):
        g.edges
