import contextlib
import io
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm, prod
from pathlib import Path

import pytest

from eqcohom import cli, graphs, linalg, periodic
from eqcohom.errors import InputError, PreconditionError
from eqcohom.fixtures import (
    halfline_periodic,
    hex_periodic,
    square_index2_periodic,
    torus_periodic,
)
from eqcohom.graphs import Cochain0, Cochain1, Graph, coboundary, components
from eqcohom.linalg import Subspace, column_space
from eqcohom.periodic import (
    PeriodicGraph,
    decompose_periodic,
    hermite_normal_form,
    is_invariant_closed,
    lift_component_count,
    parse_invariant_cochain,
    period_lattices,
    realized_quotient_dim,
    reconstruct,
    truncation_oracle,
)
from eqcohom.randomized import random_unimodular

from conftest import (
    reference_decompose_periodic,
    reference_period_coefficients,
    reference_reconstruct,
    subspace_sum,
)


def random_cochain_pair(rng, pg):
    """Random (a, f) with f zero at each component root, plus the w it builds."""
    comps = components(pg.quotient)
    a = [
        [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2])) for _ in comps]
        for _ in range(pg.d)
    ]
    f_vals = [Fraction(rng.randint(-5, 5)) for _ in range(pg.quotient.n_vertices)]
    for comp in comps:
        root_val = f_vals[comp[0]]
        for v in comp:
            f_vals[v] -= root_val
    f = Cochain0(tuple(f_vals))
    return a, f, reconstruct(pg, a, f)


def test_hnf_torus_loops():
    assert hermite_normal_form([(1, 0), (0, 1)], 2) == ([[1, 0], [0, 1]], [0, 1])


def test_hnf_rank_deficient():
    assert hermite_normal_form([(2, 0)], 2) == ([[2, 0]], [0])


def test_hnf_canonical_under_row_operations():
    rng = random.Random(8)
    for _ in range(30):
        d = rng.randint(1, 4)
        rows = [
            [rng.randint(-5, 5) for _ in range(d)] for _ in range(rng.randint(0, 5))
        ]
        h, _ = hermite_normal_form(rows, d)
        # Unimodular row mixing must not change the canonical form.
        if rows:
            u, _ = random_unimodular(rng, len(rows))
            mixed = [
                [int(x) for x in u.row(i)] for i in range(len(rows))
            ]  # coefficients
            mixed_rows = []
            for coeffs in mixed:
                mixed_rows.append(
                    [
                        sum(c * rows[k][j] for k, c in enumerate(coeffs))
                        for j in range(d)
                    ]
                )
            assert hermite_normal_form(mixed_rows, d)[0] == h
        # Pivot structure: echelon with positive pivots, reduced above.
        last = -1
        for row in h:
            j = next(k for k, x in enumerate(row) if x != 0)
            assert j > last
            assert row[j] > 0
            last = j


def test_period_lattice_torus():
    for d in range(1, 5):
        lats = period_lattices(torus_periodic(d))
        assert len(lats) == 1
        assert lats[0].basis == tuple(
            tuple(1 if i == j else 0 for j in range(d)) for i in range(d)
        )
        assert lats[0].is_full()


def test_period_lattice_rank_deficient_loop():
    lats = period_lattices(halfline_periodic())
    assert lats[0].basis == ((2, 0),)
    assert lats[0].rank == 1
    assert not lats[0].is_full()


def test_period_lattice_hex():
    lats = period_lattices(hex_periodic())
    assert lats[0].basis == ((1, 0), (0, 1))


def test_action_closed_and_lift_counts():
    assert all(lat.is_full() for lat in torus_periodic(3).lattices)
    assert lift_component_count(torus_periodic(3)) == 1

    assert not all(lat.is_full() for lat in halfline_periodic().lattices)
    assert lift_component_count(halfline_periodic()) == "infinite"

    sq = square_index2_periodic()
    assert not all(lat.is_full() for lat in sq.lattices)
    assert period_lattices(sq)[0].index() == 2
    assert lift_component_count(sq) == 2


def test_invariant_closed_torus_any():
    pg = torus_periodic(2)
    rng = random.Random(2)
    for _ in range(10):
        w = Cochain1.make([rng.randint(-9, 9), rng.randint(-9, 9)])
        assert is_invariant_closed(pg, w)


def test_invariant_closed_zero_voltage_triangle():
    g = Graph.make(3, [(0, 0, 1), (1, 1, 2), (2, 2, 0)])
    pg = PeriodicGraph.make(1, g, {0: (0,), 1: (0,), 2: (0,)})
    assert not is_invariant_closed(pg, Cochain1.make([1, 1, 1]))
    assert is_invariant_closed(pg, Cochain1.make([1, 1, -2]))


def test_reconstruction_always_invariant_closed():
    rng = random.Random(4)
    for pg in (torus_periodic(2), torus_periodic(3), hex_periodic()):
        for _ in range(10):
            _, _, w = random_cochain_pair(rng, pg)
            assert is_invariant_closed(pg, w)


def test_decompose_torus():
    pg = torus_periodic(3)
    w = Cochain1.make([5, -3, Fraction(7, 2)])
    dec = decompose_periodic(pg, w)
    assert dec.a == ((Fraction(5),), (Fraction(-3),), (Fraction(7, 2),))
    assert dec.f.values == (Fraction(0),)


def test_decompose_exact_case():
    # w built purely from a potential: all coefficients vanish.
    pg = hex_periodic()
    f = Cochain0.make([3, -2])
    w = reconstruct(pg, [[0], [0]], f)
    dec = decompose_periodic(pg, w)
    assert all(x == 0 for row in dec.a for x in row)
    assert dec.f.values == (Fraction(0), Fraction(-5))  # f - f(root)


def test_decompose_hex_formula():
    pg = hex_periodic()
    w0, w1, w2 = Fraction(1, 3), Fraction(2), Fraction(-1, 2)
    dec = decompose_periodic(pg, Cochain1.make([w0, w1, w2]))
    assert dec.a == ((w1 - w0,), (w2 - w0,))
    assert dec.f.values == (Fraction(0), w0)


def test_decompose_roundtrip():
    rng = random.Random(6)
    for pg in (torus_periodic(2), torus_periodic(3), hex_periodic()):
        for _ in range(25):
            a, f, w = random_cochain_pair(rng, pg)
            dec = decompose_periodic(pg, w)
            assert [list(row) for row in dec.a] == [list(map(Fraction, r)) for r in a]
            assert dec.f.values == f.values
            assert reconstruct(pg, dec.a, dec.f).values == w.values


def test_decompose_property_checks_are_explicit(monkeypatch):
    # The exact-residual and round-trip checks raise AssertionError
    # themselves, so they hold under python -O too: a potential that is
    # missing or wrong is refused.
    pg = hex_periodic()
    w = Cochain1.make([Fraction(1, 3), 2, Fraction(-1, 2)])
    monkeypatch.setattr(periodic, "closed_potential", lambda graph, values: None)
    with pytest.raises(AssertionError, match="residual 1-form must be exact"):
        decompose_periodic(pg, w)
    monkeypatch.setattr(
        periodic, "closed_potential", lambda graph, values: [1] * graph.n_vertices
    )
    with pytest.raises(AssertionError):
        decompose_periodic(pg, w)


def test_decompose_refuses_non_closed_action():
    for pg in (square_index2_periodic(), halfline_periodic()):
        w = Cochain1.make([0] * pg.quotient.n_edges)
        with pytest.raises(PreconditionError) as err:
            decompose_periodic(pg, w)
        assert err.value.code == "action-not-closed"
        assert "rank" in err.value.detail


def test_decompose_refuses_non_closed_form():
    g = Graph.make(3, [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 0)])
    pg = PeriodicGraph.make(1, g, {0: (0,), 1: (0,), 2: (0,), 3: (1,)})
    assert all(lat.is_full() for lat in pg.lattices)
    with pytest.raises(PreconditionError) as err:
        decompose_periodic(pg, Cochain1.make([1, 1, 1, 0]))
    assert err.value.code == "not-closed"


def test_coefficients_independent_of_cycle_choice():
    # Two distinct loops with the same voltage: their w-values must agree
    # for a closed form, and the decomposition asserts it.
    g = Graph.make(1, [(0, 0, 0), (1, 0, 0)])
    pg = PeriodicGraph.make(1, g, {0: (1,), 1: (1,)})
    dec = decompose_periodic(pg, Cochain1.make([4, 4]))
    assert dec.a == ((Fraction(4),),)
    assert not is_invariant_closed(pg, Cochain1.make([4, 5]))


def random_multi_component_quotient(rng, d, n_comps, drop_loops=0.0):
    """Random quotient with n_comps components on interleaved vertex ids.

    Each component has a random spanning tree, a few extra edges with
    voltages in [-1, 1]^d, and d loops with the unit voltages, so its period
    lattice is all of Z^d; each loop is left out with probability
    `drop_loops`, so that lattice may not be full.
    """
    sizes = [rng.randint(1, 5) for _ in range(n_comps)]
    order = list(range(sum(sizes)))
    rng.shuffle(order)
    parts = [order[sum(sizes[:k]) : sum(sizes[: k + 1])] for k in range(n_comps)]
    raw = []
    for part in parts:
        pairs = [(part[i], part[rng.randrange(i)]) for i in range(1, len(part))]
        if len(part) > 1:
            pairs += [tuple(rng.sample(part, 2)) for _ in range(rng.randint(0, 3))]
        raw += [(o, t, [rng.randint(-1, 1) for _ in range(d)]) for o, t in pairs]
        for j in range(d):
            if drop_loops and rng.random() < drop_loops:
                continue
            v = rng.choice(part)
            raw.append((v, v, [int(i == j) for i in range(d)]))
    g = Graph.make(len(order), [(i, o, t) for i, (o, t, _) in enumerate(raw)])
    return PeriodicGraph.make(d, g, {i: t for i, (_, _, t) in enumerate(raw)})


def test_decompose_two_components_different_coefficients():
    # Two unit-voltage loops on separate vertices: each component has its
    # own period coefficient, and closedness must not tie them together.
    g = Graph.make(2, [(0, 0, 0), (1, 1, 1)])
    pg = PeriodicGraph.make(1, g, {0: (1,), 1: (1,)})
    w = reconstruct(pg, [[1, 2]], Cochain0.make([0, 0]))
    assert is_invariant_closed(pg, w)
    dec = decompose_periodic(pg, w)
    assert dec.a == ((Fraction(1), Fraction(2)),)
    assert dec.f.values == (Fraction(0), Fraction(0))


def test_decompose_roundtrip_multi_component():
    rng = random.Random(12)
    seen_comps = set()
    for trial in range(40):
        d = rng.randint(1, 3)
        pg = random_multi_component_quotient(rng, d, rng.randint(2, 3))
        comps = components(pg.quotient)
        seen_comps.add(len(comps))
        a, f, w = random_cochain_pair(rng, pg)
        assert is_invariant_closed(pg, w)
        dec = decompose_periodic(pg, w)
        assert [list(row) for row in dec.a] == [list(map(Fraction, r)) for r in a]
        assert dec.f.values == f.values
        assert all(dec.f.values[comp[0]] == 0 for comp in comps)
        if trial % 8 == 0:
            assert truncation_oracle(pg, w, dec, 1)["ok"]
    assert seen_comps == {2, 3}


def test_not_closed_names_the_inconsistent_component():
    # Component 0 (vertex 0) is consistent; component 1 has two loops with
    # the same voltage but different w-values.
    g = Graph.make(2, [(0, 0, 0), (1, 1, 1), (2, 1, 1)])
    pg = PeriodicGraph.make(1, g, {0: (1,), 1: (1,), 2: (1,)})
    w = Cochain1.make([3, 4, 5])
    assert not is_invariant_closed(pg, w)
    with pytest.raises(PreconditionError) as err:
        decompose_periodic(pg, w)
    assert err.value.code == "not-closed"
    assert "component 1" in err.value.detail
    assert is_invariant_closed(pg, Cochain1.make([3, 5, 5]))


def test_truncation_oracle_rejects_wrong_decomposition():
    pg = hex_periodic()
    w = Cochain1.make([Fraction(1, 2), 2, -1])
    dec = decompose_periodic(pg, w)
    assert truncation_oracle(pg, w, dec, 2)["ok"]
    f = list(dec.f.values)
    f[1] += 1
    with pytest.raises(AssertionError):
        truncation_oracle(pg, w, dec._replace(f=Cochain0(tuple(f))), 2)
    a = [list(row) for row in dec.a]
    a[0][0] += Fraction(1, 3)
    with pytest.raises(AssertionError):
        truncation_oracle(pg, w, dec._replace(a=tuple(map(tuple, a))), 2)


def test_truncation_oracle_rejects_negative_radius():
    pg = torus_periodic(2)
    w = Cochain1.make([5, -3])
    dec = decompose_periodic(pg, w)
    assert truncation_oracle(pg, w, dec, 0) == {"radius": 0, "checks": 0, "ok": True}
    with pytest.raises(InputError):
        truncation_oracle(pg, w, dec, -1)


def test_truncation_oracle_integer_scaling():
    # w, a and f carry pairwise-coprime denominators 2, 3 and 5, so only
    # their common denominator (30) clears all of them; shifting a by 1/7 or
    # f by 1/11 brings in a denominator that w does not have.
    g = Graph.make(2, [(0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 1, 0)])
    pg = PeriodicGraph.make(2, g, {0: (1, 0), 1: (0, 1), 2: (0, 0), 3: (1, 1)})
    a = [[Fraction(1, 2)], [Fraction(1, 3)]]
    f = Cochain0.make([0, Fraction(1, 5)])
    w = reconstruct(pg, a, f)
    assert w.values[:3] == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    dec = decompose_periodic(pg, w)
    assert [list(row) for row in dec.a] == a and dec.f == f
    report = truncation_oracle(pg, w, dec, 2)
    # Per edge of voltage t, prod_j (5 - |t_j|) cells keep both ends inside.
    assert report == {"radius": 2, "checks": 20 + 20 + 25 + 16, "ok": True}
    shifted_a = dec._replace(a=((dec.a[0][0] + Fraction(1, 7),), dec.a[1]))
    with pytest.raises(AssertionError):
        truncation_oracle(pg, w, shifted_a, 2)
    f_vals = (dec.f.values[0], dec.f.values[1] + Fraction(1, 11))
    shifted_f = dec._replace(f=Cochain0(f_vals))
    with pytest.raises(AssertionError):
        truncation_oracle(pg, w, shifted_f, 2)


def test_truncation_oracle_torus():
    pg = torus_periodic(2)
    w = Cochain1.make([5, -3])
    report = truncation_oracle(pg, w, decompose_periodic(pg, w), 3)
    assert report["ok"]
    # Per loop: 7 windows in the transverse direction, 6 interior steps.
    assert report["checks"] == 2 * 7 * 6


def test_truncation_oracle_hex():
    pg = hex_periodic()
    w = Cochain1.make([Fraction(1, 2), 2, -1])
    report = truncation_oracle(pg, w, decompose_periodic(pg, w), 2)
    assert report["ok"]


def test_truncation_oracle_residual_only():
    pg = hex_periodic()
    f = Cochain0.make([0, 7])
    w = reconstruct(pg, [[0], [0]], f)
    report = truncation_oracle(pg, w, decompose_periodic(pg, w), 2)
    assert report["ok"]


DENS = (1, 2, 3, 6)


def random_periodic_case(rng):
    """A seeded (pg, w, kind): d in {1, 2, 3}, one to three components, each
    unit loop left out with probability 0.1, and w with denominators from
    DENS. `kind` says how w was drawn: "closed" from random a and f,
    "perturbed" as a closed w with one value moved, "random" entry by
    entry."""
    pg = random_multi_component_quotient(
        rng, rng.randint(1, 3), rng.randint(1, 3), drop_loops=0.1
    )
    d, g = pg.d, pg.quotient
    kind = rng.choice(["closed", "closed", "perturbed", "random"])
    if kind == "random":
        values = [Fraction(rng.randint(-9, 9), rng.choice(DENS)) for _ in g.edges]
        return pg, Cochain1(tuple(values)), kind
    m = len(components(g))
    a = [[Fraction(rng.randint(-6, 6), rng.choice(DENS)) for _ in range(m)] for _ in range(d)]
    f = Cochain0(
        tuple(Fraction(rng.randint(-5, 5), rng.choice(DENS)) for _ in range(g.n_vertices))
    )
    values = list(reference_reconstruct(pg, a, f).values)
    if kind == "perturbed" and values:
        values[rng.randrange(len(values))] += Fraction(1, rng.choice(DENS))
    return pg, Cochain1(tuple(values)), kind


def test_integer_path_matches_fraction_reference():
    rng = random.Random(2718)
    seen = Counter()
    for _ in range(320):
        pg, w, kind = random_periodic_case(rng)
        seen[f"d={pg.d}"] += 1
        seen[f"components={len(pg.lattices)}"] += 1
        seen[f"den={lcm(*(x.denominator for x in w.values))}"] += 1
        reference = reference_period_coefficients(pg, w)
        assert is_invariant_closed(pg, w) == (None not in reference)
        if not all(lat.is_full() for lat in pg.lattices):
            seen["lattice not full"] += 1
            with pytest.raises(PreconditionError) as err:
                decompose_periodic(pg, w)
            assert err.value.code == "action-not-closed"
            continue
        try:
            a, f = reference_decompose_periodic(pg, w)
        except PreconditionError as exc:
            seen["not closed"] += 1
            with pytest.raises(PreconditionError) as err:
                decompose_periodic(pg, w)
            assert (err.value.code, err.value.detail) == (exc.code, exc.detail)
            continue
        seen[f"decomposed {kind}"] += 1
        dec = decompose_periodic(pg, w)
        assert dec.a == a and dec.f.values == f
        assert all(type(x) is Fraction for row in dec.a for x in row)
        assert all(type(x) is Fraction for x in dec.f.values)
        assert reconstruct(pg, dec.a, dec.f) == reference_reconstruct(pg, dec.a, dec.f)
    for key in ("d=1", "d=2", "d=3", "components=1", "components=2", "components=3"):
        assert seen[key] >= 30, (key, seen)
    for key in ("den=6", "lattice not full", "not closed", "decomposed closed"):
        assert seen[key] >= 10, (key, seen)


def lift_mismatches(pg, w, a, f, radius):
    """(checks, first mismatch) of the lift window, by brute force over
    cells in lexicographic order with Fractions; the first mismatch is
    (edge id, cell) or None."""
    comp_of = pg.quotient.forest.comp_of

    def big_f(v, cell):
        return f[v] + sum(a[j][comp_of[v]] * c for j, c in enumerate(cell))

    checks, first = 0, None
    window = range(-radius, radius + 1)
    for pos, e in enumerate(pg.quotient.edges):
        t = pg.voltages[e.id]
        for cell in product(window, repeat=pg.d):
            target = tuple(c + tj for c, tj in zip(cell, t))
            if all(abs(x) <= radius for x in target):
                checks += 1
                if first is None and w.values[pos] != big_f(e.t, target) - big_f(e.o, cell):
                    first = (e.id, cell)
    return checks, first


def test_truncation_oracle_checks_and_names_first_mismatch():
    rng = random.Random(31)
    caught = Counter()
    shapes = Counter()
    for trial in range(240):
        pg, w, kind = random_periodic_case(rng)
        if kind != "closed" or not all(lat.is_full() for lat in pg.lattices):
            continue
        dec = decompose_periodic(pg, w)
        radius = rng.randint(0, 3)
        shapes[pg.d, radius] += 1
        side = 2 * radius + 1
        predicted = sum(
            prod(max(0, side - abs(tj)) for tj in t) for t in pg.voltages.values()
        )
        assert truncation_oracle(pg, w, dec, radius) == {
            "radius": radius, "checks": predicted, "ok": True
        }
        a = [list(row) for row in dec.a]
        f = list(dec.f.values)
        if trial % 2:
            f[rng.randrange(len(f))] += Fraction(1, rng.choice(DENS))
            which = "f"
        else:
            a[rng.randrange(pg.d)][rng.randrange(len(a[0]))] += Fraction(1, 3)
            which = "a"
        checks, first = lift_mismatches(pg, w, a, f, radius)
        assert checks == predicted
        mutated = dec._replace(a=tuple(map(tuple, a)), f=Cochain0(tuple(f)))
        if first is None:
            assert truncation_oracle(pg, w, mutated, radius)["ok"]
            continue
        with pytest.raises(AssertionError) as err:
            truncation_oracle(pg, w, mutated, radius)
        assert str(err.value) == f"truncation mismatch on edge {first[0]} at cell {first[1]}"
        caught[which] += 1
    assert caught["f"] >= 5 and caught["a"] >= 5, caught
    assert all(shapes[d, r] for d in (1, 2, 3) for r in range(4)), shapes


def test_truncation_oracle_empty_and_one_cell_boxes():
    # Voltages (3, 0) and (-4, 1) leave the window at radius 1 (side 3) and
    # every nonzero voltage does at radius 0, so those boxes are empty; at
    # radius 0 a zero voltage has a box of one cell.
    g = Graph.make(2, [(0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 1, 0), (4, 1, 1)])
    volts = {0: (1, 0), 1: (0, 1), 2: (0, 0), 3: (3, 0), 4: (-4, 1)}
    pg = PeriodicGraph.make(2, g, volts)
    w = reconstruct(pg, [[Fraction(1, 2)], [-2]], Cochain0.make([0, 3]))
    dec = decompose_periodic(pg, w)
    for radius, checks in ((0, 1), (1, 6 + 6 + 9), (2, 20 + 20 + 25 + 10 + 4)):
        assert lift_mismatches(pg, w, dec.a, dec.f.values, radius) == (checks, None)
        assert truncation_oracle(pg, w, dec, radius) == {
            "radius": radius, "checks": checks, "ok": True
        }
    moved = dec._replace(f=Cochain0((dec.f.values[0], dec.f.values[1] + 1)))
    for radius, cell in ((0, (0, 0)), (1, (-1, -1))):
        assert lift_mismatches(pg, w, moved.a, moved.f.values, radius)[1] == (2, cell)
        with pytest.raises(AssertionError) as err:
            truncation_oracle(pg, w, moved, radius)
        assert str(err.value) == f"truncation mismatch on edge 2 at cell {cell}"
    # A zero-voltage loop alone: one cell, one check, at radius 0.
    loop = PeriodicGraph.make(1, Graph.make(1, [(0, 0, 0), (1, 0, 0)]), {0: (1,), 1: (0,)})
    w = Cochain1.make([5, 0])
    assert truncation_oracle(loop, w, decompose_periodic(loop, w), 0)["checks"] == 1


def test_truncation_oracle_shared_voltages_match_brute_force():
    # Many edges per voltage: each class's box is built once and gathered
    # for every edge, so a mismatch must still name the first edge in
    # stored order and the first cell of its box.
    rng = random.Random(57)
    caught = 0
    for trial in range(60):
        d = rng.randint(1, 3)
        n = rng.randint(2, 6)
        palette = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(2)]
        raw = [(i, rng.randrange(i), rng.choice(palette)) for i in range(1, n)]
        raw += [
            (*rng.sample(range(n), 2), rng.choice(palette))
            for _ in range(rng.randint(6, 14))
        ]
        raw += [(0, 0, tuple(int(i == j) for i in range(d))) for j in range(d)]
        rng.shuffle(raw)
        g = Graph.make(n, [(i, o, t) for i, (o, t, _) in enumerate(raw)])
        pg = PeriodicGraph.make(d, g, {i: t for i, (_, _, t) in enumerate(raw)})
        assert max(Counter(pg.voltages.values()).values()) >= 4
        _, _, w = random_cochain_pair(rng, pg)
        dec = decompose_periodic(pg, w)
        radius = rng.randint(0, 2)
        checks, first = lift_mismatches(pg, w, dec.a, dec.f.values, radius)
        assert first is None
        assert truncation_oracle(pg, w, dec, radius)["checks"] == checks
        f_moved = list(dec.f.values)
        f_moved[rng.randrange(1, n)] += Fraction(1, 2)
        moved = dec._replace(f=Cochain0(tuple(f_moved)))
        checks, first = lift_mismatches(pg, w, moved.a, f_moved, radius)
        if first is None:
            assert truncation_oracle(pg, w, moved, radius)["checks"] == checks
            continue
        with pytest.raises(AssertionError) as err:
            truncation_oracle(pg, w, moved, radius)
        assert str(err.value) == f"truncation mismatch on edge {first[0]} at cell {first[1]}"
        caught += 1
    assert caught >= 30, caught


def test_period_coefficients_eliminate_rank_many_cycles(monkeypatch):
    # Each component runs at most one rref, of its rank(L_k) chosen cycles
    # and d + 1 columns, and no solve over all of its cycles; the other
    # cycles are checked against the answer.
    cases = []
    rng = random.Random(4242)
    for _ in range(200):
        pg, w, _ = random_periodic_case(rng)
        cases.append((pg, w, reference_period_coefficients(pg, w)))
    shapes = []
    real_rref = linalg.rref

    def spy(m):
        shapes.append((m.rows, m.cols))
        return real_rref(m)

    def no_solve(*args):
        raise AssertionError("solve reached")

    monkeypatch.setattr(linalg, "rref", spy)
    for name in ("solve", "solve_many", "_solve_ints"):
        monkeypatch.setattr(linalg, name, no_solve)
    seen = Counter()
    for pg, w, reference in cases:
        shapes.clear()
        closed = is_invariant_closed(pg, w)
        assert closed == (None not in reference)
        expected = []
        for comp_cycles, lat, ref in zip(pg.cycles, pg.lattices, reference):
            voltages = [cv for _, cv in comp_cycles]
            assert list(lat.independent_cycles) == linalg.independent_rows(voltages)
            if lat.rank:
                expected.append((lat.rank, pg.d + 1))
            seen["cycles beyond rank"] += len(comp_cycles) > lat.rank
            if ref is None:
                break
        assert shapes == expected
        assert all(rows <= pg.d for rows, _ in shapes)
        if closed:
            # The coefficients of w_int = D * w are D times those of w.
            den_w, w_int = linalg._cleared(w.values)
            got = [
                [Fraction(x, den) for x in row]
                for row, den in periodic._period_coefficients(pg, w_int)
            ]
            assert got == [[den_w * x for x in a_k] for a_k in reference]
        seen["closed" if closed else "not closed"] += 1
    assert seen["cycles beyond rank"] >= 100 and seen["not closed"] >= 20, seen


def test_periodic_requests_pick_no_rows_outside_the_hnf(tmp_path, monkeypatch):
    # On the benchmark's seed-81 periodic requests, the HNF of each
    # component's cycle voltages names the cycles that the period
    # coefficients are solved on, so no request calls independent_rows.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    calls = Counter()

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for fn in (linalg.independent_rows, linalg.hermite_normal_form):
        wrapper = spy(fn.__name__, fn)
        for module in (linalg, periodic, graphs, cli):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    stream = workloads.generate("periodic", 81)
    for _ in range(24):
        req = workloads.materialize(next(stream), tmp_path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(req.argv)
        assert code == 0
        assert workloads.check("periodic", req, code, out.getvalue(), "") is None
    assert calls["hermite_normal_form"] >= 24
    assert calls["independent_rows"] == 0


def reference_realized_quotient_dim(pg):
    """The subspace construction: dim(exact + span of the d*m period forms)
    - dim(exact), with the exact forms as the column space of the
    coboundary."""
    g = pg.quotient
    comps = components(g)
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    exact = column_space(coboundary(g))
    gens = [
        tuple(
            Fraction(pg.voltages[e.id][j]) if comp_of[e.o] == k else Fraction(0)
            for e in g.edges
        )
        for j in range(pg.d)
        for k in range(len(comps))
    ]
    return subspace_sum(exact, Subspace(g.n_edges, gens)).dim - exact.dim


def random_quotient(rng):
    """Random voltage graph with loops, zero voltages, multi-edges, isolated
    vertices and often several components and rank-deficient lattices."""
    d = rng.randint(1, 3)
    n = rng.randint(1, 8)
    raw = []
    for i in range(rng.randint(0, 2 * n)):
        o, t = rng.randrange(n), rng.randrange(n)
        volt = [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(d)]
        raw.append((i, o, t, volt))
    g = Graph.make(n, [(i, o, t) for i, o, t, _ in raw])
    return PeriodicGraph.make(d, g, {i: v for i, _, _, v in raw})


def test_realized_dim_matches_subspace_reference():
    rng = random.Random(17)
    seen = set()
    for _ in range(300):
        pg = random_quotient(rng)
        assert realized_quotient_dim(pg) == reference_realized_quotient_dim(pg)
        g = pg.quotient
        comps = components(g)
        lats = period_lattices(pg)
        if len(comps) > 1:
            seen.add("components")
        if any(len(c) == 1 and not any(v in (e.o, e.t) for e in g.edges)
               for c in comps for v in c):
            seen.add("isolated")
        if any(e.o == e.t for e in g.edges):
            seen.add("loop")
        if any(not any(t) for t in pg.voltages.values()):
            seen.add("zero-voltage")
        if any(0 < lat.rank < pg.d for lat in lats):
            seen.add("rank-deficient")
        if any(lat.rank == pg.d and not lat.is_full() for lat in lats):
            seen.add("index>1")
    assert seen == {
        "components", "isolated", "loop", "zero-voltage", "rank-deficient",
        "index>1",
    }
    assert realized_quotient_dim(halfline_periodic()) == 1
    assert realized_quotient_dim(square_index2_periodic()) == 2


def test_realized_dim_equals_d_times_m():
    assert realized_quotient_dim(torus_periodic(1)) == 1
    assert realized_quotient_dim(torus_periodic(4)) == 4
    assert realized_quotient_dim(hex_periodic()) == 2
    # Two disjoint closed components: d*m = 2*2.
    g = Graph.make(
        2, [(0, 0, 0), (1, 0, 0), (2, 1, 1), (3, 1, 1)]
    )
    pg = PeriodicGraph.make(
        2, g, {0: (1, 0), 1: (0, 1), 2: (1, 0), 3: (0, 1)}
    )
    assert all(lat.is_full() for lat in pg.lattices)
    assert realized_quotient_dim(pg) == 4


def test_change_of_basis_contragredient():
    # Re-expressing every voltage as t' = B t, for unimodular B, transforms
    # the period coefficients by the contragredient B^-T.
    rng = random.Random(9)
    pg = hex_periodic()
    w = Cochain1.make([Fraction(1, 2), 2, -1])
    dec = decompose_periodic(pg, w)
    for _ in range(10):
        b, b_inv = random_unimodular(rng, 2)
        voltages = {
            eid: tuple(int(x) for x in b.mulvec(t)) for eid, t in pg.voltages.items()
        }
        dec2 = decompose_periodic(PeriodicGraph(pg.d, pg.quotient, voltages), w)
        assert dec2.f == dec.f
        for k in range(len(dec.a[0])):
            old = [dec.a[j][k] for j in range(2)]
            new = [dec2.a[j][k] for j in range(2)]
            assert b.transpose().mulvec(new) == tuple(old)
            assert b_inv.transpose().mulvec(old) == tuple(new)


def test_periodic_json_roundtrip():
    pg = hex_periodic()
    again = PeriodicGraph.from_json(pg.to_json())
    assert again.d == pg.d
    assert again.quotient == pg.quotient
    assert again.voltages == pg.voltages


def test_make_reads_voltage_entries_exactly_and_refuses_unknown_keys():
    g = Graph.make(1, [(0, 0, 0)])
    for bad in ((1.5,), (True,), (1.0,), (None,)):
        with pytest.raises(InputError) as err:
            PeriodicGraph.make(1, g, {0: bad})
        assert str(err.value).startswith("bad voltage of edge 0: not an integer")
    assert PeriodicGraph.make(1, g, {0: ["-2"]}).voltages == {0: (-2,)}
    with pytest.raises(InputError) as err:
        PeriodicGraph.make(1, g, {0: (1,), 10: (5,), 9: (5,)})
    assert str(err.value) == "voltage keys name no edge of the graph: 9, 10"


def test_parse_invariant_cochain_loop_rules():
    pg = torus_periodic(2)
    w = parse_invariant_cochain(pg, {"0": "5", "1": "-3"})
    assert w.values == (Fraction(5), Fraction(-3))
    g = Graph.make(1, [(0, 0, 0)])
    pg0 = PeriodicGraph.make(1, g, {0: (0,)})
    with pytest.raises(InputError):
        parse_invariant_cochain(pg0, {"0": "1"})


def test_reconstruct_reads_coefficients_exactly():
    pg = hex_periodic()
    f = Cochain0.make([0, 3])
    for bad in ([[0.5], [1]], [[1], [True]]):
        with pytest.raises(TypeError):
            reconstruct(pg, bad, f)
    for a in ([["1/2"], ["-3"]], [[Fraction(1, 2)], [Fraction(-3)]]):
        w = reconstruct(pg, a, f)
        assert w.values == (Fraction(3), Fraction(7, 2), Fraction(0))
        dec = decompose_periodic(pg, w)
        assert [list(row) for row in dec.a] == [[Fraction(1, 2)], [Fraction(-3)]]
        assert dec.f == f
