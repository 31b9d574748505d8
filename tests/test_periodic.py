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
from eqcohom.fixtures import hex_periodic, square_index2_periodic, torus_periodic
from eqcohom.graphs import Cochain0, Cochain1, Graph, coboundary, components
from eqcohom.linalg import Subspace, vec
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

from conftest import (
    counted_elimination,
    halfline_periodic,
    random_unimodular,
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
                [int(x) for x in u.ints[i]] for i in range(len(rows))
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
        w = Cochain1([rng.randint(-9, 9), rng.randint(-9, 9)])
        assert is_invariant_closed(pg, w)


def test_invariant_closed_zero_voltage_triangle():
    g = Graph.make(3, [(0, 0, 1), (1, 1, 2), (2, 2, 0)])
    pg = PeriodicGraph.make(1, g, {0: (0,), 1: (0,), 2: (0,)})
    assert not is_invariant_closed(pg, Cochain1([1, 1, 1]))
    assert is_invariant_closed(pg, Cochain1([1, 1, -2]))


def test_reconstruction_always_invariant_closed():
    rng = random.Random(4)
    for pg in (torus_periodic(2), torus_periodic(3), hex_periodic()):
        for _ in range(10):
            _, _, w = random_cochain_pair(rng, pg)
            assert is_invariant_closed(pg, w)


def test_decompose_torus():
    pg = torus_periodic(3)
    w = Cochain1([5, -3, Fraction(7, 2)])
    dec = decompose_periodic(pg, w)
    assert dec.a == ((Fraction(5),), (Fraction(-3),), (Fraction(7, 2),))
    assert dec.f.values == (Fraction(0),)


def test_decompose_exact_case():
    # w built purely from a potential: all coefficients vanish.
    pg = hex_periodic()
    f = Cochain0(vec([3, -2]))
    w = reconstruct(pg, [[0], [0]], f)
    dec = decompose_periodic(pg, w)
    assert all(x == 0 for row in dec.a for x in row)
    assert dec.f.values == (Fraction(0), Fraction(-5))  # f - f(root)


def test_decompose_hex_formula():
    pg = hex_periodic()
    w0, w1, w2 = Fraction(1, 3), Fraction(2), Fraction(-1, 2)
    dec = decompose_periodic(pg, Cochain1([w0, w1, w2]))
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
    # The round-trip check raises AssertionError itself, so it holds under
    # python -O too: periods one off on a non-tree edge leave a residual
    # that is not exact there, and the decomposition is refused.
    pg = hex_periodic()
    w = Cochain1([Fraction(1, 3), 2, Fraction(-1, 2)])
    tree = pg.quotient.forest.tree_positions
    off = min(pos for pos in range(pg.quotient.n_edges) if pos not in tree)
    reconstruct_ints = periodic._reconstruct_ints

    def one_off(pg, a_int, f_int):
        out = reconstruct_ints(pg, a_int, f_int)
        out[off] += 1
        return out

    monkeypatch.setattr(periodic, "_reconstruct_ints", one_off)
    with pytest.raises(AssertionError, match="round trip"):
        decompose_periodic(pg, w)


def test_decompose_refuses_non_closed_action():
    for pg in (square_index2_periodic(), halfline_periodic()):
        w = Cochain1([0] * pg.quotient.n_edges)
        with pytest.raises(PreconditionError) as err:
            decompose_periodic(pg, w)
        assert err.value.code == "action-not-closed"
        assert "rank" in err.value.detail


def test_decompose_refuses_non_closed_form():
    g = Graph.make(3, [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 0)])
    pg = PeriodicGraph.make(1, g, {0: (0,), 1: (0,), 2: (0,), 3: (1,)})
    assert all(lat.is_full() for lat in pg.lattices)
    with pytest.raises(PreconditionError) as err:
        decompose_periodic(pg, Cochain1([1, 1, 1, 0]))
    assert err.value.code == "not-closed"


def test_coefficients_independent_of_cycle_choice():
    # Two distinct loops with the same voltage: their w-values must agree
    # for a closed form, and the decomposition asserts it.
    g = Graph.make(1, [(0, 0, 0), (1, 0, 0)])
    pg = PeriodicGraph.make(1, g, {0: (1,), 1: (1,)})
    dec = decompose_periodic(pg, Cochain1([4, 4]))
    assert dec.a == ((Fraction(4),),)
    assert not is_invariant_closed(pg, Cochain1([4, 5]))


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
    w = reconstruct(pg, [[1, 2]], Cochain0(vec([0, 0])))
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
    w = Cochain1([3, 4, 5])
    assert not is_invariant_closed(pg, w)
    with pytest.raises(PreconditionError) as err:
        decompose_periodic(pg, w)
    assert err.value.code == "not-closed"
    assert "component 1" in err.value.detail
    assert is_invariant_closed(pg, Cochain1([3, 5, 5]))


def test_truncation_oracle_rejects_wrong_decomposition():
    pg = hex_periodic()
    w = Cochain1([Fraction(1, 2), 2, -1])
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
    w = Cochain1([5, -3])
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
    f = Cochain0(vec([0, Fraction(1, 5)]))
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
    w = Cochain1([5, -3])
    report = truncation_oracle(pg, w, decompose_periodic(pg, w), 3)
    assert report["ok"]
    # Per loop: 7 windows in the transverse direction, 6 interior steps.
    assert report["checks"] == 2 * 7 * 6


def test_truncation_oracle_hex():
    pg = hex_periodic()
    w = Cochain1([Fraction(1, 2), 2, -1])
    report = truncation_oracle(pg, w, decompose_periodic(pg, w), 2)
    assert report["ok"]


def test_truncation_oracle_residual_only():
    pg = hex_periodic()
    f = Cochain0(vec([0, 7]))
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
    w = reconstruct(pg, [[Fraction(1, 2)], [-2]], Cochain0(vec([0, 3])))
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
    w = Cochain1([5, 0])
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


def wide_voltage_quotient(rng, d, n_comps, radius):
    """A quotient with n_comps components on interleaved vertex ids whose
    voltages have mixed signs and entries |t_j| from 0 to side + 1, where
    side = 2 * radius + 1, so some boxes are empty and some, one cell thin
    along a low-stride coordinate, sparse in the index; the voltages are sign
    variants of a few magnitudes, so corner boxes are shared. Each component
    carries the d unit loops, so its period lattice is all of Z^d."""
    side = 2 * radius + 1
    magnitudes = [
        tuple(rng.choice([0, 0, 1, 1, 2, side - 1, side, side + 1]) for _ in range(d))
        for _ in range(3)
    ]
    sizes = [rng.randint(1, 4) for _ in range(n_comps)]
    order = list(range(sum(sizes)))
    rng.shuffle(order)
    parts = [order[sum(sizes[:k]) : sum(sizes[: k + 1])] for k in range(n_comps)]
    raw = []
    for part in parts:
        pairs = [(part[i], part[rng.randrange(i)]) for i in range(1, len(part))]
        pairs += [tuple(rng.choice(part) for _ in range(2)) for _ in range(rng.randint(1, 4))]
        for o, t in pairs:
            u = rng.choice(magnitudes)
            raw.append((o, t, tuple(x * rng.choice((-1, 1)) for x in u)))
        for j in range(d):
            v = rng.choice(part)
            raw.append((v, v, tuple(int(i == j) for i in range(d))))
    rng.shuffle(raw)
    g = Graph.make(len(order), [(i, o, t) for i, (o, t, _) in enumerate(raw)])
    return PeriodicGraph.make(d, g, {i: t for i, (_, _, t) in enumerate(raw)})


def box_cells(u, side):
    """Cells of the corner box of |t| = u in a window of side `side`: per
    coordinate j the first side - u_j cells."""
    return prod(max(0, side - x) for x in u)


def is_sparse(u, side):
    """Whether the box of |t| = u is nonempty and holds fewer than a quarter
    of the window's cells: a thin box, one cell thick along some coordinate
    or near it."""
    cells = box_cells(u, side)
    return cells and side ** len(u) > 4 * cells


def test_corner_box_oracle_matches_brute_force():
    # Every voltage's box is a translate of the corner box of |t|; the
    # oracle must count the brute-force window's checks and, on a wrong
    # a or f, name its first mismatch (edge in stored order, then cell in
    # lexicographic order).
    rng = random.Random(1729)
    seen = Counter()
    for trial in range(150):
        d, radius, n_comps = rng.randint(1, 3), rng.randint(0, 3), rng.randint(1, 3)
        pg = wide_voltage_quotient(rng, d, n_comps, radius)
        comps = components(pg.quotient)
        a = [[Fraction(rng.randint(-6, 6), rng.choice(DENS)) for _ in comps] for _ in range(d)]
        f = Cochain0(
            tuple(Fraction(rng.randint(-5, 5), rng.choice(DENS)) for _ in range(pg.quotient.n_vertices))
        )
        w = reference_reconstruct(pg, a, f)
        dec = decompose_periodic(pg, w)
        checks, first = lift_mismatches(pg, w, dec.a, dec.f.values, radius)
        assert first is None
        assert truncation_oracle(pg, w, dec, radius) == {"radius": radius, "checks": checks, "ok": True}
        side = 2 * radius + 1
        seen[d, radius] += 1
        seen[f"components={len(comps)}"] += 1
        seen["distinct a columns"] += len(set(zip(*dec.a))) > 1
        seen["empty box"] += any(max(map(abs, t), default=0) >= side for t in pg.voltages.values())
        seen["mixed signs"] += any(min(t) < 0 < max(t) for t in pg.voltages.values())
        seen["sparse box"] += any(
            is_sparse(tuple(map(abs, t)), side) for t in pg.voltages.values()
        )
        a_moved = [list(row) for row in dec.a]
        f_moved = list(dec.f.values)
        if trial % 2:
            f_moved[rng.randrange(len(f_moved))] += Fraction(1, rng.choice(DENS))
            which = "f"
        else:
            a_moved[rng.randrange(d)][rng.randrange(len(comps))] += Fraction(1, 3)
            which = "a"
        checks, first = lift_mismatches(pg, w, a_moved, f_moved, radius)
        moved = dec._replace(a=tuple(map(tuple, a_moved)), f=Cochain0(tuple(f_moved)))
        if first is None:
            assert truncation_oracle(pg, w, moved, radius)["checks"] == checks
            continue
        with pytest.raises(AssertionError) as err:
            truncation_oracle(pg, w, moved, radius)
        assert str(err.value) == f"truncation mismatch on edge {first[0]} at cell {first[1]}"
        seen[f"caught {which}"] += 1
    assert all(seen[d, r] for d in (1, 2, 3) for r in range(4)), seen
    for key in ("components=1", "components=2", "components=3", "distinct a columns",
                "empty box", "mixed signs", "sparse box", "caught a", "caught f"):
        assert seen[key] >= 10, (key, seen)


def test_sign_variants_match_brute_force():
    # t, -t and every sign variant of t have boxes of the same size at
    # different places in the window, so each names its own first cell.
    volts = [(1, -2), (-1, 2), (1, 2), (-1, -2), (2, 1), (0, 0), (5, 0), (-5, 1), (1, 0), (0, 1)]
    g = Graph.make(2, [(i, i % 2, (i // 2) % 2) for i in range(len(volts))])
    pg = PeriodicGraph.make(2, g, dict(enumerate(volts)))
    w = reconstruct(pg, [[Fraction(1, 2)], [-3]], Cochain0(vec([0, 4])))
    dec = decompose_periodic(pg, w)
    report = truncation_oracle(pg, w, dec, 2)
    assert report == {"radius": 2, "checks": 4 * 12 + 12 + 25 + 2 * 20, "ok": True}
    for radius in (1, 2, 4):
        checks, first = lift_mismatches(pg, w, dec.a, dec.f.values, radius)
        assert first is None
        assert truncation_oracle(pg, w, dec, radius)["checks"] == checks
        # Each sign variant of (1, 2) on its own, given a wrong value.
        for pos in range(4):
            values = list(w.values)
            values[pos] -= 1
            moved = Cochain1(values)
            first = lift_mismatches(pg, moved, dec.a, dec.f.values, radius)[1]
            with pytest.raises(AssertionError) as err:
                truncation_oracle(pg, moved, dec, radius)
            assert str(err.value) == f"truncation mismatch on edge {first[0]} at cell {first[1]}"
    # Over seeded quotients with empty, thin and full boxes.
    rng = random.Random(86)
    for _ in range(60):
        d, radius = rng.randint(1, 3), rng.randint(0, 2)
        pg = wide_voltage_quotient(rng, d, rng.randint(1, 2), radius)
        _, _, w = random_cochain_pair(rng, pg)
        dec = decompose_periodic(pg, w)
        checks, first = lift_mismatches(pg, w, dec.a, dec.f.values, radius)
        assert first is None
        assert truncation_oracle(pg, w, dec, radius) == {"radius": radius, "checks": checks, "ok": True}


def test_truncation_oracle_thin_boxes_at_radius_100():
    # A large |t_0| at a large radius makes a box of few cells that spans
    # almost the whole window; 400 such edges are counted cell by cell, and
    # a wrong f is still named at its first cell.
    radius, side = 100, 201
    volts = [(1, 0), (0, 1)] + [(200, 0), (-200, 3), (190, -2), (-199, -1)] * 100
    g = Graph.make(2, [(i, i % 2, (i // 3) % 2) for i in range(len(volts))])
    pg = PeriodicGraph.make(2, g, dict(enumerate(volts)))
    w = reconstruct(pg, [[Fraction(1, 2)], [-3]], Cochain0(vec([0, 4])))
    dec = decompose_periodic(pg, w)
    cells = sum(box_cells(tuple(map(abs, t)), side) for t in volts)
    assert side**2 * 2 + cells <= periodic.TRUNCATION_BUDGET
    assert truncation_oracle(pg, w, dec, radius) == {"radius": radius, "checks": cells, "ok": True}
    moved = dec._replace(f=Cochain0((dec.f.values[0] + 1, dec.f.values[1])))
    with pytest.raises(AssertionError) as err:
        truncation_oracle(pg, w, moved, radius)
    assert str(err.value) == "truncation mismatch on edge 1 at cell (-100, -100)"


def test_one_cell_boxes_at_radius_200():
    # 20,000 edges whose boxes are one cell of a window of 401^2 cells, next
    # to the unit loops' boxes, which fill most of it.
    radius, side = 200, 401
    signs = [(400, 400), (-400, 400), (400, -400), (-400, -400)]
    volts = [(1, 0), (0, 1)] + [signs[i % 4] for i in range(20000)]
    g = Graph.make(2, [(i, i % 2, (i // 3) % 2) for i in range(len(volts))])
    pg = PeriodicGraph.make(2, g, dict(enumerate(volts)))
    w = reconstruct(pg, [[Fraction(1, 2)], [-3]], Cochain0(vec([0, 4])))
    dec = decompose_periodic(pg, w)
    cells = 2 * 400 * side + 20000
    assert 2 * side**2 + cells <= periodic.TRUNCATION_BUDGET
    assert truncation_oracle(pg, w, dec, radius) == {"radius": radius, "checks": cells, "ok": True}
    # A wrong value on one edge of a one-cell box names that edge and cell.
    values = list(w.values)
    values[5] += 1  # voltage (-400, -400): its one cell is (200, 200)
    with pytest.raises(AssertionError) as err:
        truncation_oracle(pg, Cochain1(values), dec, radius)
    assert str(err.value) == "truncation mismatch on edge 5 at cell (200, 200)"


def test_truncation_oracle_ignores_values_on_empty_boxes():
    # An edge with some |t_j| > 2r has no cell of the window at both ends,
    # so no value of w on it is checked: the lift agrees, and so must the
    # oracle, with the same checks. Moving one more edge, with a nonempty
    # box, is named.
    rng = random.Random(34)
    seen = Counter()
    for _ in range(40):
        d, radius = rng.randint(1, 3), rng.randint(0, 2)
        pg = wide_voltage_quotient(rng, d, rng.randint(1, 2), radius)
        _, _, w = random_cochain_pair(rng, pg)
        dec = decompose_periodic(pg, w)
        volts = pg.edge_voltages
        empty = [pos for pos, t in enumerate(volts) if max(map(abs, t)) > 2 * radius]
        if not empty:
            continue
        values = list(w.values)
        for pos in empty:
            values[pos] += Fraction(rng.choice((-7, 1, 5)), rng.choice(DENS))
        moved = Cochain1(values)
        checks, first = lift_mismatches(pg, moved, dec.a, dec.f.values, radius)
        assert first is None
        assert truncation_oracle(pg, moved, dec, radius) == truncation_oracle(pg, w, dec, radius)
        assert truncation_oracle(pg, moved, dec, radius)["checks"] == checks
        seen["empty"] += 1
        live = [pos for pos in range(len(volts)) if pos not in empty]
        if not live:
            continue
        live = rng.choice(live)
        values[live] += 1
        moved = Cochain1(values)
        first = lift_mismatches(pg, moved, dec.a, dec.f.values, radius)[1]
        assert first[0] == pg.quotient.ids[live]
        with pytest.raises(AssertionError) as err:
            truncation_oracle(pg, moved, dec, radius)
        assert str(err.value) == f"truncation mismatch on edge {first[0]} at cell {first[1]}"
        seen["named"] += 1
    assert seen["empty"] >= 10 and seen["named"] >= 10, seen


def near_magnitude_case(rng, magnitude, loop):
    """A small quotient (d in {1, 2}, one or two components) with a
    decomposition whose a and f have numerators within 3 of +-magnitude
    over mixed denominators. Each vertex also carries a loop of voltage
    +-loop along the first coordinate, whose box at radius loop / 2 is one
    cell wide."""
    d, n_comps = rng.randint(1, 2), rng.randint(1, 2)
    pg = random_multi_component_quotient(rng, d, n_comps)
    g = pg.quotient
    extra = [(v, v, tuple(rng.choice((-loop, loop)) * (j == 0) for j in range(d))) for v in range(g.n_vertices)]
    raw = [(o, t, pg.voltages[i]) for i, o, t in zip(g.ids, g.origins, g.targets)] + extra
    g = Graph.make(g.n_vertices, [(i, o, t) for i, (o, t, _) in enumerate(raw)])
    pg = PeriodicGraph.make(d, g, {i: t for i, (_, _, t) in enumerate(raw)})

    def near_edge():
        return Fraction(rng.choice((-1, 1)) * (magnitude + rng.randint(-3, 3)), rng.choice(DENS))

    a = [[near_edge() for _ in range(n_comps)] for _ in range(d)]
    f = Cochain0(tuple(near_edge() for _ in range(g.n_vertices)))
    return pg, periodic.PeriodicDecomposition(tuple(map(tuple, a)), f, pg.lattices)


@pytest.mark.parametrize(
    "magnitude",
    [2**7, 2**8, 2**63, 2**64, 2**200, 2**219, 2**300],
    ids=lambda m: f"2^{m.bit_length() - 1}",
)
def test_truncation_oracle_exact_near_byte_boundaries(magnitude):
    # With values about 2^7, 2^8, 2^63, 2^64, 2^200, 2^219 and 2^300, the
    # oracle must agree with the brute-force lift on the decomposition and
    # on single edge mutations of w by +-1 and +-2^(8k) for every k up to a
    # byte past the values, which a fixed-width encoding of the values
    # would alias.
    rng = random.Random(magnitude.bit_length())
    deltas = [1, -1]
    deltas += [s * 2 ** (8 * k) for k in range(1, magnitude.bit_length() // 8 + 2) for s in (1, -1)]
    caught = 0
    for trial in range(6):
        pg, dec = near_magnitude_case(rng, magnitude, 2)
        w = reconstruct(pg, dec.a, dec.f)
        radius = trial % 2
        checks, first = lift_mismatches(pg, w, dec.a, dec.f.values, radius)
        assert first is None
        assert truncation_oracle(pg, w, dec, radius) == {"radius": radius, "checks": checks, "ok": True}
        # Edges with a nonempty box; at radius 1 these include the loops of
        # voltage +-2, whose boxes are one cell.
        live = [pos for pos, t in enumerate(pg.edge_voltages) if max(map(abs, t)) <= 2 * radius]
        for delta in deltas if live else ():
            values = list(w.values)
            pos = rng.choice(live)
            values[pos] += delta * Fraction(1, rng.choice(DENS))
            moved = Cochain1(values)
            checks, first = lift_mismatches(pg, moved, dec.a, dec.f.values, radius)
            assert first[0] == pg.quotient.ids[pos]
            with pytest.raises(AssertionError) as err:
                truncation_oracle(pg, moved, dec, radius)
            assert str(err.value) == f"truncation mismatch on edge {first[0]} at cell {first[1]}"
            caught += 1
    assert caught >= 3 * len(deltas), caught


def test_truncation_oracle_f_moves_near_byte_boundaries():
    # Values near byte boundaries at radius 2 (side 5), where the loops of
    # voltage +-4 have boxes of at most 5 of the window's cells: the oracle
    # must name the brute force's first mismatch when f moves at one vertex
    # by +-1 or +-2^(8k).
    rng = random.Random(8)
    caught = 0
    for magnitude in (2**7, 2**8, 2**63, 2**64):
        for trial in range(3):
            pg, dec = near_magnitude_case(rng, magnitude, 4)
            w = reconstruct(pg, dec.a, dec.f)
            checks, first = lift_mismatches(pg, w, dec.a, dec.f.values, 2)
            assert truncation_oracle(pg, w, dec, 2) == {"radius": 2, "checks": checks, "ok": True}
            for delta in (1, -1, 2**8, -(2**64), 2**72):
                f = list(dec.f.values)
                f[rng.randrange(len(f))] += delta
                moved = dec._replace(f=Cochain0(tuple(f)))
                checks, first = lift_mismatches(pg, w, dec.a, f, 2)
                if first is None:
                    assert truncation_oracle(pg, w, moved, 2)["checks"] == checks
                    continue
                with pytest.raises(AssertionError) as err:
                    truncation_oracle(pg, w, moved, 2)
                assert str(err.value) == f"truncation mismatch on edge {first[0]} at cell {first[1]}"
                caught += 1
    assert caught >= 30, caught


def test_truncation_oracle_wide_values_match_brute_force():
    # 3 vertices, 6 edges, d = 2, radius 30 (21,302 checks), with a and f
    # near 2^150, 2^200, 2^300 and 2^1000 over mixed denominators: the
    # oracle agrees with the brute-force lift on the decomposition, on one
    # edge's w moved by +-1 or by about the values, and on one vertex's f
    # moved by +-1/den.
    g = Graph.make(3, [(0, 0, 0), (1, 0, 0), (2, 0, 1), (3, 1, 2), (4, 2, 0), (5, 1, 1)])
    pg = PeriodicGraph.make(2, g, {0: (1, 0), 1: (0, 1), 2: (2, -1), 3: (0, 3), 4: (-1, 1), 5: (-5, 2)})
    rng = random.Random(85)
    radius = 30
    for magnitude in (2**150, 2**200, 2**300, 2**1000):

        def near():
            return Fraction(rng.choice((-1, 1)) * (magnitude + rng.randint(-3, 3)), rng.choice(DENS))

        a = ((near(),), (near(),))
        f = Cochain0((near(), near(), near()))
        dec = periodic.PeriodicDecomposition(a, f, pg.lattices)
        w = reconstruct(pg, a, f)
        checks, first = lift_mismatches(pg, w, a, f.values, radius)
        assert (checks, first) == (21302, None)
        assert truncation_oracle(pg, w, dec, radius) == {"radius": radius, "checks": checks, "ok": True}
        values = list(w.values)
        values[rng.randrange(6)] += rng.choice((1, -1, magnitude, -magnitude))
        f_moved = list(f.values)
        f_moved[rng.randrange(3)] += Fraction(rng.choice((1, -1)), rng.choice(DENS))
        for w_case, f_case in ((Cochain1(values), f.values), (w, tuple(f_moved))):
            first = lift_mismatches(pg, w_case, a, f_case, radius)[1]
            with pytest.raises(AssertionError) as err:
                truncation_oracle(pg, w_case, dec._replace(f=Cochain0(f_case)), radius)
            assert str(err.value) == f"truncation mismatch on edge {first[0]} at cell {first[1]}"


def test_truncation_oracle_refuses_misshaped_input():
    # A 3-vertex, 4-edge graph: each wrong shape of w, f or a is refused
    # with InputError, even where the window is over the budget, so shapes
    # are checked before any work; it is never checked on fewer edges or
    # cells, or an IndexError.
    g = Graph.make(3, [(0, 0, 0), (1, 0, 1), (2, 1, 2), (3, 2, 0)])
    pg = PeriodicGraph.make(2, g, {0: (1, 0), 1: (0, 1), 2: (0, 0), 3: (0, 0)})
    w = reconstruct(pg, [[1], [2]], Cochain0(vec([0, 3, -1])))
    dec = decompose_periodic(pg, w)
    assert truncation_oracle(pg, w, dec, 1) == {"radius": 1, "checks": 6 + 6 + 9 + 9, "ok": True}
    f = list(dec.f.values)
    a = [list(row) for row in dec.a]
    bad = {
        "w of 2 entries": (Cochain1(w.values[:2]), dec),
        "w of 5 entries": (Cochain1(w.values + (0,)), dec),
        "f longer than |V|": (w, dec._replace(f=Cochain0(tuple(f + [0])))),
        "short f": (w, dec._replace(f=Cochain0(tuple(f[:2])))),
        "a with an extra row": (w, dec._replace(a=tuple(map(tuple, a + [[0]])))),
        "a short of a row": (w, dec._replace(a=(tuple(a[0]),))),
        "a with no columns": (w, dec._replace(a=((), ()))),
        "a with an extra column": (w, dec._replace(a=tuple(tuple(row + [0]) for row in a))),
    }
    for name, (w_bad, dec_bad) in bad.items():
        for radius in (1, 10**4):
            with pytest.raises(InputError):
                truncation_oracle(pg, w_bad, dec_bad, radius)


def brute_force_classes(pg):
    """Each voltage, in order of first appearance, with the positions of the
    edges carrying it, in stored order."""
    classes = {}
    for pos, e in enumerate(pg.quotient.edges):
        t = pg.voltages[e.id]
        if t not in classes:
            classes[t] = [p for p, e2 in enumerate(pg.quotient.edges) if pg.voltages[e2.id] == t]
    return classes


def test_voltage_classes_group_edges_in_stored_order():
    rng = random.Random(404)
    shared = 0
    for _ in range(80):
        d = rng.randint(1, 3)
        pg = random_multi_component_quotient(rng, d, rng.randint(1, 3))
        # The same edges relabelled, so their stored (id) order changes.
        ids = list(range(pg.quotient.n_edges))
        rng.shuffle(ids)
        g = Graph.make(
            pg.quotient.n_vertices,
            [(ids[pos], e.o, e.t) for pos, e in enumerate(pg.quotient.edges)],
        )
        volts = {ids[pos]: list(pg.voltages[e.id]) for pos, e in enumerate(pg.quotient.edges)}
        made = PeriodicGraph.make(d, g, volts)
        again = PeriodicGraph.from_json(made.to_json())
        for each in (pg, made, again):
            classes = each.voltage_classes
            assert classes == brute_force_classes(each)
            assert list(classes) == list(brute_force_classes(each))
            assert each.edge_voltages == tuple(each.voltages[e.id] for e in each.quotient.edges)
        assert again.voltage_classes == made.voltage_classes
        shared += max(map(len, made.voltage_classes.values())) > 1
    assert shared >= 40, shared
    empty = PeriodicGraph.make(2, Graph.make(1, []), {})
    assert (empty.voltage_classes, empty.edge_voltages) == ({}, ())


def test_reconstruct_ints_match_the_per_edge_formula():
    # _reconstruct_ints reads the voltages by edge position; a voltage that
    # several components carry must still get each component's own period.
    rng = random.Random(515)
    spanning = 0
    for _ in range(80):
        d = rng.randint(1, 3)
        pg = random_multi_component_quotient(rng, d, rng.randint(1, 3))
        comp_of = pg.quotient.forest.comp_of
        m = len(pg.quotient.forest.comps)
        a = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(d)]
        f = [rng.randint(-9, 9) for _ in range(pg.quotient.n_vertices)]
        got = periodic._reconstruct_ints(pg, [list(col) for col in zip(*a)], f)
        assert got == list(reference_reconstruct(pg, a, Cochain0(vec(f))).values)
        spanning += any(
            len({comp_of[pg.quotient.edges[pos].o] for pos in positions}) > 1
            for positions in pg.voltage_classes.values()
        )
    assert spanning >= 30, spanning


def test_zero_voltage_loop_error_names_the_first_in_stored_order():
    # Loops 1 and 3 carry voltage 0; edge 2 also carries voltage 0 but is
    # not a loop, so it may carry a value.
    g = Graph.make(2, [(3, 1, 1), (2, 0, 1), (1, 0, 0), (0, 0, 0)])
    pg = PeriodicGraph.make(1, g, {0: (1,), 1: (0,), 2: (0,), 3: (0,)})
    assert pg.voltage_classes == {(1,): [0], (0,): [1, 2, 3]}
    with pytest.raises(InputError) as err:
        parse_invariant_cochain(pg, {"0": "7", "1": "1", "2": "5", "3": "2"})
    assert str(err.value) == "zero-voltage loop edge 1 must carry value 0"
    with pytest.raises(InputError) as err:
        parse_invariant_cochain(pg, {"0": "7", "1": "0", "2": "5", "3": "2"})
    assert str(err.value) == "zero-voltage loop edge 3 must carry value 0"
    assert parse_invariant_cochain(pg, {"0": "7", "1": "0", "2": "5", "3": "0"}).ints == (7, 0, 5, 0)
    # A cochain of the wrong length is refused before any loop is read.
    with pytest.raises(InputError) as err:
        parse_invariant_cochain(pg, ["1", "1"])
    assert str(err.value) == "1-cochain length does not match edge count"

def test_period_coefficients_eliminate_rank_many_cycles(monkeypatch):
    # Each component runs at most one forward pass, of its rank(L_k) chosen
    # cycles and d + 1 columns, and one back-substitution of those rows;
    # no rref and no solve over all of its cycles run. The other cycles
    # are checked against the answer.
    cases = []
    rng = random.Random(4242)
    for _ in range(200):
        pg, w, _ = random_periodic_case(rng)
        cases.append((pg, w, reference_period_coefficients(pg, w)))

    def no_solve(*args):
        raise AssertionError("solve reached")

    monkeypatch.setattr(linalg, "solve", no_solve)
    seen = Counter()
    for pg, w, reference in cases:
        with counted_elimination() as calls:
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
        assert calls == {
            "forward": expected,
            "back": [rows for rows, _ in expected],
            "rref": [],
        }
        assert all(rows <= pg.d for rows, _ in expected)
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
    exact = Subspace(g.n_edges, coboundary(g).transpose())
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
    w = Cochain1([Fraction(1, 2), 2, -1])
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
    f = Cochain0(vec([0, 3]))
    for bad in ([[0.5], [1]], [[1], [True]]):
        with pytest.raises(TypeError):
            reconstruct(pg, bad, f)
    for a in ([["1/2"], ["-3"]], [[Fraction(1, 2)], [Fraction(-3)]]):
        w = reconstruct(pg, a, f)
        assert w.values == (Fraction(3), Fraction(7, 2), Fraction(0))
        dec = decompose_periodic(pg, w)
        assert [list(row) for row in dec.a] == [[Fraction(1, 2)], [Fraction(-3)]]
        assert dec.f == f
