import argparse
import contextlib
import functools
import json
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest

import eqcohom.linalg

from eqcohom.cli import cmd_analyze, cmd_fixtures, cmd_graph, cmd_periodic, cmd_verify
from eqcohom.errors import GRAPH_BUDGET, InputError, PreconditionError
from eqcohom.fixtures import FIXTURE_NAMES
from eqcohom.graphs import ActionOrbits, Cochain1, Edge, Graph, GraphAction, potential
from eqcohom.linalg import Mat, Subspace, _lowest, integer, json_list, rat, solve, vec
from eqcohom.periodic import PeriodicGraph
from eqcohom.randomized import _apply_ops, _elementary_ops


def run_cli(args, cwd=None):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    result = subprocess.run(
        [sys.executable, "-m", "eqcohom", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return result.returncode, result.stdout, result.stderr


# The argparse parser that `eqcohom.cli.parse_command_line` replaced, kept
# unchanged as the reference that `test_cli.py` checks the command table against.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process on first use and shared by
    every `main` call; parsing never mutates it, and callers must not."""
    parser = argparse.ArgumentParser(
        prog="eqcohom",
        description=(
            "Quotient dimensions, sharp conditions, and period decompositions "
            "for linear maps commuting with a group action."
        ),
    )
    parser.add_argument(
        "--text", action="store_true", help="plain key: value output instead of JSON"
    )
    parser.add_argument(
        "--json", dest="text", action="store_false", help="JSON output (default)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a linear instance file")
    p.add_argument("instance")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("graph", help="analyze a graph with a group action")
    p.add_argument("graph")
    p.add_argument("action")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("periodic", help="decompose an invariant closed 1-form")
    p.add_argument("pgraph")
    p.add_argument("cochain")
    p.add_argument("--radius", type=int, default=2)
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("verify", help="randomized property verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-dim", type=int, default=6)
    p.add_argument("--reproducer", default="eqcohom-reproducer.json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fixtures", help="write a canonical fixture to disk")
    p.add_argument("name", help=f"one of: {', '.join(FIXTURE_NAMES)}")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_fixtures)

    return parser


def write_json(path, payload):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return str(path)


def subspace_sum(a, b):
    """a + b as the span of both canonical bases: the reference that the
    Grassmann identity and the periodic dimension oracle read."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace(a.ambient_dim, list(a.basis.data) + list(b.basis.data))


def rref_reference(m):
    """Reduced row echelon form and pivot columns by column-by-column
    Gauss-Jordan: the routine that linalg.rref's forward pass and
    back-substitution replaced, kept as its reference.

    Fraction-free Gauss-Jordan on the integer rows of m (its denominator
    scales every row alike and does not move the RREF): a pivot row r
    eliminates column c from row i as p*row_i - f*row_r (p, f divided by
    their gcd), and every updated row is divided by the gcd of its entries.
    Each integer row stays a nonzero multiple of the row that Fraction
    elimination would hold, so the pivots are the same. Scaling each pivot
    row to the lcm of the pivots gives the unique RREF in integer form.
    """
    a = [list(row) for row in m.ints]
    n_rows, n_cols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = None
        for i in range(r, n_rows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        prow = a[r]
        p = prow[c]
        for i in range(n_rows):
            row = a[i]
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                pg, fg = p // g, f // g
                row = [pg * x - fg * y for x, y in zip(row, prow)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                a[i] = row
        pivots.append(c)
        r += 1
    den = lcm(*[a[i][c] for i, c in enumerate(pivots)])
    out = []
    for i, c in enumerate(pivots):
        k = den // a[i][c]
        out.append(tuple(a[i]) if k == 1 else tuple([k * x for x in a[i]]))
    out += [(0,) * n_cols] * (n_rows - r)
    return Mat._new(*_lowest(tuple(out), den), n_cols), pivots


@contextlib.contextmanager
def counted_elimination():
    """Inside the block, record every elimination that linalg runs: each
    forward pass (`_echelon`) as the (rows, columns) it reads, each
    back-substitution (`_back_substitute`) as the number of rows it
    reduces, and each `rref` as the shape of its matrix. Yields the dict
    of the three lists, keyed "forward", "back" and "rref"."""
    linalg = eqcohom.linalg
    calls = {"forward": [], "back": [], "rref": []}
    echelon, back, rref = linalg._echelon, linalg._back_substitute, linalg.rref

    def counted_echelon(rows):
        calls["forward"].append((len(rows), len(rows[0]) if rows else 0))
        return echelon(rows)

    def counted_back(kept):
        calls["back"].append(len(kept))
        return back(kept)

    def counted_rref(m):
        calls["rref"].append((m.rows, m.cols))
        return rref(m)

    linalg._echelon, linalg._back_substitute = counted_echelon, counted_back
    linalg.rref = counted_rref
    try:
        yield calls
    finally:
        linalg._echelon, linalg._back_substitute, linalg.rref = echelon, back, rref


def kernel_reference(m):
    """ker m as one vector per free column f of the RREF of m, red.den at f
    and minus the RREF's integer column f at the pivots, canonicalized anew
    by Subspace: a reference for linalg.kernel_basis that takes the
    reference Gauss-Jordan of m rather than a Reduction and trusts no form
    of the vectors it reads."""
    red, pivots = rref_reference(m)
    vectors = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [0] * m.cols
        v[f] = red.den
        for row, c in zip(red.ints, pivots):
            v[c] = -row[f]
        vectors.append(v)
    return Subspace(m.cols, Mat.from_ints(vectors, cols=m.cols))


def stacked_moves(gens, n):
    """The n-column stack of the blocks g - id, built by Mat subtraction:
    the reference for an instance's `moves_U` and `moves_W`. d = 0 gives
    a matrix with no rows."""
    return Mat.vstack([Mat.zeros(0, n), *[g - Mat.identity(n) for g in gens]])


def stacked_moves_by_blocks(gens, n):
    """The blocks g - id, one Mat each with g.den subtracted on the
    diagonal of g.ints, stacked by Mat.vstack behind a block with no rows:
    the former `instance._stacked_moves`, kept as the reference for the
    flat rows that replaced it."""
    blocks = [Mat.zeros(0, n)]
    for g in gens:
        if (g.rows, g.cols) != (n, n):
            raise ValueError("shape mismatch")
        den = g.den
        rows = [row[:i] + (row[i] - den,) + row[i + 1 :] for i, row in enumerate(g.ints)]
        blocks.append(Mat._new(tuple(rows), den, n))
    return Mat.vstack(blocks)


def kernel_moves_reference(inst):
    """G K by the general product with the transpose of the basis of
    ker pi: the former `LinearInstance.kernel_moves`, kept as the
    reference for its dot products."""
    moves = stacked_moves_by_blocks([gu for gu, _ in inst.generators], inst.dim_U)
    return moves * inst.kernel.basis.transpose()


def fixed_W(inst):
    """W^G, the vectors of W fixed by every gW: the reference that the
    orbit forms and the fixture spaces are checked against."""
    if not inst.generators:
        return Subspace.full(inst.dim_W)
    return kernel_reference(stacked_moves([gw for _, gw in inst.generators], inst.dim_W))


def random_unimodular(rng, n):
    """(P, P^-1) for a product P = E_2n ... E_1 of 2n random elementary
    integer row operations; det P = +-1.

    P is the operations applied to the rows of the identity, and P^-1 =
    E_1^-1 ... E_2n^-1 their inverses applied, as column operations, to
    the identity. randomized._conjugated applies the same operations, in
    one pass per side, to every matrix of an instance at once; these dense
    factors are its reference.
    """
    ops = _elementary_ops(rng, n)
    ident = Mat.identity(n).ints
    p = Mat.from_ints(_apply_ops(ops, ident), cols=n)
    p_inv = Mat.from_ints(_apply_ops(ops, ident, inverse=True), cols=n).transpose()
    return p, p_inv


def halfline_periodic():
    """One vertex, single loop of voltage (2,0) in rank 2: rank-deficient
    period lattice with infinitely many lift components."""
    g = Graph.make(1, [(0, 0, 0)])
    return PeriodicGraph.make(2, g, {0: (2, 0)})


def find_ujk_reference(inst, kernel_basis_choice):
    """ujk[j][k] as find_ujk built them before the rref of [G | T] was kept
    on the instance: one solve of the stacked (g_i - id) map per slot
    target (0, ..., u_k, ..., 0), or None when one is inconsistent.
    The vectors are taken to be a basis of ker pi."""
    basis = [vec(u) for u in kernel_basis_choice]
    n, d, m = inst.dim_U, inst.d, len(basis)
    blank = (Fraction(0),) * n
    targets = [
        blank * j + u_k + blank * (d - 1 - j) for j in range(d) for u_k in basis
    ]
    gbar = stacked_moves([gu for gu, _ in inst.generators], n)
    xs = [solve(gbar, t) for t in targets]
    if None in xs:
        return None
    return [xs[j * m : (j + 1) * m] for j in range(d)]


def hnf_reference(rows, cols):
    """Row-style HNF by Euclid's method on whole rows, column by column: the
    row of least nonzero |entry| is swapped up and the rows below reduced by
    it until the column is clear, then the pivot is made positive and the
    rows above reduced into [0, pivot). The routine that
    linalg.hermite_normal_form replaced, kept as its reference."""
    a = [list(map(int, r)) for r in rows]
    for r in a:
        if len(r) != cols:
            raise ValueError("row length mismatch")
    m = len(a)
    r = 0
    for c in range(cols):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            a[r], a[i0] = a[i0], a[r]
            done = True
            for i in range(r + 1, m):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
    return a[:r]


# Strings at the edge of what linalg.rat accepts: its integer fast path must
# accept and reject exactly what Fraction parsing does (which differs between
# Python versions, e.g. for "1_0").
RAT_STRINGS = (
    " 3", "+3", "--3", "1_0", "1.5", "1e2", "3/0", "-", "", "\u0663", "3\n",
    "-0", "007", "-12", "3/4", "0x10", "\u00b2", "9" * 5000,
)


# JSON entries at the edge of what linalg.rat reads: padded, signed,
# underscored and exponent strings, a non-ASCII digit, zero and leading
# zeros, fractions in and out of lowest terms, a zero denominator, strings
# that are no number, JSON numbers that are not exact integers, and a
# string one digit over int()'s default limit of 4,300.
READER_ENTRIES = (
    " 1", "+1", "1_0", "1e3", "\u0661", "-0", "007", "1/2", "2/4", "1/0", "",
    "abc", 1.5, True, None, "9" * 4301,
)


def fraction_of(text: str) -> Fraction:
    """Parse a string with Fraction alone, "p/0" raising ValueError: the
    reference for linalg.rat on strings."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def edge_map(graph, perm):
    """The signed edge map that ActionOrbits lifts one vertex permutation
    to, or None if the permutation is no automorphism."""
    orbits = ActionOrbits(graph, GraphAction((perm,)))
    return None if orbits.issues else orbits.edge_maps[0]


def lifts_compose(graph, g, h):
    """Whether lift(g o h) = lift(g) o lift(h) for automorphisms g and h:
    h's image position is sent on by g's map, and the signs multiply."""
    lift_g, lift_h = edge_map(graph, g), edge_map(graph, h)
    product = [(lift_g[dst][0], sign * lift_g[dst][1]) for dst, sign in lift_h]
    return edge_map(graph, tuple(g[v] for v in h)) == product


def half_edge_permutation(emap):
    """A signed edge map as a permutation of the half-edges 2*pos (the
    stored orientation) and 2*pos + 1 (the reversed one)."""
    return tuple(2 * dst + (b ^ (sign < 0)) for dst, sign in emap for b in (0, 1))


def signed_edge_orbits(n_edges, edge_maps):
    """The orbit forms spanning W^G: per signed edge orbit without a parity
    conflict, its (position, sign) list, the signs relative to the orbit's
    representative, ordered by smallest position.

    A signed union-find over the relations w[dst] = sign * w[src] of every
    edge map; `rel[x]` is w[x] / w[root[x]]. An orbit that relates an edge
    to its own negative forces every form on it to 0 and spans nothing.
    The routine the `graph` answer read before the averaging theorem made
    W^G unnecessary, kept as a reference for W^G.
    """
    root = list(range(n_edges))
    rel = [1] * n_edges
    conflict = [False] * n_edges

    def find(x):
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
    forms = {}
    for pos in range(n_edges):
        r, sign = find(pos)
        if not conflict[r]:
            forms.setdefault(r, []).append((pos, sign))
    return list(forms.values())


def cycle_sum_pi_U_G(orbits):
    """dim pi(U) ^ W^G of an automorphism action, as k - rank(C): W^G is
    spanned by the k orbit forms of `signed_edge_orbits`, which have
    disjoint supports, and a form lies in pi(U) iff its sum around every
    fundamental cycle of `Graph.forest` is 0 (a loop is a non-tree edge
    whose cycle is itself); C is the k x c matrix of those sums. The
    elimination the `graph` answer ran before the averaging theorem made it
    unnecessary, kept as a reference that shares no step with the
    theorem's dense oracle."""
    graph = orbits.graph
    forest = graph.forest
    cycles = [
        (pos, e) for pos, e in enumerate(graph.edges) if pos not in forest.tree_positions
    ]
    sums = []
    for form in signed_edge_orbits(graph.n_edges, orbits.edge_maps):
        labels = [0] * graph.n_edges
        for pos, sign in form:
            labels[pos] = sign
        p = forest.integrate(labels)
        sums.append([labels[pos] - p[e.t] + p[e.o] for pos, e in cycles])
    rank = Mat.from_ints(sums).rank() if sums and cycles else 0
    return len(sums) - rank


# A Fraction-only periodic decomposition, entry by entry: the reference for
# the integer path of eqcohom.periodic.


def reference_cycle_sums(pg, w):
    """w-sum along each fundamental cycle (per component), using the tree
    potential of w."""
    g = pg.quotient
    pw = g.forest.integrate(w.values)
    return [
        [w.values[pos] + pw[g.edges[pos].o] - pw[g.edges[pos].t] for pos, _ in comp]
        for comp in pg.cycles
    ]


def reference_period_coefficients(pg, w):
    """Per quotient component, the Fraction a_k with T_k a_k = sums_k, or
    None where that system is inconsistent."""
    out = []
    for comp_cycles, sums in zip(pg.cycles, reference_cycle_sums(pg, w)):
        t_k = Mat.from_ints([cv for _, cv in comp_cycles], cols=pg.d)
        a_k = solve(t_k, sums)
        if a_k is not None:
            assert t_k.mulvec(a_k) == tuple(sums)
        out.append(a_k)
    return out


def reference_reconstruct(pg, a, f):
    """w(e) = f(te) - f(oe) + sum_j a[j][k] t(e)_j, one Fraction at a time."""
    g = pg.quotient
    comp_of = g.forest.comp_of
    coeffs = [[rat(x) for x in row] for row in a]
    values = []
    for e in g.edges:
        k = comp_of[e.o]
        val = f.values[e.t] - f.values[e.o]
        for row, t_j in zip(coeffs, pg.voltages[e.id]):
            if t_j:
                val += row[k] * t_j
        values.append(val)
    return Cochain1(tuple(values))


def reference_decompose_periodic(pg, w):
    """(a, f values) of w, with a as d rows of one Fraction per component;
    raises PreconditionError("not-closed", ...) naming the first
    inconsistent component. Assumes every period lattice is full."""
    per_comp_a = []
    for k, a_k in enumerate(reference_period_coefficients(pg, w)):
        if a_k is None:
            raise PreconditionError(
                "not-closed", f"inconsistent cycle sums in component {k}"
            )
        per_comp_a.append(a_k)
    g = pg.quotient
    comp_of = g.forest.comp_of
    residual = []
    for pos, e in enumerate(g.edges):
        a_k = per_comp_a[comp_of[e.o]]
        periods = [a_j * t_j for a_j, t_j in zip(a_k, pg.voltages[e.id]) if t_j]
        residual.append(w.values[pos] - sum(periods, Fraction(0)))
    f = potential(g, Cochain1(tuple(residual)))
    assert f is not None, "residual 1-form must be exact on the quotient"
    a = tuple(tuple(a_k[j] for a_k in per_comp_a) for j in range(pg.d))
    assert reference_reconstruct(pg, a, f).values == w.values
    return a, f.values


# The graph loaders as they were when a Graph kept a tuple of Edge records
# and every entry was read with `integer`: the references for the endpoint
# arrays and the typed reads that replaced them. Each returns plain values
# (or raises what the loader raised).


def reference_graph_make(n_vertices, edges):
    """The former Graph.make: (n_vertices, the Edge records sorted by id)."""
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
    return n_vertices, es


def reference_graph_from_json(obj):
    """The former Graph.from_json, through reference_graph_make."""
    try:
        n = integer(obj["vertices"])
        edges = [
            (integer(e["id"]), integer(e["o"]), integer(e["t"]))
            for e in json_list(obj["edges"])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad graph JSON: {exc}") from exc
    return reference_graph_make(n, edges)


def reference_action_from_json(obj):
    """The former GraphAction.from_json: (generators, orders)."""
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
    return gens, orders


def reference_periodic_from_json(obj):
    """The former PeriodicGraph.from_json and _build: (d, n_vertices, the
    Edge records, voltages keyed by edge id in edge order)."""
    n_vertices, edges = reference_graph_from_json(obj)
    try:
        d = integer(obj["d"])
        given = obj["voltages"]
        if type(given) is not dict:
            raise TypeError('"voltages" is not a JSON object')
        ids = {str(e.id): e.id for e in edges}
        voltages = {
            ids.get(key, key): tuple([integer(x) for x in json_list(t)])
            for key, t in given.items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad periodic graph JSON: {exc}") from exc
    if d < 1:
        raise InputError("periodic rank d must be >= 1")
    size = n_vertices + len(edges) + d
    if size > GRAPH_BUDGET:
        raise PreconditionError(
            "budget",
            f"periodic graph has {size} vertices plus edges plus rank d, "
            f"over the budget of {GRAPH_BUDGET}",
        )
    volt = {}
    for e in edges:
        if e.id not in voltages:
            raise InputError(f"missing voltage for edge {e.id}")
        t = voltages[e.id]
        if len(t) != d:
            raise InputError(f"voltage of edge {e.id} has length != d")
        volt[e.id] = t
    if len(volt) != len(voltages):
        unknown = sorted(key for key in voltages if key not in volt)
        raise InputError(
            "voltage keys name no edge of the graph: " + ", ".join(map(str, unknown))
        )
    return d, n_vertices, edges, volt


@pytest.fixture
def cli():
    return run_cli
