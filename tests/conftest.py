import json
import subprocess
import sys
from fractions import Fraction

import pytest

from eqcohom.errors import PreconditionError
from eqcohom.graphs import Cochain1, potential
from eqcohom.instance import gbar_map
from eqcohom.linalg import Mat, Subspace, rat, rref, solve, solve_many, vec


def run_cli(args, cwd=None):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    result = subprocess.run(
        [sys.executable, "-m", "eqcohom", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return result.returncode, result.stdout, result.stderr


def write_json(path, payload):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return str(path)


def subspace_sum(a, b):
    """a + b as the span of both canonical bases: the reference that the
    Grassmann identity and the periodic dimension oracle read."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace(a.ambient_dim, list(a.basis.data) + list(b.basis.data))


def kernel_reference(m):
    """ker m as one vector per free column f of rref(m), red.den at f and
    minus the RREF's integer column f at the pivots, canonicalized by
    Subspace: the two-rref construction that linalg.kernel_basis replaced,
    kept as its reference."""
    red, pivots = rref(m)
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


def fixed_W(inst):
    """W^G, the vectors of W fixed by every gW: the reference that the
    orbit forms and the fixture spaces are checked against."""
    if not inst.generators:
        return Subspace.full(inst.dim_W)
    return kernel_reference(Mat.vstack(inst.moves_W))


def find_ujk_reference(inst, kernel_basis_choice):
    """ujk[j][k] as find_ujk built them before the rref of [G | T] was kept
    on the instance: one solve_many of the stacked (g_i - id) map on the d*m
    slot targets (0, ..., u_k, ..., 0), or None when one is inconsistent.
    The vectors are taken to be a basis of ker pi."""
    basis = [vec(u) for u in kernel_basis_choice]
    n, d, m = inst.dim_U, inst.d, len(basis)
    blank = (Fraction(0),) * n
    targets = [
        blank * j + u_k + blank * (d - 1 - j) for j in range(d) for u_k in basis
    ]
    xs = solve_many(gbar_map(inst), targets)
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


def fraction_of(text: str) -> Fraction:
    """Parse a string with Fraction alone, "p/0" raising ValueError: the
    reference for linalg.rat on strings."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# A Fraction-only periodic decomposition, entry by entry: the reference for
# the integer path of eqcohom.periodic.


def reference_cycle_sums(pg, w):
    """w-sum along each fundamental cycle (per component), using the tree
    potential of w."""
    g = pg.quotient
    pw = g.forest.integrate(w.values, Fraction(0))
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


@pytest.fixture
def cli():
    return run_cli
