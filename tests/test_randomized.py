"""The seeded generator and the per-instance invariants it relies on."""

import itertools
import random
from fractions import Fraction

import eqcohom.instance
import eqcohom.linalg
import eqcohom.randomized
from eqcohom.fixtures import double_shear_instance
from eqcohom.instance import (
    LinearInstance,
    decompose,
    find_ujk,
    gbar_map,
    validate,
    verify_iff,
)
from eqcohom.linalg import Mat
from eqcohom.randomized import (
    _conjugate,
    _elementary_ops,
    _nonsingular,
    random_linear_instance,
    random_unimodular,
    run_verification,
)


def test_random_linear_instances_pass_full_validation():
    # The generator asserts only P P^-1 = I, Q Q^-1 = I and equivariance;
    # invertibility of the conjugates is by construction. Full validate
    # checks all of it on many draws, over every max_dim the CLI accepts.
    rng = random.Random(2024)
    for i in range(2000):
        inst = random_linear_instance(rng, max_dim=2 + i % 5)
        report = validate(inst)
        assert report.ok, (i, report.issues)


def test_random_unimodular_inverse_pair():
    rng = random.Random(8)
    for n in range(9):
        for _ in range(5):
            p, p_inv = random_unimodular(rng, n)
            assert (p.rows, p.cols) == (p_inv.rows, p_inv.cols) == (n, n)
            assert p * p_inv == Mat.identity(n)
            assert p_inv * p == Mat.identity(n)
            assert all(x.denominator == 1 for row in p_inv.data for x in row)


def test_nonsingular_matches_rank():
    # Bareiss elimination against the rank from rref: every 2x2 matrix with
    # entries in [-2, 2], then seeded 3x3 to 6x6 ones, a share of them
    # singular by construction (a product through a narrower middle).
    singular = 0
    for a, b, c, d in itertools.product(range(-2, 3), repeat=4):
        rows = [[a, b], [c, d]]
        assert _nonsingular(rows) == Mat.from_ints(rows).is_invertible()
        singular += not _nonsingular(rows)
    assert singular == sum(
        1 for a, b, c, d in itertools.product(range(-2, 3), repeat=4) if a * d == b * c
    )
    rng = random.Random(17)
    seen = set()
    for n in range(3, 7):
        for i in range(150):
            if i % 3:
                rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            else:
                k = rng.randint(1, n - 1)
                left = Mat.from_ints([[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)])
                right = Mat.from_ints([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)])
                rows = [list(row) for row in (left * right).ints]
            copy = [row[:] for row in rows]
            answer = _nonsingular(rows)
            assert rows == copy
            assert answer == Mat.from_ints(rows).is_invertible()
            seen.add((n, answer))
    assert seen == {(n, answer) for n in range(3, 7) for answer in (True, False)}


def _dense_conjugated(rng, pi0, gens0):
    """_conjugated as it was with dense products: P, P^-1, Q and Q^-1 from
    random_unimodular, then Q pi0 P^-1, P g0 P^-1 and Q g0 Q^-1."""
    p, p_inv = random_unimodular(rng, pi0.cols)
    q, q_inv = random_unimodular(rng, pi0.rows)
    gens = tuple((p * gu0 * p_inv, q * gw0 * q_inv) for gu0, gw0 in gens0)
    return LinearInstance(pi0.cols, pi0.rows, q * pi0 * p_inv, gens, {})


def test_conjugation_by_operations_matches_dense_products(monkeypatch):
    # The same draws, conjugated op by op and by dense products of the
    # (P, P^-1) that random_unimodular builds from those ops; the rng
    # stream after each instance must agree too.
    rng = random.Random(5)
    for n in range(7):
        for _ in range(20):
            state = rng.getstate()
            ops = _elementary_ops(rng, n)
            after = rng.getstate()
            rng.setstate(state)
            p, p_inv = random_unimodular(rng, n)
            assert rng.getstate() == after
            g0 = Mat.from_ints([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], cols=n)
            assert _conjugate(ops, ops, g0) == p * g0 * p_inv
            assert _conjugate(ops, ops, Mat.identity(n)) == Mat.identity(n)
            half = Mat([[Fraction(x, 2) for x in row] for row in g0.ints], cols=n)
            assert _conjugate(ops, ops, half) == p * half * p_inv
    for seed in range(1000):
        new = random.Random(seed)
        inst = random_linear_instance(new, max_dim=2 + seed % 5)
        old = random.Random(seed)
        monkeypatch.setattr(eqcohom.randomized, "_conjugated", _dense_conjugated)
        assert random_linear_instance(old, max_dim=2 + seed % 5) == inst
        monkeypatch.undo()
        assert old.getstate() == new.getstate()


def test_fixed_spaces_and_kernel_built_once(monkeypatch):
    # verify_iff, find_ujk and decompose build ker pi and U~ = pi^-1(W^G)
    # once each, and the rref of [G | T] behind U^G, condition (ii) and the
    # ujk once; U^G takes no kernel_basis of its own, and W^G is not built.
    inst = double_shear_instance()
    stacks = {
        "ker pi": inst.pi,
        "U^G": gbar_map(inst),
        "U~": Mat.vstack([move * inst.pi for move in inst.moves_W]),
        "W^G": Mat.vstack([gw - Mat.identity(inst.dim_W) for _, gw in inst.generators]),
    }
    assert len(set(stacks.values())) == len(stacks)
    built = {name: 0 for name in stacks}
    reductions = []
    kernel_basis = eqcohom.instance.kernel_basis
    reduce_moves = eqcohom.instance._reduce_moves

    def counting(m):
        for name, stack in stacks.items():
            if m == stack:
                built[name] += 1
        return kernel_basis(m)

    def counting_reduction(inst, basis):
        reductions.append(basis)
        return reduce_moves(inst, basis)

    monkeypatch.setattr(eqcohom.instance, "kernel_basis", counting)
    monkeypatch.setattr(eqcohom.instance, "_reduce_moves", counting_reduction)
    assert verify_iff(inst).iff_ok
    kb = [list(v) for v in inst.kernel.basis_vectors()]
    ujk = find_ujk(inst, kb)
    assert find_ujk(inst, kb) == ujk
    w = inst.pi.mulvec([2, -1, 3, 7])
    first = decompose(inst, w, ujk, kb)
    assert decompose(inst, w, ujk, kb) == first
    assert inst.fixed_U.dim == 2
    assert built == {"ker pi": 1, "U^G": 0, "U~": 1, "W^G": 0}
    assert reductions == [inst.kernel.basis]


def test_verify_runs_no_subspace_oracle(monkeypatch):
    # The quotient dimension comes from the rank identity: no oracle, no
    # subspace intersection, no column space and no nested quotient.
    def forbidden(*args, **kwargs):
        raise AssertionError("verify must not build the defining subspaces")

    for name in (
        "oracle_quotient_dim", "subspace_intersection", "column_space", "quotient_dim",
    ):
        for module in (eqcohom.instance, eqcohom.linalg, eqcohom.randomized):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    result = run_verification(7, 40)
    assert result.ok and result.checked == 40 and result.decompositions > 0


def test_verify_rref_budget_per_request(monkeypatch):
    # With one rref per kernel, the quotient dimension read off ranks, one
    # rref of [G | T] per instance for U^G, condition (ii) and the ujk, and
    # no rref in the generator, a `verify --count 10` request runs about 55
    # rrefs (seeds 0-19).
    calls = []
    rref = eqcohom.linalg.rref

    def counted(m):
        calls.append(1)
        return rref(m)

    monkeypatch.setattr(eqcohom.linalg, "rref", counted)
    seeds = range(20)
    for seed in seeds:
        assert run_verification(seed, 10).ok
    assert len(calls) <= 60 * len(seeds)


def test_smallest_max_dim_draws():
    # max_dim 2 is the least that verify accepts; it must draw and pass.
    result = run_verification(3, 60, max_dim=2)
    assert result.ok and result.checked == 60
