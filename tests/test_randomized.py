"""The seeded generator and the per-instance invariants it relies on."""

import random

import eqcohom.instance
import eqcohom.linalg
from eqcohom.fixtures import double_shear_instance
from eqcohom.instance import decompose, find_ujk, gbar_map, validate, verify_iff
from eqcohom.linalg import Mat
from eqcohom.randomized import (
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


def test_fixed_spaces_and_kernel_built_once(monkeypatch):
    # verify_iff and decompose build ker pi, U^G and U~ = pi^-1(W^G) once
    # each, and W^G not at all.
    inst = double_shear_instance()
    stacks = {
        "ker pi": inst.pi,
        "U^G": gbar_map(inst),
        "U~": Mat.vstack([move * inst.pi for move in inst.moves_W]),
        "W^G": Mat.vstack([gw - Mat.identity(inst.dim_W) for _, gw in inst.generators]),
    }
    assert len(set(stacks.values())) == len(stacks)
    built = {name: 0 for name in stacks}
    kernel_basis = eqcohom.instance.kernel_basis

    def counting(m):
        for name, stack in stacks.items():
            if m == stack:
                built[name] += 1
        return kernel_basis(m)

    monkeypatch.setattr(eqcohom.instance, "kernel_basis", counting)
    assert verify_iff(inst).iff_ok
    kb = [list(v) for v in inst.kernel.basis_vectors()]
    ujk = find_ujk(inst, kb)
    w = inst.pi.mulvec([2, -1, 3, 7])
    first = decompose(inst, w, ujk, kb)
    assert decompose(inst, w, ujk, kb) == first
    assert built == {"ker pi": 1, "U^G": 1, "U~": 1, "W^G": 0}


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
    # With one rref per kernel and the quotient dimension read off ranks, a
    # `verify --count 10` request runs about 77 rrefs (seeds 0-19).
    calls = []
    rref = eqcohom.linalg.rref

    def counted(m):
        calls.append(1)
        return rref(m)

    monkeypatch.setattr(eqcohom.linalg, "rref", counted)
    seeds = range(20)
    for seed in seeds:
        assert run_verification(seed, 10).ok
    assert len(calls) <= 80 * len(seeds)


def test_smallest_max_dim_draws():
    # max_dim 2 is the least that verify accepts; it must draw and pass.
    result = run_verification(3, 60, max_dim=2)
    assert result.ok and result.checked == 60
