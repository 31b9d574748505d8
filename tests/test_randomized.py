"""The seeded generator and the per-instance invariants it relies on."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import eqcohom.instance
import eqcohom.linalg
import eqcohom.randomized
from eqcohom.errors import InputError
from eqcohom.fixtures import double_shear_instance
from eqcohom.instance import (
    LinearInstance,
    decompose,
    find_ujk,
    validate,
    verify_iff,
)
from eqcohom.linalg import Mat, independent_rows, rref
from eqcohom.randomized import (
    VerifyResult,
    _below,
    _conjugated,
    check_one_instance,
    random_graph_instance,
    random_linear_instance,
    run_verification,
)

from conftest import counted_elimination, random_unimodular, stacked_moves


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
    # Mat.is_invertible, decided by linalg.independent_rows, against the
    # rank from rref: every 2x2 matrix with entries in [-2, 2], then seeded
    # 3x3 to 6x6 ones, a share of them singular by construction (a product
    # through a narrower middle).
    def rref_rank(rows):
        return len(rref(Mat.from_ints(rows))[1])

    def nonsingular(rows):
        m = Mat.from_ints(rows)
        assert len(independent_rows(rows)) == m.rank() == rref_rank(rows)
        return m.is_invertible()

    singular = 0
    for a, b, c, d in itertools.product(range(-2, 3), repeat=4):
        rows = [[a, b], [c, d]]
        assert nonsingular(rows) == (rref_rank(rows) == 2)
        singular += not nonsingular(rows)
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
            answer = nonsingular(rows)
            assert rows == copy
            assert answer == (rref_rank(rows) == n)
            seen.add((n, answer))
    assert seen == {(n, answer) for n in range(3, 7) for answer in (True, False)}


def _dense_conjugated(rng, pi0, gens0):
    """_conjugated as it was with dense products: P, P^-1, Q and Q^-1 from
    random_unimodular, then Q pi0 P^-1, P g0 P^-1 and Q g0 Q^-1."""
    p, p_inv = random_unimodular(rng, pi0.cols)
    q, q_inv = random_unimodular(rng, pi0.rows)
    gens = tuple((p * gu0 * p_inv, q * gw0 * q_inv) for gu0, gw0 in gens0)
    return LinearInstance(pi0.cols, pi0.rows, q * pi0 * p_inv, gens, {})


def _block(rng, rows, cols, den):
    return Mat(
        [[Fraction(rng.randint(-3, 3), den) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def test_conjugation_by_operations_matches_dense_products(monkeypatch):
    # The same draws, conjugated op by op in one pass per side and by dense
    # products of the (P, P^-1) and (Q, Q^-1) that random_unimodular builds
    # from those ops, for every size 0..6 on each side and 0..3 generators;
    # the rng stream after each instance must agree too. The blocks of one
    # instance are over different denominators (1, 2 and 3, before lowest
    # terms), and each must come out over its own. With generators, pi0 is
    # zero, so that any blocks are equivariant; without, it is any matrix.
    rng = random.Random(5)
    seen_dens = set()
    for n in range(7):
        for k in range(7):
            for d in range(4):
                pi0 = Mat.zeros(k, n) if d else _block(rng, k, n, 2)
                gens0 = [
                    (_block(rng, n, n, 1 + i % 3), _block(rng, k, k, 1 + (i + 1) % 3))
                    for i in range(d)
                ]
                state = rng.getstate()
                inst = _conjugated(rng, pi0, gens0)
                after = rng.getstate()
                rng.setstate(state)
                p, p_inv = random_unimodular(rng, n)
                q, q_inv = random_unimodular(rng, k)
                assert rng.getstate() == after
                assert (inst.dim_U, inst.dim_W) == (n, k)
                assert inst.pi == q * pi0 * p_inv
                assert len(inst.generators) == d
                for (gu, gw), (gu0, gw0) in zip(inst.generators, gens0):
                    assert gu == p * gu0 * p_inv
                    assert gw == q * gw0 * q_inv
                    seen_dens.update([gu.den, gw.den])
                seen_dens.add(inst.pi.den)
    assert seen_dens == {1, 2, 3}
    for seed in range(1000):
        new = random.Random(seed)
        inst = random_linear_instance(new, max_dim=2 + seed % 5)
        old = random.Random(seed)
        monkeypatch.setattr(eqcohom.randomized, "_conjugated", _dense_conjugated)
        assert random_linear_instance(old, max_dim=2 + seed % 5) == inst
        monkeypatch.undo()
        assert old.getstate() == new.getstate()


def test_conjugated_checks_are_explicit(monkeypatch):
    # _conjugated's two checks raise AssertionError themselves, so they hold
    # under python -O too: inverse operations that do not undo, and a
    # conjugated pi off by one entry, are both refused.
    apply_ops = eqcohom.randomized._apply_ops

    def no_inverse(ops, rows, inverse=False):
        return list(rows) if inverse else apply_ops(ops, rows)

    def pi_off_by_one(ops, rows, inverse=False):
        # The first inverse pass is U's, on the rows of [P P^-1 ; pi ; gu_1
        # ...] transposed: row 0 holds column 0 of P P^-1, dim_U = len(rows)
        # entries, and then pi[0][0], over pi0's denominator 1.
        out = apply_ops(ops, rows, inverse)
        if inverse and not faulted:
            faulted.append(True)
            out[0][len(out)] += 1
        return out

    monkeypatch.setattr(eqcohom.randomized, "_apply_ops", no_inverse)
    with pytest.raises(AssertionError, match="the inverse operations do not undo"):
        random_linear_instance(random.Random(0))
    monkeypatch.setattr(eqcohom.randomized, "_apply_ops", pi_off_by_one)
    faulted = []
    with pytest.raises(AssertionError, match="generator 0: equivariance fails"):
        random_linear_instance(random.Random(0))
    assert faulted == [True]


def test_conjugated_runs_one_pass_per_side(monkeypatch):
    # Each side's operations run once over all of its matrices: four
    # _apply_ops calls per linear draw (rows of U's and W's stacks, then
    # their columns), whatever the number of generators, and none of them
    # on an identity of its own.
    apply_ops = eqcohom.randomized._apply_ops
    passes = []

    def counted(ops, rows, inverse=False):
        passes.append(inverse)
        return apply_ops(ops, rows, inverse)

    monkeypatch.setattr(eqcohom.randomized, "_apply_ops", counted)
    generators = set()
    for seed in range(300):
        passes.clear()
        inst = random_linear_instance(random.Random(seed), max_dim=2 + seed % 5)
        assert passes == [False, False, True, True], seed
        generators.add(len(inst.generators))
    assert generators == {1, 2, 3}


def test_fixed_spaces_and_kernel_built_once(monkeypatch):
    # verify_iff, find_ujk and decompose eliminate pi, [G | T] and
    # (gW - id) pi once each, with one Reduction of [G | T] behind rank G,
    # U^G, condition (ii) and the ujk; W^G is not eliminated. The
    # back-substitutions run only where a basis or a solution is read: ker
    # pi's in verify_iff, G's pivot rows for the ujk (U^G reads the same
    # rows), and the decomposition's two solves once per target rather
    # than once per choice of the ujk. U~'s basis is not read, since
    # verify_iff reads its dimension as a rank.
    inst = double_shear_instance()
    n, d = inst.dim_U, inst.d
    kb = [list(v) for v in inst.kernel.basis_vectors()]
    stacks = {
        "pi": inst.pi,
        "G": stacked_moves([gu for gu, _ in inst.generators], n),
        "(gW - id) pi": Mat.vstack(
            [(gw - Mat.identity(inst.dim_W)) * inst.pi for _, gw in inst.generators]
        ),
        "gW - id": stacked_moves([gw for _, gw in inst.generators], inst.dim_W),
        "K^T": Mat(kb).transpose(),
    }
    assert len(set(stacks.values())) == len(stacks)
    inst = double_shear_instance()  # afresh, so that ker pi is counted too
    built = Counter()
    reductions = []
    init = eqcohom.linalg.Reduction.__init__
    reduce_moves = eqcohom.instance._reduce_moves

    def counting(self, m, columns):
        names = [name for name, stack in stacks.items() if m == stack]
        built[(*names, len(columns))] += 1
        init(self, m, columns)

    def counting_reduction(inst):
        reductions.append(inst)
        return reduce_moves(inst)

    monkeypatch.setattr(eqcohom.linalg.Reduction, "__init__", counting)
    monkeypatch.setattr(eqcohom.instance, "_reduce_moves", counting_reduction)
    with counted_elimination() as calls:
        assert verify_iff(inst).iff_ok
        ujk = find_ujk(inst, kb)
        assert find_ujk(inst, kb) == ujk
        w = inst.pi.mulvec([2, -1, 3, 7])
        first = decompose(inst, w, ujk, kb)
        assert decompose(inst, w, ujk, kb) == first
        assert inst.fixed_U.dim == 2
    m, rank_pi = inst.m, inst.pi.rank()
    assert built == {
        ("pi", 0): 1,
        ("G", d * m): 1,
        ("(gW - id) pi", 0): 1,
        ("pi", 1): 2,
        ("K^T", d): 2,
    }
    assert reductions == [inst]
    rank_g = inst.moves_reduction.rank
    assert calls["back"] == [rank_pi, rank_g, rank_pi, m, rank_pi, m]
    assert calls["rref"] == []


def test_verify_runs_no_subspace_oracle(monkeypatch):
    # The quotient dimension comes from the rank identity: no oracle, no
    # subspace intersection, no column space and no nested quotient.
    def forbidden(*args, **kwargs):
        raise AssertionError("verify must not build the defining subspaces")

    for name in ("oracle_quotient_dim", "subspace_intersection", "quotient_dim"):
        for module in (eqcohom.instance, eqcohom.linalg, eqcohom.randomized):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    result = run_verification(7, 40)
    assert result.ok and result.checked == 40 and result.decompositions > 0


def test_verify_rref_budget_per_request(monkeypatch):
    # With one Reduction per kernel and per solve (no elimination for a
    # matrix with no rows), the quotient dimension read off ranks, one
    # Reduction of [G | T] per instance for rank G, condition (ii), U^G
    # and the ujk, the decomposition's two solves run once per target
    # rather than once per choice of the ujk, and one product for U~, a
    # `verify --count 10` request runs about 35 forward passes behind a
    # solve or a kernel, 25 rank tests (Mat.rank and the generator's
    # draws, each a forward pass), 15 back-substitutions, no rref and 40
    # matrix products (seeds 0-19; G K is dot products of rows, not a
    # product). The back-substitutions run only for ker pi and for
    # instances that decompose.
    products = []
    rank_tests = []
    mul = Mat.__mul__
    independent_rows = eqcohom.linalg.independent_rows

    def counted_mul(a, b):
        products.append(1)
        return mul(a, b)

    def counted_rank_test(rows):
        rank_tests.append(1)
        return independent_rows(rows)

    monkeypatch.setattr(Mat, "__mul__", counted_mul)
    for module in (eqcohom.linalg, eqcohom.randomized):
        monkeypatch.setattr(module, "independent_rows", counted_rank_test)
    seeds = range(20)
    with counted_elimination() as calls:
        for seed in seeds:
            assert run_verification(seed, 10).ok
    assert len(calls["forward"]) - len(rank_tests) <= 36 * len(seeds)
    assert len(rank_tests) <= 25 * len(seeds)
    assert len(calls["back"]) <= 16 * len(seeds)
    assert calls["rref"] == []
    assert len(products) <= 40 * len(seeds)


def test_verify_products_per_linear_instance(monkeypatch):
    # A linear instance of verify runs d equivariance pairs pi gU, gW pi in
    # _conjugated and the one product (gW - id) pi behind U~: at most
    # 2d + 1 products. G K is dot products of rows, with no product by K^T.
    # The loop is run_verification's, and its report is checked to be.
    products = []
    mul = Mat.__mul__

    def counted_mul(a, b):
        products.append(1)
        return mul(a, b)

    linear = 0
    for seed in range(20):
        rng = random.Random(seed)
        result = VerifyResult(seed, 10)
        monkeypatch.setattr(Mat, "__mul__", counted_mul)
        for i in range(10):
            products.clear()
            if rng.random() < 0.8:
                inst = random_linear_instance(rng)
                check_one_instance(inst, rng, result, i)
                assert len(products) <= 2 * inst.d + 1, (seed, i)
                linear += 1
            else:
                check_one_instance(random_graph_instance(rng), rng, result, i)
        monkeypatch.setattr(Mat, "__mul__", mul)
        assert result.to_json() == run_verification(seed, 10).to_json()
    assert linear >= 120


def test_below_is_randrange_from_the_same_stream():
    # _below runs the standard library's rejection loop on getrandbits, so
    # every draw of the generator, and the state it leaves, is what
    # randrange, randint and choice would give. Should a Python version
    # change that loop, this test names the cause; the golden digests
    # would only fail.
    pairs = [(-2, 2), (1, 6), (0, 2), (0, 0), (1, 3), (-3, 3), (3, 6), (2, 6), (0, 14)]
    seqs = [(-2, -1, 1, 2), (-1, 0, 0, 1, 2), (-1, 0, 0, 1), [(1, 1), (1, 2), (2, 1)]]
    for seed in range(10):
        ours, ref = random.Random(seed), random.Random(seed)
        bits = ours.getrandbits
        for _ in range(3):
            assert [_below(bits, n) for n in range(1, 71)] == [
                ref.randrange(n) for n in range(1, 71)
            ]
        for a, b in pairs:
            assert a + _below(bits, b - a + 1) == ref.randint(a, b)
        for seq in seqs:
            assert seq[_below(bits, len(seq))] == ref.choice(seq)
        assert ours.getstate() == ref.getstate()
    # An empty range is refused, as randrange refuses it, not drawn from
    # forever.
    for n in (0, -1):
        with pytest.raises(ValueError):
            _below(random.Random(0).getrandbits, n)


def test_smallest_max_dim_draws():
    # max_dim 2 is the least that verify accepts; it must draw and pass.
    result = run_verification(3, 60, max_dim=2)
    assert result.ok and result.checked == 60


def test_random_linear_instance_refuses_max_dim_below_2():
    # A designed equality instance needs dim_U >= 2: max_dim 0 and 1 are
    # refused as run_verification refuses them, before any draw, so the
    # generator's state is left as it was. max_dim 2 draws.
    for seed in range(50):
        for max_dim in (0, 1):
            rng = random.Random(seed)
            state = rng.getstate()
            with pytest.raises(InputError) as err:
                random_linear_instance(rng, max_dim)
            assert str(err.value) == f"max_dim must be >= 2, got {max_dim}"
            assert rng.getstate() == state
        rng = random.Random(seed)
        state = rng.getstate()
        assert random_linear_instance(rng, 2).dim_U <= 2
        assert rng.getstate() != state
