import random
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import pytest

import eqcohom.linalg
import eqcohom.randomized
from eqcohom.errors import InputError, PreconditionError
from eqcohom.fixtures import (
    c4_graph,
    c4_rotation,
    double_shear_instance,
    identity_instance,
    k3_graph,
    k3_s3_action,
    p2_graph,
    p2_swap,
    shear_instance,
    two_triangles_graph,
    two_triangles_swap,
)
from eqcohom.graphs import to_instance
from eqcohom.instance import (
    Decomposer,
    LinearInstance,
    _apply,
    _order_bound,
    _power,
    check_condition_i,
    check_condition_ii,
    check_lemma_commutation,
    check_torsion_trivial,
    decompose,
    find_ujk,
    oracle_quotient_dim,
    slot_solutions,
    u_tilde,
    validate,
    verify_iff,
)
from eqcohom.linalg import Mat, Subspace, kernel_basis, rat, vec
from eqcohom.randomized import (
    VerifyResult,
    _block_instance,
    _designed_equality_instance,
    check_one_instance,
    random_graph_instance,
    random_linear_instance,
)

from conftest import (
    READER_ENTRIES,
    counted_elimination,
    find_ujk_reference,
    fixed_W,
    kernel_moves_reference,
    stacked_moves,
    stacked_moves_by_blocks,
)


def kernel_vectors(inst):
    return [list(v) for v in kernel_basis(inst.pi).basis_vectors()]


def test_validate_identity_action():
    assert validate(identity_instance()).ok


def test_validate_shear():
    assert validate(shear_instance()).ok


def test_validate_flags_equivariance_failure():
    bad = LinearInstance(
        2,
        1,
        Mat([[1, 0]]),
        ((Mat([[0, 1], [1, 0]]), Mat([[1]])),),  # pi*gU = [0 1] != [1 0]
        {},
    )
    report = validate(bad)
    assert not report.ok
    assert any("generator 0" in issue and "equivariance" in issue for issue in report.issues)


def test_validate_flags_bad_order():
    inst = LinearInstance(
        2, 1, Mat([[1, 0]]), ((Mat([[1, 0], [1, 1]]), Mat([[1]])),), {0: 2}
    )
    report = validate(inst)
    assert not report.ok
    assert any("gU^2" in issue for issue in report.issues)


def test_validate_flags_order_of_missing_generator():
    inst = LinearInstance(1, 1, Mat([[1]]), ((Mat([[1]]), Mat([[1]])),), {5: 3})
    report = validate(inst)
    assert not report.ok
    assert any("generator 5" in issue for issue in report.issues)


def test_power_matches_repeated_multiplication():
    rng = random.Random(31)
    mats = [Mat([[0, -1], [1, 0]]), Mat([[1, 0], [Fraction(1, 3), 1]])]
    mats += [random_linear_instance(rng).generators[0][0] for _ in range(4)]
    for g in mats:
        assert _power(g, 0) == Mat.identity(g.rows)
        acc = g
        for n in range(1, 10):
            assert _power(g, n) == acc
            acc = acc * g


def test_validate_huge_declared_order():
    rot = Mat([[0, -1], [1, 0]])
    ok = LinearInstance(2, 2, Mat.identity(2), ((rot, rot),), {0: 10**8})
    assert validate(ok).ok
    bad = LinearInstance(2, 2, Mat.identity(2), ((rot, rot),), {0: 10**8 + 2})
    assert validate(bad).issues == (
        f"generator 0: gU^{10**8 + 2} != identity",
        f"generator 0: gW^{10**8 + 2} != identity",
    )


def test_order_bound_is_the_lcm_of_the_orders_phi_allows():
    # phi(k) >= sqrt(k / 2), so phi(k) <= n needs k <= 2 n^2: the brute
    # lcm over k <= 2 n^2 + 2 is M_n.
    def phi(k):
        return sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)

    for n in range(13):
        allowed = [k for k in range(1, 2 * n * n + 3) if phi(k) <= n]
        assert _order_bound(n) == lcm(*allowed), n


def test_power_at_the_gcd_with_the_order_bound_decides_the_order():
    # g^N = id iff g^gcd(N, M_n) = id: on finite orders (permutations, -I,
    # integer matrices of order 3, 4, 6 and 12), on infinite ones (shears,
    # [[2]]), on a singular block and on the 0 x 0 matrix.
    def perm_matrix(p):
        n = len(p)
        return Mat.from_ints([[1 if p[j] == i else 0 for j in range(n)] for i in range(n)])

    order3, order4, order6 = [[0, -1], [1, -1]], [[0, -1], [1, 0]], [[1, -1], [1, 0]]
    order12 = [r + [0, 0] for r in order3] + [[0, 0] + r for r in order4]
    bounded = [
        perm_matrix((1, 2, 0)),
        perm_matrix((1, 0, 3, 2, 4)),
        perm_matrix((1, 2, 3, 0)),
        Mat([[-1, 0], [0, -1]]),
        Mat(order3),
        Mat(order4),
        Mat(order6),
        Mat(order12),
        Mat([[1, 1], [0, 1]]),
        Mat([[1, Fraction(1, 2), 0], [0, 1, 0], [0, 0, -1]]),
        Mat([[1, 0], [0, 0]]),
        Mat.zeros(0, 0),
    ]
    large = [2**k for k in (10, 20, 40, 64)]
    for g in [*bounded, Mat([[2]])]:
        bound = _order_bound(g.rows)
        exponents = list(range(1, 301))
        if g in bounded:
            exponents += large
        ident = Mat.identity(g.rows)
        for n in exponents:
            assert (_power(g, n) == ident) == (_power(g, gcd(n, bound)) == ident), (g, n)
    assert _power(Mat(order12), 12) == Mat.identity(4) != _power(Mat(order12), 6)


def test_validate_infinite_order_answers_at_once():
    # [[2]] has infinite order: however large the declared order, validate
    # powers it to gcd(N, M_1) = gcd(N, 2) <= 2 and reports both blocks.
    two = Mat([[2]])
    for n in (2**30, 10**12, 2**64 + 1):
        inst = LinearInstance(1, 1, Mat([[1]]), ((two, two),), {0: n})
        assert validate(inst).issues == (
            f"generator 0: gU^{n} != identity",
            f"generator 0: gW^{n} != identity",
        )


def test_invariant_subspace_identity_action():
    inst = identity_instance()
    assert inst.fixed_U == Subspace.full(2)
    assert fixed_W(inst) == Subspace.full(1)


def test_invariant_subspace_swap():
    swap = Mat([[0, 1], [1, 0]])
    inst = LinearInstance(2, 2, Mat.identity(2), ((swap, swap),), {0: 2})
    assert inst.fixed_U == Subspace(2, [[1, 1]])
    assert fixed_W(inst) == Subspace(2, [[1, 1]])


def test_invariant_vectors_fixed_by_generators():
    rng = random.Random(17)
    for _ in range(20):
        inst = random_linear_instance(rng)
        for v in inst.fixed_U.basis_vectors():
            for gu, _ in inst.generators:
                assert gu.mulvec(v) == v


def test_oracle_shear():
    res = oracle_quotient_dim(shear_instance())
    assert res.dim == 1  # m = d = 1


def test_oracle_identity_action():
    assert oracle_quotient_dim(identity_instance()).dim == 0


def test_oracle_c4_rotation():
    inst = to_instance(c4_graph(), c4_rotation())
    assert oracle_quotient_dim(inst).dim == 0


def _rank_identity_instances():
    """Seeded draws from both of verify's generators, the fixtures, and the
    edge cases d = 0, m = 0, dim_W = 0 and dim_U = 0."""
    swap = Mat([[0, 1], [1, 0]])
    shear = Mat([[1, 1], [0, 1]])
    out = [
        shear_instance(),
        double_shear_instance(),
        identity_instance(),
        to_instance(c4_graph(), c4_rotation()),
        to_instance(p2_graph(), p2_swap()),
        to_instance(k3_graph(), k3_s3_action()),
        to_instance(two_triangles_graph(), two_triangles_swap()),
        # d = 0, with m = 1 and with m = 0.
        LinearInstance(2, 1, Mat([[1, 0]]), (), {}),
        LinearInstance(2, 2, Mat.identity(2), (), {}),
        # m = 0: pi injective.
        LinearInstance(2, 2, Mat.identity(2), ((swap, swap),), {0: 2}),
        LinearInstance(
            2, 3, Mat([[1, 0], [0, 1], [1, 1]]),
            ((swap, Mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])),), {},
        ),
        # dim_W = 0: ker pi is all of U.
        LinearInstance(2, 0, Mat.zeros(0, 2), ((shear, Mat.zeros(0, 0)),), {}),
        LinearInstance(2, 0, Mat.zeros(0, 2), ((swap, Mat.zeros(0, 0)),) * 2, {}),
        # dim_U = 0, and both zero.
        LinearInstance(0, 2, Mat.zeros(2, 0), ((Mat.zeros(0, 0), swap),), {}),
        LinearInstance(0, 0, Mat.zeros(0, 0), ((Mat.zeros(0, 0),) * 2,), {}),
    ]
    rng = random.Random(1009)
    for i in range(1000):
        out.append(random_linear_instance(rng, max_dim=2 + i % 5))
    for _ in range(250):
        out.append(random_graph_instance(rng))
    return out


def test_rank_identity_matches_oracle():
    # dim = dim U~ - dim U^G - rank(G K), term by term against the subspace
    # oracle; condition (i) read off G K against containment.
    kinds = set()
    for inst in _rank_identity_instances():
        assert validate(inst).ok
        oracle = oracle_quotient_dim(inst)
        m, rank_gk = inst.m, inst.kernel_moves.rank()
        assert verify_iff(inst).dim == oracle.dim
        assert u_tilde(inst).dim - m == oracle.pi_U_G.dim
        assert inst.fixed_U.dim - m + rank_gk == oracle.pi_of_UG.dim
        ci = check_condition_i(inst)
        assert ci == inst.kernel.is_subspace_of(inst.fixed_U)
        kinds.add((oracle.dim > 0, ci, rank_gk > 0))
    # Positive dimensions, both answers of (i), and rank(G K) of either sign.
    assert kinds >= {(True, True, False), (False, True, False), (False, False, True)}


def test_rank_reading_matches_the_basis_formula():
    # verify_iff reads dim = rank G - rank((gW - id) pi) - rank(G K) and
    # check_condition_ii reads rank [G | T] = rank G; both against the
    # basis formula dim U~ - dim U^G - rank(G K) and every slot target
    # consistent, on 2,000 seeded draws of each linear family and of the
    # graph family. The harness, run on each draw with ker pi already
    # built, builds no RREF for an instance that does not decompose: no
    # rref and no back-substitution.
    rng = random.Random(8128)
    # (dim == m*d, decomposes) as each family draws them: only the block
    # family has m*d = 0, and only the graph family never decomposes.
    expected_kinds = {
        "block": {(True, True), (True, False), (False, False)},
        "designed": {(True, True)},
        "graph": {(False, False)},
    }
    families = {
        "block": lambda i: _block_instance(rng, 2 + i % 5),
        "designed": lambda i: _designed_equality_instance(rng, 2 + i % 5),
        "graph": lambda i: random_graph_instance(rng),
    }
    result = VerifyResult(seed=0, count=0)
    for name, draw in families.items():
        kinds = set()
        for i in range(2000):
            inst = draw(i)
            m, d = inst.m, inst.d  # ker pi, built before the count
            with counted_elimination() as calls:
                check_one_instance(inst, rng, result, i)
            iff = verify_iff(inst)
            decomposes = iff.condition_i and iff.condition_ii and m > 0
            if not decomposes:
                assert calls == {"forward": calls["forward"], "back": [], "rref": []}
            basis_dim = (
                inst.fixed_preimage.dim - inst.fixed_U.dim - inst.kernel_moves.rank()
            )
            assert iff.dim == basis_dim
            reduction = inst.moves_reduction
            every_target = all(reduction.consistent(t) for t in range(d * m))
            assert iff.condition_ii == check_condition_ii(inst) == every_target
            kinds.add((iff.dim == m * d, decomposes))
        assert kinds == expected_kinds[name], (name, kinds)
    assert result.ok and result.checked == 6000


def test_condition_i_injective():
    inst = LinearInstance(
        2, 2, Mat.identity(2), ((Mat([[0, 1], [1, 0]]), Mat([[0, 1], [1, 0]])),), {}
    )
    assert check_condition_i(inst)


def test_conditions_shear():
    inst = shear_instance()
    assert check_condition_i(inst)
    assert check_condition_ii(inst)


def test_condition_i_swap_graph():
    # Constants are invariant under any vertex permutation.
    assert check_condition_i(to_instance(p2_graph(), p2_swap()))


def test_condition_ii_false_for_finite_order_actions():
    # Declared finite order + condition (i) + m >= 1 forces (ii) to fail.
    for inst in (
        to_instance(c4_graph(), c4_rotation()),
        to_instance(p2_graph(), p2_swap()),
    ):
        assert check_condition_i(inst)
        assert kernel_basis(inst.pi).dim >= 1
        assert not check_condition_ii(inst)


def test_condition_ii_zero_kernel():
    inst = LinearInstance(
        2, 2, Mat.identity(2), ((Mat([[0, 1], [1, 0]]), Mat([[0, 1], [1, 0]])),), {}
    )
    assert check_condition_ii(inst)


def test_verify_iff_fixtures():
    rep = verify_iff(shear_instance())
    assert (rep.dim, rep.m * rep.d) == (1, 1)
    assert rep.condition_i and rep.condition_ii and rep.iff_ok

    rep = verify_iff(to_instance(p2_graph(), p2_swap()))
    assert rep.dim == 0 and rep.m * rep.d == 1
    assert not rep.condition_ii
    assert rep.iff_ok


def test_verify_iff_randomized():
    rng = random.Random(99)
    for _ in range(100):
        inst = random_linear_instance(rng)
        rep = verify_iff(inst)
        assert rep.bound_ok, inst.to_json()
        assert rep.iff_ok, inst.to_json()


def test_find_ujk_shear():
    inst = shear_instance()
    ujk = find_ujk(inst, [[0, 1]])
    assert ujk == [[(Fraction(1), Fraction(0))]]


def test_find_ujk_identity_action_absent():
    assert find_ujk(identity_instance(), [[0, 1]]) is None


def test_find_ujk_double_shear():
    inst = double_shear_instance()
    kb = kernel_vectors(inst)
    assert len(kb) == 1
    ujk = find_ujk(inst, kb)
    assert ujk is not None
    ident = Mat.identity(4)
    for i, (gu, _) in enumerate(inst.generators):
        for j in range(2):
            moved = (gu - ident).mulvec(ujk[j][0])
            expect = tuple(vec(kb[0])) if i == j else (Fraction(0),) * 4
            assert moved == expect


def test_find_ujk_rejects_non_basis():
    with pytest.raises(PreconditionError):
        find_ujk(shear_instance(), [[1, 0]])


def test_find_ujk_and_condition_ii_run_one_rref():
    # All d*m slot targets share one elimination of [G | T], kept on the
    # instance beside ker pi. The first check_condition_ii runs its forward
    # pass and reads (ii) off its two ranks, with no back-substitution; a
    # repeat call runs nothing, and find_ujk on the canonical basis runs
    # only the one back-substitution of G's pivot rows, and that only when
    # (ii) holds. Another basis costs one rref, the check that it spans
    # ker pi: its u_jk are read from the canonical ones by a change of
    # basis. No rref runs for the canonical basis.
    rng = random.Random(41)
    instances = [double_shear_instance()]
    while len(instances) < 12:
        inst = random_linear_instance(rng)
        if inst.d * inst.m >= 2:
            instances.append(inst)
    answers = set()
    for inst in instances:
        basis = inst.kernel.basis_vectors()
        n, d, m = inst.dim_U, inst.d, inst.m
        with counted_elimination() as calls:
            holds = check_condition_ii(inst)
            assert calls == {"forward": [(d * n, n + d * m)], "back": [], "rref": []}
            calls["forward"].clear()
            assert check_condition_ii(inst) == holds
            assert (find_ujk(inst, basis) is not None) == holds
            rank = inst.moves_reduction.rank
            assert calls == {"forward": [], "back": [rank] if holds else [], "rref": []}
            calls["back"].clear()
            scaled = [[2 * x for x in u] for u in basis]
            assert (find_ujk(inst, scaled) is not None) == holds
            assert calls == {"forward": [(m, n)], "back": [m], "rref": [(m, n)]}
        answers.add(holds)
    assert answers == {True, False}


def test_fixed_space_runs_no_rref_past_the_moves_reduction(monkeypatch):
    # U^G is the kernel of G read off the kept Reduction of [G | T], in
    # canonical form as read: once that Reduction is built, fixed_U runs
    # no rref, and it equals the span of its own basis canonicalized anew.
    rng = random.Random(2024)
    original = eqcohom.linalg.rref

    def forbidden(m):
        raise AssertionError("fixed_U ran an rref")

    dims = set()
    for _ in range(200):
        inst = random_linear_instance(rng)
        assert inst.moves_reduction.rank <= inst.dim_U
        monkeypatch.setattr(eqcohom.linalg, "rref", forbidden)
        fixed = inst.fixed_U
        monkeypatch.setattr(eqcohom.linalg, "rref", original)
        assert fixed == Subspace(inst.dim_U, fixed.basis.data)
        dims.add((fixed.dim == 0, fixed.dim == inst.dim_U))
    assert dims >= {(True, False), (False, False)}


def _rescaled(inst, rng):
    """inst conjugated by diagonal rational D_U on U and D_W on W, so that
    pi, the generators and the kernel basis get denominators other than 1."""
    scales = (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(-3))

    def diag(n):
        s = [rng.choice(scales) for _ in range(n)]
        return (
            Mat([[s[i] if i == j else 0 for j in range(n)] for i in range(n)], cols=n),
            Mat([[1 / s[i] if i == j else 0 for j in range(n)] for i in range(n)], cols=n),
        )

    du, du_inv = diag(inst.dim_U)
    dw, dw_inv = diag(inst.dim_W)
    return LinearInstance(
        inst.dim_U,
        inst.dim_W,
        dw * inst.pi * du_inv,
        tuple((du * gu * du_inv, dw * gw * dw_inv) for gu, gw in inst.generators),
        dict(inst.orders),
    )


def test_moves_reduction_matches_separate_eliminations():
    # U^G, condition (ii) and the ujk read off the one kept rref of [G | T]
    # against kernel_basis(G) and one solve per slot target, on canonical,
    # scaled and mixed kernel bases; the stacked blocks g - id against
    # Mat subtraction, with denominators other than 1 among them.
    rng = random.Random(2718)
    instances = _rank_identity_instances()
    instances += [_rescaled(inst, rng) for inst in instances[:400]]
    kinds = set()
    for inst in instances:
        assert validate(inst).ok
        assert inst.moves_U == stacked_moves([gu for gu, _ in inst.generators], inst.dim_U)
        assert inst.moves_W == stacked_moves([gw for _, gw in inst.generators], inst.dim_W)
        assert inst.fixed_U == kernel_basis(inst.moves_U)
        canonical = [list(v) for v in inst.kernel.basis_vectors()]
        expected = find_ujk_reference(inst, canonical)
        assert find_ujk(inst, canonical) == expected
        assert check_condition_ii(inst) == (expected is not None)
        bases = [[[Fraction(-2, 3) * x for x in u] for u in canonical]]
        if len(canonical) >= 2:
            bases.append([[x + 2 * y for x, y in zip(*canonical[:2])], *canonical[1:]])
        for basis in bases:
            assert find_ujk(inst, basis) == find_ujk_reference(inst, basis)
        den = max([gu.den for gu, _ in inst.generators] + [inst.kernel.basis.den])
        kinds.add((inst.d == 0, inst.m == 0, inst.dim_U == 0, den > 1, expected is not None))
    assert {k[:4] for k in kinds} >= {
        (True, False, False, False),
        (False, True, False, False),
        (False, True, True, False),
        (False, False, False, True),
        (False, False, False, False),
    }
    assert {k[4] for k in kinds if not any(k[:3])} == {True, False}


def test_decompose_shear():
    inst = shear_instance()
    kb = [[0, 1]]
    ujk = find_ujk(inst, kb)
    dec = decompose(inst, [1], ujk, kb)
    assert dec.coefficients == ((Fraction(1),),)
    assert dec.invariant_part == (Fraction(0), Fraction(0))
    assert inst.pi.mulvec(dec.preimage) == (Fraction(1),)


def test_decompose_invariant_preimage_case():
    inst = double_shear_instance()
    kb = kernel_vectors(inst)
    ujk = find_ujk(inst, kb)
    # w = pi(v) with v already fixed by both generators.
    v = (Fraction(0), Fraction(5), Fraction(0), Fraction(0))
    w = inst.pi.mulvec(v)
    dec = decompose(inst, w, ujk, kb)
    assert all(a == 0 for row in dec.coefficients for a in row)
    assert inst.pi.mulvec(dec.invariant_part) == w


def test_decompose_error_codes():
    # pi embeds Q^1 in Q^2; generator negates the complement coordinate.
    inst = LinearInstance(
        1,
        2,
        Mat([[1], [0]]),
        ((Mat([[1]]), Mat([[1, 0], [0, -1]])),),
        {0: 2},
    )
    assert validate(inst).ok
    kb = []
    ujk = find_ujk(inst, kb)
    assert ujk is not None
    with pytest.raises(PreconditionError) as err:
        decompose(inst, [0, 1], ujk, kb)
    assert err.value.code == "not-in-image"

    # Swap action on Q^2 with pi = identity: (1, 0) is in the image but
    # not invariant.
    swap = Mat([[0, 1], [1, 0]])
    inst2 = LinearInstance(2, 2, Mat.identity(2), ((swap, swap),), {0: 2})
    ujk2 = find_ujk(inst2, [])
    with pytest.raises(PreconditionError) as err:
        decompose(inst2, [1, 0], ujk2, [])
    assert err.value.code == "not-invariant"


def test_decompose_refuses_a_corrupt_ujk():
    # A u_jk that is not a slot solution leaves an invariant part that the
    # generator moves. The check is an explicit raise, so it holds under
    # python -O too.
    inst = shear_instance()
    kb = [[0, 1]]
    ((u,),) = find_ujk(inst, kb)
    corrupt = [[tuple(x + 1 for x in u)]]
    with pytest.raises(AssertionError, match="invariant part not fixed"):
        decompose(inst, [1], corrupt, kb)


def test_decompose_matches_the_integer_core():
    # On seeded instances with the canonical basis of ker pi, the public
    # decompose (Fractions in and out) gives the coefficients, invariant
    # part and preimage of the Decomposer that verify runs on integers,
    # for the slot solutions and for them shifted by a fixed vector.
    rng = random.Random(31)
    seen = shifted_seen = 0
    for i in range(400):
        inst = random_linear_instance(rng, max_dim=2 + i % 5)
        ujk_ints = slot_solutions(inst)
        if inst.m == 0 or not check_condition_i(inst) or ujk_ints is None:
            continue
        ut = inst.fixed_preimage.basis
        coeffs = [rng.randint(-3, 3) for _ in range(ut.rows)]
        u = [sum(c * row[k] for c, row in zip(coeffs, ut.ints)) for k in range(ut.cols)]
        den_w, w_ints = inst.pi.den * ut.den, _apply(inst.pi, u)
        w = [Fraction(x, den_w) for x in w_ints]
        core = Decomposer(inst, den_w, w_ints, inst.kernel.basis)
        kb = [list(v) for v in inst.kernel.basis_vectors()]
        choices = [(ujk_ints, find_ujk(inst, kb))]
        fixed = inst.fixed_U.basis
        if fixed.rows:
            f = fixed.ints[0]
            choices.append(
                (
                    [[(den * fixed.den, [fixed.den * x + den * y for x, y in zip(v, f)])
                      for den, v in row] for row in ujk_ints],
                    [[tuple(x + Fraction(y, fixed.den) for x, y in zip(v, f)) for v in row]
                     for row in find_ujk(inst, kb)],
                )
            )
            shifted_seen += 1
        for ints, fracs in choices:
            den, u_inv, preimage = core.assemble(ints)
            dec = decompose(inst, w, fracs, kb)
            assert dec.coefficients == tuple(
                tuple(Fraction(x, den_a) for x in a) for den_a, a in core.coefficients
            )
            assert dec.invariant_part == tuple(Fraction(x, den) for x in u_inv)
            assert dec.preimage == tuple(Fraction(x, den) for x in preimage)
            assert dec.target == tuple(w)
        seen += 1
    assert seen >= 60 and shifted_seen >= 30


def test_decompose_coefficients_invariant_under_ujk_shift():
    rng = random.Random(23)
    inst = double_shear_instance()
    kb = kernel_vectors(inst)
    ujk = find_ujk(inst, kb)
    w = inst.pi.mulvec([2, -1, 3, 7])
    dec = decompose(inst, w, ujk, kb)
    fixed = inst.fixed_U
    for _ in range(10):
        shifted = []
        for j in range(inst.d):
            row = []
            for k in range(len(kb)):
                shift = [Fraction(0)] * inst.dim_U
                for bv in fixed.basis_vectors():
                    c = rng.randint(-3, 3)
                    shift = [x + c * y for x, y in zip(shift, bv)]
                row.append(tuple(x + y for x, y in zip(ujk[j][k], shift)))
            shifted.append(row)
        dec2 = decompose(inst, w, shifted, kb)
        assert dec2.coefficients == dec.coefficients


def test_decompose_basis_covariance():
    # Scaling the kernel basis vector by c scales its coefficient column
    # by 1/c while the preimage stays in the same fixed-vector coset.
    inst = shear_instance()
    kb = [[0, 1]]
    ujk = find_ujk(inst, kb)
    dec = decompose(inst, [3], ujk, kb)
    c = Fraction(5, 2)
    kb_scaled = [[0, c]]
    ujk_scaled = find_ujk(inst, kb_scaled)
    dec_scaled = decompose(inst, [3], ujk_scaled, kb_scaled)
    assert dec_scaled.coefficients[0][0] == dec.coefficients[0][0] / c
    diff = tuple(a - b for a, b in zip(dec.preimage, dec_scaled.preimage))
    assert Subspace(inst.dim_U, [diff]).is_subspace_of(inst.fixed_U)


def test_moves_U_blocks():
    inst = double_shear_instance()
    moves = inst.moves_U
    assert (moves.rows, moves.cols) == (4 * inst.d, 4)
    ident = Mat.identity(4)
    for i, (gu, _) in enumerate(inst.generators):
        assert moves.data[4 * i : 4 * (i + 1)] == (gu - ident).data
    # No generator: a stack with no rows, whose kernel is all of U.
    bare = LinearInstance(inst.dim_U, inst.dim_W, inst.pi, ())
    assert (bare.moves_U.rows, bare.moves_U.cols) == (0, 4)
    assert bare.fixed_U == Subspace.full(4)


def _rational_mat(rng, rows, cols):
    """Entries p/q with q in 1..4, so that matrices differ in denominator."""
    entries = [
        [(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)
    ]
    return Mat([[Fraction(p, q) for p, q in row] for row in entries], cols=cols)


def _moves_cases():
    rng = random.Random(31)
    for _ in range(60):
        n, w, d = rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 3)
        # pi factors through Q^2, so ker pi is often not zero.
        pi = _rational_mat(rng, w, 2) * _rational_mat(rng, 2, n)
        gens = tuple(
            [(_rational_mat(rng, n, n), _rational_mat(rng, w, w)) for _ in range(d)]
        )
        yield LinearInstance(n, w, pi, gens)
    # d = 0, with ker pi all of U.
    yield LinearInstance(3, 2, Mat.zeros(2, 3), ())
    yield LinearInstance(2, 0, Mat.zeros(0, 2), ())
    # m = 0: pi is injective.
    gu = Mat([["1/3", 1], [0, 2]])
    gw = Mat([[1, 0, 0], [0, "1/2", 0], [0, 0, 1]])
    yield LinearInstance(2, 3, Mat([[1, 0], [0, "1/2"], [1, 1]]), ((gu, gw), (gu, gw)))
    graphs = random.Random(5)
    for _ in range(40):
        yield random_graph_instance(graphs)


def test_moves_and_kernel_moves_match_the_block_references():
    # moves_U and moves_W are flat integer rows over the lcm of the
    # generators' denominators, and G K dot products of rows: each equals
    # its former construction and is in lowest terms.
    def lowest(m):
        return gcd(m.den, *chain.from_iterable(m.ints)) == 1

    seen = set()
    for inst in _moves_cases():
        for side, n in ((0, inst.dim_U), (1, inst.dim_W)):
            gens = [pair[side] for pair in inst.generators]
            moves = inst.moves_W if side else inst.moves_U
            assert moves == stacked_moves_by_blocks(gens, n) == stacked_moves(gens, n)
            assert (moves.rows, moves.cols) == (inst.d * n, n) and lowest(moves)
            if len({g.den for g in gens}) > 1:
                seen.add("mixed denominators")
        gk = inst.kernel_moves
        assert gk == kernel_moves_reference(inst)
        assert (gk.rows, gk.cols) == (inst.d * inst.dim_U, inst.m) and lowest(gk)
        if inst.d == 0:
            seen.add("d = 0")
            assert inst.m == inst.dim_U
        elif inst.m == 0:
            seen.add("m = 0")
        elif gk.den > 1:
            seen.add("G K not integer")
    assert seen == {"mixed denominators", "d = 0", "m = 0", "G K not integer"}


def test_lemma_commutation_abelian():
    assert check_lemma_commutation(double_shear_instance())


def test_lemma_commutation_k3():
    inst = to_instance(k3_graph(), k3_s3_action())
    # The transpositions do not commute on all of U...
    g0, g1 = inst.generators[0][0], inst.generators[1][0]
    assert g0 * g1 != g1 * g0
    # ...but they do on the preimage of the fixed 1-forms.
    assert check_lemma_commutation(inst)


def test_lemma_commutation_refuses_without_condition_i():
    inst = to_instance(two_triangles_graph(), two_triangles_swap())
    assert not check_condition_i(inst)
    with pytest.raises(PreconditionError) as err:
        check_lemma_commutation(inst)
    assert err.value.code == "condition-i"


def test_torsion_trivial_on_graph_fixtures():
    for graph, action in (
        (c4_graph(), c4_rotation()),
        (p2_graph(), p2_swap()),
    ):
        inst = to_instance(graph, action)
        rep = check_torsion_trivial(inst)
        assert not rep.vacuous
        assert rep.all_fixed is True
        # The declared torsion generators fix the preimage space pointwise.
        ut = u_tilde(inst)
        for i in rep.checked:
            for v in ut.basis_vectors():
                assert inst.generators[i][0].mulvec(v) == v


def test_torsion_vacuous_for_shear():
    rep = check_torsion_trivial(shear_instance())
    assert rep.vacuous
    assert rep.all_fixed is None


def test_json_roundtrip():
    inst = double_shear_instance()
    again = LinearInstance.from_json(inst.to_json())
    assert again.pi == inst.pi
    assert again.generators == inst.generators
    assert again.orders == inst.orders


@pytest.mark.parametrize("dim_u, dim_w", [(2, 0), (0, 2), (0, 0)])
def test_json_roundtrip_empty_dimension(dim_u, dim_w):
    def swap(n):
        return Mat([[1 if i == 1 - j else 0 for j in range(n)] for i in range(n)])

    inst = LinearInstance(
        dim_u,
        dim_w,
        Mat.zeros(dim_w, dim_u),
        ((swap(dim_u), swap(dim_w)),),
        {0: 2},
    )
    assert validate(inst).ok
    again = LinearInstance.from_json(inst.to_json())
    assert again == inst
    assert validate(again).ok


@pytest.mark.parametrize("entry", READER_ENTRIES, ids=lambda e: ascii(e)[:12])
def test_instance_reader_matches_rat(entry):
    # Matrix entries are read through linalg._cleared; each must give what
    # reading it with rat gives: the same value, or the same InputError
    # text, and in a row the first bad entry is the one refused.
    def instance(pi):
        return {"dim_U": len(pi[0]), "dim_W": 1, "pi": pi, "generators": []}

    try:
        expected = rat(entry)
    except (TypeError, ValueError) as exc:
        for pi in ([[entry]], [[entry, "abc"]]):
            with pytest.raises(InputError) as err:
                LinearInstance.from_json(instance(pi))
            assert str(err.value) == f"bad instance JSON: {exc}"
    else:
        pi = LinearInstance.from_json(instance([[entry]])).pi
        assert pi.data == ((expected,),)
        assert (pi.den, pi.ints) == (expected.denominator, ((expected.numerator,),))
        with pytest.raises(ValueError) as bad:
            rat("abc")
        with pytest.raises(InputError) as err:
            LinearInstance.from_json(instance([[entry, "abc"]]))
        assert str(err.value) == f"bad instance JSON: {bad.value}"


def test_instance_reader_builds_no_fraction_for_integers(monkeypatch):
    # Ints and -?[0-9]+ strings are read straight to ints: rat, the one
    # maker of Fractions on the way in, is never reached for them.
    def refuse(value):
        raise AssertionError(f"rat reached for {value!r}")

    monkeypatch.setattr(eqcohom.linalg, "rat", refuse)
    obj = {
        "dim_U": 2,
        "dim_W": 1,
        "pi": [["1", "-0"]],
        "generators": [{"gU": [["1", 0], ["007", "-1"]], "gW": [[-1]], "order": 2}],
    }
    inst = LinearInstance.from_json(obj)
    assert (inst.pi.den, inst.pi.ints) == (1, ((1, 0),))
    gu, gw = inst.generators[0]
    assert (gu.den, gu.ints) == (1, ((1, 0), (7, -1)))
    assert (gw.den, gw.ints) == (1, ((-1,),))


def test_dense_budget_boundary():
    # (d+1) * (dim_U + dim_W)^2 dense cells: 10^6 is admitted, above refused,
    # before any matrix is read (the generator entries here are not even
    # square).
    def payload(dim_u, dim_w, d):
        return {
            "dim_U": dim_u,
            "dim_W": dim_w,
            "pi": [],
            "generators": [{"gU": [], "gW": []}] * d,
        }

    for dim_u, dim_w, d in [(1000, 0, 0), (300, 200, 3), (0, 500, 3)]:
        assert LinearInstance.from_json(payload(dim_u, dim_w, d)).d == d
    for dim_u, dim_w, d in [(1001, 0, 0), (300, 201, 3), (0, 500, 4), (10**6, 0, 0)]:
        with pytest.raises(PreconditionError) as exc:
            LinearInstance.from_json(payload(dim_u, dim_w, d))
        assert exc.value.code == "budget"
    # A negative dimension counts as 0 and stays an input error in validate.
    inst = LinearInstance.from_json(payload(-(10**6), 0, 0))
    assert not validate(inst).ok


def test_dense_budget_admits_every_verify_draw(monkeypatch):
    # Every instance that `verify --seed 7 --count 200` draws reads back
    # from its JSON, unrefused and equal.
    drawn = []
    check = eqcohom.randomized.check_one_instance

    def recording(inst, *args):
        drawn.append(inst)
        return check(inst, *args)

    monkeypatch.setattr(eqcohom.randomized, "check_one_instance", recording)
    assert eqcohom.randomized.run_verification(7, 200).ok
    assert len(drawn) == 200
    for inst in drawn:
        assert LinearInstance.from_json(inst.to_json()) == inst
