import random
from fractions import Fraction

import pytest

import eqcohom.linalg
import eqcohom.randomized
from eqcohom.errors import PreconditionError
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
    LinearInstance,
    _power,
    check_condition_i,
    check_condition_ii,
    check_lemma_commutation,
    check_torsion_trivial,
    decompose,
    find_ujk,
    gbar_map,
    oracle_quotient_dim,
    u_tilde,
    validate,
    verify_iff,
)
from eqcohom.linalg import Mat, Subspace, kernel_basis, vec
from eqcohom.randomized import random_graph_instance, random_linear_instance

from conftest import find_ujk_reference, fixed_W


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


def test_find_ujk_and_condition_ii_run_one_rref(monkeypatch):
    # All d*m slot targets share one elimination of [G | T], kept on the
    # instance beside ker pi: the first check_condition_ii runs it, and a
    # repeat call and find_ujk on the canonical basis run no rref. Another
    # basis costs two, the check that it spans ker pi and its own [G | T].
    rng = random.Random(41)
    instances = [double_shear_instance()]
    while len(instances) < 12:
        inst = random_linear_instance(rng)
        if inst.d * inst.m >= 2:
            instances.append(inst)
    shapes = []
    original = eqcohom.linalg.rref

    def counted(m):
        shapes.append((m.rows, m.cols))
        return original(m)

    answers = set()
    for inst in instances:
        basis = inst.kernel.basis_vectors()
        n, d, m = inst.dim_U, inst.d, inst.m
        monkeypatch.setattr(eqcohom.linalg, "rref", counted)
        holds = check_condition_ii(inst)
        assert shapes == [(d * n, n + d * m)]
        shapes.clear()
        assert check_condition_ii(inst) == holds
        assert (find_ujk(inst, basis) is not None) == holds
        assert shapes == []
        scaled = [[2 * x for x in u] for u in basis]
        assert (find_ujk(inst, scaled) is not None) == holds
        assert len(shapes) == 2
        shapes.clear()
        monkeypatch.setattr(eqcohom.linalg, "rref", original)
        answers.add(holds)
    assert answers == {True, False}


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
    # against kernel_basis(gbar_map) and the solve_many construction, on
    # canonical, scaled and mixed kernel bases; the blocks g - id against
    # Mat subtraction, with denominators other than 1 among them.
    rng = random.Random(2718)
    instances = _rank_identity_instances()
    instances += [_rescaled(inst, rng) for inst in instances[:400]]
    kinds = set()
    for inst in instances:
        assert validate(inst).ok
        assert inst.moves_U == tuple(gu - Mat.identity(inst.dim_U) for gu, _ in inst.generators)
        assert inst.moves_W == tuple(gw - Mat.identity(inst.dim_W) for _, gw in inst.generators)
        assert inst.fixed_U == kernel_basis(gbar_map(inst))
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
    assert inst.fixed_U.contains(diff)


def test_gbar_map_blocks():
    inst = double_shear_instance()
    gbar = gbar_map(inst)
    assert (gbar.rows, gbar.cols) == (4 * inst.d, 4)
    ident = Mat.identity(4)
    for i, (gu, _) in enumerate(inst.generators):
        assert gbar.data[4 * i : 4 * (i + 1)] == (gu - ident).data


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
