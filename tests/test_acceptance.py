"""Acceptance criteria, one test per criterion, all tolerances exact (zero).

Each test prints a single PASS line on success; a pytest failure marks the
criterion red.
"""

import json
import random
from fractions import Fraction

from eqcohom.fixtures import (
    c4_graph,
    c4_rotation,
    double_shear_instance,
    hex_periodic,
    identity_instance,
    k3_graph,
    k3_s3_action,
    p2_graph,
    p2_swap,
    shear_instance,
    torus_periodic,
    two_triangles_graph,
    two_triangles_swap,
)
from eqcohom.graphs import Cochain1, to_instance
from eqcohom.instance import (
    check_condition_i,
    check_lemma_commutation,
    check_torsion_trivial,
    decompose,
    find_ujk,
    oracle_quotient_dim,
    u_tilde,
    verify_iff,
)
from eqcohom.linalg import kernel_basis
from eqcohom.periodic import (
    decompose_periodic,
    realized_quotient_dim,
    reconstruct,
    truncation_oracle,
)
from eqcohom.randomized import random_graph, run_verification

from conftest import run_cli, write_json
from test_periodic import random_cochain_pair


def curated_instances():
    return {
        "shear": shear_instance(),
        "double-shear": double_shear_instance(),
        "identity": identity_instance(),
        "c4-rotation": to_instance(c4_graph(), c4_rotation()),
        "p2-swap": to_instance(p2_graph(), p2_swap()),
        "k3-s3": to_instance(k3_graph(), k3_s3_action()),
        "two-triangles-swap": to_instance(
            two_triangles_graph(), two_triangles_swap()
        ),
    }


def test_criterion_1_bound_and_iff():
    for name, inst in curated_instances().items():
        rep = verify_iff(inst)
        assert rep.bound_ok, name
        assert rep.iff_ok, name
    result = run_verification(seed=7, count=500, max_dim=6)
    assert result.checked == 500
    assert result.ok, [v.detail for v in result.violations]
    print("ACCEPTANCE 1 (bound and iff, fixtures + 500 random): PASS")


def test_criterion_2_decomposition_roundtrip_and_uniqueness():
    rng = random.Random(2024)
    succeeded = 0
    for name, inst in curated_instances().items():
        kb = [list(v) for v in kernel_basis(inst.pi).basis_vectors()]
        ujk = find_ujk(inst, kb) if check_condition_i(inst) else None
        if ujk is None:
            continue
        succeeded += 1
        ut = u_tilde(inst)
        for _ in range(5):
            u = [Fraction(0)] * inst.dim_U
            for bv in ut.basis_vectors():
                c = rng.randint(-4, 4)
                u = [x + c * y for x, y in zip(u, bv)]
            w = inst.pi.mulvec(u)
            dec = decompose(inst, w, ujk, kb)
            assert inst.pi.mulvec(dec.preimage) == w  # exact reconstruction
            fixed = inst.fixed_U
            for _ in range(10):
                shifted = [
                    [
                        tuple(
                            x + s
                            for x, s in zip(
                                ujk[j][k], _random_fixed(rng, fixed, inst.dim_U)
                            )
                        )
                        for k in range(len(kb))
                    ]
                    for j in range(inst.d)
                ]
                dec2 = decompose(inst, w, shifted, kb)
                assert dec2.coefficients == dec.coefficients, name
    assert succeeded >= 2  # shear and double-shear at minimum
    print("ACCEPTANCE 2 (decomposition round-trip and uniqueness): PASS")


def _random_fixed(rng, fixed, dim):
    shift = [Fraction(0)] * dim
    for bv in fixed.basis_vectors():
        c = rng.randint(-2, 2)
        shift = [x + c * y for x, y in zip(shift, bv)]
    return shift


def test_criterion_3_commutation_and_torsion():
    graph_fixtures = {
        "c4-rotation": to_instance(c4_graph(), c4_rotation()),
        "p2-swap": to_instance(p2_graph(), p2_swap()),
        "k3-s3": to_instance(k3_graph(), k3_s3_action()),
        "two-triangles-swap": to_instance(
            two_triangles_graph(), two_triangles_swap()
        ),
    }
    for name, inst in curated_instances().items():
        if not check_condition_i(inst):
            continue
        assert check_lemma_commutation(inst), name
        torsion = check_torsion_trivial(inst)
        assert torsion.vacuous or torsion.all_fixed, name
    for name, inst in graph_fixtures.items():
        assert oracle_quotient_dim(inst).dim == 0, name
    print("ACCEPTANCE 3 (commutation, torsion, finite-group dim 0): PASS")


def test_criterion_4_graph_kernel_dimension():
    from eqcohom.graphs import Graph, coboundary, components

    rng = random.Random(404)
    corpus = [
        Graph.make(4, []),  # edgeless
        Graph.make(1, [(0, 0, 0)]),  # single loop
        Graph.make(2, [(0, 0, 1), (1, 0, 1), (2, 1, 0)]),  # multigraph
    ]
    while len(corpus) < 120:
        corpus.append(random_graph(rng))
    assert any(g.n_edges == 0 for g in corpus)
    assert any(e.o == e.t for g in corpus for e in g.edges)
    for g in corpus:
        assert kernel_basis(coboundary(g)).dim == len(components(g))
    print(f"ACCEPTANCE 4 (kernel dim = component count, {len(corpus)} graphs): PASS")


def test_criterion_5_torus_dimension():
    rng = random.Random(55)
    for d in range(1, 5):
        pg = torus_periodic(d)
        assert realized_quotient_dim(pg) == d
        c = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(d)]
        dec = decompose_periodic(pg, Cochain1.make(c))
        assert dec.a == tuple((cj,) for cj in c)
        assert dec.f.values == (Fraction(0),)
    print("ACCEPTANCE 5 (torus yields d period generators, a = c, f = 0): PASS")


def test_criterion_6_periodic_correctness(tmp_path):
    rng = random.Random(66)
    for pg in (torus_periodic(2), torus_periodic(3), hex_periodic()):
        for _ in range(100):
            a, f, w = random_cochain_pair(rng, pg)
            dec = decompose_periodic(pg, w)
            assert [list(r) for r in dec.a] == [list(map(Fraction, r)) for r in a]
            assert dec.f.values == f.values
            assert reconstruct(pg, dec.a, dec.f).values == w.values
        _, _, w = random_cochain_pair(rng, pg)
        assert truncation_oracle(pg, w, decompose_periodic(pg, w), 3)["ok"]
    # Non-closed actions are refused with exit code 3.
    for name, wjson in (
        ("square-index2", {"0": "1", "1": "0"}),
        ("halfline", None),
    ):
        if name == "halfline":
            gpath = write_json(
                tmp_path / "halfline.pgraph.json",
                {
                    "vertices": 1,
                    "edges": [{"id": 0, "o": 0, "t": 0}],
                    "d": 2,
                    "voltages": {"0": [2, 0]},
                },
            )
            wpath = write_json(tmp_path / "w0.json", {"0": "0"})
        else:
            code, out, err = run_cli(
                ["fixtures", name, "--out-dir", str(tmp_path)]
            )
            assert code == 0, err
            gpath = str(tmp_path / f"{name}.pgraph.json")
            wpath = write_json(tmp_path / "w1.json", wjson)
        code, _, err = run_cli(["periodic", gpath, wpath])
        assert code == 3, (name, err)
    print("ACCEPTANCE 6 (periodic round-trips, truncation, refusals): PASS")


def test_criterion_7_determinism(tmp_path):
    fixture_names = [
        "torus-2",
        "hex",
        "square-index2",
        "c4-rotation",
        "p2-swap",
        "k3-s3",
        "shear",
        "double-shear",
        "identity",
        "two-triangles-swap",
    ]
    for name in fixture_names:
        code, _, err = run_cli(["fixtures", name, "--out-dir", str(tmp_path)])
        assert code == 0, err
    wpath = write_json(tmp_path / "w.json", {"0": "5", "1": "-3"})
    whex = write_json(tmp_path / "whex.json", {"0": "1/2", "1": "2", "2": "-1"})
    commands = [
        ["analyze", str(tmp_path / "shear.instance.json")],
        ["analyze", str(tmp_path / "double-shear.instance.json")],
        ["analyze", str(tmp_path / "identity.instance.json")],
        [
            "graph",
            str(tmp_path / "c4.graph.json"),
            str(tmp_path / "c4-rotation.action.json"),
        ],
        [
            "graph",
            str(tmp_path / "p2.graph.json"),
            str(tmp_path / "p2-swap.action.json"),
        ],
        [
            "graph",
            str(tmp_path / "k3.graph.json"),
            str(tmp_path / "k3-s3.action.json"),
        ],
        [
            "graph",
            str(tmp_path / "two-triangles.graph.json"),
            str(tmp_path / "two-triangles-swap.action.json"),
        ],
        ["periodic", str(tmp_path / "torus-2.pgraph.json"), wpath, "--radius", "3"],
        ["periodic", str(tmp_path / "hex.pgraph.json"), whex],
        ["verify", "--seed", "7", "--count", "30"],
        ["fixtures", "torus-4", "--out-dir", str(tmp_path)],
    ]
    for args in commands:
        first = run_cli(args)
        second = run_cli(args)
        assert first == second, args
    print("ACCEPTANCE 7 (byte-identical reports on repeated runs): PASS")
