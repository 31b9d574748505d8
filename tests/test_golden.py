"""Golden reports: sha256 digests of the CLI's stdout, with its exit code.

Each case writes its inputs with the same serialization as `eqcohom
fixtures`, runs `eqcohom.cli.main` in-process and compares
"<exit code> <sha256 of stdout>" with the recorded value. The digests pin
every report byte for byte, so a refactor that changes any answer, key or
number formatting fails here.

`INLINE_GOLDEN` does the same for graph actions built here rather than
read from fixtures: an ordered 12-cycle, a C5 x K2 prism, a reflected odd
cycle (whose fixed reversed edge forces its edge orbit to 0) and a wrong
declared order, whose stderr is pinned too.

The periodic fixtures ship no cochain; each case builds one from fixed
integer coefficients a and potential f as w(e) = f(te) - f(oe) + sum_j a_j
t(e)_j, without calling eqcohom.periodic.reconstruct.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from eqcohom.cli import main
from eqcohom.fixtures import fixture_files
from eqcohom.instance import (
    check_condition_i,
    check_condition_ii,
    decompose,
    find_ujk,
    u_tilde,
)
from eqcohom.periodic import PeriodicGraph
from eqcohom.randomized import (
    random_graph_instance,
    random_linear_instance,
    run_verification,
)

INSTANCE_FIXTURES = ("shear", "double-shear", "identity")
GRAPH_FIXTURES = ("c4-rotation", "p2-swap", "k3-s3", "two-triangles-swap")
PERIODIC_FIXTURES = ("torus-1", "torus-2", "torus-3", "hex")
A = (2, -1, 3)  # period coefficients, one per translation generator
F = (0, 5)  # potential, one value per quotient vertex

GOLDEN = {
    "analyze/shear": "0 d97ca31c6fb7699b6286784bf7393d0bd80f2dec11548d62f696f0a1e6c5f93f",
    "analyze/double-shear": "0 b98ab28dd70cdc79f24d73a1e3d977e7f1a06add43b44c76611b92c4c7e1ae40",
    "analyze/identity": "0 b9f9f5c3da4b4fbb7ae7ab0f3f9323c9c44112f1d624be8c33aa373bdb335f5f",
    "graph/c4-rotation": "0 238732c13f687f2bca2108373709244baa958d647e225164c177942c021f6bd8",
    "graph/p2-swap": "0 190ae54d5b5e3260c6bd101ca9af3e70e1104738e75e7711444960398c4fef6e",
    "graph/k3-s3": "0 cbc805e3b6c97d51f5a71bfe54d2faca7acaf4ebaf338d250c83bdb5d53e3d1a",
    "graph/two-triangles-swap": "0 55fdaf902ea4fcf5be3955215733b44033c46caac0b2855222512ab0e6400929",
    "periodic/torus-1": "0 f3ffe39ba372f4940a6b505b5fc863d31848aa498e6fa68a455e6f9711fa741b",
    "periodic/torus-2": "0 b6f4a0703be9d66fec615c2f40d8280b3f29a1f75a3edcff6db8c23b05eb70cf",
    "periodic/torus-3": "0 3b651803964ea04e4f7e8e69d3cc8e9ab27bb32b61d4faa480aaab624633ccfa",
    "periodic/hex": "0 99a132775d0efac00d9285f5db909e683f03eae03c6802d43678d2d6ba7c242d",
    "verify/seed-7-count-200": "0 9f60f36c143824ee8bc995d2f1503ce2c35658108ff422005eef3ac7e1b5f2a2",
}


def _write(path, payload) -> str:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _fixture(tmp_path, name) -> dict[str, str]:
    """Write a fixture's files; returns file name -> path."""
    return {fname: _write(tmp_path / fname, payload)
            for fname, payload in sorted(fixture_files(name).items())}


def _cochain(pgraph: dict) -> dict[str, int]:
    pg = PeriodicGraph.from_json(pgraph)
    return {
        str(e.id): F[e.t] - F[e.o] + sum(A[j] * pg.voltages[e.id][j] for j in range(pg.d))
        for e in pg.quotient.edges
    }


def _argv(case: str, tmp_path) -> list[str]:
    command, name = case.split("/")
    if command == "verify":
        return ["verify", "--seed", "7", "--count", "200"]
    paths = _fixture(tmp_path, name)
    if command == "analyze":
        return ["analyze", *paths.values()]
    if command == "graph":
        graph = next(p for f, p in paths.items() if f.endswith(".graph.json"))
        action = next(p for f, p in paths.items() if f.endswith(".action.json"))
        return ["graph", graph, action]
    (pgraph,) = paths.values()
    payload = next(iter(fixture_files(name).values()))
    cochain = _write(tmp_path / "w.json", _cochain(payload))
    return ["periodic", pgraph, cochain, "--radius", "1"]


def _digest(case: str, tmp_path, capsys) -> str:
    argv = _argv(case, tmp_path)
    capsys.readouterr()
    code = main(argv)
    out = capsys.readouterr().out
    return f"{code} {hashlib.sha256(out.encode('utf-8')).hexdigest()}"


def test_cases_cover_every_fixture():
    expected = (
        [f"analyze/{n}" for n in INSTANCE_FIXTURES]
        + [f"graph/{n}" for n in GRAPH_FIXTURES]
        + [f"periodic/{n}" for n in PERIODIC_FIXTURES]
        + ["verify/seed-7-count-200"]
    )
    assert list(GOLDEN) == expected


@pytest.mark.parametrize("case", list(GOLDEN))
def test_report_matches_golden_digest(case, tmp_path, capsys):
    assert _digest(case, tmp_path, capsys) == GOLDEN[case]


def _cycle_edges(n: int) -> list[dict]:
    return [{"id": i, "o": i, "t": (i + 1) % n} for i in range(n)]


def _prism_edges(n: int) -> list[dict]:
    """C_n x K_2: outer cycle 0..n-1, inner cycle n..2n-1, spokes i -> n+i."""
    inner = [{"id": n + i, "o": n + i, "t": n + (i + 1) % n} for i in range(n)]
    spokes = [{"id": 2 * n + i, "o": i, "t": n + i} for i in range(n)]
    return _cycle_edges(n) + inner + spokes


INLINE_CASES = {
    "ordered-12-cycle": (
        {"vertices": 12, "edges": _cycle_edges(12)},
        {"generators": [[(v + 5) % 12 for v in range(12)]], "orders": {"0": 12}},
    ),
    "c5-prism": (
        {"vertices": 10, "edges": _prism_edges(5)},
        {
            "generators": [
                [(v + 1) % 5 if v < 5 else 5 + (v + 1) % 5 for v in range(10)],
                [(v + 5) % 10 for v in range(10)],
            ],
            "orders": {"0": 5, "1": 2},
        },
    ),
    "reflected-odd-cycle": (
        {"vertices": 5, "edges": _cycle_edges(5)},
        {"generators": [[-v % 5 for v in range(5)]], "orders": {"0": 2}},
    ),
    "wrong-declared-order": (
        {"vertices": 6, "edges": _cycle_edges(6)},
        {"generators": [[(v + 1) % 6 for v in range(6)]], "orders": {"0": 4}},
    ),
}

INLINE_GOLDEN = {
    "graph/ordered-12-cycle": "0 3e742c9d5da907d20840a5accc9de4fd19eb9749a1f335e564b105b32c6c40c7",
    "graph/c5-prism": "0 5d5a1ed195f6904899747599869ea7d326fb04e387026d1d8d3e884aefbdc026",
    "graph/reflected-odd-cycle": "0 7a95ea67ce87281cfe4e0a4f73afe227863d470df0c2ec50c7d36e83a74df93b",
    "graph/wrong-declared-order": "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}
INLINE_STDERR = {
    "graph/wrong-declared-order": "input error: invalid declared order: "
    "generator 0: gU^4 != identity; generator 0: gW^4 != identity\n",
}


@pytest.mark.parametrize("case", list(INLINE_GOLDEN))
def test_inline_graph_report_matches_golden_digest(case, tmp_path, capsys):
    graph, action = INLINE_CASES[case.split("/")[1]]
    argv = ["graph", _write(tmp_path / "g.json", graph), _write(tmp_path / "a.json", action)]
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    assert f"{code} {digest}" == INLINE_GOLDEN[case]
    assert captured.err == INLINE_STDERR.get(case, "")


# The verify report holds only counts, so a wrong rational in a generated
# instance or decomposition could pass it unseen. This digest pins them:
# per draw, a random linear instance and a random graph instance (their
# to_json), and the Decomposition.to_json of each one that decomposes, for
# an invariant image vector pi(u) with u a seeded integer combination of the
# canonical basis of the preimage of W^G.
GENERATED_GOLDEN = "e312b29c831ec29f89c04a6c25dc448405df8ce84c1237fedc2582a2fa9816c5"


def _generated_digest(seed: int, draws: int) -> str:
    rng = random.Random(seed)
    h = hashlib.sha256()

    def put(obj) -> None:
        h.update(json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n")

    for i in range(draws):
        for inst in (
            random_linear_instance(rng, max_dim=2 + i % 5),
            random_graph_instance(rng),
        ):
            put(inst.to_json())
            if not (inst.m and check_condition_i(inst) and check_condition_ii(inst)):
                continue
            ut = u_tilde(inst).basis_vectors()
            if not ut:
                continue
            u = [Fraction(0)] * inst.dim_U
            for bv in ut:
                c = rng.randint(-3, 3)
                u = [x + c * y for x, y in zip(u, bv)]
            kb = [list(v) for v in inst.kernel.basis_vectors()]
            ujk = find_ujk(inst, kb)
            put(decompose(inst, inst.pi.mulvec(u), ujk, kb).to_json())
    return h.hexdigest()


def test_generated_instances_and_decompositions_match_golden_digest():
    assert _generated_digest(2026, 200) == GENERATED_GOLDEN


# `verify/seed-7-count-200` pins one long request. This digest pins the
# reports of 100 short ones, run_verification(s, 10).to_json() for
# s = 0..99, each serialized with sorted keys and a newline: every seed
# starts a new generator stream, as a `verify --count 10` request does.
VERIFY_GOLDEN = "f11046f850ab883416c646f1152ccd0a6d4028feb86343a742b3efb04346e7e4"


def test_verify_reports_match_golden_digest():
    h = hashlib.sha256()
    for seed in range(100):
        report = run_verification(seed, 10).to_json()
        h.update(json.dumps(report, sort_keys=True).encode("utf-8") + b"\n")
    assert h.hexdigest() == VERIFY_GOLDEN


# The four periodic fixtures have one component and integer w. This digest
# pins `periodic` reports over seeded quotients with one to three
# components, d in {1, 2, 3}, and w built from rational a and f whose
# denominators are drawn from {1, 2, 3, 6}. Some requests drop a unit loop
# (the lattice may not be full) and some repeat a unit loop with a value off
# by 1/3 (not closed in that component), so the refusals and the component
# they name are pinned too, with their stderr.
PERIODIC_GOLDEN = "8f47d9a1780e957030bcca5aba9935ea4ad312a0723f04914ae5cdea9ee5e59d"


def _periodic_request(rng: random.Random) -> tuple[dict, dict, int]:
    """(pgraph JSON, cochain JSON, radius) of one generated request."""
    d = rng.randint(1, 3)
    sizes = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
    order = list(range(sum(sizes)))
    rng.shuffle(order)
    parts = [order[sum(sizes[:k]):sum(sizes[: k + 1])] for k in range(len(sizes))]
    dens = (1, 2, 3, 6)
    a = [[Fraction(rng.randint(-6, 6), rng.choice(dens)) for _ in parts] for _ in range(d)]
    f = [Fraction(rng.randint(-5, 5), rng.choice(dens)) for _ in order]
    raw = []  # (o, t, voltage, part index)
    for k, part in enumerate(parts):
        pairs = [(part[i], part[rng.randrange(i)]) for i in range(1, len(part))]
        if len(part) > 1:
            pairs += [tuple(rng.sample(part, 2)) for _ in range(rng.randint(0, 4))]
        raw += [(o, t, [rng.randint(-1, 1) for _ in range(d)], k) for o, t in pairs]
        for j in range(d):
            if rng.random() < 0.08:
                continue
            v = rng.choice(part)
            raw.append((v, v, [int(i == j) for i in range(d)], k))
    values = [
        f[t] - f[o] + sum(a[j][k] * x for j, x in enumerate(volt))
        for o, t, volt, k in raw
    ]
    loops = [i for i, (o, t, volt, _) in enumerate(raw) if o == t and any(volt)]
    if loops and rng.random() < 0.15:
        i = rng.choice(loops)
        raw.append(raw[i])
        values.append(values[i] + Fraction(1, 3))
    perm = list(range(len(raw)))
    rng.shuffle(perm)
    pgraph = {
        "vertices": len(order),
        "edges": [{"id": perm[i], "o": o, "t": t} for i, (o, t, _, _) in enumerate(raw)],
        "d": d,
        "voltages": {str(perm[i]): volt for i, (_, _, volt, _) in enumerate(raw)},
    }
    cochain = {
        str(perm[i]): x.numerator
        if x.denominator == 1 and rng.random() < 0.5
        else f"{x.numerator}/{x.denominator}"
        for i, x in enumerate(values)
    }
    return pgraph, cochain, rng.randint(0, 4 - d)


def _periodic_digest(seed: int, requests: int, tmp_path, capsys) -> str:
    rng = random.Random(seed)
    h = hashlib.sha256()
    for i in range(requests):
        pgraph, cochain, radius = _periodic_request(rng)
        argv = [
            "periodic",
            _write(tmp_path / f"pg{i}.json", pgraph),
            _write(tmp_path / f"w{i}.json", cochain),
            "--radius",
            str(radius),
        ]
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        h.update(f"{code}\n{captured.out}{captured.err}".encode("utf-8"))
    return h.hexdigest()


def test_generated_periodic_reports_match_golden_digest(tmp_path, capsys):
    assert _periodic_digest(2026, 100, tmp_path, capsys) == PERIODIC_GOLDEN
