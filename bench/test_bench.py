"""Self-tests of the benchmark: output schema, determinism, tracer coverage
and self-time accounting. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_specs(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads_and_per_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _metric_specs("per_layer") == dict(tracing.metric_names())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_schema(workload, trace, capsys):
    code = run.main(
        ["--workload", workload, "--seed", "5", "--seconds", "0.2",
         "--trace", str(trace)],
        tiny=True,
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    want = _metric_specs("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"])


def _periodic_input(req):
    from eqcohom.periodic import PeriodicGraph, parse_invariant_cochain

    pg = PeriodicGraph.from_json(req.files["pg.json"])
    return pg, parse_invariant_cochain(pg, req.files["w.json"])


def test_expected_periodic_answer_round_trips_through_the_library():
    from eqcohom.graphs import Cochain0
    from eqcohom.periodic import decompose_periodic, reconstruct

    reqs = list(itertools.islice(workloads.generate("periodic", 6, tiny=True), 8))
    for req in reqs:
        pg, w = _periodic_input(req)
        f = Cochain0(tuple(Fraction(x) for x in req.expected["f"]))
        assert reconstruct(pg, req.expected["a"], f).values == w.values
    dec = decompose_periodic(*_periodic_input(reqs[0])).to_json()
    assert (dec["a"], dec["f"]) == (reqs[0].expected["a"], reqs[0].expected["f"])


def test_same_code_and_seed_give_the_same_digest(tmp_path):
    digests = []
    for i in range(2):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        digests.append(run.run("graph", 9, 0.1, False, workdir, tiny=True)[1]["digest"])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    def first(seed):
        return [
            (r.argv, r.expected, r.tags, r.files)
            for r in itertools.islice(workloads.generate(workload, seed), 24)
        ]

    assert first(4) == first(4)
    assert first(4) != first(5)


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_covers_every_binding_and_self_times_sum_to_root(tmp_path):
    import eqcohom.cli as cli
    import eqcohom.linalg as linalg

    reqs = []
    for workload in workloads.WORKLOADS:
        stream = workloads.generate(workload, 2, tiny=True)
        reqs += [(workload, workloads.materialize(next(stream), tmp_path))
                 for _ in range(4)]
    original = linalg.rref
    tr = tracing.Tracer()
    tr.install()
    try:
        assert tr.unwrapped() == []
        for i, (workload, req) in enumerate(reqs):
            tr.request = i
            outcome, _ = run.call(cli, workload, req)
            assert outcome.failure is None
    finally:
        tr.uninstall()
    assert linalg.rref is original

    spans = tr.spans
    own = tr.self_times()
    for i in range(len(reqs)):
        mine = [k for k, s in enumerate(spans) if s[tracing.REQUEST] == i]
        roots = [k for k in mine if spans[k][tracing.PARENT] == -1]
        assert [spans[k][tracing.NAME] for k in roots] == ["cli.main"]
        root = spans[roots[0]]
        total = sum(own[k] for k in mine)
        assert total == pytest.approx(root[tracing.END] - root[tracing.START], abs=1e-6)
        assert all(x >= -1e-9 for x in (own[k] for k in mine))
    # realized_quotient_dim imports coboundary lazily; it must still be traced.
    parents = {
        spans[s[tracing.PARENT]][tracing.NAME]
        for s in spans
        if s[tracing.NAME] == "graphs.coboundary"
    }
    assert "periodic.realized_quotient_dim" in parents


def test_work_counts_come_from_arguments_and_results():
    from eqcohom.linalg import Mat, rref

    tr = tracing.Tracer()
    tr.install()
    try:
        import eqcohom.linalg as linalg

        linalg.rref(Mat([[1, 2, 3], [4, 5, 6]]))  # rref: [[1, 0, -1], [0, 1, 2]]
        Mat([[1, 2], [3, 4]]) * Mat([[1], [1]])
    finally:
        tr.uninstall()
    assert linalg.rref is rref
    metrics, _ = tr.layer_metrics(1)
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["linalg.rref.calls"] == 1
    assert value["linalg.rref.cells"] == 6
    assert value["linalg.rref.max_bits"] == 2
    assert value["linalg.mat_mul.ops"] == 2 * 2 * 1
