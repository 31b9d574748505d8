import json
import resource
import subprocess
import sys
import time

import pytest

import eqcohom.instance
import eqcohom.randomized
from eqcohom.cli import main
from eqcohom.instance import check_condition_ii
from eqcohom.randomized import run_verification

from conftest import RAT_STRINGS, fraction_of, run_cli, write_json


def load_fixture(tmp_path, name):
    code, out, err = run_cli(["fixtures", name, "--out-dir", str(tmp_path)])
    assert code == 0, err
    return json.loads(out)["written"]


def test_fixtures_writes_files(tmp_path):
    written = load_fixture(tmp_path, "torus-3")
    assert len(written) == 1
    payload = json.loads((tmp_path / "torus-3.pgraph.json").read_text())
    assert payload["d"] == 3
    assert len(payload["edges"]) == 3


def test_fixtures_unknown_name():
    code, out, err = run_cli(["fixtures", "nonesuch"])
    assert code == 2
    assert "torus-d" in err and "shear" in err


def test_analyze_shear(tmp_path):
    load_fixture(tmp_path, "shear")
    code, out, err = run_cli(["analyze", str(tmp_path / "shear.instance.json")])
    assert code == 0, err
    report = json.loads(out)
    assert report["quotient_dim"] == 1
    assert report["md"] == 1
    assert report["condition_i"] and report["condition_ii"]
    assert report["iff_ok"] and report["bound_ok"]
    assert report["torsion"]["vacuous"]


def test_analyze_identity(tmp_path):
    load_fixture(tmp_path, "identity")
    code, out, _ = run_cli(["analyze", str(tmp_path / "identity.instance.json")])
    assert code == 0
    assert json.loads(out)["quotient_dim"] == 0


def test_analyze_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim_U": 2,,}')
    code, out, err = run_cli(["analyze", str(bad)])
    assert code == 2
    assert "line 1" in err


def test_analyze_invalid_instance(tmp_path):
    payload = {
        "dim_U": 2,
        "dim_W": 1,
        "pi": [["1", "0"]],
        "generators": [{"gU": [["0", "1"], ["1", "0"]], "gW": [["1"]]}],
    }
    path = write_json(tmp_path / "bad-instance.json", payload)
    code, out, err = run_cli(["analyze", path])
    assert code == 2
    report = json.loads(out)
    assert report["valid"] is False
    assert any("equivariance" in issue for issue in report["issues"])


def test_graph_c4(tmp_path):
    load_fixture(tmp_path, "c4-rotation")
    code, out, err = run_cli(
        [
            "graph",
            str(tmp_path / "c4.graph.json"),
            str(tmp_path / "c4-rotation.action.json"),
        ]
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["quotient_dim"] == 0
    assert report["is_free"] and report["is_closed_in_components"]


def test_periodic_torus(tmp_path):
    load_fixture(tmp_path, "torus-2")
    wpath = write_json(tmp_path / "w.json", {"0": "5", "1": "-3"})
    code, out, err = run_cli(
        ["periodic", str(tmp_path / "torus-2.pgraph.json"), wpath, "--radius", "3"]
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["decomposition"]["a"] == [["5"], ["-3"]]
    assert report["decomposition"]["f"] == ["0"]
    assert report["truncation"]["ok"]
    assert report["realized_quotient_dim"] == 2


def test_periodic_non_closed_action_exit_3(tmp_path):
    load_fixture(tmp_path, "square-index2")
    wpath = write_json(tmp_path / "w.json", {"0": "1", "1": "0"})
    code, out, err = run_cli(
        ["periodic", str(tmp_path / "square-index2.pgraph.json"), wpath]
    )
    assert code == 3
    assert "period lattice not full" in err


def test_periodic_rank_deficient_exit_3(tmp_path):
    g = {
        "vertices": 1,
        "edges": [{"id": 0, "o": 0, "t": 0}],
        "d": 2,
        "voltages": {"0": [2, 0]},
    }
    gpath = write_json(tmp_path / "halfline.pgraph.json", g)
    wpath = write_json(tmp_path / "w.json", {"0": "0"})
    code, out, err = run_cli(["periodic", gpath, wpath])
    assert code == 3
    assert "rank 1 of 2" in err


def test_periodic_two_components(tmp_path):
    g = {
        "vertices": 2,
        "edges": [{"id": 0, "o": 0, "t": 0}, {"id": 1, "o": 1, "t": 1}],
        "d": 1,
        "voltages": {"0": [1], "1": [1]},
    }
    gpath = write_json(tmp_path / "two.pgraph.json", g)
    wpath = write_json(tmp_path / "w.json", {"0": "1", "1": "2"})
    code, out, err = run_cli(["periodic", gpath, wpath])
    assert code == 0, err
    report = json.loads(out)
    assert report["components"] == 2
    assert report["decomposition"]["a"] == [["1", "2"]]
    assert report["truncation"]["ok"]


def test_periodic_negative_radius_exit_2(tmp_path):
    load_fixture(tmp_path, "torus-2")
    wpath = write_json(tmp_path / "w.json", {"0": "5", "1": "-3"})
    code, out, err = run_cli(
        ["periodic", str(tmp_path / "torus-2.pgraph.json"), wpath, "--radius", "-1"]
    )
    assert code == 2
    assert out == ""
    assert "radius" in err


def test_periodic_zero_denominator_exit_2(tmp_path):
    load_fixture(tmp_path, "torus-2")
    wpath = write_json(tmp_path / "w.json", {"0": "1/0", "1": "-3"})
    code, out, err = run_cli(
        ["periodic", str(tmp_path / "torus-2.pgraph.json"), wpath]
    )
    assert code == 2
    assert "zero denominator" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def torus_2(tmp_path_factory):
    out = tmp_path_factory.mktemp("torus-2")
    load_fixture(out, "torus-2")
    return out


@pytest.mark.parametrize("text", RAT_STRINGS, ids=ascii)
def test_periodic_cochain_strings_exit_as_fraction_reads_them(text, torus_2, capsys):
    # Any value is closed on the torus, so a cochain entry that Fraction
    # reads exits 0 with that value as a; one it refuses exits 2.
    wpath = write_json(torus_2 / "w.json", {"0": text, "1": "-3"})
    capsys.readouterr()
    code = main(["periodic", str(torus_2 / "torus-2.pgraph.json"), wpath])
    out, err = capsys.readouterr()
    try:
        expected = fraction_of(text)
    except ValueError:
        assert code == 2 and out == ""
        assert err.startswith("input error: bad 1-cochain JSON")
    else:
        assert code == 0, err
        assert json.loads(out)["decomposition"]["a"][0] == [str(expected)]


def test_periodic_truncation_budget_exit_3(tmp_path):
    load_fixture(tmp_path, "torus-9")
    wpath = write_json(tmp_path / "w.json", {str(j): str(j + 1) for j in range(9)})
    start = time.perf_counter()
    code, out, err = run_cli(["periodic", str(tmp_path / "torus-9.pgraph.json"), wpath])
    assert time.perf_counter() - start < 10
    assert code == 3
    assert out == ""
    assert "precondition not met (budget)" in err
    # 5^9 table entries plus 9 loops * 5^8 cells * 4 steps.
    assert str(5**9 + 9 * 5**8 * 4) in err


def test_periodic_huge_radius_refused_at_once(tmp_path, capsys):
    # The budget is read off the box sizes before any table or index list
    # is built, so radius 10**6 in d = 3 is refused in well under a second.
    load_fixture(tmp_path, "torus-3")
    gpath = str(tmp_path / "torus-3.pgraph.json")
    wpath = write_json(tmp_path / "w.json", {"0": "1", "1": "2", "2": "3"})
    start = time.perf_counter()
    code = main(["periodic", gpath, wpath, "--radius", str(10**6)])
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    side = 2 * 10**6 + 1
    assert err == (
        f"precondition not met (budget): truncation at radius {10**6} predicts "
        f"{side**3 + 3 * side**2 * (side - 1)} table entries and checks, over "
        "the budget of 1000000\n"
    )


def test_analyze_dense_budget_exit_3(tmp_path):
    # 60 bytes that would otherwise make the kernel an N x N dense basis.
    payload = {"dim_U": 10**6, "dim_W": 0, "pi": [], "generators": []}
    path = write_json(tmp_path / "huge.json", payload)
    start = time.perf_counter()
    code, out, err = run_cli(["analyze", path])
    assert time.perf_counter() - start < 10
    assert (code, out) == (3, "")
    assert err == (
        "precondition not met (budget): instance predicts 1000000000000 dense "
        "matrix cells, (d+1)*(dim_U+dim_W)^2, over the budget of 1000000\n"
    )


def test_in_process_main_calls_do_not_leak_flags(tmp_path, capsys):
    load_fixture(tmp_path, "torus-2")
    gpath = str(tmp_path / "torus-2.pgraph.json")
    wpath = write_json(tmp_path / "w.json", {"0": "5", "1": "-3"})
    assert main(["--text", "periodic", gpath, wpath]) == 0
    assert capsys.readouterr().out.startswith("command: ")
    assert main(["periodic", gpath, wpath]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "periodic"
    assert main(["periodic", gpath, wpath, "--radius", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["truncation"]["checks"] == 0
    assert main(["periodic", gpath, wpath]) == 0
    # Radius 2: per loop, 5 transverse cells times 4 interior steps.
    assert json.loads(capsys.readouterr().out)["truncation"] == {
        "radius": 2, "checks": 2 * 5 * 4, "ok": True,
    }


def test_analyze_bool_entry_exit_2(tmp_path):
    payload = {
        "dim_U": 1,
        "dim_W": 1,
        "pi": [[True]],
        "generators": [{"gU": [["1"]], "gW": [["1"]]}],
    }
    path = write_json(tmp_path / "bool-instance.json", payload)
    code, out, err = run_cli(["analyze", path])
    assert code == 2
    assert "bad instance JSON" in err


def test_verify_clean_run():
    code, out, err = run_cli(["verify", "--seed", "7", "--count", "40"])
    assert code == 0, err
    report = json.loads(out)
    assert report["ok"] is True
    assert report["checked"] == 40


def test_verify_count_zero():
    code, out, _ = run_cli(["verify", "--count", "0"])
    assert code == 0
    assert json.loads(out)["checked"] == 0


def test_verify_mutant_condition_ii_detected(monkeypatch):
    # Invert the condition-(ii) check that verify_iff reads from its module:
    # the harness must catch the lie.
    monkeypatch.setattr(
        eqcohom.instance, "check_condition_ii", lambda inst: not check_condition_ii(inst)
    )
    result = run_verification(seed=7, count=60)
    assert not result.ok
    assert any(v.kind == "iff" for v in result.violations)
    assert all(v.instance_json for v in result.violations)


def test_text_mode(tmp_path):
    load_fixture(tmp_path, "shear")
    code, out, _ = run_cli(
        ["--text", "analyze", str(tmp_path / "shear.instance.json")]
    )
    assert code == 0
    assert "quotient_dim: 1" in out


def test_reports_deterministic(tmp_path):
    load_fixture(tmp_path, "double-shear")
    args = ["analyze", str(tmp_path / "double-shear.instance.json")]
    outs = {run_cli(args)[1] for _ in range(2)}
    assert len(outs) == 1


def _triangle_graph(tmp_path, action):
    graph = {
        "vertices": 3,
        "edges": [{"id": 0, "o": 0, "t": 1}, {"id": 1, "o": 1, "t": 2}, {"id": 2, "o": 2, "t": 0}],
    }
    return run_cli(
        [
            "graph",
            write_json(tmp_path / "g.json", graph),
            write_json(tmp_path / "a.json", action),
        ]
    )


def test_graph_declared_order_checked(tmp_path):
    code, out, err = _triangle_graph(tmp_path, {"generators": [[1, 2, 0]], "orders": {"0": 3}})
    assert code == 0, err
    assert json.loads(out)["group_order"] == 3


def test_graph_wrong_declared_order_exit_2(tmp_path):
    code, out, err = _triangle_graph(tmp_path, {"generators": [[1, 2, 0]], "orders": {"0": 2}})
    assert code == 2
    assert out == ""
    assert "invalid declared order" in err and "gU^2 != identity" in err
    assert "Traceback" not in err


def test_graph_40x40_torus_within_time_bound(tmp_path, capsys):
    # C_40 x C_40 with both unit translations and declared orders 40: the
    # orbit path answers without |V| x |V| or |E| x |E| matrices, in about
    # 0.3 s on one core of a 2-core x86-64 host (Python 3.11, plain mode);
    # the bound leaves room for slower machines and `-X dev`. A dense
    # compile would hold a 3200 x 3200 Fraction matrix per generator.
    k = 40
    edges = []
    for x in range(k):
        for y in range(k):
            v = x * k + y
            edges.append({"id": len(edges), "o": v, "t": ((x + 1) % k) * k + y})
            edges.append({"id": len(edges), "o": v, "t": x * k + (y + 1) % k})
    shift_x = [((v // k + 1) % k) * k + v % k for v in range(k * k)]
    shift_y = [(v // k) * k + (v % k + 1) % k for v in range(k * k)]
    graph = write_json(tmp_path / "g.json", {"vertices": k * k, "edges": edges})
    action = write_json(
        tmp_path / "a.json", {"generators": [shift_x, shift_y], "orders": {"0": k, "1": k}}
    )
    capsys.readouterr()
    start = time.perf_counter()
    code = main(["graph", graph, action])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (report["quotient_dim"], report["group_order"]) == (0, k * k)
    assert elapsed < 5


def test_graph_order_of_missing_generator_exit_2(tmp_path):
    code, out, err = _triangle_graph(tmp_path, {"generators": [[1, 2, 0]], "orders": {"5": 3}})
    assert code == 2
    assert "generator 5" in err


@pytest.mark.parametrize(
    "action",
    [
        {"generators": [[1, 2, 0]], "orders": {"0": True}},
        {"generators": [[True, 2, 0]]},
        {"generators": [[1, 2, 0]], "orders": [3]},
        # A string is not a permutation, even one that reads as (1, 2, 0).
        {"generators": ["120"]},
        {"generators": "120"},
    ],
)
def test_graph_action_bad_integers_exit_2(tmp_path, action):
    code, out, err = _triangle_graph(tmp_path, action)
    assert code == 2
    assert "bad action JSON" in err and "Traceback" not in err


def test_graph_bool_vertex_count_exit_2(tmp_path):
    graph = {"vertices": True, "edges": []}
    code, out, err = run_cli(
        [
            "graph",
            write_json(tmp_path / "g.json", graph),
            write_json(tmp_path / "a.json", {"generators": [[0]]}),
        ]
    )
    assert code == 2
    assert "bad graph JSON" in err


@pytest.mark.parametrize("command", ["graph", "periodic"])
def test_negative_vertex_count_exit_2(tmp_path, command):
    graph = {"vertices": -3, "edges": []}
    if command == "graph":
        second = write_json(tmp_path / "a.json", {"generators": []})
    else:
        graph.update({"d": 1, "voltages": {}})
        second = write_json(tmp_path / "w.json", {})
    code, out, err = run_cli([command, write_json(tmp_path / "g.json", graph), second])
    assert code == 2
    assert out == ""
    assert "vertex count -3 < 0" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "d, voltages",
    [(True, {"0": [True]}), (1, {"0": [1.0]}), (1, [[1]]), (1, {"0": "1"})],
)
def test_periodic_bad_integers_exit_2(tmp_path, d, voltages):
    pgraph = {
        "vertices": 1,
        "edges": [{"id": 0, "o": 0, "t": 0}],
        "d": d,
        "voltages": voltages,
    }
    code, out, err = run_cli(
        [
            "periodic",
            write_json(tmp_path / "pg.json", pgraph),
            write_json(tmp_path / "w.json", {"0": "1"}),
        ]
    )
    assert code == 2
    assert "bad periodic graph JSON" in err


@pytest.mark.parametrize(
    "key, value", [("pi", ["1"]), ("pi", "1"), ("gU", ["1"]), ("gW", "1")]
)
def test_analyze_non_list_matrix_exit_2(tmp_path, key, value):
    # Each of these would read as the valid matrix [[1]] if strings counted
    # as lists.
    payload = {
        "dim_U": 1,
        "dim_W": 1,
        "pi": [["1"]],
        "generators": [{"gU": [["1"]], "gW": [["1"]]}],
    }
    (payload if key == "pi" else payload["generators"][0])[key] = value
    code, out, err = run_cli(["analyze", write_json(tmp_path / "i.json", payload)])
    assert code == 2
    assert "bad instance JSON: not a JSON list" in err and "Traceback" not in err


@pytest.mark.parametrize("cochain", ["1", {"values": "1"}])
def test_periodic_non_list_cochain_exit_2(tmp_path, cochain):
    pgraph = {
        "vertices": 1,
        "edges": [{"id": 0, "o": 0, "t": 0}],
        "d": 1,
        "voltages": {"0": [1]},
    }
    code, out, err = run_cli(
        [
            "periodic",
            write_json(tmp_path / "pg.json", pgraph),
            write_json(tmp_path / "w.json", cochain),
        ]
    )
    assert code == 2
    assert "bad 1-cochain JSON" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "cochain, message",
    [
        ({"0": "2", "7": "3"}, "1-cochain keys name no edge of the graph: 7"),
        ({"values": {"0": "2", "7": "3"}}, "1-cochain keys name no edge of the graph: 7"),
        ({"values": {"0": "2"}, "7": "3"}, '1-cochain keys beside "values": 7'),
    ],
)
def test_periodic_cochain_key_naming_no_edge_exit_2(tmp_path, cochain, message):
    # A key that names no edge used to be dropped, and the request answered.
    pgraph = {
        "vertices": 1,
        "edges": [{"id": 0, "o": 0, "t": 0}],
        "d": 1,
        "voltages": {"0": [1]},
    }
    args = ["periodic", write_json(tmp_path / "pg.json", pgraph)]
    code, out, err = run_cli([*args, write_json(tmp_path / "w.json", cochain)])
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"
    assert run_cli([*args, write_json(tmp_path / "ok.json", {"0": "2"})])[0] == 0


def test_periodic_voltage_key_naming_no_edge_exit_2(tmp_path):
    # A voltage whose key names no edge used to be dropped, and the request
    # answered.
    pgraph = {
        "vertices": 1,
        "edges": [{"id": 0, "o": 0, "t": 0}],
        "d": 1,
        "voltages": {"0": [1], "9": [5]},
    }
    wpath = write_json(tmp_path / "w.json", {"0": "2"})
    code, out, err = run_cli(["periodic", write_json(tmp_path / "pg.json", pgraph), wpath])
    assert (code, out) == (2, "")
    assert err == "input error: voltage keys name no edge of the graph: 9\n"
    del pgraph["voltages"]["9"]
    ok = run_cli(["periodic", write_json(tmp_path / "ok.json", pgraph), wpath])
    assert ok[0] == 0


def test_periodic_edgeless_huge_d_exit_3(tmp_path):
    # With no edges there are no cycle voltages and the HNF has no rows, so
    # the work must not grow with d. The address-space cap keeps a run that
    # does walk all d coordinates from exhausting the host's memory.
    pgraph = {"vertices": 1, "edges": [], "d": 10**9, "voltages": {}}
    args = [
        "periodic",
        write_json(tmp_path / "pg.json", pgraph),
        write_json(tmp_path / "w.json", {}),
    ]

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "eqcohom", *args],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=cap_memory,
    )
    assert time.perf_counter() - start < 2
    assert result.returncode == 3
    assert "precondition not met (action-not-closed)" in result.stderr


@pytest.mark.parametrize(
    "args", [["--max-dim", "0"], ["--max-dim", "1"], ["--count", "-3"]]
)
def test_verify_bad_bounds_exit_2(args):
    code, out, err = run_cli(["verify", *args])
    assert code == 2
    assert out == ""
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("max_dim", ["70", "150", str(10**9)])
def test_verify_max_dim_budget_exit_3(max_dim, monkeypatch, capsys):
    # 3 * 70^3 elimination cells is the first value over VERIFY_BUDGET; it
    # is refused before any instance is drawn.
    def draw(*args, **kwargs):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(eqcohom.randomized, "random_linear_instance", draw)
    monkeypatch.setattr(eqcohom.randomized, "random_graph_instance", draw)
    capsys.readouterr()
    code = main(["verify", "--max-dim", max_dim, "--count", "1"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith(f"precondition not met (budget): max_dim {max_dim} predicts")


def test_verify_max_dim_within_budget_runs(capsys):
    code = main(["verify", "--seed", "1", "--count", "2", "--max-dim", "69"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["checked"] == 2


def test_analyze_zero_dim_w_valid(tmp_path):
    # With dim_W = 0, "pi": [] is a 0 x dim_U matrix, not 0 x 0.
    payload = {
        "dim_U": 2,
        "dim_W": 0,
        "pi": [],
        "generators": [{"gU": [["0", "1"], ["1", "0"]], "gW": [], "order": 2}],
    }
    code, out, err = run_cli(["analyze", write_json(tmp_path / "i.json", payload)])
    assert code == 0, err
    report = json.loads(out)
    assert report["valid"] is True
    assert (report["m"], report["d"], report["quotient_dim"]) == (2, 1, 0)


def test_analyze_bool_dimension_exit_2(tmp_path):
    payload = {
        "dim_U": True,
        "dim_W": 1,
        "pi": [["1"]],
        "generators": [{"gU": [["1"]], "gW": [["1"]], "order": 1}],
    }
    code, out, err = run_cli(["analyze", write_json(tmp_path / "i.json", payload)])
    assert code == 2
    assert "bad instance JSON" in err


def test_analyze_huge_declared_order_exit_2(tmp_path):
    load_fixture(tmp_path, "shear")
    path = tmp_path / "shear.instance.json"
    payload = json.loads(path.read_text())
    payload["generators"][0]["order"] = 100000000
    code, out, err = run_cli(["analyze", write_json(path, payload)])
    assert code == 2
    report = json.loads(out)
    assert report["valid"] is False
    assert "generator 0: gU^100000000 != identity" in report["issues"]
