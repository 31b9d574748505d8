import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import pytest

import eqcohom.instance
import eqcohom.randomized
from eqcohom.cli import _load_json, main
from eqcohom.errors import InputError
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


@pytest.mark.parametrize(
    "name",
    ["torus-+3", "torus- 3", "torus-03", "torus-3 ", "torus-0", "torus-10", "torus-d",
     "torus-", "torus-٣", "torus-3.0"],
)
def test_fixtures_torus_takes_exactly_one_digit_1_to_9(name, tmp_path, capsys):
    # int() reads each of these spellings, or refuses it with another
    # message; only torus-1 .. torus-9 name a fixture.
    assert main(["fixtures", name, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad torus fixture name" in err and "torus-1 .. torus-9" in err
    assert list(tmp_path.iterdir()) == []
    assert main(["fixtures", "torus-9", "--out-dir", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["torus-9.pgraph.json"]


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


def test_load_json_reads_each_input_once(monkeypatch, tmp_path):
    # The file is opened once, and the digest is the sha256 of the bytes
    # that were parsed, even when the file is replaced right after that
    # open.
    path = tmp_path / "in.json"
    first = b'{"a": [1, 2]}\r\n'
    path.write_bytes(first)
    opened = []
    real_open = pathlib.Path.open

    def open_then_replace(self, *args, **kwargs):
        handle = real_open(self, *args, **kwargs)
        opened.append(self)
        if len(opened) == 1:
            nxt = tmp_path / "next.json"
            with real_open(nxt, "wb") as f:
                f.write(b'{"a": 3}')
            os.replace(nxt, path)
        return handle

    monkeypatch.setattr(pathlib.Path, "open", open_then_replace)
    obj, digest = _load_json(str(path))
    assert opened == [path]
    assert obj == {"a": [1, 2]}
    assert digest == "sha256:" + hashlib.sha256(first).hexdigest()


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_load_json_reads_universal_newlines(tmp_path, newline):
    # Every newline convention counts as a line break in the error's line
    # and column.
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"{" + newline + b'"dim_U": 2,,}')
    with pytest.raises(InputError) as err:
        _load_json(str(bad))
    assert str(err.value) == f"malformed JSON in {bad} at line 2, column 12"


@pytest.mark.parametrize(
    "content, fragment",
    [
        (b"\xff\xfe{}", "cannot read"),
        (b"[" * 100_000, "is nested too deeply"),
        (b'{"dim_U": ' + b"7" * 5000 + b"}", "integer string conversion"),
    ],
    ids=["not-utf8", "deep-nesting", "huge-int-literal"],
)
def test_analyze_undecodable_json_exit_2(tmp_path, capsys, content, fragment):
    # Each decode failure ends in one input-error line, not a traceback.
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code = main(["analyze", str(bad)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert fragment in err and str(bad) in err


def test_fixtures_out_dir_is_a_file_exit_2(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    for out_dir in (taken, taken / "sub"):
        code, out, err = run_cli(["fixtures", "shear", "--out-dir", str(out_dir)])
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: cannot write {out_dir}: ")
        assert "Traceback" not in err


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


def _run_capped(args):
    """Run the CLI in a subprocess under a 1 GiB address-space cap;
    returns (the completed process, its wall time in seconds)."""

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
    return result, time.perf_counter() - start


@pytest.mark.parametrize("command", ["graph", "periodic"])
def test_huge_vertex_count_refused_at_once(tmp_path, command):
    # A vertex count is one JSON number, so the graph budget is checked
    # before any vertex is built; the address-space cap keeps a run that
    # does build them from exhausting the host's memory.
    graph = {"vertices": 10**9, "edges": []}
    if command == "graph":
        second = {"generators": []}
    else:
        graph.update(d=2, voltages={})
        second = {}
    args = [
        command,
        write_json(tmp_path / "g.json", graph),
        write_json(tmp_path / "second.json", second),
    ]
    result, seconds = _run_capped(args)
    assert seconds < 2
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == (
        "precondition not met (budget): graph has 1000000000 vertices plus "
        "edges, over the budget of 1000000\n"
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


def test_verify_unwritable_reproducer_exit_2(monkeypatch, tmp_path, capsys):
    # The mutant of test_verify_mutant_condition_ii_detected makes verify
    # write a reproducer; a directory in its place is an input error.
    monkeypatch.setattr(
        eqcohom.instance, "check_condition_ii", lambda inst: not check_condition_ii(inst)
    )
    code = main(["verify", "--seed", "7", "--count", "60", "--reproducer", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2
    # The reproducer is written before the report: a failed write leaves
    # no violation report on stdout.
    assert out == ""
    assert err.startswith(f"input error: cannot write {tmp_path}: ")
    assert err.count("\n") == 1


def test_verify_flags_a_shift_that_is_not_fixed(monkeypatch, tmp_path, capsys):
    # A u_jk shift drawn off U^G moves the invariant part of the shifted
    # decomposition: verify flags it as a violation, writes the reproducer
    # and exits 1, with no traceback.
    combination = eqcohom.randomized._combination

    def off_fixed(rng, basis, bound):
        out = combination(rng, basis, bound)
        return [x + 1 for x in out] if bound == 2 else out

    monkeypatch.setattr(eqcohom.randomized, "_combination", off_fixed)
    repro = tmp_path / "repro.json"
    code = main(["verify", "--seed", "7", "--count", "60", "--reproducer", str(repro)])
    out, err = capsys.readouterr()
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False and report["checked"] == 60
    assert report["violations"]
    for v in report["violations"]:
        assert v["kind"] == "shift-invariance"
        assert v["detail"] == "invariant part not fixed under a fixed-vector shift"
    assert set(json.loads(repro.read_text())) == {"dim_U", "dim_W", "pi", "generators"}
    assert err == f"reproducer written to {repro}\n"


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


def _write_in_order(path, payload):
    """Write JSON keeping the payload's key order, so a test can put
    colliding keys in either order (write_json sorts keys)."""
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "voltages, bad",
    [
        ({"0": [1], "1": [2], "01": [5]}, "01"),
        ({"01": [5], "0": [1], "1": [2]}, "01"),
        ({"0": [1], " 1": [5], "1": [2]}, " 1"),
        ({"1": [2], "0": [1], "+1": [5]}, "+1"),
    ],
)
def test_periodic_voltage_keys_that_read_as_an_edge_id_exit_2(tmp_path, voltages, bad):
    # "01", " 1" and "+1" all read as 1 through int(), and the last of the
    # colliding keys used to win: in one order the request exited 3 with
    # not-closed, in the other it exited 0. Like 1-cochain keys, a voltage
    # key must be the edge id as str(id) writes it, whatever the order.
    pgraph = {
        "vertices": 1,
        "edges": [{"id": 0, "o": 0, "t": 0}, {"id": 1, "o": 0, "t": 0}],
        "d": 1,
        "voltages": voltages,
    }
    wpath = write_json(tmp_path / "w.json", {"0": "3", "1": "6"})
    code, out, err = run_cli(["periodic", _write_in_order(tmp_path / "pg.json", pgraph), wpath])
    assert (code, out) == (2, "")
    assert err == f"input error: voltage keys name no edge of the graph: {bad}\n"
    del voltages[bad]
    ok = run_cli(["periodic", _write_in_order(tmp_path / "ok.json", pgraph), wpath])
    assert ok[0] == 0 and json.loads(ok[1])["decomposition"]["a"] == [["3"]]


def test_periodic_voltage_list_names_the_field(tmp_path):
    pgraph = {"vertices": 1, "edges": [{"id": 0, "o": 0, "t": 0}], "d": 1, "voltages": [[1]]}
    wpath = write_json(tmp_path / "w.json", {"0": "1"})
    code, out, err = run_cli(["periodic", write_json(tmp_path / "pg.json", pgraph), wpath])
    assert (code, out) == (2, "")
    assert err == 'input error: bad periodic graph JSON: "voltages" is not a JSON object\n'


@pytest.mark.parametrize(
    "orders, bad",
    [
        ({"0": 2, "00": 3}, "00"),
        ({"00": 3, "0": 2}, "00"),
        ({" 0": 3, "0": 2}, " 0"),
        ({"0": 2, "-0": 3}, "-0"),
    ],
)
def test_graph_order_keys_that_read_as_an_index_exit_2(tmp_path, orders, bad):
    # The reflection of the triangle has order 2. "00", " 0" and "-0" read
    # as generator 0 through int(), and the last of the colliding keys used
    # to win, so {"0": 2, "00": 3} exited 2 and {"00": 3, "0": 2} exited 0.
    # An order key must be the generator index as str(index) writes it.
    graph = {
        "vertices": 3,
        "edges": [{"id": 0, "o": 0, "t": 1}, {"id": 1, "o": 1, "t": 2}, {"id": 2, "o": 2, "t": 0}],
    }
    action = {"generators": [[0, 2, 1]], "orders": orders}
    args = ["graph", write_json(tmp_path / "g.json", graph)]
    code, out, err = run_cli([*args, _write_in_order(tmp_path / "a.json", action)])
    assert (code, out) == (2, "")
    assert err == f"input error: bad action JSON: order key {bad!r} is not a generator index\n"
    del orders[bad]
    assert run_cli([*args, _write_in_order(tmp_path / "ok.json", action)])[0] == 0


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
    result, seconds = _run_capped(args)
    assert seconds < 2
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
