import builtins
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import eqcohom.cli
import eqcohom.instance
import eqcohom.randomized
from eqcohom.cli import _load_json, indented_json, main
from eqcohom.errors import GRAPH_BUDGET, InputError
from eqcohom.fixtures import FIXTURE_NAMES, fixture_files
from eqcohom.instance import check_condition_ii
from eqcohom.randomized import run_verification

from conftest import RAT_STRINGS, build_parser, fraction_of, run_cli, write_json


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

    def open_then_replace(file, *args, **kwargs):
        handle = builtins.open(file, *args, **kwargs)
        opened.append(file)
        if len(opened) == 1:
            nxt = tmp_path / "next.json"
            nxt.write_bytes(b'{"a": 3}')
            os.replace(nxt, path)
        return handle

    # The loader's `open` is the builtin, looked up in the module's globals
    # first.
    monkeypatch.setattr(eqcohom.cli, "open", open_then_replace, raising=False)
    obj, digest = _load_json(str(path))
    assert opened == [str(path)]
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
    "content, position",
    [
        (b'\xef\xbb\xbf{"a": 1}', "line 1, column 1"),  # json refuses a BOM
        (b'{"a": "x\ry"}', "line 1, column 9"),  # the lone CR, read as LF
        (b'{"a": "x\r\ny"}', "line 1, column 9"),  # one LF, not two
        (b'{\r\r\n"a": 1,,}', "line 3, column 8"),  # CR, then CR LF
    ],
    ids=["utf8-bom", "lone-cr-in-string", "crlf-in-string", "cr-then-crlf"],
)
def test_load_json_newline_and_bom_errors(tmp_path, content, position):
    # A UTF-8 BOM is not stripped, and a newline inside a string is a raw
    # control character there, whichever convention wrote it.
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    with pytest.raises(InputError) as err:
        _load_json(str(bad))
    assert str(err.value) == f"malformed JSON in {bad} at {position}"


def _load_json_via_text_layer(path: str):
    """The reference loader: the same checks, read through io's text layer,
    which decodes UTF-8 with universal newlines."""
    data = pathlib.Path(path).read_bytes()
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        return f"cannot read {path}: {exc}"
    try:
        return json.loads(text), "sha256:" + hashlib.sha256(data).hexdigest()
    except json.JSONDecodeError as exc:
        return f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}"


def test_load_json_matches_the_text_layer(tmp_path):
    # Seeded byte strings over JSON tokens, every newline convention, a BOM
    # and invalid or truncated UTF-8: the one-read loader returns the same
    # value and digest, or the same error, as the text-layer reference.
    rng = random.Random(23)
    pieces = [b"{", b"}", b"[", b"]", b",", b":", b" ", b'"', b"a", b"1", b"-",
              b"\n", b"\r", b"\r\n", b"\xef\xbb\xbf", b"\xe2\x82", b"\xe2\x82\xac",
              b"\xff", b"\\", b'"k": "v\r\nw"', b'[1, 2]', b'{"x": [true, null]}']
    path = tmp_path / "in.json"
    kinds = set()
    for _ in range(1500):
        content = b"".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        if rng.random() < 0.3:
            content = b'{"a": ' + content.replace(b"\r", b"\r\n") + b"}"
        path.write_bytes(content)
        want = _load_json_via_text_layer(str(path))
        try:
            got = _load_json(str(path))
        except InputError as exc:
            got = str(exc)
        assert got == want, content
        kinds.add(type(want).__name__ if isinstance(want, tuple) else want.split()[0])
    assert kinds == {"tuple", "cannot", "malformed"}


def test_load_json_path_errors(tmp_path, capsys):
    # An empty path names no file: it is not read as the directory ".".
    # A missing file and a directory keep their messages, and a path with
    # a NUL, which only an in-process caller can pass, is an input error.
    action = write_json(tmp_path / "a.json", {"generators": []})
    missing = tmp_path / "missing.json"
    cases = [
        ("", "[Errno 2] No such file or directory: ''"),
        (str(missing), f"[Errno 2] No such file or directory: '{missing}'"),
        (str(tmp_path), f"[Errno 21] Is a directory: '{tmp_path}'"),
        ("in\x00.json", "embedded null byte"),
    ]
    for path, reason in cases:
        code = main(["graph", path, action])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"input error: cannot read {path}: {reason}\n"


_CHARS = ["a", "Z", "0", " ", '"', "\\", "/", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
          "\u00e9", "\u20ac", "\u2028", "\U0001d11e", "\ud800"]


def _random_text(rng: random.Random, longest: int) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, longest)))


def _random_report_value(rng: random.Random, depth: int):
    """A value of the kinds a report holds: str, int, bool, None, and lists,
    tuples and str-keyed dicts of them, empty ones included."""
    kind = rng.randrange(9 if depth else 5)
    if kind == 0:
        return _random_text(rng, 6)
    if kind == 1:
        return rng.choice([0, 1, -1, 7, -(2**70) + 3, 10**40, rng.randint(-999, 999)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice([[], {}, (), [[]], {"": {}}, [{}, []]])
    items = [_random_report_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    return {_random_text(rng, 3): v for v in items}


# Lists that the one-map writing of all-str and all-int lists must tell
# apart: bool beside int (a bool is an int, but is written true/false),
# non-ASCII, escaped and lone-surrogate strings, tuples, and empty lists
# nested in lists.
EDGE_LISTS = [
    [True, 1], [1, True], [False, 0, 1], [True, False], [1, 2**70, -3],
    ["\u00e9", "\u20ac", "\U0001d11e"], ['"', "\\", "\n", "\x00", "\x7f", "\u2028"],
    ["\ud800", "a\udfff"], ["a", 1], ["1", None], (1, 2), ("a", "b"), (True, 1),
    [[]], [[], []], [[[]], [], [[], [1]]], [["a"], [1, 2], [True]], {"k": [[], ["x"]]},
]


def test_indented_json_matches_json_dumps():
    rng = random.Random(29)
    for _ in range(3000):
        value = _random_report_value(rng, rng.randint(0, 4))
        assert indented_json(value) == json.dumps(value, sort_keys=True, indent=2)
    for value in EDGE_LISTS:
        assert indented_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value", [1.0, Fraction(1, 2), {1: "a"}, {"a": 1, 2: "b"}, {None: 0},
              [0, [Fraction(3)]], {"a": {"b": 0.5}}, b"bytes", {"a"}],
    ids=["float", "fraction", "int-key", "mixed-keys", "none-key",
         "nested-fraction", "nested-float", "bytes", "set"],
)
def test_indented_json_refuses_other_types(value):
    with pytest.raises(TypeError):
        indented_json(value)


def test_fixture_files_are_json_dumps_bytes(tmp_path):
    # Every fixture file is written by the report writer, byte for byte as
    # json.dumps(payload, sort_keys=True, indent=2) and a newline.
    names = [n for n in FIXTURE_NAMES if not n.startswith("torus-d")]
    names += [f"torus-{d}" for d in range(1, 10)]
    for name in names:
        assert main(["fixtures", name, "--out-dir", str(tmp_path)]) == 0
        for fname, payload in fixture_files(name).items():
            want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
            assert (tmp_path / fname).read_text(encoding="utf-8") == want


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
    text = repro.read_text(encoding="utf-8")
    assert set(json.loads(text)) == {"dim_U", "dim_W", "pi", "generators"}
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
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


def test_graph_doubled_triangle_true_order_exit_0(tmp_path):
    # A 3-cycle on a triangle whose sides are doubled in mixed orientations,
    # given its true order 3. The edge lift is a homomorphism, so gW^3 is the
    # identity as gU^3 is, and the order is accepted.
    ends = [(0, 1), (0, 2), (0, 1), (1, 2), (2, 0), (1, 2)]
    graph = {"vertices": 3, "edges": [{"id": i, "o": o, "t": t} for i, (o, t) in enumerate(ends)]}
    action = {"generators": [[2, 0, 1]], "orders": {"0": 3}}
    code, out, err = run_cli(
        [
            "graph",
            write_json(tmp_path / "g.json", graph),
            write_json(tmp_path / "a.json", action),
        ]
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["group_order"] == 3


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


@pytest.mark.parametrize("orders", [[], 0, False, ""], ids=repr)
def test_graph_falsy_non_object_orders_exit_2(tmp_path, orders):
    code, out, err = _triangle_graph(tmp_path, {"generators": [[1, 2, 0]], "orders": orders})
    assert (code, out) == (2, "")
    assert err == 'input error: bad action JSON: "orders" is not a JSON object\n'


def test_graph_null_orders_read_as_absent(tmp_path):
    code, out, err = _triangle_graph(tmp_path, {"generators": [[1, 2, 0]], "orders": None})
    assert code == 0, err
    assert json.loads(out)["group_order"] == 3


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
    # the work must not grow with d, up to the largest d that the graph
    # budget admits beside one vertex. The address-space cap keeps a run
    # that does walk all d coordinates from exhausting the host's memory.
    pgraph = {"vertices": 1, "edges": [], "d": GRAPH_BUDGET - 1, "voltages": {}}
    args = [
        "periodic",
        write_json(tmp_path / "pg.json", pgraph),
        write_json(tmp_path / "w.json", {}),
    ]
    result, seconds = _run_capped(args)
    assert seconds < 2
    assert result.returncode == 3
    assert "precondition not met (action-not-closed)" in result.stderr


@pytest.mark.parametrize("d", [60000, 10**7, 10**9])
def test_periodic_vertexless_rank_is_bounded(tmp_path, d):
    # With no vertex the window has no cell, so no stride of the d
    # coordinates is built; d is one JSON number, so it counts against the
    # graph budget beside the vertices and edges.
    pgraph = {"vertices": 0, "edges": [], "d": d, "voltages": {}}
    args = [
        "periodic",
        write_json(tmp_path / "pg.json", pgraph),
        write_json(tmp_path / "w.json", []),
    ]
    result, seconds = _run_capped(args)
    assert seconds < 10
    if d <= GRAPH_BUDGET:
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["truncation"] == {"radius": 2, "checks": 0, "ok": True}
        assert report["decomposition"]["a"] == [[]] * d
    else:
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == (
            f"precondition not met (budget): periodic graph has {d} vertices "
            f"plus edges plus rank d, over the budget of {GRAPH_BUDGET}\n"
        )


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


# The vocabulary of the command-line corpus. Left out are the forms that
# argparse reads differently between Python 3.10 and 3.13: a `--` before the
# command, last on the line or as an option's value, a second `--`, a
# negative number spelled with '_' or a letter, a word that starts with '-'
# and holds a space, and every help option (argparse's help text is not the
# table's; `test_help_is_written_from_the_command_table` covers help).
_COMMAND_WORDS = ["analyze", "graph", "periodic", "verify", "fixtures", "nonesuch", ""]
_FORMAT_WORDS = ["--text", "--json", "--t", "--te", "--j", "--jso", "--text=1", "--json=", "-x", "--=3"]
_OPTION_WORDS = ["--radius", "--seed", "--count", "--max-dim", "--reproducer", "--out-dir"]
_PATH_WORDS = ["a.json", "b.json", "dir/c.json", "", "-", "-3", "-x.json"]
_VALUE_WORDS = [
    "3", "0", "10", "-3", "-0", "-12", "1_000", " 7", "7 ", "+5", "\u0663", "x", "3.0",
    "1e3", "1__0", "0x10", "9" * 5000, *_PATH_WORDS,
]


_ARITY = {"analyze": 1, "graph": 2, "periodic": 2, "verify": 0, "fixtures": 1}
_OWN_OPTIONS = {
    "periodic": ["--radius"],
    "verify": ["--seed", "--count", "--max-dim", "--reproducer"],
    "fixtures": ["--out-dir"],
}


def _option_words(rng, command):
    own = _OWN_OPTIONS.get(command)
    option = rng.choice(own if own and rng.random() < 0.8 else _OPTION_WORDS)
    if rng.random() < 0.5:
        option = option[: rng.randrange(3, len(option))]
    value = rng.choice(_VALUE_WORDS)
    if rng.random() < 0.4:
        return [f"{option}={value}"]
    return [option] if rng.random() < 0.05 else [option, value]


def _command_line(rng):
    """A seeded command line and its command word (None if it has none)."""
    line = [rng.choice(_FORMAT_WORDS) for _ in range(rng.choice([0, 0, 0, 1, 2]))]
    if rng.random() < 0.03:
        return line, None
    command = rng.choice(_COMMAND_WORDS[:5] * 3 + _COMMAND_WORDS)
    arity = max(0, _ARITY.get(command, 1) + rng.choice([0, 0, 0, 0, 0, -1, 1]))
    chunks = [[rng.choice(_PATH_WORDS)] for _ in range(arity)]
    for _ in range(rng.randrange(4) if command in _OWN_OPTIONS else rng.choice([0, 0, 0, 1])):
        chunks.insert(rng.randrange(len(chunks) + 1), _option_words(rng, command))
    if rng.random() < 0.1:
        chunks.insert(rng.randrange(len(chunks) + 1), [rng.choice(_FORMAT_WORDS[:4])])
    if chunks and rng.random() < 0.2:  # one `--`, never last
        chunks.insert(rng.randrange(len(chunks)), ["--"])
    return [*line, command, *(word for chunk in chunks for word in chunk)], command


def _argparse_reading(line):
    """The argparse reference's (handler, values) for a line, or None if it
    refused the line with exit 2."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            namespace = vars(build_parser().parse_args(line))
        except SystemExit as exc:
            assert exc.code == 2 and "error:" in err.getvalue(), (line, exc.code)
            return None
    namespace.pop("command")
    return namespace.pop("func"), namespace


def test_command_lines_parse_as_argparse_did(capsys):
    rng = random.Random(27)
    outcomes = {}
    for _ in range(3000):
        line, command = _command_line(rng)
        reference = _argparse_reading(line)
        try:
            handler, values = eqcohom.cli.parse_command_line(line)
        except InputError:
            assert reference is None, line
            capsys.readouterr()
            assert main(line) == 2
            out, err = capsys.readouterr()
            assert out == "", line
            assert err.startswith("input error: ") and err.count("\n") == 1, (line, err)
            assert "Traceback" not in err
        else:
            assert reference is not None, line
            assert handler is reference[0], line
            typed = {k: (type(v), v) for k, v in values.items()}
            assert typed == {k: (type(v), v) for k, v in reference[1].items()}, line
        key = (command, reference is not None)
        outcomes[key] = outcomes.get(key, 0) + 1
    # Every command is both accepted and refused many times over.
    for command in _ARITY:
        assert outcomes.get((command, True), 0) >= 50, outcomes
        assert outcomes.get((command, False), 0) >= 50, outcomes


def test_a_double_dash_beside_no_argument_is_refused():
    # argparse dropped a `--` only inside the words it read as one argument.
    parse = eqcohom.cli.parse_command_line
    for line in (["verify", "--"], ["verify", "--seed", "1", "--"],
                 ["periodic", "a", "b", "--radius", "3", "--"], ["fixtures", "n", "--out-dir", "d", "--"]):
        with pytest.raises(InputError, match="unexpected argument '--'"):
            parse(line)
    assert parse(["graph", "a", "b", "--"]) == (eqcohom.cli.cmd_graph, {"text": False, "graph": "a", "action": "b"})
    assert parse(["periodic", "a", "--radius", "3", "b", "--"])[1]["cochain"] == "b"
    assert parse(["fixtures", "--out-dir", "d", "--", "-n"])[1] == {"out_dir": "d", "text": False, "name": "-n"}


def test_help_is_written_from_the_command_table(capsys):
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: eqcohom [--text | --json] COMMAND")
    for command in eqcohom.cli.COMMANDS:
        assert f"\n  {eqcohom.cli._usage(command)}\n" in out
    for line, command in ((["-h"], None), (["--json", "--he"], None),
                          (["periodic", "--ra=3", "-h"], "periodic"), (["fixtures", "--help"], "fixtures")):
        assert eqcohom.cli.parse_command_line(line) == (eqcohom.cli.print_help, {"command": command})
    for command, (_, summary, _, options) in eqcohom.cli.COMMANDS.items():
        assert main([command, "--help"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith(f"usage: eqcohom [--text | --json] {eqcohom.cli._usage(command)}\n")
        assert " ".join(summary.split()) in " ".join(out.split())
        for option, (_, kind, default) in options.items():
            assert f"  {option} {kind.__name__.upper()}  (default: {default})\n" in out
    main(["fixtures", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert all(name in out for name in FIXTURE_NAMES)


def _run_into(stdout_fd, args, unbuffered):
    """Run `python ARGS` in a subprocess whose stdout is `stdout_fd`,
    buffered or not; returns (exit code, stderr)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    result = subprocess.run(
        [sys.executable, *args],
        stdout=stdout_fd,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        env=env,
    )
    return result.returncode, result.stderr


def _run_into_closed_pipe(args, unbuffered):
    """_run_into a pipe whose read end is closed before the run starts."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _run_into(write_end, args, unbuffered)
    finally:
        os.close(write_end)


CLOSED_PIPE = "input error: cannot write to stdout: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--count", "3"],
        ["--text", "verify", "--count", "3"],
        ["--help"],
        ["fixtures", "torus-2", "--out-dir", "{tmp}"],
        ["periodic", "{tmp}/torus-2.pgraph.json", "{tmp}/w.json"],
    ],
)
def test_closed_stdout_exits_2_without_traceback(tmp_path, args, unbuffered):
    # Writing the report fails: at once when stdout is unbuffered, and at
    # the flush that follows it when stdout is buffered. Either way exit 2
    # with one line on stderr, and nothing from the interpreter's last
    # flush.
    load_fixture(tmp_path, "torus-2")
    write_json(tmp_path / "w.json", {"0": "5", "1": "-3"})
    args = ["-m", "eqcohom", *(arg.replace("{tmp}", str(tmp_path)) for arg in args)]
    assert _run_into_closed_pipe(args, unbuffered) == (2, CLOSED_PIPE)


def test_closed_stdout_is_pointed_at_devnull(tmp_path):
    # What stays buffered after the failed flush goes to os.devnull at the
    # interpreter's last flush, so that flush cannot fail a second time.
    script = (
        "import os, sys\n"
        "from eqcohom.cli import main\n"
        "code = main(['fixtures', 'torus-2', '--out-dir', sys.argv[1]])\n"
        "print(code, os.path.samestat(os.fstat(1), os.stat(os.devnull)), file=sys.stderr)\n"
    )
    for unbuffered in (False, True):
        got = _run_into_closed_pipe(["-c", script, str(tmp_path)], unbuffered)
        assert got == (0, CLOSED_PIPE + "2 True\n")


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "args, code",
    [
        (["verify", "--count", "3"], 2),
        (["--help"], 2),
        (["periodic", "{tmp}/missing.json", "{tmp}/missing.json"], 2),
        (["periodic", "{tmp}/square-index2.pgraph.json", "{tmp}/w.json"], 3),
    ],
)
def test_closed_stdout_and_stderr_keep_the_exit_code(tmp_path, args, code, unbuffered):
    # `eqcohom ... 2>&1 | head`: stderr is the same closed pipe, so the
    # error line is lost too, but the exit code still tells what happened.
    load_fixture(tmp_path, "square-index2")
    write_json(tmp_path / "w.json", {"0": "1", "1": "0"})
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "eqcohom", *args],
            stdout=write_end, stderr=write_end, timeout=60, env=env,
        )
    finally:
        os.close(write_end)
    assert result.returncode == code


def test_no_stderr_still_exits_2(tmp_path):
    # With no stderr at all (fd 2 closed, `2>&-`) the error line has
    # nowhere to go, and nothing of it reaches stdout.
    missing = str(tmp_path / "missing.json")
    result = subprocess.run(
        [sys.executable, "-m", "eqcohom", "periodic", missing, missing],
        stdout=subprocess.PIPE, text=True, timeout=60, preexec_fn=lambda: os.close(2),
    )
    assert (result.returncode, result.stdout) == (2, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_2_without_traceback():
    for unbuffered in (False, True):
        with open("/dev/full", "wb") as full:
            code, err = _run_into(full.fileno(), ["-m", "eqcohom", "verify", "--count", "2"], unbuffered)
        assert (code, err) == (2, "input error: cannot write to stdout: [Errno 28] No space left on device\n")


def test_no_stdout_still_exits_0(tmp_path):
    # With no stdout at all (fd 1 closed, as by `>&-`) sys.stdout is None
    # and print writes nothing: the report is discarded, as it always was.
    result = subprocess.run(
        [sys.executable, "-m", "eqcohom", "fixtures", "torus-2", "--out-dir", str(tmp_path)],
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        preexec_fn=lambda: os.close(1),
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert (tmp_path / "torus-2.pgraph.json").exists()


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_closed_stdout_keeps_the_violation_code(tmp_path, command, unbuffered):
    # A violation whose report stdout cannot take still exits 1: the
    # report is lost, one stderr line says so, and no traceback follows.
    # The mutant of test_verify_mutant_condition_ii_detected makes both
    # commands find a violation.
    load_fixture(tmp_path, "shear")
    repro = tmp_path / "repro.json"
    script = (
        "import sys\n"
        "import eqcohom.instance as instance\n"
        "real = instance.check_condition_ii\n"
        "instance.check_condition_ii = lambda inst: not real(inst)\n"
        "from eqcohom.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    if command == "analyze":
        args = ["analyze", str(tmp_path / "shear.instance.json")]
        tail = ""
    else:
        args = ["verify", "--seed", "7", "--count", "60", "--reproducer", str(repro)]
        tail = f"reproducer written to {repro}\n"
    code, err = _run_into_closed_pipe(["-c", script, *args], unbuffered)
    assert (code, err) == (1, CLOSED_PIPE[len("input error: "):] + tail)
