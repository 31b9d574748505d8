"""Command-line front end.

Subcommands: analyze, graph, periodic, verify, fixtures. Reports are
deterministic for identical inputs and seeds, and JSON by default.

Each input file is read once, in one unbuffered read; its sha256 is taken
of the bytes that are then decoded as UTF-8, with universal newlines, and
parsed (`_load_json`). Every indented JSON the CLI writes (reports, the
`verify` reproducer, fixture files) comes from one writer,
`indented_json`, which gives the bytes of `json.dumps(value,
sort_keys=True, indent=2)` without the json module's pure-Python indented
encoder.

Exit codes: 0 success, 1 assertion/property violation, 2 input error,
3 mathematical precondition not met.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .errors import InputError, PreconditionError
from .fixtures import FIXTURE_NAMES, fixture_files
from .graphs import Graph, GraphAction, analyze_graph_action
from .instance import (
    LinearInstance,
    check_lemma_commutation,
    check_torsion_trivial,
    validate,
    verify_iff,
)
from .periodic import (
    PeriodicGraph,
    decompose_periodic,
    lift_component_count,
    parse_invariant_cochain,
    realized_quotient_dim,
    truncation_oracle,
)
from .randomized import run_verification

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def _load_json(path: str) -> tuple[dict, str]:
    """Read a JSON file and the sha256 digest of its bytes. The file is
    read once, in one unbuffered read, and the digest is of the same bytes
    that are decoded, as UTF-8 with universal newlines, and parsed. Every
    failure to read or decode it, the nesting depth and Python's int-string
    digit limit included, is an InputError."""
    try:
        with open(path, "rb", buffering=0) as f:
            data = f.readall()
        text = data.decode("utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise InputError(f"cannot read {path}: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text), "sha256:" + hashlib.sha256(data).hexdigest()
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}"
        ) from exc
    except RecursionError as exc:
        raise InputError(f"JSON in {path} is nested too deeply") from exc
    except ValueError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def indented_json(value, indent: str = "\n") -> str:
    """`json.dumps(value, sort_keys=True, indent=2)`, byte for byte, for the
    values a report holds: str, int, bool, None, lists and tuples of them,
    and dicts with str keys. Any other value or key raises TypeError (a key
    in `_quote`, or in `sorted` if the keys are of mixed types). With
    an indent, `json` encodes in pure Python; this writer does the same
    work without its generality. `indent` is the newline and indentation
    that precede a line at the value's own depth."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [indented_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_quote(k) + ": " + indented_json(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report: dict, as_text: bool) -> None:
    if as_text:
        for key in sorted(report):
            print(f"{key}: {json.dumps(report[key], sort_keys=True)}")
    else:
        print(indented_json(report))


def cmd_analyze(args) -> int:
    obj, digest = _load_json(args.instance)
    inst = LinearInstance.from_json(obj)
    report_v = validate(inst)
    if not report_v.ok:
        _emit(
            {
                "command": "analyze",
                "input_digests": {"instance": digest},
                "valid": False,
                "issues": list(report_v.issues),
            },
            args.text,
        )
        return EXIT_INPUT
    iff = verify_iff(inst)
    report = {
        "command": "analyze",
        "input_digests": {"instance": digest},
        "valid": True,
        "m": iff.m,
        "d": iff.d,
        "quotient_dim": iff.dim,
        "md": iff.m * iff.d,
        "condition_i": iff.condition_i,
        "condition_ii": iff.condition_ii,
        "bound_ok": iff.bound_ok,
        "iff_ok": iff.iff_ok,
    }
    if iff.condition_i:
        report["lemma_commutation"] = check_lemma_commutation(inst)
        torsion = check_torsion_trivial(inst)
        report["torsion"] = {
            "checked_generators": list(torsion.checked),
            "vacuous": torsion.vacuous,
            "all_fixed": torsion.all_fixed,
        }
    _emit(report, args.text)
    if not (iff.bound_ok and iff.iff_ok):
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_graph(args) -> int:
    gobj, gdigest = _load_json(args.graph)
    aobj, adigest = _load_json(args.action)
    graph = Graph.from_json(gobj)
    action = GraphAction.from_json(aobj)
    report = {
        "command": "graph",
        "input_digests": {"graph": gdigest, "action": adigest},
        **analyze_graph_action(graph, action),
    }
    _emit(report, args.text)
    return EXIT_OK


def cmd_periodic(args) -> int:
    pobj, pdigest = _load_json(args.pgraph)
    wobj, wdigest = _load_json(args.cochain)
    pg = PeriodicGraph.from_json(pobj)
    w = parse_invariant_cochain(pg, wobj)
    dec = decompose_periodic(pg, w)
    trunc = truncation_oracle(pg, w, dec, args.radius)
    report = {
        "command": "periodic",
        "input_digests": {"pgraph": pdigest, "cochain": wdigest},
        "d": pg.d,
        "components": len(pg.lattices),
        "lift_components": lift_component_count(pg),
        "realized_quotient_dim": realized_quotient_dim(pg),
        "decomposition": dec.to_json(),
        "truncation": trunc,
    }
    _emit(report, args.text)
    return EXIT_OK


def cmd_verify(args) -> int:
    result = run_verification(args.seed, args.count, max_dim=args.max_dim)
    report = {"command": "verify", **result.to_json()}
    if result.ok:
        _emit(report, args.text)
        return EXIT_OK
    # The reproducer is written before the report is printed, so a failed
    # write ends in exit 2 with nothing on stdout.
    repro = Path(args.reproducer)
    text = indented_json(result.violations[0].instance_json)
    try:
        repro.write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {repro}: {exc}") from exc
    _emit(report, args.text)
    print(f"reproducer written to {repro}", file=sys.stderr)
    return EXIT_VIOLATION


def cmd_fixtures(args) -> int:
    files = fixture_files(args.name)
    out_dir = Path(args.out_dir)
    written = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for fname, payload in sorted(files.items()):
            path = out_dir / fname
            path.write_text(indented_json(payload) + "\n", encoding="utf-8")
            written.append(str(path))
    except OSError as exc:
        raise InputError(f"cannot write {out_dir}: {exc}") from exc
    _emit({"command": "fixtures", "name": args.name, "written": written}, args.text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process on first use and shared by
    every `main` call; parsing never mutates it, and callers must not."""
    parser = argparse.ArgumentParser(
        prog="eqcohom",
        description=(
            "Quotient dimensions, sharp conditions, and period decompositions "
            "for linear maps commuting with a group action."
        ),
    )
    parser.add_argument(
        "--text", action="store_true", help="plain key: value output instead of JSON"
    )
    parser.add_argument(
        "--json", dest="text", action="store_false", help="JSON output (default)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a linear instance file")
    p.add_argument("instance")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("graph", help="analyze a graph with a group action")
    p.add_argument("graph")
    p.add_argument("action")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("periodic", help="decompose an invariant closed 1-form")
    p.add_argument("pgraph")
    p.add_argument("cochain")
    p.add_argument("--radius", type=int, default=2)
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("verify", help="randomized property verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-dim", type=int, default=6)
    p.add_argument("--reproducer", default="eqcohom-reproducer.json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fixtures", help="write a canonical fixture to disk")
    p.add_argument("name", help=f"one of: {', '.join(FIXTURE_NAMES)}")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"precondition not met ({exc.code}): {exc.detail}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
