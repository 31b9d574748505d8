"""Command-line front end.

Subcommands: analyze, graph, periodic, verify, fixtures. Reports are
deterministic for identical inputs and seeds, and JSON by default.

Exit codes: 0 success, 1 assertion/property violation, 2 input error,
3 mathematical precondition not met.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
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
    period_lattices,
    realized_quotient_dim,
    truncation_oracle,
)
from .randomized import run_verification

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def _digest(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _load_json(path: str) -> tuple[dict, str]:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text), _digest(p)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}"
        ) from exc


def _emit(report: dict, as_text: bool) -> None:
    if as_text:
        for key in sorted(report):
            print(f"{key}: {json.dumps(report[key], sort_keys=True)}")
    else:
        print(json.dumps(report, sort_keys=True, indent=2))


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
    analysis = analyze_graph_action(graph, action)
    report = {
        "command": "graph",
        "input_digests": {"graph": gdigest, "action": adigest},
        **analysis,
    }
    _emit(report, args.text)
    return EXIT_OK if analysis["consistent"] else EXIT_VIOLATION


def cmd_periodic(args) -> int:
    pobj, pdigest = _load_json(args.pgraph)
    wobj, wdigest = _load_json(args.cochain)
    pg = PeriodicGraph.from_json(pobj)
    w = parse_invariant_cochain(pg, wobj)
    lattices = period_lattices(pg)
    dec = decompose_periodic(pg, w)
    trunc = truncation_oracle(pg, w, dec, args.radius)
    report = {
        "command": "periodic",
        "input_digests": {"pgraph": pdigest, "cochain": wdigest},
        "d": pg.d,
        "components": len(lattices),
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
    _emit(report, args.text)
    if not result.ok:
        repro = Path(args.reproducer)
        repro.write_text(
            json.dumps(
                result.violations[0].instance_json, sort_keys=True, indent=2
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"reproducer written to {repro}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_fixtures(args) -> int:
    files = fixture_files(args.name)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fname, payload in sorted(files.items()):
        path = out_dir / fname
        path.write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        written.append(str(path))
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
