"""Command-line front end.

Subcommands: analyze, graph, periodic, verify, fixtures. Reports are
deterministic for identical inputs and seeds, and JSON by default.

The command line is read against one table, COMMANDS, which also writes
the `-h`/`--help` text, so the parser and the help cannot disagree:

    eqcohom [--text | --json] COMMAND ARGUMENT... [--OPTION VALUE]...

`--text` and `--json` go before the command; the last one wins. A
command's options may come before, between or after its arguments, as
`--opt VALUE` or `--opt=VALUE`, abbreviated to any unique prefix; the
last one given wins, and an integer value is read with int(). A
negative number is a value, never an option. After `--` every word is
an argument (so a path that starts with '-' follows a `--`). `-h` or
`--help` prints the help, that of the command when it follows one, on
stdout and exits 0. These are the lines the argparse parser that this
one replaced accepted, with the same values; `tests/conftest.py` keeps
that parser as the reference. Every other line is an input error: exit
2 and one `input error: ...` line on stderr.

Each input file is read once, in one unbuffered read; its sha256 is taken
of the bytes that are then decoded as UTF-8, with universal newlines, and
parsed (`_load_json`). Every indented JSON the CLI writes (reports, the
`verify` reproducer, fixture files) comes from one writer,
`indented_json`, which gives the bytes of `json.dumps(value,
sort_keys=True, indent=2)` without the json module's pure-Python indented
encoder.

Exit codes: 0 success, 1 assertion/property violation, 2 input error
(a stdout that cannot be written included, unless the lost report is of
a violation), 3 mathematical precondition not met. A stderr that cannot
be written loses its line, not the code.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
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

_STR, _INT = {str}, {int}


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
    that precede a line at the value's own depth. A list of str alone, or
    of exact ints alone (no bool), is written by one C-level map."""
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
        kinds = set(map(type, value))
        if kinds == _STR:
            items = map(_quote, value)
        elif kinds == _INT:
            items = map(int.__repr__, value)
        else:
            items = [indented_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_quote(k) + ": " + indented_json(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _print(text: str, to_stderr: bool = False) -> None:
    """Write `text` and a newline on stdout, or on stderr, and flush it. A
    stream that cannot be written, such as a pipe whose reader has exited
    or a full disk, has its file descriptor pointed at os.devnull, so that
    the interpreter's last flush drops what is still buffered instead of
    failing again. On stdout that is an InputError: the report is lost,
    which is not a violation. On stderr the exit code alone tells."""
    stream = sys.stderr if to_stderr else sys.stdout
    if stream is None:  # the process was started without that stream
        return
    try:
        print(text, file=stream, flush=True)
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        if not to_stderr:
            raise InputError(f"cannot write to stdout: {exc}") from None


def _emit(report: dict, as_text: bool, code: int = EXIT_OK) -> int:
    """Print the report and return `code`. A report of a violation that
    stdout cannot take is lost, with one stderr line, and the violation's
    code stands; any other such report is an input error."""
    try:
        if as_text:
            _print("\n".join(
                f"{key}: {json.dumps(report[key], sort_keys=True)}" for key in sorted(report)
            ))
        else:
            _print(indented_json(report))
    except InputError as exc:
        if code != EXIT_VIOLATION:
            raise
        _print(str(exc), to_stderr=True)
    return code


def cmd_analyze(instance: str, text: bool) -> int:
    obj, digest = _load_json(instance)
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
            text,
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
    return _emit(report, text, EXIT_OK if iff.bound_ok and iff.iff_ok else EXIT_VIOLATION)


def cmd_graph(graph: str, action: str, text: bool) -> int:
    gobj, gdigest = _load_json(graph)
    aobj, adigest = _load_json(action)
    report = {
        "command": "graph",
        "input_digests": {"graph": gdigest, "action": adigest},
        **analyze_graph_action(Graph.from_json(gobj), GraphAction.from_json(aobj)),
    }
    _emit(report, text)
    return EXIT_OK


def cmd_periodic(pgraph: str, cochain: str, radius: int, text: bool) -> int:
    pobj, pdigest = _load_json(pgraph)
    wobj, wdigest = _load_json(cochain)
    pg = PeriodicGraph.from_json(pobj)
    w = parse_invariant_cochain(pg, wobj)
    dec = decompose_periodic(pg, w)
    trunc = truncation_oracle(pg, w, dec, radius)
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
    _emit(report, text)
    return EXIT_OK


def cmd_verify(seed: int, count: int, max_dim: int, reproducer: str, text: bool) -> int:
    result = run_verification(seed, count, max_dim=max_dim)
    report = {"command": "verify", **result.to_json()}
    if result.ok:
        _emit(report, text)
        return EXIT_OK
    # The reproducer is written before the report is printed, so a failed
    # write ends in exit 2 with nothing on stdout.
    repro = Path(reproducer)
    payload = indented_json(result.violations[0].instance_json)
    try:
        repro.write_text(payload + "\n", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {repro}: {exc}") from exc
    _emit(report, text, EXIT_VIOLATION)
    _print(f"reproducer written to {repro}", to_stderr=True)
    return EXIT_VIOLATION


def cmd_fixtures(name: str, out_dir: str, text: bool) -> int:
    files = fixture_files(name)
    out_dir = Path(out_dir)
    written = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for fname, payload in sorted(files.items()):
            path = out_dir / fname
            path.write_text(indented_json(payload) + "\n", encoding="utf-8")
            written.append(str(path))
    except OSError as exc:
        raise InputError(f"cannot write {out_dir}: {exc}") from exc
    _emit({"command": "fixtures", "name": name, "written": written}, text)
    return EXIT_OK


DESCRIPTION = (
    "Quotient dimensions, sharp conditions, and period decompositions "
    "for linear maps commuting with a group action."
)

# command: (handler, summary, positional names, {option: (dest, int or str, default)})
COMMANDS = {
    "analyze": (cmd_analyze, "analyze a linear instance file", ("instance",), {}),
    "graph": (cmd_graph, "analyze a graph with a group action", ("graph", "action"), {}),
    "periodic": (
        cmd_periodic,
        "decompose an invariant closed 1-form",
        ("pgraph", "cochain"),
        {"--radius": ("radius", int, 2)},
    ),
    "verify": (
        cmd_verify,
        "randomized property verification",
        (),
        {
            "--seed": ("seed", int, 0),
            "--count": ("count", int, 100),
            "--max-dim": ("max_dim", int, 6),
            "--reproducer": ("reproducer", str, "eqcohom-reproducer.json"),
        },
    ),
    "fixtures": (
        cmd_fixtures,
        f"write a canonical fixture to disk; NAME is one of: {', '.join(FIXTURE_NAMES)}",
        ("name",),
        {"--out-dir": ("out_dir", str, ".")},
    ),
}
_FORMATS = {"--text": True, "--json": False}
_HELP = ("--help", "-h")
_TOP_NAMES = (*_FORMATS, *_HELP)
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$").match


def _option_of(arg: str, names) -> tuple[list[str] | None, str | None]:
    """The options of `names` that `arg` may spell, and the value given
    after '=' (None without one). The options are None when `arg` is an
    argument: '', '-', '--', a word not starting with '-', and a negative
    number or a word with a space that spells no option. An option may
    be abbreviated to a prefix, so two or more may match; none match an
    unknown option."""
    if arg[:1] != "-" or arg == "-" or arg == "--":
        return None, None
    if arg in names:
        return [arg], None
    prefix, eq, value = arg.partition("=")
    if not eq:
        value = None
    elif prefix in names:
        return [prefix], value
    matches = [name for name in names if name.startswith(prefix)]
    if matches or not (_NEGATIVE_NUMBER(arg) or " " in arg):
        return matches, value
    return None, None


def _one_option(arg: str, matches: list[str], command: str | None) -> str:
    """The one option of `matches`; more or none is an InputError."""
    where = f"for {command}" if command else "before the command"
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise InputError(f"ambiguous option {arg!r} {where}: could be {', '.join(matches)}")
    raise InputError(f"unknown option {arg!r} {where}")


def parse_command_line(argv) -> tuple:
    """(handler, keyword arguments) for one command line, read against
    COMMANDS by the grammar of the module docstring; `--help` reads as
    (print_help, {"command": ...}). A malformed line is an InputError."""
    text = False
    for i, arg in enumerate(argv):
        matches, value = _option_of(arg, _TOP_NAMES)
        if matches is None:
            break
        option = _one_option(arg, matches, None)
        if value is not None:
            raise InputError(f"{option} takes no value")
        if option in _HELP:
            return print_help, {"command": None}
        text = _FORMATS[option]
    else:
        raise InputError(f"missing command; expected one of: {', '.join(COMMANDS)}")
    command = argv[i]
    if command not in COMMANDS:
        raise InputError(f"unknown command {command!r}; expected one of: {', '.join(COMMANDS)}")
    handler, _, positionals, options = COMMANDS[command]
    names = (*options, *_HELP)
    values = {dest: default for dest, _, default in options.values()}
    values["text"] = text
    words = []
    after_word = False
    rest = iter(argv[i + 1:])
    for arg in rest:
        if arg == "--":
            # argparse dropped a '--' only beside an argument it read
            if len(words) == len(positionals) and not after_word:
                raise InputError(f"unexpected argument '--'; usage: eqcohom {_usage(command)}")
            words.extend(rest)
            break
        matches, value = _option_of(arg, names)
        after_word = matches is None
        if after_word:
            words.append(arg)
            continue
        option = _one_option(arg, matches, command)
        if option in _HELP:
            if value is not None:
                raise InputError(f"{option} takes no value")
            return print_help, {"command": command}
        if value is None:
            value = next(rest, None)
            if value is None or value == "--" or _option_of(value, names)[0] is not None:
                raise InputError(f"{command} {option} expects a value")
        dest, kind, _ = options[option]
        try:
            values[dest] = kind(value)
        except ValueError:
            raise InputError(f"{command} {option}: not an {kind.__name__}: {value!r}") from None
    if len(words) != len(positionals):
        problem = (
            f"unexpected argument {words[len(positionals)]!r}"
            if len(words) > len(positionals)
            else "missing " + " ".join(p.upper() for p in positionals[len(words):])
        )
        raise InputError(f"{problem}; usage: eqcohom {_usage(command)}")
    values.update(zip(positionals, words))
    return handler, values


def _usage(command: str) -> str:
    _, _, positionals, options = COMMANDS[command]
    words = [command, *(p.upper() for p in positionals)]
    words += [f"[{option} {kind.__name__.upper()}]" for option, (_, kind, _) in options.items()]
    return " ".join(words)


def print_help(command: str | None) -> int:
    """Print the help of `command`, or of the CLI when it is None, from
    COMMANDS: the table that the command line is parsed against."""
    from textwrap import fill

    if command is None:
        lines = ["usage: eqcohom [--text | --json] COMMAND ...", "", fill(DESCRIPTION, 72)]
        lines += ["", "commands:"]
        for name, (_, summary, _, _) in COMMANDS.items():
            lines += [f"  {_usage(name)}", fill(summary, 72, initial_indent=" " * 6,
                                                 subsequent_indent=" " * 6)]
        lines += [
            "",
            "options, before the command:",
            "  --text      plain key: value output instead of JSON",
            "  --json      JSON output (the default)",
            "  -h, --help  show this help; after a command, that command's help",
        ]
    else:
        _, summary, _, options = COMMANDS[command]
        lines = [f"usage: eqcohom [--text | --json] {_usage(command)}", "", fill(summary, 72)]
        if options:
            lines += ["", "options:"]
            lines += [
                f"  {option} {kind.__name__.upper()}  (default: {default})"
                for option, (_, kind, default) in options.items()
            ]
    lines += [
        "",
        "Options may come before, between or after the arguments, as --opt VALUE",
        "or --opt=VALUE, abbreviated to any unique prefix; the last one given wins.",
        "After --, every word is an argument. A malformed command line exits 2",
        "with one 'input error:' line on stderr.",
    ]
    _print("\n".join(lines))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        handler, kwargs = parse_command_line(sys.argv[1:] if argv is None else argv)
        return handler(**kwargs)
    except InputError as exc:
        _print(f"input error: {exc}", to_stderr=True)
        return EXIT_INPUT
    except PreconditionError as exc:
        _print(f"precondition not met ({exc.code}): {exc.detail}", to_stderr=True)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
