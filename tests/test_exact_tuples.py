"""Tuples in the package are built at their final length: from a list, a
tuple, a range or a slice, never from a generator or from zip, map or
filter. Those have no length, so tuple() allocates by a guess and resizes,
and each freed tuple lands in the interpreter's free list for its new
length, where it is seldom reused (see `linalg.Mat`), and the process
grows with the number of requests it serves. No memory figure is
asserted; this check keeps the pattern from coming back."""

import ast
from pathlib import Path

import eqcohom

SRC = Path(eqcohom.__file__).resolve().parent
UNSIZED_CALLS = ("zip", "map", "filter")


def _unsized(node: ast.expr) -> bool:
    if isinstance(node, ast.GeneratorExp):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in UNSIZED_CALLS
    )


def test_no_tuple_is_built_from_an_iterator_without_a_length():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 9
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "tuple"
                and node.args
                and _unsized(node.args[0])
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_check_sees_each_pattern():
    # Each unsized form is caught, and the sized forms are not.
    def flagged(source):
        call = ast.parse(source, mode="eval").body
        return _unsized(call.args[0])

    unsized = ("tuple(x for x in y)", "tuple(zip(*m))", "tuple(map(f, y))",
               "tuple(filter(None, y))")
    sized = ("tuple([x for x in y])", "tuple(list(zip(*m)))", "tuple(y[1:])",
             "tuple(range(n))")
    assert [flagged(s) for s in unsized] == [True] * 4
    assert [flagged(s) for s in sized] == [False] * 4
