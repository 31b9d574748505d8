"""Every elimination runs in linalg: no other module of src/eqcohom imports
`rref` or reaches into a `Reduction`, and the one lattice routine, the HNF,
is linalg's. The package `__init__` re-exports `rref` as public API, and
may, since it holds nothing but imports and assignments."""

import ast
from pathlib import Path

from eqcohom import periodic
from eqcohom.linalg import Reduction, hermite_normal_form

SRC = Path(__file__).resolve().parents[1] / "src" / "eqcohom"
FORBIDDEN_NAMES = {"rref", "_rref_augmented"}
REDUCTION_INTERNALS = {name for name in Reduction.__slots__ if name.startswith("_")}


def _linalg_imports(node):
    """Names a node imports from linalg, and whether it imports the module."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1 and node.module == "linalg":
            return [alias.name for alias in node.names], False
        if node.level == 0 and node.module == "eqcohom.linalg":
            return [alias.name for alias in node.names], False
        if (node.level, node.module) in ((1, None), (0, "eqcohom")):
            return [], any(alias.name == "linalg" for alias in node.names)
    if isinstance(node, ast.Import):
        return [], any(alias.name == "eqcohom.linalg" for alias in node.names)
    return [], False


def test_only_linalg_eliminates():
    assert REDUCTION_INTERNALS
    sources = sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py")
    assert len(sources) >= 8
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names, whole_module = _linalg_imports(node)
            assert not whole_module, f"{path.name} imports the linalg module"
            bad = FORBIDDEN_NAMES.intersection(names)
            if path.name == "__init__.py":
                bad.discard("rref")
            assert not bad, f"{path.name} imports {sorted(bad)} from linalg"
            if isinstance(node, ast.Attribute):
                assert node.attr not in REDUCTION_INTERNALS | FORBIDDEN_NAMES, (
                    f"{path.name}:{node.lineno} reads .{node.attr}"
                )


def test_package_init_only_reexports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    for stmt in tree.body:
        assert isinstance(stmt, (ast.ImportFrom, ast.Assign, ast.Expr)), ast.dump(stmt)
        if isinstance(stmt, ast.Expr):
            assert isinstance(stmt.value, ast.Constant)


def test_the_hnf_is_linalgs_and_names_the_solve_cycles():
    # periodic reads the HNF under its old name, and the cycles that opened
    # the HNF's pivots are its solve cycles: it runs no second elimination
    # over the cycle voltages to pick them.
    assert hermite_normal_form.__module__ == "eqcohom.linalg"
    assert periodic.hermite_normal_form is hermite_normal_form
    source = SRC / "periodic.py"
    tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
    imported = {name for node in ast.walk(tree) for name in _linalg_imports(node)[0]}
    assert "hermite_normal_form" in imported
    assert "independent_rows" not in imported
