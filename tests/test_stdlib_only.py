"""The package has no runtime dependencies: src/ imports only the standard
library, and pyproject.toml declares `dependencies = []`."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_src_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "eqcohom").glob("*.py"))
    assert sources
    checked = 0
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
                checked += 1
    assert checked > len(sources)


def test_pyproject_declares_no_runtime_dependencies():
    # Matched as text: tomllib is not in the standard library before 3.11.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]\s*$", text, re.MULTILINE)
