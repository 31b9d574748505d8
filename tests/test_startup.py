"""The CLI starts without `dataclasses`: importing it (with inspect, ast, dis
and tokenize) and decorating the value classes took about a fifth of a
fresh process's start-up. No timing is asserted; these checks keep the
modules from coming back."""

import ast
import subprocess
import sys
from pathlib import Path

import eqcohom

SRC = Path(eqcohom.__file__).resolve().parent
SLOW_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_no_source_module_imports_dataclasses():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in {name.split(".")[0] for name in names}, path.name


def test_a_fresh_cli_import_loads_none_of_the_slow_modules():
    # -I -S: no environment, user site or site-packages .pth file can load
    # a module before the package does.
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import eqcohom.cli; "
        f"print(sorted(set({SLOW_MODULES!r}) & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
