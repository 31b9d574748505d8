import json
import subprocess
import sys

import pytest

from eqcohom.linalg import Subspace


def run_cli(args, cwd=None):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    result = subprocess.run(
        [sys.executable, "-m", "eqcohom", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return result.returncode, result.stdout, result.stderr


def write_json(path, payload):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return str(path)


def subspace_sum(a, b):
    """a + b as the span of both canonical bases: the reference that the
    Grassmann identity and the periodic dimension oracle read."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace(a.ambient_dim, list(a.basis.data) + list(b.basis.data))


@pytest.fixture
def cli():
    return run_cli
