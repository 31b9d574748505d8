"""Canonical fixture inputs used by the CLI, the tests, and the docs.

Every fixture is a dict mapping file name -> JSON-ready payload, so the CLI
can write them verbatim and the tests can load them in-process.
"""

from __future__ import annotations

from .errors import InputError
from .graphs import Graph, GraphAction
from .instance import LinearInstance
from .linalg import Mat
from .periodic import PeriodicGraph


def shear_instance() -> LinearInstance:
    """U = Q^2, W = Q^1, pi = [1 0], one infinite-order shear generator."""
    return LinearInstance(
        2,
        1,
        Mat([[1, 0]]),
        ((Mat([[1, 0], [1, 1]]), Mat([[1]])),),
        {},
    )


def double_shear_instance() -> LinearInstance:
    """Q^4 with two commuting shears sharing the kernel direction e4;
    pi projects away the fourth coordinate. m = 1, d = 2."""
    pi = Mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    g1 = Mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]])
    g2 = Mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]])
    gw = Mat.identity(3)
    return LinearInstance(4, 3, pi, ((g1, gw), (g2, gw)), {})


def identity_instance() -> LinearInstance:
    """Trivial action; the quotient dimension is always 0."""
    return LinearInstance(
        2,
        1,
        Mat([[1, 0]]),
        ((Mat.identity(2), Mat.identity(1)),),
        {0: 1},
    )


def c4_graph() -> Graph:
    return Graph.make(4, [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0)])


def c4_rotation() -> GraphAction:
    return GraphAction(((1, 2, 3, 0),), {0: 4})


def p2_graph() -> Graph:
    return Graph.make(2, [(0, 0, 1)])


def p2_swap() -> GraphAction:
    return GraphAction(((1, 0),), {0: 2})


def k3_graph() -> Graph:
    return Graph.make(3, [(0, 0, 1), (1, 1, 2), (2, 2, 0)])


def k3_s3_action() -> GraphAction:
    # Two transpositions generating the full symmetric group on 3 vertices.
    return GraphAction(((1, 0, 2), (0, 2, 1)), {0: 2, 1: 2})


def two_triangles_graph() -> Graph:
    return Graph.make(
        6,
        [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 3, 4), (4, 4, 5), (5, 5, 3)],
    )


def two_triangles_swap() -> GraphAction:
    # Exchanges the two components; the component indicators are not fixed.
    return GraphAction(((3, 4, 5, 0, 1, 2),), {0: 2})


def torus_periodic(d: int) -> PeriodicGraph:
    """Single quotient vertex with d loops labelled by the standard basis."""
    g = Graph.make(1, [(j, 0, 0) for j in range(d)])
    voltages = {
        j: tuple([1 if i == j else 0 for i in range(d)]) for j in range(d)
    }
    return PeriodicGraph.make(d, g, voltages)


def hex_periodic() -> PeriodicGraph:
    """Honeycomb quotient: 2 vertices, 3 parallel edges, d = 2."""
    g = Graph.make(2, [(0, 0, 1), (1, 0, 1), (2, 0, 1)])
    return PeriodicGraph.make(2, g, {0: (0, 0), 1: (1, 0), 2: (0, 1)})


def square_index2_periodic() -> PeriodicGraph:
    """One vertex, loop voltages (2,0) and (0,1): period lattice of index 2,
    so the translation action is not closed in lift components."""
    g = Graph.make(1, [(0, 0, 0), (1, 0, 0)])
    return PeriodicGraph.make(2, g, {0: (2, 0), 1: (0, 1)})


# Fixture name -> (file name, builder of the file's object) per file, in
# listing order. The torus-d fixtures are named by their rank and built
# apart.
_FIXTURES = {
    "hex": (("hex.pgraph.json", hex_periodic),),
    "square-index2": (("square-index2.pgraph.json", square_index2_periodic),),
    "c4-rotation": (
        ("c4.graph.json", c4_graph),
        ("c4-rotation.action.json", c4_rotation),
    ),
    "p2-swap": (
        ("p2.graph.json", p2_graph),
        ("p2-swap.action.json", p2_swap),
    ),
    "k3-s3": (
        ("k3.graph.json", k3_graph),
        ("k3-s3.action.json", k3_s3_action),
    ),
    "shear": (("shear.instance.json", shear_instance),),
    "double-shear": (("double-shear.instance.json", double_shear_instance),),
    "identity": (("identity.instance.json", identity_instance),),
    "two-triangles-swap": (
        ("two-triangles.graph.json", two_triangles_graph),
        ("two-triangles-swap.action.json", two_triangles_swap),
    ),
}

FIXTURE_NAMES = ("torus-d (d = 1..9)", *_FIXTURES)


def fixture_files(name: str) -> dict[str, dict]:
    """File payloads for a fixture name; see FIXTURE_NAMES."""
    if name.startswith("torus-"):
        d = name[len("torus-"):]
        if len(d) != 1 or not "1" <= d <= "9":
            raise InputError(f"bad torus fixture name {name!r}: type torus-1 .. torus-9")
        return {f"{name}.pgraph.json": torus_periodic(int(d)).to_json()}
    if name not in _FIXTURES:
        raise InputError(
            f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}"
        )
    return {fname: build().to_json() for fname, build in _FIXTURES[name]}
