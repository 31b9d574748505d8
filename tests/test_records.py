"""Value semantics of the package's value classes: equality by fields, a hash
exactly where the fields allow one, read-only fields on the classes that
cache computed values, and a fresh default container per instance."""

import functools
from fractions import Fraction

import pytest

from eqcohom.graphs import ActionChecks, ActionOrbits, Cochain0, Edge, Graph, GraphAction
from eqcohom.instance import (
    Decomposition,
    IffReport,
    LinearInstance,
    OracleResult,
    TorsionReport,
    ValidationReport,
)
from eqcohom.linalg import Mat, Subspace, vec
from eqcohom.periodic import PeriodicDecomposition, PeriodicGraph, PeriodLattice
from eqcohom.randomized import VerifyResult, Violation
from eqcohom.records import Frozen, cached


def _verify_result(checked):
    result = VerifyResult(7, 10)
    result.checked = checked
    return result


# Per class: a builder whose argument changes one field, and whether its
# instances hash.
CASES = {
    "Edge": (lambda x: Edge(0, 1, x), True),
    "Graph": (lambda x: Graph.make(3, [(0, 0, 1), (1, 1, x)]), True),
    "Forest": (lambda x: Graph.make(3, [(0, 0, x)]).forest, True),
    "Cochain0": (lambda x: Cochain0(vec([x, "1/2"])), True),
    "GraphAction": (lambda x: GraphAction(((1, 0),), {0: x}), False),
    "ActionChecks": (lambda x: ActionChecks(x == 1, True, 2), True),
    "LinearInstance": (lambda x: LinearInstance(1, 1, Mat([[x]]), (), {}), False),
    "ValidationReport": (lambda x: ValidationReport(x == 1, ("issue",)), True),
    "OracleResult": (
        lambda x: OracleResult(x, Subspace(2, [[1, x]]), Subspace.zero(2)),
        True,
    ),
    "IffReport": (lambda x: IffReport(1, 1, x, True, True, True, True), True),
    "Decomposition": (
        lambda x: Decomposition(((Fraction(x),),), (Fraction(0),), (Fraction(1),), (Fraction(1),)),
        True,
    ),
    "TorsionReport": (lambda x: TorsionReport((0,), x == 1), True),
    "PeriodLattice": (lambda x: PeriodLattice(2, ((1, 0), (0, x))), True),
    "PeriodicGraph": (
        lambda x: PeriodicGraph.make(2, Graph.make(1, [(0, 0, 0)]), {0: (x, 0)}),
        False,
    ),
    "PeriodicDecomposition": (
        lambda x: PeriodicDecomposition(
            ((Fraction(x),),), Cochain0(vec([0])), (PeriodLattice(1, ((1,),)),)
        ),
        True,
    ),
    "Violation": (lambda x: Violation(x, "bound", "detail", {"dim_U": 1}), False),
    "VerifyResult": (_verify_result, False),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_is_by_fields_and_hash_where_the_fields_allow(name):
    build, hashable = CASES[name]
    a, b, other = build(1), build(1), build(2)
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_repr_names_the_fields():
    assert repr(Edge(0, 1, 2)) == "Edge(id=0, o=1, t=2)"
    assert repr(Graph.make(2, [(0, 0, 1)])) == (
        "Graph(n_vertices=2, edges=(Edge(id=0, o=0, t=1),))"
    )
    assert repr(ValidationReport(True, ())) == "ValidationReport(ok=True, issues=())"


def test_period_lattice_value_ignores_the_independent_cycles():
    a = PeriodLattice(2, ((1, 0), (0, 2)), (0, 1))
    b = PeriodLattice(2, ((1, 0), (0, 2)), (3, 4))
    assert a == b and hash(a) == hash(b)
    assert a.independent_cycles == (0, 1)
    assert PeriodLattice(2, ((1, 0),)) == PeriodLattice(2, ((1, 0),), (5,))
    assert PeriodLattice(2, ((1, 0),)) != PeriodLattice(3, ((1, 0),))


def test_caching_classes_refuse_assignment():
    graph = Graph.make(2, [(0, 0, 1)])
    pg = PeriodicGraph.make(1, Graph.make(1, [(0, 0, 0)]), {0: (2,)})
    inst = LinearInstance(1, 1, Mat([[1]]), ((Mat([[1]]), Mat([[1]])),))
    cached = [(graph, "forest"), (pg, "lattices"), (inst, "kernel")]
    for obj, name in cached:
        before = getattr(obj, name)
        for field in (*obj._fields, name, "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                delattr(obj, field)
        assert getattr(obj, name) is before
    assert pg.lattices[0].index() == 2 and inst.kernel.dim == 0
    assert graph.forest.comps == ((0, 1),)


def test_cached_computes_once_and_keeps_the_value():
    calls = []

    class Box(Frozen):
        _fields = ("x",)

        def __init__(self, x):
            self.__dict__["x"] = x

        @cached
        def doubled(self):
            """Twice x, in a new list."""
            calls.append(self.x)
            return [2 * self.x]

    box = Box(3)
    first = box.doubled
    assert first == [6] and box.doubled is first and box.__dict__["doubled"] is first
    assert Box(4).doubled == [8] and calls == [3, 4]
    # A Frozen class still refuses assignment once the cache is filled.
    for name in ("doubled", "x"):
        with pytest.raises(AttributeError):
            setattr(box, name, None)
        with pytest.raises(AttributeError):
            delattr(box, name)
    assert box.doubled is first and calls == [3, 4]
    # Read on the class, it is the descriptor, with the method's docstring.
    assert isinstance(Box.doubled, cached)
    assert Box.doubled.__doc__ == "Twice x, in a new list."


def test_the_package_caches_through_records_cached():
    classes = (LinearInstance, Graph, PeriodicGraph, ActionOrbits)
    for cls in classes:
        kept = [name for name, v in vars(cls).items() if isinstance(v, cached)]
        assert kept, cls
        for name in kept:
            assert getattr(cls, name) is vars(cls)[name]
        others = [v for v in vars(cls).values() if isinstance(v, functools.cached_property)]
        assert not others, cls
    assert LinearInstance.kernel.__doc__.startswith("ker pi")


def test_defaults_are_fresh_per_instance():
    a, b = GraphAction(((0,),)), GraphAction(((0,),))
    assert a.orders == {} and a.orders is not b.orders
    a.orders[0] = 1
    assert b.orders == {}
    i, j = LinearInstance(0, 0, Mat.zeros(0, 0), ()), LinearInstance(0, 0, Mat.zeros(0, 0), ())
    assert i.orders == {} and i.orders is not j.orders
    r, s = VerifyResult(0, 1), VerifyResult(0, 1)
    assert r.violations == [] and r.violations is not s.violations
    assert (r.checked, r.decompositions, r.ok) == (0, 0, True)
