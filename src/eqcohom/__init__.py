"""Quotient dimensions and period decompositions for group-equivariant
linear maps, with graph-cohomology and periodic-graph front ends."""

from .errors import InputError, PreconditionError
from .linalg import Mat, Subspace, kernel_basis, rat, rat_str, rref, solve, solve_many
from .instance import (
    Decomposition,
    LinearInstance,
    check_condition_i,
    check_condition_ii,
    check_lemma_commutation,
    check_torsion_trivial,
    decompose,
    find_ujk,
    oracle_quotient_dim,
    validate,
    verify_iff,
)
from .graphs import (
    Cochain0,
    Cochain1,
    Graph,
    GraphAction,
    analyze_graph_action,
    coboundary,
    components,
    potential,
    to_instance,
)
from .periodic import (
    PeriodicDecomposition,
    PeriodicGraph,
    decompose_periodic,
    is_invariant_closed,
    lift_component_count,
    period_lattices,
    reconstruct,
    truncation_oracle,
)

__version__ = "0.1.0"
