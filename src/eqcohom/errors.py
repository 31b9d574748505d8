"""Error taxonomy shared by the library and the CLI exit codes."""

from __future__ import annotations


class InputError(Exception):
    """Malformed or invalid input data (CLI exit code 2)."""


class PreconditionError(Exception):
    """A mathematical hypothesis the input must satisfy fails (exit code 3).

    `code` is a stable machine-readable identifier, `detail` is for humans.
    """

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


# Work budgets: a request whose predicted work is above one of these is
# refused with PreconditionError("budget", ...) before the work starts.
# Most lift-window table entries plus edge checks of one truncation_oracle
# call.
TRUNCATION_BUDGET = 10**6
# Most dense matrix cells of one instance read from JSON, predicted as
# (d + 1) * (dim_U + dim_W)^2: that bounds pi, the d generator pairs and
# the stacked (g_i - id) maps.
DENSE_BUDGET = 10**6
# Most predicted elimination cells of one instance that `verify` draws,
# MAX_GENS * max_dim^3: the stacked (g_i - id) blocks of up to MAX_GENS
# generators, each max_dim x max_dim, reduced over max_dim pivot columns.
VERIFY_BUDGET = 10**6
# Most vertices plus edges of one graph, checked before it is built, and
# most vertices plus edges plus rank d of one periodic graph: a vertex count
# and a rank are single JSON numbers, so no input size bounds them.
GRAPH_BUDGET = 10**6
# Most permutation entries, |G| * |V|, that the group closure of a graph
# action may hold: each element is a |V|-tuple, and neither GRAPH_BUDGET nor
# the closure's element cap bounds their product. The 60 x 60 torus grid
# with both translations holds 3600 * 3600 = 1.3 * 10**7. Unlike the budgets
# above, it is answered with the closure's own code, by graphs.close_group:
# PreconditionError("closure-cap", ...).
CLOSURE_ENTRY_BUDGET = 2 * 10**7
