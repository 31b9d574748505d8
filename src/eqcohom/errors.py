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
