"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: InvalidParamsError -> 2,
InvariantViolationError -> 3.
"""


class InvalidParamsError(ValueError):
    """A parameter is outside its documented domain."""


class InvariantViolationError(RuntimeError):
    """An internal invariant that should be unbreakable was broken.

    Raised loudly instead of silently repairing state: a violation means an
    implementation bug, not a recoverable condition.
    """
