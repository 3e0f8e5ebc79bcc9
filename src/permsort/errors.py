"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific type that applies rather than a bare ValueError when the
condition is one of the four below.
"""

# the exhaustive oracle's size guard, here so that the command line's help
# text reads it without loading the oracle
DEFAULT_LIMIT = 7

# the largest n whose n x n cost table is built; every table allocator
# refuses a larger n before it allocates, from a file or a builder call
TABLE_LIMIT = 2000


class CostParseError(ValueError):
    """Malformed cost, path or permutation input text.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ContractError(RuntimeError):
    """An internal consistency check failed.

    Raised when two routes that must agree disagree, or when a produced
    decomposition fails validation. Seeing this means a bug, not bad input.
    """


class InfeasibleError(RuntimeError):
    """No finite-cost solution exists for the request."""


class SizeLimitError(RuntimeError):
    """Refused because the instance exceeds a size guard: the exhaustive
    search's limit, or ``TABLE_LIMIT`` for an n x n table."""
