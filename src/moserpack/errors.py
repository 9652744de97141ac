"""Exception types shared across the package."""


class MoserpackError(Exception):
    """Base class for all package-specific errors."""


class PreconditionViolated(MoserpackError):
    """A documented precondition of a packing routine does not hold.

    Raised before any placement work is attempted, so the caller can tell
    an infeasible request apart from a genuine packing failure.
    """


class PackFailure(MoserpackError):
    """A packer ran to completion but could not place every square.

    Under a satisfied precondition this should never happen; seeing it
    there means a bug in the placement strategy, not in the request.
    """


class EmptyRegionError(MoserpackError):
    """The feasible-midpoint region became empty mid-run.

    Signals a violated precondition or a tolerance breach; with valid
    whitespace-job invariants the region provably stays non-empty.
    """


class FloorUncertified(MoserpackError):
    """An integer bracket could not separate a value from the integers,
    or a printed value from its rounding boundaries.

    The floor (or the digits) of the bracketed value is therefore ambiguous
    even at the largest scale tried, and no result is reported.
    """
