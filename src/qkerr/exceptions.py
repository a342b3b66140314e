"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """A numerical failure, not bad input (ValueError): an eigensolve that
    does not converge, a phase lambda*t that has lost its digits, or a
    truncation that cannot reach its tolerance (TruncationError)."""


class TruncationError(ConvergenceError):
    """A truncated basis is too small for the requested accuracy."""
