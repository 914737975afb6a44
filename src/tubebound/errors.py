"""Exception types shared across the package."""


class DomainError(ValueError):
    """Arguments outside the validity domain of a formula."""


class ConvergenceError(RuntimeError):
    """A series or iteration hit its cap before converging."""
