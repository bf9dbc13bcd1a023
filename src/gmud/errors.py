"""Exception types shared across the package."""

__all__ = ["DomainError", "FormatError", "SingularMatrixError"]


class SingularMatrixError(ValueError):
    """Matrix inversion hit a determinant or pivot below the rank tolerance."""


class DomainError(ValueError):
    """An argument is outside its mathematically admissible range."""


class FormatError(ValueError):
    """Malformed wire data (bad bitstring length or alphabet)."""
