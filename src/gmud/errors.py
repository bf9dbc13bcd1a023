"""Exception types shared across the package, and the rules that every entry point checks its scalars by."""

import math
from numbers import Integral, Real

__all__ = ["DomainError", "FormatError", "SingularMatrixError"]


class SingularMatrixError(ValueError):
    """Matrix inversion hit a determinant or pivot below the rank tolerance."""


class DomainError(ValueError):
    """An argument is outside its mathematically admissible range."""


class FormatError(ValueError):
    """Malformed wire data (bad bitstring length or alphabet)."""


def _integer(x) -> bool:
    """Python or numpy integer, not bool."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def _float(x) -> float | None:
    """A real, not bool, that float64 holds (inf and NaN too), as a float; None for anything else."""
    if isinstance(x, float):  # float and np.float64, without the slower isinstance against an ABC
        return x
    try:
        return float(x) if isinstance(x, Real) and not isinstance(x, bool) else None
    except OverflowError:  # an int beyond float64, such as 10**400
        return None


def _finite_real(x) -> bool:
    """A real, not bool, and finite as a float64."""
    return math.isfinite(x) if isinstance(x, float) else (x := _float(x)) is not None and math.isfinite(x)
