"""Multi-unitary 2x2 decomposition and limited-feedback MIMO precoding simulator."""

from . import decomposition, errors, feedback, linalg, precoding, simulation
from .errors import *  # noqa: F403
from .linalg import *  # noqa: F403
from .decomposition import *  # noqa: F403
from .precoding import *  # noqa: F403
from .feedback import *  # noqa: F403
from .simulation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, linalg, decomposition, precoding, feedback, simulation)
    for name in module.__all__
] + ["__version__"]
