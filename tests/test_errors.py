"""The integer and finite-real rules every entry point checks its scalars by, and r, which passes the latter."""

import math

import numpy as np
import pytest

from gmud import DomainError, gmud
from gmud.errors import _finite_real, _integer

# (value, an integer, a finite real), each named by its kind
VALUES = {
    "float": (2.5, False, True),
    "float64": (np.float64(2.5), False, True),
    "int": (3, True, True),
    "int64": (np.int64(3), True, True),
    "bool": (True, False, False),
    "int beyond float64": (10**400, True, False),
    "complex": (2.5 + 0j, False, False),
    "complex128": (np.complex128(2.5), False, False),
    "str": ("2.5", False, False),
    "0-d array": (np.array(2.5), False, False),
    "nan": (math.nan, False, False),
    "inf": (math.inf, False, False),
    "-inf": (-math.inf, False, False),
}


@pytest.mark.parametrize("value, integer, finite_real", list(VALUES.values()), ids=list(VALUES))
def test_scalar_rules(value, integer, finite_real):
    assert (_integer(value), _finite_real(value)) == (integer, finite_real)
    # an r the finite-real rule takes comes back as a Python float; any other is refused in a short message
    h = np.diag([4.0, 1.0])
    if finite_real:
        f = gmud(h, value)
        assert (type(f.r), type(f.rmat.r), f.r) == (float, float, float(value))
    else:
        with pytest.raises(DomainError, match="r must be a positive real") as info:
            gmud(h, value)
        assert len(str(info.value)) <= 80


def test_int_past_the_str_digit_limit_is_named():
    # str() of an int past Python's digit limit raises ValueError; the message names its size instead
    with pytest.raises(DomainError, match="r must be a positive real, got an int of 16610 bits"):
        gmud(np.diag([4.0, 1.0]), 10**5000)
