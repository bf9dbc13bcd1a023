"""The integer and finite-real rules every entry point checks its scalars by, and r, which passes the latter."""

import dataclasses
import math
import re

import numpy as np
import pytest

from gmud import (
    DomainError,
    GmudBeamParams,
    GmudFeedback,
    GridSpec,
    SimConfig,
    beam_from_feedback,
    decode,
    encode,
    gmud,
    gmud_min_sinr,
    optimize_gmud,
    scheme_layout,
    solve_rotations,
    steered_beams,
)
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


# each count is checked in one step, its type before any comparison: these ended in "'<' not supported"
COUNT_SITES = {
    "GridSpec": (lambda n: GridSpec(n_r=n), "grid sizes must be integers >= 1"),
    "scheme_layout": (lambda n: scheme_layout("gmud", n), "budget parameter N must be an integer >= 1"),
    "encode": (lambda n: encode(np.eye(2), "gmud", n), "budget parameter N must be an integer >= 1"),
    "decode": (lambda n: decode("0" * 48, "gmud", n), "budget parameter N must be an integer >= 1"),
    "SimConfig": (lambda n: SimConfig(scheme="gmud", realizations=n), "realizations and symbols must be integers >= 1"),
}


@pytest.mark.parametrize("size", ["4", None, 4 + 0j], ids=["str", "None", "complex"])
@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_count_of_another_type_is_named(site, size):
    call, message = COUNT_SITES[site]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(size)


E1, E2 = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)


def _report(lambda1, lambda2, v1=E1):
    return GmudFeedback(np.zeros(6), v1, lambda1, lambda2)


# a report's lambda2 was never checked; each comment says what the call gave before
LAMBDA2_PROBES = {
    "optimize_gmud-nan": lambda: optimize_gmud(_report(2.0, math.nan), _report(2.0, 1.0, E2), 0.1),  # min-SINR 1e12
    "optimize_gmud-above": lambda: optimize_gmud(_report(2.0, 3.0), _report(2.0, 1.0, E2), 0.1),  # r_k = 3.0
    "optimize_gmud-negative": lambda: optimize_gmud(_report(2.0, -1.0), _report(1.0, 0.5), 0.01),  # r_k = -1.0
    "optimize_gmud-inf": lambda: optimize_gmud(_report(2.0, math.inf), _report(2.0, 1.0, E2), 0.1),  # RuntimeWarning
    "gmud_min_sinr-nan": lambda: gmud_min_sinr(GmudBeamParams(1.5, 0.0, 1.5, 0.0, 0.8, 0.6), _report(2.0, math.nan),
                                               _report(2.0, 1.0, E2), 0.1),
    "solve_rotations-nan": lambda: solve_rotations(2.0, math.nan, 1.5),  # a NaN rotation
    "solve_rotations-negative": lambda: solve_rotations(2.0, -1.0, 1.5),  # s = -0.509
    "beam_from_feedback-nan": lambda: beam_from_feedback(2.0, math.nan, E1, 1.5, 0.3),  # a NaN beam
    "steered_beams-above": lambda: steered_beams(2.0, 3.0, E1, 2.0, 0.0),
}


@pytest.mark.parametrize("probe", list(LAMBDA2_PROBES))
def test_report_lambda2_outside_0_lambda1_is_named(probe):
    with pytest.raises(DomainError, match=r"^lambda2 must be a finite real in \[0, lambda1\], got "):
        LAMBDA2_PROBES[probe]()


# a lambda that is not a real ended in a bare TypeError from the chained comparison (numpy orders complex numbers,
# so np.complex128 passed it); each names its lambda
L1, L2 = "lambda1 must be a real that float64 holds, got ", "lambda2 must be a finite real in [0, lambda1], got "
# the report entry points squared a report's raw lambda1 before any check: a bare TypeError, OverflowError (10**400)
# or ComplexWarning (np.complex128), whichever user sent it
GOOD, PARAMS = _report(2.0, 1.0, E2), GmudBeamParams(1.5, 0.0, 1.5, 0.0, 0.8, 0.6)
REPORT_SITES = {"optimize_gmud": lambda k, l: optimize_gmud(k, l, 0.1, GridSpec(2, 3, 2)),
                "gmud_min_sinr": lambda k, l: gmud_min_sinr(PARAMS, k, l, 0.1)}
NOT_REAL_LAMBDA1 = {"str": "a", "none": None, "complex": 1j, "np-complex": np.complex128(2),
                    "int-beyond-float64": 10**400}
NOT_REAL_PROBES = {
    "lambda2-str": (lambda: solve_rotations(2.0, "a", 1.5), L2 + "a"),
    "lambda1-none": (lambda: solve_rotations(None, 1.0, 1.5), L1 + "NoneType"),
    "lambda2-complex": (lambda: solve_rotations(2.0, 1j, 1.5), L2 + "1j"),
    "lambda2-np-complex": (lambda: solve_rotations(2.0, np.complex128(0.5), 1.5), L2 + "(0.5+0j)"),
    "lambda1-str": (lambda: steered_beams("2", 1.0, [1, 0], 1.5, 0.0), L1 + "str"),
    "lambda1-bool": (lambda: solve_rotations(True, 0.5, 0.7), L1 + "bool"),
    # str() of an int past Python's digit limit raised a bare ValueError inside the message
    "lambda2-past-digit-limit": (lambda: solve_rotations(2.0, 10**5000, 1.5), L2 + "an int of 16610 bits"),
    "optimize_gmud-lambda2-past-digit-limit": (lambda: optimize_gmud(_report(2.0, 10**5000), GOOD, 0.1),
                                               L2 + "an int of 16610 bits"),
    **{f"{site}-user-{user}-lambda1-{kind}": (
        lambda call=call, bad=_report(value, 0.5), user=user: call(*((bad, GOOD) if user == "k" else (GOOD, bad))),
        L1 + type(value).__name__)
       for site, call in REPORT_SITES.items() for user in "kl" for kind, value in NOT_REAL_LAMBDA1.items()},
}


@pytest.mark.parametrize("probe", list(NOT_REAL_PROBES))
def test_report_lambda_not_a_real_is_named(probe):
    call, message = NOT_REAL_PROBES[probe]
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


# an np.float32 lambda1 overflowed a cast against 2**128, and an np.float16 lambda2 ran the rotation in half precision;
# a narrow float gives the bytes of its float64 value
NARROW_SITES = {
    "solve_rotations": lambda l1, l2: np.array(dataclasses.astuple(solve_rotations(l1, l2, 2.0))),
    "steered_beams": lambda l1, l2: steered_beams(l1, l2, E1, np.array([1.2, 2.0, 3.0]), 0.3),
    "beam_from_feedback": lambda l1, l2: beam_from_feedback(l1, l2, np.array([0.6, 0.8j]), 2.0, 0.3),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
@pytest.mark.parametrize("narrow", [0, 1], ids=["lambda1", "lambda2"])
@pytest.mark.parametrize("site", list(NARROW_SITES))
def test_narrow_float_lambda_gives_float64_bytes(site, narrow, dtype):
    lambdas = [3.3, 1.1]
    lambdas[narrow] = dtype(lambdas[narrow])
    call = NARROW_SITES[site]
    assert call(*lambdas).tobytes() == call(*map(float, lambdas)).tobytes()


# v1 was checked for its norm only: a 3-entry v1 gave a 3-entry beam, and [1.0] or a column a bare IndexError or
# numpy's inhomogeneous-shape ValueError
V1_SITES = {
    "steered_beams": lambda v1: steered_beams(2.0, 1.0, v1, 1.5, 0.0),
    "beam_from_feedback": lambda v1: beam_from_feedback(2.0, 1.0, v1, 1.5, 0.0),
    "gmud_min_sinr": lambda v1: gmud_min_sinr(PARAMS, GOOD, _report(2.0, 1.0, v1), 0.1),
    "optimize_gmud": lambda v1: optimize_gmud(_report(2.0, 1.0, v1), GOOD, 0.1, GridSpec(2, 3, 2)),
}


@pytest.mark.parametrize("v1, shape", [([1.0, 0.0, 0.0], "(3,)"), ([1.0], "(1,)"), ([[1.0], [0.0]], "(2, 1)")],
                         ids=["3-entries", "1-entry", "column"])
@pytest.mark.parametrize("site", list(V1_SITES))
def test_v1_of_another_shape_is_named(site, v1, shape):
    with pytest.raises(DomainError, match=f"^{re.escape(f'v1 must have shape (2,), got shape {shape}')}$"):
        V1_SITES[site](v1)
