"""Multi-unitary decomposition of 2x2 complex matrices.

A matrix h with singular values lambda1 >= lambda2 factors as

    h = p @ R @ q^H,    R = [[r, 0], [z1, z2]],

for any prescribed r in [lambda2, lambda1].  A pair of real Givens
rotations turns diag(lambda1, lambda2) into R, and a diagonal phase
matrix M = diag(e^{i*theta1}, e^{i*theta2}) commutes with the singular
value matrix, so every phase pair yields a different unitary pair
(p, q) while R stays fixed.  The first column of q is a transmission
beam that keeps a constant angle arccos(c) to the principal right
singular vector as the phases sweep, tracing a cone whose aperture
shrinks to zero as r grows toward lambda1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, _finite_real, _float, _integer
from .linalg import SvdFactorization, orthonormal_complement, _norm1, _pow2_exponents, svd2x2

__all__ = [
    "GmudRotation",
    "SpecialR",
    "PhasePair",
    "GmudFactorization",
    "solve_rotations",
    "gmud",
    "beam_from_feedback",
    "steered_beams",
]

TWO_PI = 2.0 * np.pi

# r may overshoot [lambda2, lambda1] by this relative amount (quantization
# round-off from the feedback path); it is clamped back onto the interval.
_R_EDGE_TOL = 1e-9
# lambda1 - lambda2 <= _DEGENERATE_TOL * lambda1 collapses the admissible
# interval to a point and the rotations to the identity.
_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class GmudRotation:
    """Real rotation coefficients with a^2 + b^2 = 1 and c^2 + s^2 = 1."""

    a: float
    b: float
    c: float
    s: float


@dataclass(frozen=True)
class SpecialR:
    """Lower-triangular factor [[r, 0], [z1, z2]]; r * z2 equals lambda1*lambda2."""

    r: float
    z1: float
    z2: float

    def as_matrix(self) -> np.ndarray:
        return np.array([self.r, 0.0, self.z1, self.z2], dtype=np.complex128).reshape(2, 2)


@dataclass
class PhasePair:
    """Phases (theta1, theta2), finite reals (:class:`DomainError` otherwise), normalized into [0, 2*pi)."""

    theta1: float = 0.0
    theta2: float = 0.0

    def __post_init__(self):
        if not (_finite_real(self.theta1) and _finite_real(self.theta2)):
            raise DomainError("phases theta1 and theta2 must be finite reals")
        self.theta1 = float(self.theta1) % TWO_PI
        self.theta2 = float(self.theta2) % TWO_PI


@dataclass(eq=False)
class GmudFactorization:
    """One member of the unitary family: h = p @ rmat @ q^H."""

    p: np.ndarray
    rmat: SpecialR
    q: np.ndarray
    r: float
    phases: PhasePair
    source_svd: SvdFactorization = field(repr=False)

    def reconstruct(self) -> np.ndarray:
        return self.p @ self.rmat.as_matrix() @ self.q.conj().T


def _shown(x) -> str:
    """x in at most 40 characters, an int beyond float64 by its size: str() past Python's digit limit raises."""
    return f"an int of {x.bit_length()} bits" if _integer(x) and not _finite_real(x) else f"{x!s:.40}"


def _check_lambdas(lambda1: float, lambda2: float) -> tuple[float, float]:
    """A report's singular values as float64 (float and np.float64 as given; int, np.float32 and the like as floats),
    reals with 0 <= lambda2 <= lambda1 < inf and 0 < lambda1: NaN or inf would give NaN beams, and a lambda2 outside
    [0, lambda1] an r outside the report's interval.  The one place a report's lambdas are read."""
    if isinstance(lambda1, float) and isinstance(lambda2, float) and 0 < lambda1 < math.inf and 0 <= lambda2 <= lambda1:
        return lambda1, lambda2  # two floats in order, the common case; the rest are read by _float and named
    if (l1 := _float(lambda1)) is None:
        raise DomainError(f"lambda1 must be a real that float64 holds, got {type(lambda1).__name__}")
    if not 0.0 < l1 < math.inf:
        raise DomainError("lambda1 must be positive" if l1 <= 0.0 else "lambda1 must be finite")
    if (l2 := _float(lambda2)) is None or not 0.0 <= l2 <= l1:
        raise DomainError(f"lambda2 must be a finite real in [0, lambda1], got {_shown(lambda2)}")
    return l1, l2


def _checked_r(lambda1: float, lambda2: float, r: float) -> tuple[float, float, float]:
    """(lambda1, lambda2, r) as read: the lambdas by :func:`_check_lambdas`, then lambda2 <= r <= lambda1 (1e-9
    relative slack), r clamped, as a float."""
    lambda1, lambda2 = _check_lambdas(lambda1, lambda2)
    if not _finite_real(r) or r <= 0:
        raise DomainError(f"r must be a positive real, got {_shown(r)}")
    r = float(r)
    slack = _R_EDGE_TOL * lambda1
    if r < lambda2 - slack or r > lambda1 + slack:
        raise DomainError(
            f"r={r:.12g} outside singular-value interval "
            f"[{lambda2:.12g}, {lambda1:.12g}]"
        )
    return lambda1, lambda2, min(max(r, lambda2), lambda1)


def _any(mask) -> bool:
    """Whether a mask holds anywhere: a Python bool (from Python floats) or a numpy bool or array."""
    return mask if isinstance(mask, bool) else mask.any()


def _root(num, den):
    """sqrt(max(num, 0) / den): ``math`` when both are Python floats, numpy otherwise.  Each step is
    correctly rounded, so the two give the same bytes; numpy-scalar calls would cost ~1 us each."""
    if isinstance(num, float) and isinstance(den, float):
        return math.sqrt(max(num, 0.0) / den)
    return np.sqrt(np.maximum(num, 0.0) / den)


def _rotation_factors(lambda1, lambda2, r):
    """Elementwise (a, b, c, s) of broadcastable ``lambda1``, ``lambda2`` and ``r``.

    The only place the rotation math lives, for the scalar API, the factor,
    the beam grids and the receiver combiners.  Assumes r in [lambda2, lambda1].
    Equal singular values (lambda1 - lambda2 <= 1e-12 * lambda1) give the
    identity rotation (1, 0, 1, 0), and r = lambda2 = 0 (rank one) the limit
    (0, 1, 1, 0) of r -> 0+, not c = (lambda1/0)*0.  The factors depend on ratios
    only, so a lambda1 outside [2**-128, 2**128) is first scaled by a power of two,
    and where r*r underflows c comes from lambda2/r and a = c*r/lambda1.  Squares
    are products, so scalars and arrays round alike.  Off the masked branches,
    Python floats give Python floats (``_root``), with the bytes of one-element
    arrays.
    """
    degenerate, zero_r = lambda1 - lambda2 <= _DEGENERATE_TOL * lambda1, r == 0.0
    any_degenerate, any_zero_r = _any(degenerate), _any(zero_r)
    if _any((lambda1 < 2.0**-128) | (lambda1 >= 2.0**128)):  # where _pow2_exponents is nonzero
        e = _pow2_exponents(lambda1)
        scale = math.ldexp(1.0, -e) if isinstance(e, int) else np.ldexp(1.0, -e)
        lambda1, lambda2, r = lambda1 * scale, lambda2 * scale, r * scale
    l1_sq, l2_sq, r_sq = lambda1 * lambda1, lambda2 * lambda2, r * r
    span = np.where(degenerate, 1.0, l1_sq - l2_sq) if any_degenerate else l1_sq - l2_sq
    a, b = _root(r_sq - l2_sq, span), _root(l1_sq - r_sq, span)
    if any_zero_r:  # divide by 1 there; the limit below replaces the quotients
        r = np.where(zero_r, 1.0, r)
    if not _any(tiny := r_sq < 2.0**-1022):
        c = (lambda1 / r) * a
    else:  # r*r underflowed there, and lambda1/r may overflow; (lambda2/lambda1)**2 < 2**-766 rounds off
        c = np.where(tiny, np.sqrt(1.0 - (lambda2 / r) * (lambda2 / r)), (lambda1 / np.where(tiny, 1.0, r)) * a)
        a = np.where(tiny, c * (r / lambda1), a)
    factors = a, b, c, (lambda2 / r) * b
    limits = (degenerate, any_degenerate, (1.0, 0.0, 1.0, 0.0)), (zero_r, any_zero_r, (0.0, 1.0, 1.0, 0.0))
    for mask, hit, fixed in limits:
        if hit:
            factors = tuple(np.where(mask, v, f) for v, f in zip(fixed, factors))
    return factors


def solve_rotations(lambda1: float, lambda2: float, r: float) -> GmudRotation:
    """Rotation coefficients placing r at the (1,1) entry of the triangular factor.

    Closed form: a = sqrt((r^2-lambda2^2)/(lambda1^2-lambda2^2)),
    b = sqrt(1-a^2), c = (lambda1/r)*a, s = (lambda2/r)*b.  These satisfy
    a*c*lambda1 + b*s*lambda2 = r and a*s*lambda1 - b*c*lambda2 = 0.
    Equal singular values collapse to the identity rotation (1, 0, 1, 0).
    c is the cosine of the cone half-angle between the steered beam and
    the principal vector: strictly increasing in r with c(lambda1) = 1.

    Raises :class:`DomainError` when r falls outside [lambda2, lambda1]
    (with 1e-9 relative slack at the endpoints).
    """
    a, b, c, s = _rotation_factors(*_checked_r(lambda1, lambda2, r))
    return GmudRotation(float(a), float(b), float(c), float(s))


def gmud(h, r: float, pp: PhasePair | None = None) -> GmudFactorization:
    """Decompose a 2x2 complex matrix as p @ [[r,0],[z1,z2]] @ q^H.

    Parameters
    ----------
    h : array_like
        2x2 complex matrix.
    r : float
        Prescribed (1,1) entry, lambda2 <= r <= lambda1.
    pp : PhasePair, optional
        Phase parameters selecting the member of the unitary family;
        defaults to (0, 0).  The triangular factor is bit-identical for
        every phase choice.

    Returns
    -------
    GmudFactorization
        p = u @ M @ u0 and q = v @ M @ v0 with u0 = [[a,b],[-b,a]],
        v0 = [[c,s],[-s,c]] from :func:`solve_rotations` and
        M = diag(e^{i*theta1}, e^{i*theta2}), which commutes with the
        singular values.  At pp = (theta, 0), ``q[:, 0]`` is the beam
        :func:`beam_from_feedback` builds from (lambda1, lambda2, v1, r, theta).
    """
    pp = PhasePair() if pp is None else pp
    svd = svd2x2(h)
    if svd.lambda1 <= 0.0:
        raise DomainError("zero matrix admits no positive r")
    l1, l2, r = _checked_r(svd.lambda1, svd.lambda2, r)
    a, b, c, s = map(float, _rotation_factors(l1, l2, r))
    rmat = SpecialR(r, b * c * l1 - a * s * l2, b * s * l1 + a * c * l2)
    t1, t2 = pp.theta1, pp.theta2
    m = np.array([complex(math.cos(t1), math.sin(t1)), 0.0, 0.0, complex(math.cos(t2), math.sin(t2))]).reshape(2, 2)
    pq = np.array([svd.u, svd.v]) @ m @ np.array([a, b, -b, a, c, s, -s, c], dtype=np.complex128).reshape(2, 2, 2)
    return GmudFactorization(pq[0], rmat, pq[1], r, pp, svd)


def _steer(w1, w2, theta, x1, x2) -> np.ndarray:
    """w1 e^{i*theta} x1 - w2 x2, shaped broadcast(w1, w2, theta) + (2,): column 1 of
    [x1, x2] @ M(theta, 0) @ [[w1, w2], [-w2, w1]], the beam on (v1, v2) with (c, s)
    and the receiver combiner on (u1, u2) with (a, b).
    """
    weight = w1 * np.exp(1j * np.asarray(theta, dtype=np.float64))
    return weight[..., None] * x1 - np.asarray(w2)[..., None] * x2


def _check_report(lambda1: float, lambda2: float, v1) -> tuple[float, float, np.ndarray]:
    """(lambda1, lambda2, v1) as read: the lambdas by :func:`_check_lambdas`, then v1, a complex array of shape (2,)
    and unit norm (1e-9)."""
    lambda1, lambda2 = _check_lambdas(lambda1, lambda2)
    if (v1 := np.asarray(v1, dtype=np.complex128)).shape != (2,):
        raise DomainError(f"v1 must have shape (2,), got shape {v1.shape}")
    nrm = _norm1(v1.ravel(order="K"))  # the dots np.linalg.norm takes
    if abs(nrm - 1.0) > 1e-9:
        raise DomainError(f"v1 must be unit norm, got ||v1|| = {nrm:.12g}")
    return lambda1, lambda2, v1


def steered_beams(lambda1: float, lambda2: float, v1, r, theta) -> np.ndarray:
    """Beam q1 = c * e^{i*theta} * v1 - s * v2 for broadcastable r, theta.

    ``r`` and ``theta`` may be scalars or arrays; the result has shape
    broadcast(r, theta) + (2,).  The report must have 0 <= lambda2 <=
    lambda1 < inf, 0 < lambda1 and a unit-norm ``v1`` of shape (2,)
    (:class:`DomainError` otherwise); r is not checked: callers keep it in
    [lambda2, lambda1].  Scalar and grid evaluations share the same
    elementwise operations, so a grid entry is bit-identical to the
    corresponding scalar call.
    """
    lambda1, lambda2, v1 = _check_report(lambda1, lambda2, v1)
    _, _, c, s = _rotation_factors(lambda1, lambda2, np.asarray(r, dtype=np.float64))
    return _steer(c, s, theta, v1, orthonormal_complement(v1))


def beam_from_feedback(lambda1: float, lambda2: float, v1, r: float, theta: float) -> np.ndarray:
    """Transmission beam built from reported (lambda1, lambda2, v1).

    Completes v1 with ``orthonormal_complement(v1)``, as :func:`svd2x2`
    does, and returns the first column of V @ M(theta, 0) @ V0, i.e.
    c * e^{i*theta} * v1 - s * v2 (unit norm).  The alignment
    |v1^H q1| equals c for every theta.  r is checked as in
    :func:`solve_rotations`, after theta, which must be a finite real (:class:`DomainError`).
    """
    if not _finite_real(theta):
        raise DomainError("theta must be a finite real")
    lambda1, lambda2, r = _checked_r(lambda1, lambda2, r)
    return steered_beams(lambda1, lambda2, v1, r, float(theta))

