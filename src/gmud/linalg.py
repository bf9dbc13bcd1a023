"""Closed-form 2x2 matrix inverse and singular value decomposition.

Matrices are plain ``numpy.ndarray`` values with ``complex128`` entries.
Every function here is pure: inputs are never mutated and results are
freshly allocated, so concurrent use needs no locking.  The SVD is fully
deterministic (a fixed phase convention removes the usual sign/phase
freedom), which the quantized-feedback path relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMatrixError

__all__ = ["SvdFactorization", "mat_inv", "svd2x2"]

# det(b) at or below _SINGULAR_TOL * ||b||_F**2 counts as singular (see mat_inv).
_SINGULAR_TOL = 1e-14
# Below lambda2 <= _RANK_TOL * lambda1 the second left singular vector is
# completed by orthogonality instead of the (numerically useless) h @ v / s.
_RANK_TOL = 1e-12


def _pow2_exponent(m: float, safe: int = 128) -> int:
    """e with m * 2**-e in [0.5, 1), or 0 for m in [2**-safe, 2**safe), whose squares are safe.

    The bound e >= -1021 keeps 2**-e finite for subnormal m.
    """
    e = math.frexp(m)[1]
    return 0 if -safe < e <= safe else max(e, -1021)


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array (no copy if already one)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():  # complex isfinite: both parts finite
        raise ValueError("matrix entries must be finite")
    return m


def mat_inv(a) -> np.ndarray:
    """Invert a 2x2 complex matrix through its adjugate and determinant.

    Works on b = a * 2**-e, with 2**e from ``math.frexp`` of the largest
    real or imaginary part, and scales the inverse back.  Both scalings
    are exact, so the result is right at any floating-point scale.
    Raises :class:`SingularMatrixError` when det(b) falls at or below
    ``1e-14 * ||b||_F**2`` (condition numbers above about 1e14) and
    ``ValueError`` for any other shape.
    """
    a = as_matrix(a)
    if a.shape != (2, 2):
        raise ValueError(f"mat_inv requires a square 2x2 matrix, got {a.shape}")
    parts = np.ascontiguousarray(a).view(np.float64)
    e = _pow2_exponent(max(map(abs, parts.ravel().tolist())), safe=0)  # always scaled
    scale = math.ldexp(1.0, -e)
    scaled = parts * scale
    tol = _SINGULAR_TOL * float(np.vdot(scaled, scaled))
    b = scaled.view(np.complex128)
    det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    if abs(det) <= tol:
        raise SingularMatrixError(
            f"2x2 determinant {abs(det):.3e} below tolerance {tol:.3e} (matrix scaled by 2**{-e})"
        )
    inv = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]], dtype=np.complex128) / det
    return (inv.view(np.float64) * scale).view(np.complex128)


def orthonormal_complement(v: np.ndarray) -> np.ndarray:
    """Unit 2-vector orthogonal to ``v``: [-conj(v1), conj(v0)].

    The inner product with ``v`` cancels exactly even in floating point.
    No unit-norm check is done here; :func:`gmud.decomposition.steered_beams`
    checks its input before completing it.
    """
    return np.array([-np.conj(v[1]), np.conj(v[0])], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class SvdFactorization:
    """h = u @ diag(lambda1, lambda2) @ v^H with lambda1 >= lambda2 >= 0.

    ``u`` and ``v`` are 2x2 unitary.  The largest-magnitude entry of
    v1 = ``v[:, 0]`` is real and nonnegative (the first row wins ties), and
    ``v[:, 1]`` is ``orthonormal_complement(v1)``, as the transmitter
    completes v1: ``h`` fixes the factorization, and its GMUD beams.
    """

    u: np.ndarray
    lambda1: float
    lambda2: float
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * np.array([self.lambda1, self.lambda2])) @ self.v.conj().T


def svd2x2(h) -> SvdFactorization:
    """Closed-form SVD of a 2x2 complex matrix.

    Eigen-decomposes w = h^H h: the large eigenvalue comes from the
    quadratic formula with the cancellation-free discriminant
    (w00-w11)^2 + 4|w01|^2, the small one from mu2 = det(w)/mu1 so that
    lambda1*lambda2 matches |det h| to full precision.  Left vectors are
    h @ v_i / lambda_i, re-orthonormalized; when lambda2 <= 1e-12*lambda1
    the second left vector is completed by orthogonality instead.  The
    zero matrix yields lambda1 = lambda2 = 0 with u = v = I.  h is first
    scaled exactly by the power of two of its largest part, so the result
    is right at any scale (:class:`DomainError` if lambda1 overflows).
    """
    h = as_matrix(h)
    if h.shape != (2, 2):
        raise ValueError(f"svd2x2 requires a 2x2 matrix, got {h.shape}")
    if not np.any(h):
        eye = np.eye(2, dtype=np.complex128)
        return SvdFactorization(eye, 0.0, 0.0, eye.copy())
    parts = np.ascontiguousarray(h).view(np.float64)
    e = _pow2_exponent(max(map(abs, parts.ravel().tolist())), safe=0)  # always scaled
    h = (parts * math.ldexp(1.0, -e)).view(np.complex128)

    w = h.conj().T @ h
    w00 = w[0, 0].real
    w11 = w[1, 1].real
    w01 = w[0, 1]
    disc = (w00 - w11) ** 2 + 4.0 * (w01.real**2 + w01.imag**2)
    mu1 = 0.5 * ((w00 + w11) + np.sqrt(disc))
    det_h = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
    det_w = det_h.real**2 + det_h.imag**2
    mu2 = min(det_w / mu1, mu1)

    # two closed-form eigenvector candidates for mu1; take the better-scaled one
    cand1 = np.array([w01, mu1 - w00], dtype=np.complex128)
    cand2 = np.array([mu1 - w11, np.conj(w01)], dtype=np.complex128)
    n1 = np.linalg.norm(cand1)
    n2 = np.linalg.norm(cand2)
    if max(n1, n2) == 0.0:
        v1 = np.array([1.0, 0.0], dtype=np.complex128)  # w is a multiple of the identity
    else:
        v1 = (cand1 / n1) if n1 >= n2 else (cand2 / n2)
    i = 0 if abs(v1[0]) >= abs(v1[1]) else 1  # the phase convention: v1[i] real >= 0
    v1 = v1 * (np.conj(v1[i]) / abs(v1[i]))
    v1[i] = v1[i].real  # conj(z) * z / |z| is real up to rounding; make it exact
    v = np.column_stack([v1, orthonormal_complement(v1)])

    lambda1 = float(np.sqrt(mu1))
    lambda2 = float(np.sqrt(mu2))

    u1 = (h @ v[:, 0]) / lambda1
    u1 = u1 / np.linalg.norm(u1)
    if lambda2 <= _RANK_TOL * lambda1:
        u2 = orthonormal_complement(u1)
    else:
        u2 = (h @ v[:, 1]) / lambda2
        u2 = u2 - (u1.conj() @ u2) * u1
        u2 = u2 / np.linalg.norm(u2)
    u = np.column_stack([u1, u2])
    try:
        lambda1, lambda2 = math.ldexp(lambda1, e), math.ldexp(lambda2, e)
    except OverflowError:
        raise DomainError("largest singular value overflows float64") from None
    return SvdFactorization(u, lambda1, lambda2, v)
