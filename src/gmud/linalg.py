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
# The completion can miss u2's phase, a reconstruction error of up to
# 2 * lambda2, so the tolerance stays well below 1e-12.  Just above it,
# h @ v / s errs by ~eps / 1e-13 in phase only, ~eps * lambda1 in h.
_RANK_TOL = 1e-13


def _pow2_exponents(m: np.ndarray, safe: int = 128) -> np.ndarray:
    """e with m * 2**-e in [0.5, 1) for each entry of ``m``, or 0 where m is in
    [2**-safe, 2**safe), whose squares are safe.  A Python float gives an int.

    The bound e >= -1021 keeps 2**-e finite for subnormal m.
    """
    if isinstance(m, float):
        e = math.frexp(m)[1]
        return 0 if -safe < e <= safe else max(e, -1021)
    e = np.frexp(m)[1]
    return np.where((-safe < e) & (e <= safe), 0, np.maximum(e, -1021))


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array (no copy if already one)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():  # complex isfinite: both parts finite
        raise ValueError("matrix entries must be finite")
    return m


def _norm(z) -> np.ndarray:
    """2-norms over the last axis, rounded as the 1-D ``np.linalg.norm`` rounds."""
    return np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))


def _det(parts: np.ndarray):
    """(Re, Im) of the determinants of an (R, 2, 4) float view of 2x2 complex matrices.

    Real products, so each rounds as numpy-scalar complex arithmetic does
    (the array complex product fuses multiply-adds).
    """
    (ar, ai, br, bi), (cr, ci, dr, di) = np.moveaxis(parts, (1, 2), (0, 1))
    return (ar * dr - ai * di) - (br * cr - bi * ci), (ar * di + ai * dr) - (br * ci + bi * cr)


def _mat_inv(a: np.ndarray):
    """(inverses, singular) of a complex (R, 2, 2) stack, the kernel of :func:`mat_inv`: ``singular`` flags the
    matrices it refuses, whose ``inverses`` rows hold no inverse.  The determinant comes from :func:`_det`."""
    if not np.isfinite(a).all():  # _reg_inv's h h^H + K sigma^2 I can overflow for finite h
        raise ValueError("matrix entries must be finite")
    if a.shape[1:] != (2, 2):
        raise ValueError(f"mat_inv requires a square 2x2 matrix, got {a.shape[1:]}")
    parts = np.ascontiguousarray(a).view(np.float64)
    e = _pow2_exponents(np.abs(parts).max(axis=(1, 2)), safe=0)  # always scaled
    scale = np.ldexp(1.0, -e)[:, None, None]
    b = parts * scale
    tol = _SINGULAR_TOL * np.vecdot(b.reshape(-1, 8), b.reshape(-1, 8))
    det = np.stack(_det(b), axis=-1)
    singular = np.hypot(det[:, 0], det[:, 1]) <= tol
    det[singular] = 1.0  # there, no division by 0 and no warning
    b = b.view(np.complex128)
    adj = np.stack([b[:, 1, 1], -b[:, 0, 1], -b[:, 1, 0], b[:, 0, 0]], axis=-1).reshape(-1, 2, 2)
    inv = adj / det.view(np.complex128)[:, :, None]
    return (inv.view(np.float64) * scale).view(np.complex128), singular


def mat_inv(a) -> np.ndarray:
    """Invert a 2x2 complex matrix through its adjugate and determinant.

    Works on b = a * 2**-e, with 2**e from ``frexp`` of the largest
    real or imaginary part, and scales the inverse back.  Both scalings
    are exact, so the result is right at any floating-point scale.
    Raises :class:`SingularMatrixError` when det(b) falls at or below
    ``1e-14 * ||b||_F**2`` (condition numbers above about 1e14) and
    ``ValueError`` for any other shape.
    """
    inv, singular = _mat_inv(as_matrix(a)[None])
    if singular[0]:
        raise SingularMatrixError("2x2 determinant at or below 1e-14 * ||a||_F**2: a is singular to working precision")
    return inv[0]


def orthonormal_complement(v: np.ndarray) -> np.ndarray:
    """Unit 2-vectors orthogonal to ``v`` along its last axis: [-conj(v1), conj(v0)].

    The inner product with ``v`` cancels exactly even in floating point.
    No unit-norm check is done here; :func:`gmud.decomposition.steered_beams`
    checks its input before completing it.
    """
    out = np.conj(np.asarray(v, dtype=np.complex128)[..., ::-1])
    np.negative(out[..., 0], out=out[..., 0])
    return out


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


def _norm1(z: np.ndarray) -> float:
    """The 2-norm of a 1-D complex array: the BLAS dots of ``np.linalg.norm``, without its checks."""
    return math.sqrt(z.real.dot(z.real) + z.imag.dot(z.imag))


def svd2x2(h) -> SvdFactorization:
    """Closed-form SVD of a 2x2 complex matrix.

    Eigen-decomposes w = h^H h: the large eigenvalue comes from the
    quadratic formula with the cancellation-free discriminant
    (w00-w11)^2 + 4|w01|^2, the small one from mu2 = det(w)/mu1 so that
    lambda1*lambda2 matches |det h| to full precision.  Left vectors are
    h @ v_i / lambda_i, re-orthonormalized.  h is first scaled exactly by
    the power of two of its largest part, so the result is right at any
    scale (:class:`DomainError` if lambda1 overflows).

    This is the common path, on Python floats but for BLAS products and
    dots and numpy's complex array arithmetic, which round otherwise.  The
    rare inputs go to :func:`_svd2x2` as a batch of one, whose masks handle
    them: the zero matrix (lambda1 = lambda2 = 0, u = v = I), w within
    2**-128 of a multiple of I (the eigenvector candidates are rescaled, or
    v1 = e1 for exact multiples), lambda2 <= 1e-13*lambda1 (u2 is completed
    by orthogonality) and largest parts at or above 2**1022, where lambda1
    may overflow.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (2, 2):
        as_matrix(h)  # its errors come first: not 2-D, then entries not finite
        raise ValueError(f"svd2x2 requires a 2x2 matrix, got {h.shape}")
    parts = np.ascontiguousarray(h).view(np.float64)
    flat = parts.ravel().tolist()
    if not all(map(math.isfinite, flat)):
        as_matrix(h)  # raises its "matrix entries must be finite"
    e = _pow2_exponents(max(map(abs, flat)), safe=0)
    hs = (parts * math.ldexp(1.0, -e)).view(np.complex128)

    (w00, w01), (_, w11) = (hs.conj().T @ hs).tolist()
    w00, w11 = w00.real, w11.real
    d = w00 - w11
    mu1 = 0.5 * ((w00 + w11) + math.sqrt(d * d + 4.0 * (w01.real * w01.real + w01.imag * w01.imag)))
    (h00, h01), (h10, h11) = hs.tolist()
    det_h = h00 * h11 - h01 * h10
    det_w = det_h.real * det_h.real + det_h.imag * det_h.imag

    # mu1's closed-form eigenvectors [w01, mu1 - w00] and [mu1 - w11, conj(w01)]: their real and
    # imaginary parts as rows, their norms, and v1 the better-scaled one
    ri = np.array([w01.real, mu1 - w00, w01.imag, 0.0, mu1 - w11, w01.real, 0.0, -w01.imag]).reshape(4, 2)
    sq = np.vecdot(ri, ri).tolist()
    n1, n2 = math.sqrt(sq[0] + sq[1]), math.sqrt(sq[2] + sq[3])
    lambda1 = math.sqrt(mu1)
    # the rare inputs, in an order that computes mu2 only when mu1 > 0
    if e > 1022 or max(n1, n2) < 2.0**-128 or (lambda2 := math.sqrt(min(det_w / mu1, mu1))) <= _RANK_TOL * lambda1:
        u, lambda1, lambda2, v = _svd2x2(h[None])
        return SvdFactorization(u[0], float(lambda1[0]), float(lambda2[0]), v[0])
    v1 = np.array([w01, mu1 - w00]) / n1 if n1 >= n2 else np.array([mu1 - w11, w01.conjugate()]) / n2
    mod = list(map(abs, v1.tolist()))
    i = 0 if mod[0] >= mod[1] else 1  # the phase convention: v1[i] real >= 0
    v1 = (v1 * (v1[i].conjugate() / mod[i])).tolist()
    v1[i] = complex(v1[i].real)  # conj(z) * z / |z| is real up to rounding; make it exact
    v = np.array([v1[0], -v1[1].conjugate(), v1[1], v1[0].conjugate()]).reshape(2, 2)  # v2: orthonormal_complement(v1)

    u1 = (hs @ v[:, 0]) / lambda1
    u1 = u1 / _norm1(u1)
    u2 = (hs @ v[:, 1]) / lambda2
    u2 = u2 - (u1.conj() @ u2) * u1
    (u00, u10), (u01, u11) = u1.tolist(), (u2 / _norm1(u2)).tolist()
    u = np.array([u00, u01, u10, u11]).reshape(2, 2)
    # lambda1 < 2*sqrt(2) after scaling, so with e <= 1022 neither ldexp overflows
    return SvdFactorization(u, math.ldexp(lambda1, e), math.ldexp(lambda2, e), v)


def _svd2x2(h: np.ndarray):
    """:func:`svd2x2` of every matrix of a complex (R, 2, 2) stack: (u, lambda1, lambda2, v).

    :func:`svd2x2`'s common path on arrays, so each matrix gets its bytes:
    the determinant from :func:`_det`, moduli by ``hypot`` as the scalar
    ``abs`` takes them, and stacked matmuls for h^H h and h v.  The rare
    inputs' rules live only here, as masks.  The callers pass finite entries.
    """
    rows, zero = np.arange(len(h)), ~h.any(axis=(1, 2))
    parts = np.ascontiguousarray(h).view(np.float64)
    e = _pow2_exponents(np.abs(parts).max(axis=(1, 2)), safe=0)  # always scaled
    # the zero matrix is computed as I, and its results replaced at the end
    eye = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
    parts = np.where(zero[:, None, None], eye, parts * np.ldexp(1.0, -e)[:, None, None])
    h = parts.view(np.complex128)
    w = np.swapaxes(h.conj(), 1, 2) @ h
    w00, w11, w01 = w[:, 0, 0].real, w[:, 1, 1].real, w[:, 0, 1]
    d = w00 - w11
    mu1 = 0.5 * ((w00 + w11) + np.sqrt(d * d + 4.0 * (w01.real * w01.real + w01.imag * w01.imag)))
    det_re, det_im = _det(parts)
    mu2 = (det_re * det_re + det_im * det_im) / mu1
    mu2 = np.where(mu1 < mu2, mu1, mu2)

    # the two eigenvector candidates for mu1 (R, 2, 2).  Where w is within 2**-128 of mu I the squares
    # in their norms fall toward subnormals and v1 would miss unit norm, so they are scaled exactly
    cand = np.stack([np.stack([w01, mu1 - w00], axis=-1), np.stack([mu1 - w11, np.conj(w01)], axis=-1)], axis=1)
    n = _norm(cand)
    small = n.max(axis=1) < 2.0**-128
    if small.any():
        ce = np.where(small, _pow2_exponents(np.abs(cand.view(np.float64)).max(axis=(1, 2))), 0)
        cand = cand * np.ldexp(1.0, -ce)[:, None, None]
        n = _norm(cand)
    pick = (n[:, 0] < n[:, 1]).astype(np.intp)
    identity = n[rows, pick] == 0.0  # w is a multiple of I: v1 = e1
    v1 = np.where(identity[:, None], [1.0, 0.0], cand[rows, pick] / np.where(identity, 1.0, n[rows, pick])[:, None])
    mod = np.hypot(v1.real, v1.imag)
    i = (mod[:, 0] < mod[:, 1]).astype(np.intp)  # the phase convention: v1[i] real >= 0
    v1 = v1 * (np.conj(v1[rows, i]) / mod[rows, i])[:, None]
    v1[rows, i] = v1[rows, i].real
    v = np.stack([v1, orthonormal_complement(v1)], axis=-1)

    lambda1, lambda2 = np.sqrt(mu1), np.sqrt(mu2)
    u1 = (h @ v[:, :, :1])[..., 0] / lambda1[:, None]
    u1 = u1 / _norm(u1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # where u2 is completed instead
        u2 = (h @ v[:, :, 1:])[..., 0] / lambda2[:, None]
        u2 = u2 - (u1.conj()[:, None] @ u2[..., None])[..., 0] * u1
        u2 = u2 / _norm(u2)[:, None]
    u = np.stack([u1, np.where((lambda2 <= _RANK_TOL * lambda1)[:, None], orthonormal_complement(u1), u2)], axis=-1)
    with np.errstate(over="ignore"):
        lambda1, lambda2 = np.ldexp(lambda1, e), np.ldexp(lambda2, e)
    if np.isinf(lambda1).any():
        raise DomainError("largest singular value overflows float64")
    u[zero] = v[zero] = np.eye(2)
    lambda1[zero] = lambda2[zero] = 0.0
    return u, lambda1, lambda2, v
