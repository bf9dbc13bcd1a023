"""Transmit precoders: regularized inverse, receive-antenna selection, beam steering.

Three ways to build the 2x2 precoding matrix G for two single-stream
users:

* ``reg_inv``: G = H^H (H H^H + K*sigma^2 I)^{-1} from the stacked
  per-user rows (one fixed row per user).
* ``antenna_selection``: the same inverse, but the transmitter tries
  every per-user receive-row combination and keeps the one maximizing
  the minimum per-user SINR.
* ``optimize_gmud``: each user's column is a steered beam built from
  that user's reported (lambda1, lambda2, v1); an exact branch-and-bound
  search over the beam parameters and an interior power split alpha^2 in
  [0.1, 0.9] maximizes the minimum SINR and returns the exhaustive
  grid's first argmax.

Each returns G as a plain ndarray.  The point evaluator
(:func:`gmud_min_sinr`) runs the grid search's SINR kernel on a
one-point grid, so the two produce bit-identical numbers; the
optimizer's result can therefore be checked exactly against a plain
re-enumeration of its grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .decomposition import _check_report, _checked_r, _rotation_factors, _steer, steered_beams
from .decomposition import beam_from_feedback  # noqa: F401  profilers wrap this name
from .errors import DomainError, SingularMatrixError, _finite_real, _integer
from .linalg import _mat_inv, _norm, _svd2x2, as_matrix, orthonormal_complement
from .linalg import mat_inv  # noqa: F401  _reg_inv calls its kernel; profilers wrap this name

__all__ = [
    "SINR_CAP",
    "GridSpec",
    "GmudBeamParams",
    "SinrReport",
    "reg_inv",
    "expected_gamma",
    "antenna_selection",
    "gmud_min_sinr",
    "optimize_gmud",
]

# Saturation value keeping max-min comparisons total when a denominator
# underflows (zero noise and orthogonal beams).
SINR_CAP = 1e12


@dataclass(frozen=True)
class GridSpec:
    """Search-grid sizes for :func:`optimize_gmud`, integers >= 1.

    ``n_r`` points per user on [lambda2, lambda1], ``n_theta`` phases on
    [0, 2*pi), ``n_p`` power splits alpha^2 on [0.1, 0.9].  The extremes
    0 and 1 are not searched: either one silences a user, so its min-SINR
    is 0, which every interior split with lambda2 > 0 beats.
    """

    n_r: int = 8
    n_theta: int = 16
    n_p: int = 9

    def __post_init__(self):
        if not all(_integer(n) and n >= 1 for n in (self.n_r, self.n_theta, self.n_p)):
            raise ValueError("grid sizes must be integers >= 1")


@dataclass
class GmudBeamParams:
    """Chosen steering parameters and power loading for a user pair."""

    r_k: float
    theta_k: float
    r_l: float
    theta_l: float
    alpha: float
    beta: float


@dataclass
class SinrReport:
    """Per-user SINRs (linear), their minimum, and the power normalizer."""

    per_user: tuple[float, ...]
    min_sinr: float
    gamma_bar: float


def _check_inputs(noise_var: float, *lambda1s: float) -> float:
    """float(noise_var) for a real scalar that float64 holds with 0 <= noise_var (NaN fails too), and a finite
    lambda1**2 for the SINR kernel per lambda1 that :func:`_check_lambdas` returned (squared as a Python float)."""
    try:
        if isinstance(noise_var, np.complexfloating):  # numpy orders complex numbers; float() drops the imaginary part
            raise TypeError
        value = float(noise_var) if noise_var >= 0.0 else math.nan
    except (TypeError, ValueError, ArithmeticError):  # complex, str, None, an array, an int beyond float64
        kind = type(noise_var).__name__
        raise ValueError(f"noise_var must be a real scalar that float64 holds, got {kind}") from None
    if math.isnan(value):
        raise ValueError("noise_var must be nonnegative")
    for lambda1 in map(float, lambda1s):  # an np.float64 square would warn on overflow
        if math.isinf(lambda1 * lambda1):
            raise DomainError(f"lambda1 = {lambda1:.6g} is too large: lambda1**2 overflows float64")
    return value


def _reg_inv(h: np.ndarray, noise_var: float) -> np.ndarray:
    """G of every (R, K, N_T) row stack: the kernel of :func:`reg_inv`; :class:`DomainError` where K*noise_var
    overflows.  Where :func:`_mat_inv` refuses H H^H + eps I, eps = K*noise_var, G is V diag(s / (s^2 + eps)) U^H
    from :func:`_svd2x2`'s H = U diag(s) V^H, with s / (s^2 + eps) = (s / t) / t, t = hypot(s, sqrt(eps)): finite
    and free of overflow for every eps > 0.  There eps = 0 or N_T != 2 raises :class:`SingularMatrixError`."""
    h = np.ascontiguousarray(h, dtype=np.complex128)
    k = h.shape[-2]
    if math.isinf(reg := k * noise_var):
        raise DomainError(f"the regularizer {k}*noise_var overflows float64 at noise_var = {noise_var:.6g}")
    hh = np.swapaxes(np.conj(h), -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is left to _mat_inv's finiteness check
        a = h @ hh + reg * np.eye(k, dtype=np.complex128)
    inv, singular = _mat_inv(a.reshape(-1, k, k))
    g = hh @ inv.reshape(a.shape)
    if singular.any():
        if reg == 0.0 or h.shape[-1] != 2:
            why = f"the regularizer {k}*noise_var is 0" if reg == 0.0 else f"the rows have {h.shape[-1]} entries, not 2"
            raise SingularMatrixError(f"H H^H + {k}*noise_var I is singular to working precision, and {why}")
        u, lambda1, lambda2, v = _svd2x2(h.reshape(-1, k, 2)[singular])
        s = np.stack([lambda1, lambda2], axis=-1)
        t = np.hypot(s, math.sqrt(reg))
        g.reshape(-1, 2, k)[singular] = (v * (s / t / t)[:, None, :]) @ np.swapaxes(np.conj(u), 1, 2)
    return g


def reg_inv(h_tilde, noise_var: float) -> np.ndarray:
    """Regularized channel inverse G = H^H (H H^H + K*sigma^2 I)^{-1}.

    ``h_tilde`` stacks one row per user (K x N_T), K = 2.  At zero noise
    this is plain channel inversion (H_tilde @ G = I); the regularizer
    K*sigma^2 trades residual inter-user interference for a smaller
    transmit normalization.  Rows parallel to working precision (where
    :func:`mat_inv` refuses H H^H + K*sigma^2 I) take the SVD form of G,
    defined for every noise_var > 0; at zero noise, or N_T != 2, they
    raise :class:`SingularMatrixError`.
    """
    noise_var = _check_inputs(noise_var)
    return _reg_inv(as_matrix(h_tilde)[None], noise_var)[0]


def _expected_gammas(g: np.ndarray) -> np.ndarray:
    """:func:`expected_gamma` of every matrix in a (..., M, N) stack."""
    nrm = _norm(g.reshape(g.shape[:-2] + (-1,)))
    return nrm * nrm


def expected_gamma(g: np.ndarray) -> float:
    """Expected transmit normalization ||G u||^2 under unit-energy symbols.

    Cross terms vanish for independent zero-mean symbols, leaving the
    squared Frobenius norm (sum of column norms squared).  ``g`` is read by :func:`as_matrix`, and an inf
    result raises :class:`DomainError`.
    """
    with np.errstate(over="ignore"):
        gamma = float(_expected_gammas(as_matrix(g)[None])[0])
    if math.isinf(gamma):
        raise DomainError("expected_gamma overflows float64: ||G||_F**2 is inf")
    return gamma


def _abs2(z):
    return z.real**2 + z.imag**2


def _ratio(num, den):
    """num/den saturated at SINR_CAP, silently: a quotient that overflows is CAP, and a den that is not
    positive (0, or NaN) gives CAP for num > 0 and 0 otherwise.  ``den`` (shaped like the result) is
    consumed.  Where every den is positive the quotients are taken directly, into ``den``, and capped: the
    same bytes as the masked rule, which the rest (zero noise) takes."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if den.min(initial=np.inf) > 0.0:  # NaN fails too
            return np.minimum(np.divide(num, den, out=den), SINR_CAP, out=den)
        return np.minimum(np.where(den > 0.0, num / den, np.where(num > 0.0, np.inf, 0.0)), SINR_CAP)


def _select(h_hat: np.ndarray, noise_var: float):
    """Antenna selection over the row combinations ``h_hat`` (R, C, 2, N_T) of R realizations.

    The kernel of :func:`antenna_selection`.  Returns the first best
    combination of each realization, (R,), with its G (R, N_T, 2),
    per-user SINRs (R, 2) and gamma_bar (R,).  A combination scores the
    smaller of its two SINRs, and ``argmax`` picks the first best score.
    """
    g = _reg_inv(h_hat, noise_var)
    e = h_hat @ g
    gamma_bar = _expected_gammas(g)
    # gamma_bar / snr, not gamma_bar * noise_var: the two can differ in the last ulp
    noise_term = 0.0 if noise_var == 0.0 else (gamma_bar / (1.0 / noise_var))[..., None]
    powers = _abs2(e)
    # reg_inv inverts 2x2 only, so there are two users: e_01 interferes with 0, e_10 with 1
    sinrs = _ratio(powers[..., [0, 1], [0, 1]], powers[..., [0, 1], [1, 0]] + noise_term)
    pick = sinrs.min(axis=-1).argmax(axis=1)
    r = np.arange(len(pick))
    return pick, g[r, pick], sinrs[r, pick], gamma_bar[r, pick]


def _combos(rows) -> np.ndarray:
    """Every choice of one receive row per user, (combos, users), in lexicographic order; ``rows`` per user."""
    return np.indices(rows).reshape(len(rows), -1).T


def antenna_selection(channels, noise_var: float):
    """Pick one receive row per user maximizing the minimum per-user SINR.

    Enumerates all (N_R)^2 row combinations of the two users in
    lexicographic order; for each, builds the regularized inverse G of
    the stacked rows and scores

        min_m |e_mm|^2 / (|e_mn|^2 + gamma_bar / snr),  n the other user,

    with e = H_hat @ G, gamma_bar the expected normalization and
    snr = 1/noise_var (the noise term is 0 at zero noise).  Ties keep the
    earliest combination.  Each G is :func:`reg_inv`'s, parallel rows too.

    Returns ``(selection, G, SinrReport)``.
    """
    noise_var = _check_inputs(noise_var)
    mats = [as_matrix(h) for h in channels]
    combos = _combos([h.shape[0] for h in mats])
    h_hat = np.stack([np.stack([mats[k][row] for k, row in enumerate(combo)]) for combo in combos])
    pick, g, sinrs, gamma_bar = _select(h_hat[None], noise_var)
    per_user = tuple(sinrs[0].tolist())
    return tuple(combos[pick[0]].tolist()), g[0], SinrReport(per_user, min(per_user), float(gamma_bar[0]))


def _beam_x(beams_k, beams_l):
    """x = |q_k^H q_l|^2 over beams (..., n_r, n_theta, 2), shaped (..., n_rk, n_rl, n_theta_k, n_theta_l)."""
    bk, bl = beams_k[..., :, None, :, None, :], beams_l[..., None, :, None, :, :]
    return _abs2(np.conj(bk[..., 0]) * bl[..., 0] + np.conj(bk[..., 1]) * bl[..., 1])


def _sinr(x, rk2, rl2, a2, b2, noise_var):
    """SINR_k and SINR_l of broadcastable arrays x, r_k^2, r_l^2, alpha^2 and beta^2, each through :func:`_ratio`.

    SINR_k = alpha^2 r_k^2 / (beta^2 r_k^2 x + sigma^2 gamma_bar) with gamma_bar = alpha^2 + beta^2, SINR_l
    likewise.  Elementwise, so any layout of the operands gives the same bytes.  For x >= 0 each den is at
    least sigma^2 gamma_bar, so on the search's splits any noise_var > 0 takes :func:`_ratio`'s division.
    """
    n = noise_var * (a2 + b2)
    dens = (b2 * rk2) * x, (a2 * rl2) * x
    for den in dens:
        den += n
    return _ratio(a2 * rk2, dens[0]), _ratio(b2 * rl2, dens[1])


def _pair_grid(beams_k, beams_l, rk, rl, alpha, beta, noise_var):
    """(SINR_k, SINR_l, gamma_bar) over the beams' x (n_rk, n_rl, n_theta_k, n_theta_l), r, alpha, beta.

    The SINRs are shaped x.shape + (n_p,): the search's kernels on a whole grid, for :func:`gmud_min_sinr`
    (one point) and the tests' exhaustive oracle.  As array loops they agree with the search bit for bit;
    numpy scalars would round complex products differently.
    """
    a2, b2 = alpha**2, beta**2
    rk2, rl2 = (rk * rk)[:, None, None, None, None], (rl * rl)[None, :, None, None, None]
    return (*_sinr(_beam_x(beams_k, beams_l)[..., None], rk2, rl2, a2, b2, noise_var), a2 + b2)


def gmud_min_sinr(params: GmudBeamParams, fb_k, fb_l, noise_var: float) -> SinrReport:
    """Evaluate the max-min cost at one steering/loading point.

    ``fb_k`` and ``fb_l`` carry each user's reported ``lambda1``, ``lambda2`` and principal vector
    ``v1``.  This is the search's kernel on a one-point grid, each beam a batch of one through
    :func:`steered_beams`, so it equals :func:`optimize_gmud`'s report.  Checked in this order, each
    value read once as float64: user k's lambdas and r, then user l's, noise_var and each lambda1**2,
    the phases and powers, then each v1 (in :func:`steered_beams`).
    """
    (l1_k, l2_k, r_k), (l1_l, l2_l, r_l) = (_checked_r(fb.lambda1, fb.lambda2, r)
                                            for fb, r in ((fb_k, params.r_k), (fb_l, params.r_l)))
    noise_var = _check_inputs(noise_var, l1_k, l1_l)
    if not all(map(_finite_real, (params.theta_k, params.theta_l, params.alpha, params.beta))):
        raise DomainError("theta_k, theta_l, alpha and beta must be finite reals")
    rk, rl, tk, tl, alpha, beta = np.array([[r_k], [r_l], [params.theta_k], [params.theta_l], [params.alpha],
                                            [params.beta]], dtype=np.float64)
    qk, ql = steered_beams(l1_k, l2_k, fb_k.v1, rk, tk)[None], steered_beams(l1_l, l2_l, fb_l.v1, rl, tl)[None]
    sk, sl, gamma_bar = _pair_grid(qk, ql, rk, rl, alpha, beta, noise_var)
    sk, sl = sk.item(), sl.item()
    return SinrReport((sk, sl), min(sk, sl), float(gamma_bar.item()))


def _linspace(start: np.ndarray, stop: np.ndarray, num: int) -> np.ndarray:
    """``np.linspace(start[i], stop[i], num)`` for every entry, along a new last axis.

    Entry by entry the bytes of the scalar call: ``np.linspace`` with array
    end points divides before it multiplies for all rows once one step
    underflows to 0, so here that choice is made per row.
    """
    delta = (stop - start)[..., None]
    y = np.arange(num, dtype=np.float64)
    if num > 1:
        step = delta / (num - 1)
        y = np.where(step == 0.0, (y / (num - 1)) * delta, y * step) + start[..., None]
        y[..., -1] = stop
        return y
    return y * delta + start[..., None]


@functools.lru_cache(maxsize=8)
def _grid_tables(grid: GridSpec):
    """:func:`_search`'s constants: theta, its phasors w, (cos, sin) rows of theta_k's phases in [0, pi/4]
    (all if 8 does not divide n_theta), alpha, beta, a2, b2, (a2, b2) below and above each split (0 past the
    ends) and min(a2 + b2)."""
    thetas = np.linspace(0.0, 2.0 * np.pi, grid.n_theta, endpoint=False)
    w = np.exp(1j * thetas)
    fold = w[: grid.n_theta // 8 + 1] if grid.n_theta % 8 == 0 else w
    alpha2 = np.linspace(0.1, 0.9, grid.n_p)
    alpha, beta = np.sqrt(alpha2), np.sqrt(1.0 - alpha2)
    a2, b2 = alpha**2, beta**2
    ends = np.array([np.r_[0.0, a2], np.r_[1.0, b2], np.r_[a2, 1.0], np.r_[b2, 0.0]])
    tables = thetas, w, np.stack([fold.real, fold.imag]), alpha, beta, a2, b2, ends
    for table in tables:
        table.setflags(write=False)  # every search of this grid shares them
    return (*tables, (a2 + b2).min())


def _x_bound(c, s, v1, v2, w, fold):
    """Lower bounds (P, n_r, n_r) on each block's smallest x from the beams' ``c``, ``s`` (P, 2, n_r), ``v1``,
    ``v2`` (P, 2, 2), the phasors ``w`` (n_theta,) and the ``fold`` rows of :func:`_grid_tables` (:func:`_search`)."""
    vk, vl = np.empty_like(v1), np.empty_like(v1)  # [v1, v2] of user k, conjugated, and of user l
    vk[:, 0], vk[:, 1], vl[:, 0], vl[:, 1] = np.conj(v1[:, 0]), np.conj(v2[:, 0]), v1[:, 1], v2[:, 1]
    g = vk[:, :, None, 0] * vl[:, None, :, 0] + vk[:, :, None, 1] * vl[:, None, :, 1]  # g[p, i, j] = v_ik^H v_jl
    ab = (w[:, None, None] * c[:, 1])[:, :, None] * g[:, :, 0, None]
    ab -= s[:, 1, None] * g[:, :, 1, None]  # alpha = v1_k^H q_l and beta = v2_k^H q_l, (n_theta_l, P, 2, n_rl)
    terms = np.empty(ab.shape[:2] + (3,) + ab.shape[3:])  # |alpha|^2, |beta|^2 and M
    terms[:, :, :2] = _abs2(ab)
    prod = ab[:, :, 0] * np.conj(ab[:, :, 1])  # alpha conj(beta)
    del ab  # here and below: the matmul's (n_theta_l, P, n_rk, n_rl) product is the largest array
    re, im = np.abs(prod.real), np.abs(prod.imag)  # folded: the larger |part|, then the smaller; else the parts
    re, im = (np.maximum(re, im), np.minimum(re, im)) if len(fold[0]) < len(w) else (prod.real, prod.imag)
    terms[:, :, 2] = functools.reduce(np.maximum, (re * cos + im * sin for cos, sin in fold.T))
    del prod, re, im
    x = (np.stack([c[:, 0] * c[:, 0], s[:, 0] * s[:, 0], -2.0 * (c[:, 0] * s[:, 0])], axis=-1) @ terms).min(axis=0)
    n = (c + s)[:, 0, :, None] * (c + s)[:, 1, None, :]
    return x - 2.0**-45 * (n * n)  # 256 units in the last place at 1: the slack derived in _search


def _peak_bound(x, rk2, rl2, noise_var: float, grid: GridSpec):
    """Upper bounds on max over the splits of min(SINR_k, SINR_l) at broadcastable x, r_k^2, r_l^2 (:func:`_search`)."""
    a2, _, ends, gamma_min = _grid_tables(grid)[5:]
    with np.errstate(all="ignore"):  # a* may overflow or be NaN; any lo still bounds
        kl = rk2 * rl2 * x
        lo = np.searchsorted(a2, (kl + noise_var * rl2) / (2.0 * kl + noise_var * (rk2 + rl2)))
    return np.maximum(_ratio(ends[0, lo] * rk2, ends[1, lo] * rk2 * x + noise_var * gamma_min),
                      _ratio(ends[3, lo] * rl2, ends[2, lo] * rl2 * x + noise_var * gamma_min))


def _search(lambda1: np.ndarray, lambda2: np.ndarray, v1: np.ndarray, noise_var: float, grid: GridSpec):
    """:func:`optimize_gmud` of P user pairs at once: the kernel of the search.

    ``lambda1``, ``lambda2`` (P, 2) and ``v1`` (P, 2, 2) hold each pair's
    reports, user k first.  Returns G (P, 2, 2), the params (P, 6) in
    :class:`GmudBeamParams` order and the reports (P, 4): SINR_k, SINR_l,
    their minimum and gamma_bar.  Each pair gets the bytes a search of it
    alone gives.  Nothing is checked: the callers pass valid reports.

    For fixed (i_rk, i_rl, i_alpha) and finite r^2, each SINR is a chain of
    correctly rounded steps monotone in x = |q_k^H q_l|^2 (times a constant
    >= 0, plus noise >= 0, num/den, cap), so min-SINR is non-increasing in x
    and each (i_rk, i_rl) block peaks at its smallest x.

    Stage 1 is a branch and bound over the (i_rk, i_rl) blocks.  With w the
    phasor of theta_k, q_k = c w v1 - s v2, alpha = v1_k^H q_l and
    beta = v2_k^H q_l, x = c^2|alpha|^2 + s^2|beta|^2 - 2cs Re(conj(w) alpha
    conj(beta)) >= c^2|alpha|^2 + s^2|beta|^2 - 2cs M, M the largest real part
    on theta_k's grid.  If 8 divides n_theta, the grid is closed under
    conjugation, quarter turns and swapped axes: M is the largest
    a cos(theta) + b sin(theta), theta in [0, pi/4], a >= b the moduli of the
    parts of alpha conj(beta).  alpha and beta are c_l w_l g_1 - s_l g_2 with
    g = v^H [v1_l, v2_l], v in {v1_k, v2_k}: no beam is built.  Less a slack,
    the minimum over theta_l bounds the block's x, clamped at 0 (NaN too).
    Its min-SINR is scored where SINR_k, rising in the split, meets SINR_l,
    a* = (r_k^2 r_l^2 x + sigma^2 r_l^2) / (2 r_k^2 r_l^2 x + sigma^2 (r_k^2 +
    r_l^2)): whatever lo is, a split's min-SINR is at most SINR_k at lo if it
    is lo or below, and SINR_l at lo + 1 if above (0 past an end); lo is the
    last split below a*.  Numerators and x terms are monotone in the split,
    and sigma^2 gamma_bar, which wobbles by an ulp, is taken at its smallest:
    that margin makes every step monotone, overflow, cap and NaN a* included.
    The best-bound block is searched first; its peak L prunes every block
    bounded below L, and the rest, if any, are searched in one gather (``>=``
    keeps ties with L that may come first in C order).  Stage 2 scores the
    chosen block at the splits whose stage-1 score is its peak only.

    The slack is 256u N^2, u = 2**-53, N = (c_k + s_k)(c_l + s_l).  A computed
    beam is c w v1 - s v2 + e, ||e|| <= 5u (c + s), w = fl(e^{i theta}) 2u from
    unit modulus and 21u from the exact grid phase, as is the fold's row.  So
    x on the computed q_l is at least the exact bound - 10uN^2 (e_k) - 4uN^2
    (|w_k|) - 21uN^2 (42u on M, 2cs <= N^2/2).  The computed alpha and beta are
    15u (c_l + s_l) off, so |alpha|^2, |beta|^2 and M are 32u, 32u and 36u
    (c_l + s_l)^2 off: 50uN^2, 4uN^2 more with the weights and the matmul.  x
    from the beams is 9uN^2 off and the subtraction 2uN^2: 100uN^2 in all,
    covered twice over, with c and s as computed (lambda1 - lambda2 = 1e-12
    lambda1 included).
    """
    n_r, n_t = grid.n_r, grid.n_theta
    thetas, w, fold, alpha, beta, a2, b2 = _grid_tables(grid)[:7]
    pairs = np.arange(len(lambda1))
    r = _linspace(lambda2, lambda1, n_r)  # (P, 2, n_r)
    _, _, c, s = _rotation_factors(lambda1[..., None], lambda2[..., None], r)
    v2 = orthonormal_complement(v1)
    r2 = r * r

    def score(p, i):  # beams, x (len(p), n_theta^2) and min-SINR at min x (n_p, len(p)) of the blocks i of pairs p
        i_r = i[:, None] // (n_r, 1) % n_r  # (i_rk, i_rl) of each block
        q = _steer(c[p[:, None], (0, 1), i_r][..., None], s[p[:, None], (0, 1), i_r][..., None], thetas,
                   v1[p][:, :, None], v2[p][:, :, None])
        x = _beam_x(q[:, 0, None], q[:, 1, None]).reshape(len(p), n_t * n_t)
        sk, sl = _sinr(x.min(axis=1), r2[p, 0, i // n_r], r2[p, 1, i % n_r], a2[:, None], b2[:, None], noise_var)
        return q, x, np.minimum(sk, sl, out=sk)

    # stage 1: each block's bound on its peak at the crossing, (P, n_r^2); the seed is the best bound
    x_bound = np.fmax(_x_bound(c, s, v1, v2, w, fold), 0.0)
    bound = _peak_bound(x_bound, r2[:, 0, :, None], r2[:, 1, None, :], noise_var, grid).reshape(len(pairs), -1)
    seed = bound.argmax(axis=1)
    q, x, at = score(pairs, seed)
    bound[pairs, seed] = -np.inf  # scored: the other blocks survive unless bounded below its peak
    p_s, i_s = np.nonzero(~(bound < at.max(axis=0)[:, None]))
    block = seed
    if len(p_s):  # survivors
        peak = np.full(bound.shape, -np.inf)
        peak[pairs, seed], peak[p_s, i_s] = at.max(axis=0), score(p_s, i_s)[2].max(axis=0)
        block = peak.argmax(axis=1)  # the first best in C order
        moved = np.nonzero(block != seed)[0]  # pairs whose best block is a survivor: scored again
        q[moved], x[moved], at[:, moved] = score(moved, block[moved])
    # stage 2: the chosen block at its peak's power splits, padded per pair with splits that cannot win
    at_peak = (at == at.max(axis=0)).T
    splits = np.argsort(~at_peak, axis=1, kind="stable")[:, : at_peak.sum(axis=1).max()]
    i_rk, i_rl = np.divmod(block, n_r)
    sk, sl = _sinr(x[..., None], r2[pairs, 0, i_rk, None, None], r2[pairs, 1, i_rl, None, None],
                   a2[splits][:, None], b2[splits][:, None], noise_var)
    sinr = np.minimum(sk, sl)  # (P, n_theta^2, splits)
    i_t, j = np.divmod(sinr.reshape(len(pairs), -1).argmax(axis=1), splits.shape[1])
    i_a = splits[pairs, j]
    i_tk, i_tl = np.divmod(i_t, n_t)
    g, params, report = np.empty((len(pairs), 2, 2), complex), np.empty((len(pairs), 6)), np.empty((len(pairs), 4))
    g[..., 0], g[..., 1] = alpha[i_a][:, None] * q[pairs, 0, i_tk], beta[i_a][:, None] * q[pairs, 1, i_tl]
    params.T[:] = r[pairs, 0, i_rk], thetas[i_tk], r[pairs, 1, i_rl], thetas[i_tl], alpha[i_a], beta[i_a]
    report.T[:] = sk[pairs, i_t, j], sl[pairs, i_t, j], sinr[pairs, i_t, j], (a2 + b2)[i_a]
    return g, params, report


def optimize_gmud(fb_k, fb_l, noise_var: float, grid: GridSpec = GridSpec()):
    """Exact max-min SINR search over beams and power loading.

    The grid is r per user on [lambda2, lambda1] (``linspace``), theta
    on [0, 2*pi) (endpoint excluded), and alpha^2 on [0.1, 0.9];
    beta = sqrt(1 - alpha^2).  The result is the exhaustive grid's first
    argmax in C order over (i_rk, i_rl, i_theta_k, i_theta_l, i_alpha),
    so it is bit-reproducible and equals the maximum of
    :func:`gmud_min_sinr` over the same grid exactly.  Each report is
    read once, lambdas as float64 then v1, user k first; then noise_var
    and each lambda1**2 (DomainError on overflow).  A batch of one
    through :func:`_search`, whose docstring derives its branch and bound.

    Returns ``(G, GmudBeamParams, SinrReport)`` with
    G = [alpha * q1_k, beta * q1_l].
    """
    (l1_k, l2_k, v1_k), (l1_l, l2_l, v1_l) = (_check_report(fb.lambda1, fb.lambda2, fb.v1) for fb in (fb_k, fb_l))
    noise_var = _check_inputs(noise_var, l1_k, l1_l)
    g, params, report = _search(np.array([[l1_k, l1_l]]), np.array([[l2_k, l2_l]]), np.array([[v1_k, v1_l]]),
                                noise_var, grid)
    sk, sl, min_sinr, gamma_bar = report[0].tolist()
    return g[0], GmudBeamParams(*params[0].tolist()), SinrReport((sk, sl), min_sinr, gamma_bar)
