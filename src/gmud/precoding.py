"""Transmit precoders: regularized inverse, receive-antenna selection, beam steering.

Three ways to build the 2x2 precoding matrix G for two single-stream
users:

* ``reg_inv``: G = H^H (H H^H + K*sigma^2 I)^{-1} from the stacked
  per-user rows (one fixed row per user).
* ``antenna_selection``: the same inverse, but the transmitter tries
  every per-user receive-row combination and keeps the one maximizing
  the minimum per-user SINR.
* ``optimize_gmud``: each user's column is a steered beam built from
  that user's reported (lambda1, lambda2, v1); an exact two-stage search
  over the beam parameters and an interior power split alpha^2 in
  [0.1, 0.9] maximizes the minimum SINR and returns the exhaustive
  grid's first argmax.

Each returns G as a plain ndarray.  The point evaluator
(:func:`gmud_min_sinr`) runs the grid search's SINR kernel on a
one-point grid, so the two produce bit-identical numbers; the
optimizer's result can therefore be checked exactly against a plain
re-enumeration of its grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .decomposition import beam_from_feedback, steered_beams
from .errors import DomainError
from .linalg import _mat_inv, _norm, as_matrix
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
    """Search-grid sizes for :func:`optimize_gmud`.

    ``n_r`` points per user on [lambda2, lambda1], ``n_theta`` phases on
    [0, 2*pi), ``n_p`` power splits alpha^2 on [0.1, 0.9].  The extremes
    0 and 1 are not searched: either one silences a user, so its min-SINR
    is 0, which every interior split with lambda2 > 0 beats.
    """

    n_r: int = 8
    n_theta: int = 16
    n_p: int = 9

    def __post_init__(self):
        if min(self.n_r, self.n_theta, self.n_p) < 1:
            raise ValueError("grid sizes must be >= 1")


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


def _check_inputs(noise_var: float, *reports) -> None:
    """0 <= noise_var (NaN fails too), and a finite lambda1**2 per report for the SINR kernel."""
    if not noise_var >= 0.0:
        raise ValueError("noise_var must be nonnegative")
    for fb in reports:
        if np.isinf(fb.lambda1 * fb.lambda1):
            raise DomainError(f"lambda1 = {fb.lambda1:.6g} is too large: lambda1**2 overflows float64")


def _reg_inv(h: np.ndarray, noise_var: float) -> np.ndarray:
    """G of every (R, K, N_T) row stack: the kernel of :func:`reg_inv`."""
    h = np.ascontiguousarray(h, dtype=np.complex128)
    k = h.shape[-2]
    hh = np.swapaxes(np.conj(h), -1, -2)
    a = h @ hh + (k * noise_var) * np.eye(k, dtype=np.complex128)
    return hh @ _mat_inv(a.reshape(-1, k, k)).reshape(a.shape)


def reg_inv(h_tilde, noise_var: float) -> np.ndarray:
    """Regularized channel inverse G = H^H (H H^H + K*sigma^2 I)^{-1}.

    ``h_tilde`` stacks one row per user (K x N_T).  At zero noise this
    is plain channel inversion (H_tilde @ G = I); the regularizer
    K*sigma^2 trades residual inter-user interference for a smaller
    transmit normalization.
    """
    _check_inputs(noise_var)
    return _reg_inv(as_matrix(h_tilde)[None], noise_var)[0]


def _expected_gammas(g: np.ndarray) -> np.ndarray:
    """:func:`expected_gamma` of every matrix in a (..., M, N) stack.

    The square is taken on Python floats: numpy-scalar ``**`` goes
    through libm ``pow``, which the array square does not match.
    """
    nrm = _norm(g.reshape(g.shape[:-2] + (-1,)))
    return np.array([v**2 for v in nrm.ravel().tolist()]).reshape(nrm.shape)


def expected_gamma(g: np.ndarray) -> float:
    """Expected transmit normalization ||G u||^2 under unit-energy symbols.

    Cross terms vanish for independent zero-mean symbols, leaving the
    squared Frobenius norm (sum of column norms squared).
    """
    return float(_expected_gammas(np.asarray(g)[None])[0])


def _abs2(z):
    return z.real**2 + z.imag**2


def _capped_ratio(num, den):
    """num/den saturated at SINR_CAP; 0 denominator maps to CAP (or 0 if num = 0)."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den > 0.0, num / den, np.where(num > 0.0, np.inf, 0.0))
    return np.minimum(ratio, SINR_CAP)


def _select(h_hat: np.ndarray, noise_var: float):
    """Antenna selection over the row combinations ``h_hat`` (R, C, 2, N_T) of R realizations.

    The kernel of :func:`antenna_selection`.  Returns the first best
    combination of each realization, (R,), with its G (R, N_T, 2),
    per-user SINRs (R, 2) and gamma_bar (R,).  Scores and picks follow
    the scalar loop's rules: Python's ``min`` of the two SINRs, then the
    first combination whose score is strictly greater.
    """
    g = _reg_inv(h_hat, noise_var)
    e = h_hat @ g
    gamma_bar = _expected_gammas(g)
    # gamma_bar / snr, not gamma_bar * noise_var: the two can differ in the last ulp
    noise_term = 0.0 if noise_var == 0.0 else (gamma_bar / (1.0 / noise_var))[..., None]
    powers = _abs2(e)
    # reg_inv inverts 2x2 only, so there are two users: e_01 interferes with 0, e_10 with 1
    sinrs = _capped_ratio(powers[..., [0, 1], [0, 1]], powers[..., [0, 1], [1, 0]] + noise_term)
    scores = np.where(sinrs[..., 1] < sinrs[..., 0], sinrs[..., 1], sinrs[..., 0])
    pick = np.zeros(len(scores), dtype=np.intp)
    best = scores[:, 0]
    for c in range(1, scores.shape[1]):
        better = scores[:, c] > best
        pick[better] = c
        best = np.where(better, scores[:, c], best)
    r = np.arange(len(pick))
    return pick, g[r, pick], sinrs[r, pick], gamma_bar[r, pick]


def antenna_selection(channels, noise_var: float):
    """Pick one receive row per user maximizing the minimum per-user SINR.

    Enumerates all (N_R)^2 row combinations of the two users in
    lexicographic order; for each, builds the regularized inverse G of
    the stacked rows and scores

        min_m |e_mm|^2 / (|e_mn|^2 + gamma_bar / snr),  n the other user,

    with e = H_hat @ G, gamma_bar the expected normalization and
    snr = 1/noise_var (the noise term is 0 at zero noise).  Ties keep the
    earliest combination.

    Returns ``(selection, G, SinrReport)``.
    """
    _check_inputs(noise_var)
    mats = [as_matrix(h) for h in channels]
    combos = list(itertools.product(*[range(h.shape[0]) for h in mats]))
    h_hat = np.stack([np.stack([mats[k][row] for k, row in enumerate(combo)]) for combo in combos])
    pick, g, sinrs, gamma_bar = _select(h_hat[None], noise_var)
    per_user = tuple(sinrs[0].tolist())
    return combos[pick[0]], g[0], SinrReport(per_user, min(per_user), float(gamma_bar[0]))


def _beam_x(beams_k, beams_l):
    """x = |q_k^H q_l|^2 over beams (n_r, n_theta, 2), shaped (n_rk, n_rl, n_theta_k, n_theta_l)."""
    bk, bl = beams_k[:, None, :, None, :], beams_l[None, :, None, :, :]
    return _abs2(np.conj(bk[..., 0]) * bl[..., 0] + np.conj(bk[..., 1]) * bl[..., 1])


def _sinr_grid(x, rk, rl, alpha, beta, noise_var):
    """(SINR_k, SINR_l, gamma_bar) over x (n_rk, n_rl, n_theta_k, n_theta_l), r, alpha, beta.

    SINR_k = alpha^2 r_k^2 / (beta^2 r_k^2 x + sigma^2 gamma_bar), SINR_l
    likewise, capped at :data:`SINR_CAP` and shaped x.shape + (n_p,).
    """
    x = x[..., None]
    a2, b2 = alpha**2, beta**2
    gamma_bar = a2 + b2
    n = noise_var * gamma_bar
    rk2 = (rk**2)[:, None, None, None, None]
    rl2 = (rl**2)[None, :, None, None, None]
    sk = _capped_ratio(a2 * rk2, (b2 * rk2) * x + n)
    sl = _capped_ratio(b2 * rl2, (a2 * rl2) * x + n)
    return sk, sl, gamma_bar


def _pair_grid(beams_k, beams_l, rk, rl, alpha, beta, noise_var):
    """:func:`_sinr_grid` at the beams' x.  The search and its one-point
    oracle share these array loops and so agree bit for bit; numpy
    scalars would round squares and complex products differently.
    """
    return _sinr_grid(_beam_x(beams_k, beams_l), rk, rl, alpha, beta, noise_var)


def gmud_min_sinr(params: GmudBeamParams, fb_k, fb_l, noise_var: float) -> SinrReport:
    """Evaluate the max-min cost at one steering/loading point.

    ``fb_k`` and ``fb_l`` carry each user's reported ``lambda1``,
    ``lambda2`` and principal vector ``v1``.  This is the search's kernel
    on a one-point grid, so it equals :func:`optimize_gmud`'s report.
    """
    _check_inputs(noise_var, fb_k, fb_l)
    q1k = beam_from_feedback(fb_k.lambda1, fb_k.lambda2, fb_k.v1, params.r_k, params.theta_k)
    q1l = beam_from_feedback(fb_l.lambda1, fb_l.lambda2, fb_l.v1, params.r_l, params.theta_l)
    sk, sl, gamma_bar = _pair_grid(
        q1k[None, None], q1l[None, None], np.array([params.r_k]), np.array([params.r_l]),
        np.array([params.alpha]), np.array([params.beta]), noise_var,
    )
    sk, sl = sk.item(), sl.item()
    return SinrReport((sk, sl), min(sk, sl), float(gamma_bar.item()))


def optimize_gmud(fb_k, fb_l, noise_var: float, grid: GridSpec = GridSpec()):
    """Exact two-stage max-min SINR search over beams and power loading.

    The grid is r per user on [lambda2, lambda1] (``linspace``), theta
    on [0, 2*pi) (endpoint excluded), and alpha^2 on [0.1, 0.9];
    beta = sqrt(1 - alpha^2).  The result is the exhaustive grid's first
    argmax in C order over (i_rk, i_rl, i_theta_k, i_theta_l, i_alpha),
    so it is bit-reproducible and equals the maximum of
    :func:`gmud_min_sinr` over the same grid exactly.

    Why two stages suffice: for fixed (i_rk, i_rl, i_alpha) and finite
    r^2 (a lambda1**2 overflow raises DomainError), each SINR is a chain
    of correctly rounded steps monotone in x = |q_k^H q_l|^2 (times a
    constant >= 0, plus noise >= 0, num/den, cap), so min-SINR is
    non-increasing in x and each (i_rk, i_rl) block peaks at its smallest x.  Stage 1 scores those n_r^2 * n_p peaks and
    picks the first best block; stage 2 takes the first argmax inside it.

    Returns ``(G, GmudBeamParams, SinrReport)`` with
    G = [alpha * q1_k, beta * q1_l].
    """
    _check_inputs(noise_var, fb_k, fb_l)

    rk = np.linspace(fb_k.lambda2, fb_k.lambda1, grid.n_r)
    rl = np.linspace(fb_l.lambda2, fb_l.lambda1, grid.n_r)
    thetas = np.linspace(0.0, 2.0 * np.pi, grid.n_theta, endpoint=False)
    alpha2 = np.linspace(0.1, 0.9, grid.n_p)
    alpha = np.sqrt(alpha2)
    beta = np.sqrt(1.0 - alpha2)
    beams_k = steered_beams(fb_k.lambda1, fb_k.lambda2, fb_k.v1, rk[:, None], thetas[None, :])
    beams_l = steered_beams(fb_l.lambda1, fb_l.lambda2, fb_l.v1, rl[:, None], thetas[None, :])
    x = _beam_x(beams_k, beams_l)  # x[i_rk, i_rl, i_tk, i_tl]
    peaks = np.minimum(*_sinr_grid(x.min(axis=(2, 3), keepdims=True), rk, rl, alpha, beta, noise_var)[:2])
    i_rk, i_rl = (int(i) for i in np.unravel_index(int(np.argmax(peaks)), peaks.shape)[:2])
    # array slices, not numpy scalars, so stage 2 rounds exactly as the full grid would
    bk, bl = slice(i_rk, i_rk + 1), slice(i_rl, i_rl + 1)
    sk, sl, gamma_bar = _sinr_grid(x[bk, bl], rk[bk], rl[bl], alpha, beta, noise_var)
    min_sinr = np.minimum(sk, sl)
    idx = np.unravel_index(int(np.argmax(min_sinr)), min_sinr.shape)  # first max in C order
    _, _, i_tk, i_tl, i_a = (int(i) for i in idx)

    params = GmudBeamParams(float(rk[i_rk]), float(thetas[i_tk]), float(rl[i_rl]), float(thetas[i_tl]),
                            float(alpha[i_a]), float(beta[i_a]))
    report = SinrReport((float(sk[idx]), float(sl[idx])), float(min_sinr[idx]), float(gamma_bar[i_a]))
    g = np.column_stack([params.alpha * beams_k[i_rk, i_tk], params.beta * beams_l[i_rl, i_tl]])
    return g, params, report
