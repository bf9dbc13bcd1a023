"""Transmit precoders: regularized inverse, receive-antenna selection, beam steering.

Three ways to build the 2x2 precoding matrix G for two single-stream
users:

* ``reg_inv``: G = H^H (H H^H + K*sigma^2 I)^{-1} from the stacked
  per-user rows (one fixed row per user).
* ``antenna_selection``: the same inverse, but the transmitter tries
  every per-user receive-row combination and keeps the one maximizing
  the minimum per-user SINR.
* ``optimize_gmud``: each user's column is a steered beam built from
  that user's reported (lambda1, lambda2, v1); an exhaustive grid search
  over the beam parameters and an interior power split alpha^2 in
  [0.1, 0.9] maximizes the minimum SINR.

Each returns G as a plain ndarray.  SINR evaluation is shared between
the scalar point evaluator (:func:`gmud_min_sinr`) and the vectorized
grid search so the two produce bit-identical numbers; the optimizer's
result can therefore be checked exactly against a plain re-enumeration
of its grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .decomposition import beam_from_feedback, steered_beams
from .linalg import as_matrix, mat_inv

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


def reg_inv(h_tilde, noise_var: float) -> np.ndarray:
    """Regularized channel inverse G = H^H (H H^H + K*sigma^2 I)^{-1}.

    ``h_tilde`` stacks one row per user (K x N_T).  At zero noise this
    is plain channel inversion (H_tilde @ G = I); the regularizer
    K*sigma^2 trades residual inter-user interference for a smaller
    transmit normalization.
    """
    h = as_matrix(h_tilde)
    if noise_var < 0.0:
        raise ValueError("noise_var must be nonnegative")
    k = h.shape[0]
    a = h @ h.conj().T + (k * noise_var) * np.eye(k, dtype=np.complex128)
    return h.conj().T @ mat_inv(a)


def expected_gamma(g: np.ndarray) -> float:
    """Expected transmit normalization ||G u||^2 under unit-energy symbols.

    Cross terms vanish for independent zero-mean symbols, leaving the
    squared Frobenius norm (sum of column norms squared).
    """
    return float(np.linalg.norm(g) ** 2)


def _abs2(z):
    return z.real**2 + z.imag**2


def _capped_ratio(num, den):
    """num/den saturated at SINR_CAP; 0 denominator maps to CAP (or 0 if num = 0)."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den > 0.0, num / den, np.where(num > 0.0, np.inf, 0.0))
    return np.minimum(ratio, SINR_CAP)


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
    mats = [as_matrix(h) for h in channels]
    best = None
    for combo in itertools.product(*[range(h.shape[0]) for h in mats]):
        h_hat = np.stack([mats[k][row] for k, row in enumerate(combo)])
        g = reg_inv(h_hat, noise_var)
        e = h_hat @ g
        gamma_bar = expected_gamma(g)
        # gamma_bar / snr, not gamma_bar * noise_var: the two can differ in the last ulp
        noise_term = 0.0 if noise_var == 0.0 else gamma_bar / (1.0 / noise_var)
        powers = _abs2(e)
        # reg_inv inverts 2x2 only, so there are two users: e_01 interferes with 0, e_10 with 1
        sinrs = _capped_ratio(np.diagonal(powers), powers[[0, 1], [1, 0]] + noise_term)
        sinrs = tuple(float(x) for x in sinrs)
        score = min(sinrs)
        if best is None or score > best[0]:
            best = (score, combo, g, SinrReport(sinrs, score, gamma_bar))
    _, combo, g, report = best
    return combo, g, report


def _pair_sinr(rk2, rl2, x, a2, b2, gamma_bar, noise_var):
    """The two max-min cost fractions for a user pair.

    Broadcast-safe; scalar and grid callers execute identical
    elementwise operations, keeping both paths bit-identical.
    """
    n = noise_var * gamma_bar
    sk = _capped_ratio(a2 * rk2, (b2 * rk2) * x + n)
    sl = _capped_ratio(b2 * rl2, (a2 * rl2) * x + n)
    return sk, sl


def _beam_inner_abs2(bk, bl):
    """|<q_k, q_l>|^2 over the last axis (length 2), broadcasting the rest."""
    inner = np.conj(bk[..., 0]) * bl[..., 0] + np.conj(bk[..., 1]) * bl[..., 1]
    return _abs2(inner)


def gmud_min_sinr(params: GmudBeamParams, fb_k, fb_l, noise_var: float) -> SinrReport:
    """Evaluate the max-min cost at one steering/loading point.

    ``fb_k`` and ``fb_l`` carry each user's reported ``lambda1``,
    ``lambda2`` and principal vector ``v1``.  The interference coupling
    is x = |q1_k^H q1_l|^2 and the report contains

        SINR_k = alpha^2 r_k^2 / (beta^2 r_k^2 x + sigma^2 gamma_bar)

    and the symmetric term, capped at :data:`SINR_CAP`.
    """
    q1k = beam_from_feedback(fb_k.lambda1, fb_k.lambda2, fb_k.v1, params.r_k, params.theta_k)
    q1l = beam_from_feedback(fb_l.lambda1, fb_l.lambda2, fb_l.v1, params.r_l, params.theta_l)
    x = _beam_inner_abs2(q1k, q1l)
    a2 = params.alpha**2
    b2 = params.beta**2
    gamma_bar = a2 + b2
    sk, sl = _pair_sinr(params.r_k**2, params.r_l**2, x, a2, b2, gamma_bar, noise_var)
    sk = float(sk)
    sl = float(sl)
    return SinrReport((sk, sl), min(sk, sl), float(gamma_bar))


def optimize_gmud(fb_k, fb_l, noise_var: float, grid: GridSpec | None = None):
    """Exhaustive max-min SINR search over beams and power loading.

    The grid is r per user on [lambda2, lambda1] (``linspace``), theta
    on [0, 2*pi) (endpoint excluded), and alpha^2 on [0.1, 0.9];
    beta = sqrt(1 - alpha^2).  The argmax tie is broken lexicographically
    on (i_rk, i_rl, i_theta_k, i_theta_l, i_alpha), so the result is
    bit-reproducible and equals the maximum of :func:`gmud_min_sinr`
    over the same grid exactly.

    Returns ``(G, GmudBeamParams, SinrReport)`` with
    G = [alpha * q1_k, beta * q1_l].
    """
    if grid is None:
        grid = GridSpec()
    if min(grid.n_r, grid.n_theta, grid.n_p) < 1:
        raise ValueError("grid sizes must be >= 1")

    rk = np.linspace(fb_k.lambda2, fb_k.lambda1, grid.n_r)
    rl = np.linspace(fb_l.lambda2, fb_l.lambda1, grid.n_r)
    thetas = np.linspace(0.0, 2.0 * np.pi, grid.n_theta, endpoint=False)
    alpha2 = np.linspace(0.1, 0.9, grid.n_p)
    alpha = np.sqrt(alpha2)
    beta = np.sqrt(1.0 - alpha2)
    # round-trip through the stored (alpha, beta) so a scalar re-evaluation
    # from the returned params reproduces the same floats
    a2 = alpha**2
    b2 = beta**2
    gamma_bar = a2 + b2

    beams_k = steered_beams(fb_k.lambda1, fb_k.lambda2, fb_k.v1, rk[:, None], thetas[None, :])
    beams_l = steered_beams(fb_l.lambda1, fb_l.lambda2, fb_l.v1, rl[:, None], thetas[None, :])
    # x[i_rk, i_rl, i_tk, i_tl]
    x = _beam_inner_abs2(
        beams_k[:, None, :, None, :], beams_l[None, :, None, :, :]
    )

    rk2 = rk**2
    rl2 = rl**2
    sk, sl = _pair_sinr(
        rk2[:, None, None, None, None],
        rl2[None, :, None, None, None],
        x[..., None],
        a2,
        b2,
        gamma_bar,
        noise_var,
    )
    min_sinr = np.minimum(sk, sl)
    flat = int(np.argmax(min_sinr))  # first max in C order = lexicographic tie-break
    idx = np.unravel_index(flat, min_sinr.shape)
    i_rk, i_rl, i_tk, i_tl, i_a = (int(i) for i in idx)

    params = GmudBeamParams(
        r_k=float(rk[i_rk]),
        theta_k=float(thetas[i_tk]),
        r_l=float(rl[i_rl]),
        theta_l=float(thetas[i_tl]),
        alpha=float(alpha[i_a]),
        beta=float(beta[i_a]),
    )
    report = SinrReport(
        (float(sk[idx]), float(sl[idx])), float(min_sinr[idx]), float(gamma_bar[i_a])
    )
    g = np.column_stack([params.alpha * beams_k[i_rk, i_tk], params.beta * beams_l[i_rl, i_tl]])
    return g, params, report

