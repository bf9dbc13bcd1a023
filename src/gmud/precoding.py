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

from dataclasses import dataclass

import numpy as np

from .decomposition import _check_report, _rotation_factors, _steer, beam_from_feedback
from .decomposition import steered_beams  # noqa: F401  _search builds its beams; profilers wrap this name
from .errors import DomainError
from .linalg import _mat_inv, _norm, as_matrix, orthonormal_complement
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


def _check_inputs(noise_var: float, *lambda1s: float) -> None:
    """0 <= noise_var (NaN fails too), and a finite lambda1**2 per report for the SINR kernel."""
    if not noise_var >= 0.0:
        raise ValueError("noise_var must be nonnegative")
    for lambda1 in lambda1s:
        if np.isinf(lambda1 * lambda1):
            raise DomainError(f"lambda1 = {lambda1:.6g} is too large: lambda1**2 overflows float64")


def _check_reports(lambda1: np.ndarray, v1: np.ndarray) -> None:
    """Raise for the first bad pair of (P, 2) reports what a loop over the pairs would.

    Per pair: each user's lambda1**2 overflow (:func:`_check_inputs`), then
    each user's lambda1 and v1 as :func:`steered_beams` checks them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bad = np.isinf(lambda1 * lambda1) | ~((0.0 < lambda1) & (lambda1 < np.inf)) | (np.abs(_norm(v1) - 1.0) > 1e-9)
    if bad.any():
        j = int(np.argmax(bad.any(axis=1)))
        _check_inputs(0.0, *lambda1[j].tolist())
        for lam, v in zip(lambda1[j].tolist(), v1[j]):
            _check_report(lam, v)


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
    """:func:`expected_gamma` of every matrix in a (..., M, N) stack."""
    nrm = _norm(g.reshape(g.shape[:-2] + (-1,)))
    return nrm * nrm


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
    earliest combination.

    Returns ``(selection, G, SinrReport)``.
    """
    _check_inputs(noise_var)
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
    """SINR_k, SINR_l and min-SINR, stacked, of broadcastable x, r_k^2, r_l^2, alpha^2 and beta^2.

    SINR_k = alpha^2 r_k^2 / (beta^2 r_k^2 x + sigma^2 gamma_bar) with
    gamma_bar = alpha^2 + beta^2, SINR_l likewise, capped at :data:`SINR_CAP`.
    Elementwise, so any layout of the operands gives the same bytes.
    """
    n = noise_var * (a2 + b2)
    sk, sl = _capped_ratio(a2 * rk2, (b2 * rk2) * x + n), _capped_ratio(b2 * rl2, (a2 * rl2) * x + n)
    return np.stack([sk, sl, np.minimum(sk, sl)])


def _pair_grid(beams_k, beams_l, rk, rl, alpha, beta, noise_var):
    """(SINR_k, SINR_l, gamma_bar) over the beams' x (n_rk, n_rl, n_theta_k, n_theta_l), r, alpha, beta.

    The SINRs are shaped x.shape + (n_p,): the search's kernels on a whole grid, for :func:`gmud_min_sinr`
    (one point) and the tests' exhaustive oracle.  As array loops they agree with the search bit for bit;
    numpy scalars would round complex products differently.
    """
    a2, b2 = alpha**2, beta**2
    rk2, rl2 = (rk * rk)[:, None, None, None, None], (rl * rl)[None, :, None, None, None]
    sk, sl, _ = _sinr(_beam_x(beams_k, beams_l)[..., None], rk2, rl2, a2, b2, noise_var)
    return sk, sl, a2 + b2


def gmud_min_sinr(params: GmudBeamParams, fb_k, fb_l, noise_var: float) -> SinrReport:
    """Evaluate the max-min cost at one steering/loading point.

    ``fb_k`` and ``fb_l`` carry each user's reported ``lambda1``,
    ``lambda2`` and principal vector ``v1``.  This is the search's kernel
    on a one-point grid, so it equals :func:`optimize_gmud`'s report.
    """
    _check_inputs(noise_var, fb_k.lambda1, fb_l.lambda1)
    q1k = beam_from_feedback(fb_k.lambda1, fb_k.lambda2, fb_k.v1, params.r_k, params.theta_k)
    q1l = beam_from_feedback(fb_l.lambda1, fb_l.lambda2, fb_l.v1, params.r_l, params.theta_l)
    sk, sl, gamma_bar = _pair_grid(
        q1k[None, None], q1l[None, None], np.array([params.r_k]), np.array([params.r_l]),
        np.array([params.alpha]), np.array([params.beta]), noise_var,
    )
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


_X_SLACK = 2.0**-46  # 128 units in the last place at 1; derived in _search


def _x_bound(c, s, v1, v2, beams_l):
    """Lower bounds (P, n_r, n_r) on each block's smallest x from the beams' ``c``, ``s`` (P, 2, n_r), ``v1``,
    ``v2`` (P, 2, 2) and user l's ``beams_l`` (P, n_r, n_theta, 2); NaN becomes -inf (:func:`_search`)."""
    vk = np.conj(np.stack([v1[:, 0], v2[:, 0]], axis=1))[:, :, None, None]  # (P, 2, 1, 1, 2)
    z = np.abs(vk[..., 0] * beams_l[:, None, ..., 0] + vk[..., 1] * beams_l[:, None, ..., 1])  # |v1^H q_l|, |v2^H q_l|
    t = c[:, 0, :, None, None] * z[:, None, 0] - s[:, 0, :, None, None] * z[:, None, 1]  # (P, n_rk, n_rl, n_theta)
    n = (c + s)[:, 0, :, None] * (c + s)[:, 1, None, :]
    bound = (t * t).min(axis=-1) - _X_SLACK * (n * n)
    return np.where(np.isnan(bound), -np.inf, bound)


def _search(lambda1: np.ndarray, lambda2: np.ndarray, v1: np.ndarray, noise_var: float, grid: GridSpec):
    """:func:`optimize_gmud` of P user pairs at once: the kernel of the search.

    ``lambda1``, ``lambda2`` (P, 2) and ``v1`` (P, 2, 2) hold each pair's
    reports, user k first.  Returns G (P, 2, 2), the params (P, 6) in
    :class:`GmudBeamParams` order and the reports (P, 4): SINR_k, SINR_l,
    their minimum and gamma_bar.  Each pair gets the bytes a search of it
    alone gives, and the first bad pair raises what a loop would.

    Stage 1 is a branch and bound over the (i_rk, i_rl) blocks.  As
    q_k = c e^{i theta_k} v1 - s v2, q_k^H q_l = e^{-i theta_k} A - B with
    A = c v1^H q_l and B = s v2^H q_l, so x >= t^2, t = |A| - |B|, at every
    theta_k.  Less a slack, its minimum over theta_l bounds the block's x,
    and the min-SINR there its peak (min-SINR is non-increasing in x down to
    -inf, and a NaN bound, as -inf, scores as a NaN x).  The best-bound block
    is searched first; its peak L prunes every block bounded below L, and
    the rest are searched in one gather (``>=`` keeps ties with L that may
    come first in C order).  Stage 2 scores the chosen block at the power
    splits whose stage-1 score is its peak only: no other split reaches it.

    The slack is _X_SLACK N^2, N = (c_k + s_k)(c_l + s_l) >= ||q_k|| ||q_l||.
    With u = 2**-53, the computed q_k is c w v1 - s v2 + e, w = fl(e^{i theta}),
    ||e|| <= 5u (c_k + s_k) and ||w| - 1| <= 2u, so |q_k^H q_l| >= |t| - 7uN;
    the computed t is off by 7uN, and x by 3.3uN before squaring and 2u
    relative after.  So x >= t^2 - 37uN^2, plus 2uN^2 for rounding t^2 and
    the subtraction: 128u covers it three times over.  No term scales with
    lambda, and c and s enter as computed, cancellation error and all (near
    lambda1 - lambda2 = 1e-12 lambda1).
    """
    _check_inputs(noise_var)
    _check_reports(lambda1, v1)
    n_r, n_t, n_p = grid.n_r, grid.n_theta, grid.n_p
    pairs = np.arange(len(lambda1))
    r = _linspace(lambda2, lambda1, n_r)  # (P, 2, n_r)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_t, endpoint=False)
    alpha2 = np.linspace(0.1, 0.9, n_p)
    alpha, beta = np.sqrt(alpha2), np.sqrt(1.0 - alpha2)
    a2, b2 = alpha**2, beta**2
    # each user's beam grid (P, 2, n_r, n_theta, 2), as steered_beams builds it
    _, _, c, s = _rotation_factors(lambda1[..., None], lambda2[..., None], r)
    v2 = orthonormal_complement(v1)
    beams = _steer(c[..., None], s[..., None], thetas, v1[:, :, None, None], v2[:, :, None, None])
    rk2, rl2 = np.repeat(r[:, 0] * r[:, 0], n_r, axis=-1), np.tile(r[:, 1] * r[:, 1], n_r)  # at i_rk * n_r + i_rl

    def block_x(p, i):  # x of the blocks i of pairs p, (len(p), n_theta, n_theta)
        return _beam_x(beams[p, 0, i // n_r, None], beams[p, 1, i % n_r, None])[:, 0, 0]

    def min_sinr(x, p, i):  # min-SINR (len(p), n_p, i.shape[1]) of the blocks i of pairs p at x
        return _sinr(x[:, None], rk2[p, i][:, None], rl2[p, i][:, None], a2[:, None], b2[:, None], noise_var)[2]

    # stage 1: each block's peak, its min-SINR at its smallest x, (P, n_r^2); pruned blocks score -inf
    blocks = np.arange(n_r * n_r)[None]
    bound = min_sinr(_x_bound(c, s, v1, v2, beams[:, 1]).reshape(-1, n_r * n_r), pairs[:, None], blocks).max(axis=1)
    seed = bound.argmax(axis=1)
    x_min, peak = np.zeros(bound.shape), np.full(bound.shape, -np.inf)

    def score(p, i):  # the peaks of the blocks i of pairs p, at their smallest x
        x_min[p, i] = block_x(p, i).min(axis=(-2, -1))
        peak[p, i] = min_sinr(x_min[p, i, None], p[:, None], i[:, None]).max(axis=1)[:, 0]

    score(pairs, seed)
    score(*np.nonzero(~(bound < peak[pairs, seed, None]) & (blocks != seed[:, None])))
    block = peak.argmax(axis=1)  # the first best in C order
    i_rk, i_rl = np.divmod(block, n_r)
    # stage 2: the chosen block at its peak's power splits, padded per pair with splits that cannot win
    at_peak = min_sinr(x_min[pairs, block, None], pairs[:, None], block[:, None])[..., 0] == peak[pairs, block, None]
    splits = np.argsort(~at_peak, axis=1, kind="stable")[:, : at_peak.sum(axis=1).max()]
    x = block_x(pairs, block).reshape(-1, 1, n_t * n_t)
    r_k, r_l = r[pairs, 0, i_rk], r[pairs, 1, i_rl]
    sinrs = _sinr(x, (r_k * r_k)[:, None, None], (r_l * r_l)[:, None, None], a2[splits, None], b2[splits, None],
                  noise_var)
    i_t, j = np.divmod(np.swapaxes(sinrs[2], 1, 2).reshape(len(pairs), -1).argmax(axis=1), splits.shape[1])
    i_a = splits[pairs, j]
    i_tk, i_tl = np.divmod(i_t, n_t)
    report = np.concatenate([sinrs[:, pairs, j, i_t].T, (a2 + b2)[i_a, None]], axis=1)
    beams_k, beams_l = beams[pairs, 0, i_rk, i_tk], beams[pairs, 1, i_rl, i_tl]
    g = np.stack([alpha[i_a][:, None] * beams_k, beta[i_a][:, None] * beams_l], axis=-1)
    return g, np.stack([r_k, thetas[i_tk], r_l, thetas[i_tl], alpha[i_a], beta[i_a]], axis=-1), report


def optimize_gmud(fb_k, fb_l, noise_var: float, grid: GridSpec = GridSpec()):
    """Exact two-stage, branch-and-bound max-min SINR search over beams and power loading.

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
    non-increasing in x and each (i_rk, i_rl) block peaks at its smallest x.  Stage 1 finds the first best block,
    searching only the blocks that a lower bound on x leaves in contention; stage 2 takes the first argmax inside
    it, at the power splits where the block peaks.  This is a batch of one through :func:`_search`.

    Returns ``(G, GmudBeamParams, SinrReport)`` with
    G = [alpha * q1_k, beta * q1_l].
    """
    _check_inputs(noise_var)  # before the reports are read
    g, params, report = _search(
        np.array([[fb_k.lambda1, fb_l.lambda1]], dtype=np.float64),
        np.array([[fb_k.lambda2, fb_l.lambda2]], dtype=np.float64),
        np.array([[fb_k.v1, fb_l.v1]], dtype=np.complex128), noise_var, grid,
    )
    sk, sl, min_sinr, gamma_bar = report[0].tolist()
    return g[0], GmudBeamParams(*params[0].tolist()), SinrReport((sk, sl), min_sinr, gamma_bar)
