"""Monte Carlo link simulation: channels, modulation, transmission, BER curves.

Two users, two transmit antennas, two receive antennas each.  Entries of
every channel matrix are i.i.d. circularly-symmetric complex Gaussian
with unit variance.  Each transmitted vector is normalized to unit power
(gamma = ||G u||^2 per symbol), so SNR_dB = -10*log10(noise_var) exactly.

The transmitter only ever sees the feedback (exact under perfect CSI,
an encode/decode round trip under quantized feedback); receivers use
their true channel and a genie-known effective gain, with inter-user
interference treated as noise.  Every realization draws its generator
from (master seed, snr index, realization index), so results do not
depend on execution order or worker count.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

import numpy as np

from .decomposition import PhasePair, _factor
from .feedback import SCHEMES, GmudFeedback, decode, encode
from .linalg import orthonormal_complement
from .precoding import GridSpec, antenna_selection, optimize_gmud, reg_inv

__all__ = [
    "MODULATIONS",
    "SimConfig",
    "BerPoint",
    "BerCurve",
    "ReceiverInfo",
    "crandn",
    "gen_channels",
    "modulate",
    "demodulate",
    "transmit",
    "receive_detect",
    "run_ber",
]

MODULATIONS = {"qpsk": 2, "16qam": 4}  # bits per symbol


def crandn(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) samples: real and imaginary parts each of variance 1/2."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


def gen_channels(rng: np.random.Generator) -> np.ndarray:
    """Draw one i.i.d. Rayleigh 2x2 channel matrix per user: a (2, 2, 2) array."""
    return crandn(rng, (2, 2, 2))


def modulate(bits, modulation: str) -> np.ndarray:
    """Gray-mapped symbols with unit average energy.

    QPSK maps bit pairs (b1, b0) to ((1-2*b1) + 1j*(1-2*b0))/sqrt(2).
    16QAM maps bit quads (a, b, c, d): (a, b) pick the real level and
    (c, d) the imaginary level through the per-axis Gray code
    {00: -3, 01: -1, 11: +1, 10: +3}, scaled by 1/sqrt(10).
    """
    bits = np.asarray(bits, dtype=np.float64)
    bps = MODULATIONS.get(modulation)
    if bps is None:
        raise ValueError(f"unknown modulation {modulation!r}")
    if bits.ndim != 1 or bits.size % bps:
        raise ValueError(f"bit count must be a multiple of {bps}")
    if modulation == "qpsk":
        b1, b0 = bits[0::2], bits[1::2]
        return ((1.0 - 2.0 * b1) + 1j * (1.0 - 2.0 * b0)) / np.sqrt(2.0)
    a, b = bits[0::4], bits[1::4]
    c, d = bits[2::4], bits[3::4]
    re = (2.0 * a - 1.0) * (3.0 - 2.0 * b)
    im = (2.0 * c - 1.0) * (3.0 - 2.0 * d)
    return (re + 1j * im) / np.sqrt(10.0)


def _gray_axis_bits(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse per-axis 16QAM Gray map by minimum distance (ties toward |level|=3)."""
    sign_bit = (vals >= 0.0).astype(np.uint8)
    inner_bit = (np.abs(vals) < 2.0).astype(np.uint8)
    return sign_bit, inner_bit


def demodulate(symbols, modulation: str) -> np.ndarray:
    """Minimum-distance hard decisions back to bits (inverse of :func:`modulate`)."""
    z = np.asarray(symbols, dtype=np.complex128)
    if modulation == "qpsk":
        out = np.empty(2 * z.size, dtype=np.uint8)
        out[0::2] = z.real < 0.0
        out[1::2] = z.imag < 0.0
        return out
    if modulation != "16qam":
        raise ValueError(f"unknown modulation {modulation!r}")
    out = np.empty(4 * z.size, dtype=np.uint8)
    out[0::4], out[1::4] = _gray_axis_bits(z.real * np.sqrt(10.0))
    out[2::4], out[3::4] = _gray_axis_bits(z.imag * np.sqrt(10.0))
    return out


def transmit(g: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize G @ u to unit power per symbol.

    ``u`` holds one column per symbol (or a single vector).  Returns
    (x, gamma) with gamma = ||G u||^2 columnwise and ||x|| = 1.
    """
    s = np.asarray(g) @ np.asarray(u)
    gamma = (s.real**2 + s.imag**2).sum(axis=0)
    if np.any(gamma == 0.0):
        raise ValueError("zero transmit vector: G @ u vanished")
    return s / np.sqrt(gamma), gamma


@dataclass(eq=False)
class ReceiverInfo:
    """Genie side information for coherent detection.

    User k combines its two antennas with the unit vector
    ``combiners[k]`` (w_k) and divides by the true complex gain
    ``gains[k]`` = w_k^H H_k G[:, k].  Steered-beam users take w_k = p1,
    the first column of P in their own H_k = P R Q^H, which discards the
    second row of R and the interference it carries; inverse-precoding
    users take the unit vector selecting the receive row the transmitter
    inverted.
    """

    modulation: str
    combiners: tuple[np.ndarray, ...]
    gains: tuple[complex, ...]


def receive_detect(
    channels: np.ndarray,
    x: np.ndarray,
    gamma,
    info: ReceiverInfo,
    noise_var: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Add receiver noise, combine, equalize with the genie gain, and slice.

    User k forms z = sqrt(gamma) * ((w_k^H H_k) x + w_k^H n_k) / gain_k.
    Interference is never cancelled.  Returns the hard bit decisions as
    a (users, bits) uint8 array, one row per user.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.complex128).T).T  # (2, T)
    gamma = np.atleast_1d(np.asarray(gamma, dtype=np.float64))
    n_symbols = x.shape[1]
    users = len(channels)
    noise = crandn(rng, (users, 2, n_symbols)) * np.sqrt(noise_var)
    root_gamma = np.sqrt(gamma)
    detected = []
    for k in range(users):
        w = info.combiners[k].conj()
        z = root_gamma * ((w @ channels[k]) @ x + w @ noise[k]) / info.gains[k]
        detected.append(demodulate(z, info.modulation))
    return np.stack(detected)


@dataclass(frozen=True)
class SimConfig:
    """One BER run: scheme, modulation, SNR grid, feedback mode, sampling plan."""

    scheme: str
    modulation: str = "qpsk"
    snr_db: tuple[float, ...] = (0.0, 10.0, 20.0)
    feedback: str | int = "perfect"
    realizations: int = 400
    symbols: int = 125  # transmit vectors per realization
    seed: int = 12345
    grid: GridSpec = GridSpec()

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.modulation not in MODULATIONS:
            raise ValueError(f"modulation must be one of {tuple(MODULATIONS)}")
        if not self.snr_db:
            raise ValueError("snr_db must be nonempty")
        if self.realizations < 1 or self.symbols < 1:
            raise ValueError("realizations and symbols must be >= 1")
        if self.feedback != "perfect" and (not isinstance(self.feedback, int) or self.feedback < 1):
            raise ValueError("feedback must be 'perfect' or a positive integer N")


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    ber: float
    bits: int
    errors: int
    se: float  # standard error from per-realization clustering


@dataclass(eq=False)
class BerCurve:
    scheme: str
    modulation: str
    feedback: str | int
    points: tuple[BerPoint, ...]

    @property
    def feedback_bits(self) -> str | int:
        """``"perfect"``, or the 12N feedback bits per user."""
        return "perfect" if self.feedback == "perfect" else 12 * self.feedback


def _rotation_projection(svd, r: float, theta: float) -> np.ndarray:
    """Receiver combiner p1: the first column of P in the user's own H = P R Q^H.

    Built from the true channel and the transmitter's steering choice
    (r clamped into the true singular-value interval, which can differ
    from the quantized one the transmitter searched).  The transmitted
    beam completes v1 with orthonormal_complement(v1), which differs
    from the SVD's second column by the phase phi0; the phase pair
    (theta + phi0, 0) makes the first column of Q that beam times
    e^{i phi0}.  Then p1^H H = r e^{-i phi0} q1^H: the discarded row never
    leaks into the decision statistic, and the phase cancels against the
    gain.
    """
    r = min(max(r, svd.lambda2), svd.lambda1)
    phi0 = np.angle(np.vdot(orthonormal_complement(svd.v[:, 0]), svd.v[:, 1]))
    return _factor(svd, r, PhasePair(theta + phi0, 0.0)).p[:, 0]


def _round_trip(source, scheme: str, n: int):
    """The report as the transmitter sees it: decoded from its 12N bits."""
    return decode(encode(source, scheme, n), scheme, n)


def _row_selectors(rows) -> list[np.ndarray]:
    return [np.eye(2, dtype=np.complex128)[row] for row in rows]


def _link_reg_inv(channels: np.ndarray, noise_var: float, n, grid: GridSpec):
    if n is None:
        rows = [h[0] for h in channels]
    else:
        rows = [_round_trip(h, "reg-inv", n).row for h in channels]
    return reg_inv(np.stack(rows), noise_var), _row_selectors((0,) * len(channels))


def _link_selection(channels: np.ndarray, noise_var: float, n, grid: GridSpec):
    if n is None:
        estimates = list(channels)
    else:
        estimates = [_round_trip(h, "reg-inv-sel", n).channel for h in channels]
    selection, g, _ = antenna_selection(estimates, noise_var)
    return g, _row_selectors(selection)


def _link_gmud(channels: np.ndarray, noise_var: float, n, grid: GridSpec):
    from .linalg import svd2x2  # read from linalg per call, so a patched svd2x2 takes effect

    svds = [svd2x2(h) for h in channels]
    if n is None:
        reports = [GmudFeedback.from_svd(svd) for svd in svds]
    else:
        reports = [_round_trip(svd, "gmud", n) for svd in svds]
    g, params, _ = optimize_gmud(reports[0], reports[1], noise_var, grid)
    steering = ((params.r_k, params.theta_k), (params.r_l, params.theta_l))
    return g, [_rotation_projection(svd, r, t) for svd, (r, t) in zip(svds, steering)]


# Per-scheme link builders: (channels, noise_var, N or None for perfect CSI,
# grid) -> (G, per-user unit combiners).
_LINKS = {"reg-inv": _link_reg_inv, "reg-inv-sel": _link_selection, "gmud": _link_gmud}


def _build_link(config: SimConfig, channels: np.ndarray, noise_var: float):
    """Build G from transmitter-visible data plus genie receiver info."""
    n = None if config.feedback == "perfect" else config.feedback
    g, combiners = _LINKS[config.scheme](channels, noise_var, n, config.grid)
    gains = tuple(
        complex((w.conj() @ h) @ g[:, k]) for k, (w, h) in enumerate(zip(combiners, channels))
    )
    return g, ReceiverInfo(config.modulation, tuple(combiners), gains)


def _simulate_point(config: SimConfig, snr_idx: int) -> BerPoint:
    snr_db = config.snr_db[snr_idx]
    noise_var = 10.0 ** (-snr_db / 10.0)
    bps = MODULATIONS[config.modulation]
    bits_per_real = 2 * config.symbols * bps
    err_counts = np.empty(config.realizations, dtype=np.int64)
    for j in range(config.realizations):
        rng = np.random.default_rng([config.seed, snr_idx, j])
        channels = gen_channels(rng)
        g, info = _build_link(config, channels, noise_var)
        payload = rng.integers(0, 2, size=(2, config.symbols * bps), dtype=np.uint8)
        u = np.stack([modulate(payload[k], config.modulation) for k in range(2)])
        x, gamma = transmit(g, u)
        detected = receive_detect(channels, x, gamma, info, noise_var, rng)
        err_counts[j] = np.count_nonzero(detected != payload)
    total_bits = bits_per_real * config.realizations
    total_errs = int(err_counts.sum())
    p = total_errs / total_bits
    resid = err_counts.astype(np.float64) - p * bits_per_real
    se = float(np.sqrt((resid**2).sum()) / total_bits)
    return BerPoint(float(snr_db), p, total_bits, total_errs, se)


def run_ber(config: SimConfig, jobs: int = 1) -> BerCurve:
    """Estimate the BER curve for one scheme/modulation/feedback setting.

    With ``jobs > 1`` the SNR points run in separate processes; results
    are identical to the serial run because every realization derives
    its own generator.
    """
    tasks = [(config, i) for i in range(len(config.snr_db))]
    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            points = pool.starmap(_simulate_point, tasks)
    else:
        points = [_simulate_point(*task) for task in tasks]
    return BerCurve(config.scheme, config.modulation, config.feedback, tuple(points))
