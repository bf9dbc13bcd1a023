"""Monte Carlo link simulation: channels, modulation, transmission, BER curves.

Two users, two transmit antennas, two receive antennas each.  Entries of
every channel matrix are i.i.d. circularly-symmetric complex Gaussian
with unit variance.  Each transmitted vector is normalized to unit power
(gamma = ||G u||^2 per symbol), so SNR_dB = -10*log10(noise_var) exactly.

The transmitter only ever sees the feedback (exact under perfect CSI,
an encode/decode round trip under quantized feedback); receivers use
their true channel and a genie-known effective gain, with inter-user
interference treated as noise.

Realization j of SNR point i draws, in the order channels, payload,
noise, from the stream of default_rng([seed, i, j]), seeded in bulk per
point, so results do not depend on execution order, chunking or worker
count.  Its payload is the top bit of each byte of its raw PCG64 words,
low byte first, which is what ``integers(0, 2, dtype=np.uint8)`` draws:
for two values Lemire's method rejects nothing and keeps the top bit of
each byte of 32-bit draws, which PCG64 cuts low half first from its raw
64-bit words.  The noise and the transmit power are scaled on real
values.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .decomposition import _rotation_factors, _steer
from .errors import DomainError, _finite_real, _integer
from .feedback import SCHEMES, _reports, scheme_layout
from .linalg import _pow2_exponents, _svd2x2
from .precoding import GridSpec, _combos, _reg_inv, _search, _select

# The scalar entry points of the stages the engine batches.  It calls their
# stacked kernels instead, but profilers wrap these module attributes.
from .feedback import decode, encode  # noqa: F401
from .precoding import antenna_selection, optimize_gmud, reg_inv  # noqa: F401

__all__ = [
    "MODULATIONS",
    "SimConfig",
    "BerPoint",
    "BerCurve",
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


def _symbol_table(bps: int) -> np.ndarray:
    """Symbol i is the closed form of :func:`modulate` on the bps bits of i, most significant first."""
    bits = np.arange(2**bps)[:, None] >> np.arange(bps)[::-1] & 1
    if bps == 2:
        return ((1.0 - 2.0 * bits[:, 0]) + 1j * (1.0 - 2.0 * bits[:, 1])) / np.sqrt(2.0)
    re = (2.0 * bits[:, 0] - 1.0) * (3.0 - 2.0 * bits[:, 1])
    im = (2.0 * bits[:, 2] - 1.0) * (3.0 - 2.0 * bits[:, 3])
    return (re + 1j * im) / np.sqrt(10.0)


_SYMBOLS = {mod: _symbol_table(bps) for mod, bps in MODULATIONS.items()}


def _symbols(bits: np.ndarray, modulation: str) -> np.ndarray:
    """:func:`modulate` of C-contiguous 0/1 ``bits`` (bool or uint8) whose last axis has a multiple of bps entries."""
    bps = MODULATIONS[modulation]
    # A symbol's bps bytes read as one little-endian word: multiplying by sum(2**(9*k)) adds bit i of the
    # symbol at weight 2**(bps-1-i) into the top byte, and no lower byte's sum reaches 256 to carry into it.
    index = bits.view(f"<u{bps}") * sum(2 ** (9 * k) for k in range(bps)) >> 8 * (bps - 1)
    return np.take(_SYMBOLS[modulation], index)


def modulate(bits, modulation: str) -> np.ndarray:
    """Gray-mapped symbols with unit average energy, along the last axis.

    QPSK maps bit pairs (b1, b0) to ((1-2*b1) + 1j*(1-2*b0))/sqrt(2).
    16QAM maps bit quads (a, b, c, d): (a, b) pick the real level and
    (c, d) the imaginary level through the per-axis Gray code
    {00: -3, 01: -1, 11: +1, 10: +3}, scaled by 1/sqrt(10).  The symbols
    come from a table built from this closed form at import, indexed by
    each symbol's bits; bits other than 0 and 1 raise ``ValueError``.
    """
    bits = np.asarray(bits)
    bps = MODULATIONS.get(modulation)
    if bps is None:
        raise ValueError(f"unknown modulation {modulation!r}")
    if bits.ndim < 1 or bits.shape[-1] % bps:
        raise ValueError(f"bit count must be a multiple of {bps}")
    flags = bits.astype(bool, order="C")
    if np.any(flags != bits):
        raise ValueError("bits must be 0 or 1")
    return _symbols(flags, modulation)


def _gray_axis_bits(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse per-axis 16QAM Gray map by minimum distance (ties toward |level|=3)."""
    sign_bit = (vals >= 0.0).astype(np.uint8)
    inner_bit = (np.abs(vals) < 2.0).astype(np.uint8)
    return sign_bit, inner_bit


def demodulate(symbols, modulation: str) -> np.ndarray:
    """Minimum-distance hard decisions back to bits (inverse of :func:`modulate`).

    Symbols run along the last axis: (..., T) symbols give (..., bps*T) bits.
    """
    z = np.atleast_1d(np.asarray(symbols, dtype=np.complex128))
    if modulation not in MODULATIONS:
        raise ValueError(f"unknown modulation {modulation!r}")
    out = np.empty(z.shape[:-1] + (MODULATIONS[modulation] * z.shape[-1],), dtype=np.uint8)
    if modulation == "qpsk":
        out[..., 0::2] = z.real < 0.0
        out[..., 1::2] = z.imag < 0.0
        return out
    out[..., 0::4], out[..., 1::4] = _gray_axis_bits(z.real * np.sqrt(10.0))
    out[..., 2::4], out[..., 3::4] = _gray_axis_bits(z.imag * np.sqrt(10.0))
    return out


def transmit(g: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize G @ u to unit power per symbol.

    ``u`` holds one column per symbol (or a single vector); G (..., 2, 2)
    and u (..., 2, T) may carry realizations on leading axes.  Returns
    (x, gamma) with gamma = ||G u||^2 columnwise and x = G u times the
    real 1/sqrt(gamma) (numpy divides a complex value by a real one through
    that reciprocal), so ||x|| = 1.  A column whose gamma falls outside
    [2**-960, 2**960] is normalized on G u scaled by an exact power of two,
    so ||x|| = 1 at any scale; its gamma is rounded once, to a subnormal or
    0 below the normal range, and above it raises :class:`DomainError`.
    Where G u vanishes for a nonzero G (coarse feedback can give both users
    the same row, and G rank one), x is 0 and gamma is 0: the receivers then
    see only noise times zero.  A zero G, or entries that are not finite,
    raise ``ValueError``.
    """
    g, u = np.asarray(g), np.asarray(u)
    if u.ndim == 1:
        x, gamma = transmit(g, u[:, None])
        return x[:, 0], gamma[0]
    with np.errstate(over="ignore", invalid="ignore"):  # off the unit scale: decided below
        s = g @ u
        gamma = (s.real**2 + s.imag**2).sum(axis=-2)
        if 2.0**-960 <= gamma.min(initial=1.0) and gamma.max(initial=1.0) <= 2.0**960:  # NaN fails too
            return s * (1.0 / np.sqrt(gamma))[..., None, :], gamma
        if not (np.isfinite(g).all() and np.isfinite(u).all()):
            raise ValueError("transmit: G and u entries must be finite")
        vanished = ~s.any(axis=-2)
        if np.any(vanished & ~np.any(g, axis=(-2, -1))[..., None]):
            raise ValueError("zero transmit vector: G @ u vanished")
        # the other columns off [2**-960, 2**960]: s scaled by 2**-e, its largest part in [0.5, 1)
        far = ~(vanished | ((2.0**-960 <= gamma) & (gamma <= 2.0**960)))
        e = np.where(far, _pow2_exponents(np.fmax(np.abs(s.real), np.abs(s.imag)).max(axis=-2), safe=0), 0)
        s = s * np.ldexp(1.0, -e)[..., None, :]  # times 1.0 where e = 0
        unit = (s.real**2 + s.imag**2).sum(axis=-2)
        gamma = np.ldexp(unit, 2 * e)
    if not np.isfinite(gamma).all():  # the entries are finite: G u or its norm overflowed
        raise DomainError("transmit: ||G u||**2 overflows float64")
    x = s * (1.0 / np.sqrt(np.where(vanished, 1.0, unit)))[..., None, :]
    return np.where(vanished[..., None, :], 0.0, x), gamma


def receive_detect(channels, g, combiners, x, gamma, modulation: str, noise):
    """Combine, equalize with the genie gain, and slice.

    User k receives H_k x + n_k (``noise[..., k, :, :]``, one column per
    symbol), combines its antennas with the unit vector w_k =
    ``combiners[..., k, :]`` and divides by the true gain w_k^H H_k g_k
    (g_k: column k of G):
    z = sqrt(gamma) * ((w_k^H H_k) x + w_k^H n_k) / (w_k^H H_k g_k).
    Interference is never cancelled.  Realizations may stack on leading
    axes.  Returns the hard bit decisions as a (..., users, bits) uint8
    array, one row per user; a user whose gain is 0 gets NaN's (all 0).
    """
    x = np.asarray(x, dtype=np.complex128)
    # users on the (users, 1, .) matmul axis, each product the per-user vector product
    w = np.conj(combiners)[..., None, :]
    rows = w @ channels
    gains = rows @ np.swapaxes(g, -1, -2)[..., None]
    dead = gains == 0.0  # a zero genie gain: that user's z is NaN + NaN j, as 0/0 gives, without the warning
    z = np.sqrt(gamma)[..., None, None, :] * (rows @ x[..., None, :, :] + w @ noise) / np.where(dead, 1.0, gains)
    if dead.any():
        z = np.where(dead, complex(math.nan, math.nan), z)
    return demodulate(z[..., 0, :], modulation)


def _noise_var(snr_db) -> float:
    """10**(-snr_db/10) on float(snr_db), the noise variance at ``snr_db`` dB; ValueError where it overflows
    (below ~-3082 dB).  In the SNR's own numpy type, an unsigned negation would wrap and a narrow float round."""
    try:
        return 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db {snr_db} is too low: its noise variance 10**(-snr_db/10) overflows") from None


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
        snr = self.snr_db
        if not isinstance(snr, (Sequence, np.ndarray)) or isinstance(snr, str) or not all(map(_finite_real, snr)):
            raise ValueError("snr_db must be a sequence of finite reals")
        if len(snr) == 0:
            raise ValueError("snr_db must be nonempty")
        for s in snr:
            _noise_var(s)
        if not all(_integer(n) and n >= 1 for n in (self.realizations, self.symbols)):
            raise ValueError("realizations and symbols must be integers >= 1")
        if self.feedback != "perfect":
            if not (_integer(self.feedback) and self.feedback >= 1):
                raise ValueError("feedback must be 'perfect' or a positive integer N")
            scheme_layout(self.scheme, self.feedback)  # and small enough that every field's levels fit a float64
        if not _integer(self.seed) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not isinstance(self.grid, GridSpec):
            raise ValueError("grid must be a GridSpec")


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


def _rotation_projection(u, lambda1, lambda2, r, theta) -> np.ndarray:
    """Receiver combiners p1 (..., 2): the first column of P in each user's own H = P R Q^H.

    ``u`` (..., 2, 2), ``lambda1`` and ``lambda2`` are the user's SVD, stacked
    or not, and (r, theta) the steering the transmitter chose.  The beam
    kernel on (u1, u2) with the rotation's (a, b), r clamped into the true
    singular-value interval (the transmitter searched the quantized one).
    ``svd2x2`` completes v1 as the transmitter does, so the sent beam is q1
    of the same factorization and p1^H H = r q1^H: the discarded row of R
    never reaches the decision statistic.
    """
    r = np.minimum(np.maximum(r, lambda2), lambda1)
    a, b, _, _ = _rotation_factors(lambda1, lambda2, r)
    return _steer(a, b, theta, u[..., 0], u[..., 1])


_ROWS = np.eye(2, dtype=np.complex128)


def _link_reg_inv(channels: np.ndarray, noise_var: float, n, grid: GridSpec):
    return _reg_inv(_reports(channels, "reg-inv", n), noise_var), np.broadcast_to(_ROWS[[0, 0]], channels.shape[:3])


def _link_selection(channels: np.ndarray, noise_var: float, n, grid: GridSpec):
    combos = _combos((2, 2))
    pick, g, _, _ = _select(_reports(channels, "reg-inv-sel", n)[:, [0, 1], combos], noise_var)
    return g, _ROWS[combos[pick]]


def _link_gmud(channels: np.ndarray, noise_var: float, n, grid: GridSpec):
    u, lam1, lam2, v = (a.reshape(channels.shape[:2] + a.shape[1:]) for a in _svd2x2(channels.reshape(-1, 2, 2)))
    g, params, _ = _search(*_reports((lam1, lam2, v[..., 0]), "gmud", n), noise_var, grid)
    return g, _rotation_projection(u, lam1, lam2, params[:, [0, 2]], params[:, [1, 3]])


class _Link(NamedTuple):
    """A scheme's link builder, a stack of array kernels: (channels (R, users, 2, 2),
    noise_var, N or None for perfect CSI, grid) -> (G (R, 2, 2), (R, users, 2) unit
    combiners).  G comes from the reports of feedback._reports, exact or decoded; the
    combiners are p1 of _rotation_projection for gmud, the unit vector selecting the
    inverted receive row otherwise.  The engine passes at most ``cap`` realizations a
    call: per realization gmud's search peaks at ~14 KiB at any SNR (next to no
    block survives its bound), the inverse builders below 2.5 KiB.
    """

    build: Callable
    cap: int


_LINKS = {"reg-inv": _Link(_link_reg_inv, 512), "reg-inv-sel": _Link(_link_selection, 512),
          "gmud": _Link(_link_gmud, 128)}

# Realizations per symbol chunk: payload, noise, modulate, transmit and detect.  A
# chunk of 400 is slower than 32: its page faults cost more than the calls it saves.
_CHUNK = 32

# numpy's SeedSequence algorithm (numpy/random/bit_generator.pyx, pool of 4 words), fixed by NEP 19.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


@functools.lru_cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:  # init * mult**i mod 2**32, i < count
    return np.array([init * pow(mult, i, 1 << 32) & _M32 for i in range(count)], np.uint32)[:, None]


def _seed_states(seed: int, snr_idx: int, count: int) -> np.ndarray:
    """(count, 4) uint64 whose row j is ``SeedSequence([seed, snr_idx, j]).generate_state(4, np.uint64)``."""
    def hashmix(rows, k, n, init=_INIT_A, mult=_MULT_A):  # hashmixes k, ..., k+n-1 of the chain, one per row
        const = _hash_constants(init, mult, k + n + 1)[k:]
        rows = (rows ^ const[:-1]) * const[1:]
        return rows ^ rows >> 16

    words = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)] + [snr_idx]  # low first
    entropy = np.zeros((max(len(words) + 1, 4), count), np.uint32)  # padded to the pool's 4 words
    entropy[: len(words)], entropy[len(words)] = np.array(words, np.uint32)[:, None], np.arange(count)
    pool, k = hashmix(entropy[:4], 0, 4), 4
    for src in range(len(entropy)):  # each pool word into the other three, then each entropy word past the pool
        dst = [d for d in range(4) if d != src]
        mixed = pool[dst] * _MIX_L - hashmix(pool[src] if src < 4 else entropy[src], k, len(dst)) * _MIX_R
        pool[dst], k = mixed ^ mixed >> 16, k + len(dst)
    state = hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], 0, 8, _INIT_B, _MULT_B).T
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64)


@dataclass
class _SeedState(np.random.bit_generator.ISeedSequence):
    """Seeds a PCG64 with one row of :func:`_seed_states`, its ``generate_state(4, np.uint64)``."""

    state: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _complex(parts: np.ndarray, *scales: float) -> np.ndarray:
    """``(parts[:, 0] + 1j * parts[:, 1]) * scale * ...`` for nonzero parts, scaled on the parts in place."""
    for scale in scales:
        parts *= scale
    z = np.empty(parts[:, 0].shape, np.complex128)
    z.real, z.imag = parts[:, 0], parts[:, 1]
    return z


def _error_counts(config: SimConfig, snr_idx: int) -> np.ndarray:
    """Bit errors of every realization at one SNR point.

    The draws are those the module docstring derives, seeded for the whole
    point in one pass.  Each block of up to the link's cap realizations
    draws its channels and builds its precoders in one link call; its
    generators stay live for the payload and noise of its chunks of
    _CHUNK.  Normals [i, 0] and [i, 1] are what :func:`crandn` draws for
    real and imaginary parts.
    """
    n = None if config.feedback == "perfect" else config.feedback
    snr_db = config.snr_db[snr_idx]
    noise_var = _noise_var(snr_db)
    if config.scheme != "gmud" and math.isinf(2.0 * noise_var):  # _reg_inv's K*noise_var, K = 2 users
        raise ValueError(f"snr_db {snr_db} is too low for {config.scheme}: its regularizer 2*noise_var overflows")
    bits = 2 * config.symbols * MODULATIONS[config.modulation]
    states = _seed_states(int(config.seed), snr_idx, config.realizations)
    err_counts = np.empty(config.realizations, dtype=np.int64)
    link = _LINKS[config.scheme]
    for block in range(0, config.realizations, link.cap):
        rngs = [np.random.Generator(np.random.PCG64(_SeedState(s))) for s in states[block : block + link.cap]]
        channels = np.empty((len(rngs), 2, 2, 2, 2))
        for rng, out in zip(rngs, channels):
            rng.standard_normal(out=out)
        channels = _complex(channels, np.sqrt(0.5))
        g, combiners = link.build(channels, noise_var, n, config.grid)
        for start in range(0, len(rngs), _CHUNK):
            chunk = slice(start, start + _CHUNK)
            size = len(rngs[chunk])
            noise, words = np.empty((size, 2, 2, 2, config.symbols)), np.empty((size, -(-bits // 8)), "<u8")
            for i, rng in enumerate(rngs[chunk]):
                words[i] = rng.bit_generator.random_raw(words.shape[1])
                rng.standard_normal(out=noise[i])
            payload = (words.view(np.uint8)[:, :bits] >> 7).reshape(size, 2, -1)
            x, gamma = transmit(g[chunk], _symbols(payload, config.modulation))
            noise = _complex(noise, np.sqrt(0.5), np.sqrt(noise_var))
            detected = receive_detect(channels[chunk], g[chunk], combiners[chunk], x, gamma, config.modulation, noise)
            err_counts[block + start : block + start + size] = np.count_nonzero(detected != payload, axis=(1, 2))
    return err_counts


def _simulate_point(config: SimConfig, snr_idx: int) -> BerPoint:
    err_counts = _error_counts(config, snr_idx)
    bits_per_real = 2 * config.symbols * MODULATIONS[config.modulation]
    total_bits = bits_per_real * config.realizations
    total_errs = int(err_counts.sum())
    p = total_errs / total_bits
    resid = err_counts.astype(np.float64) - p * bits_per_real
    se = float(np.sqrt((resid**2).sum()) / total_bits)
    return BerPoint(float(config.snr_db[snr_idx]), p, total_bits, total_errs, se)


def run_ber(config: SimConfig, jobs: int = 1) -> BerCurve:
    """Estimate the BER curve for one scheme/modulation/feedback setting.

    With ``jobs > 1`` the SNR points run in separate processes; results
    are identical to the serial run because every realization derives
    its own generator.
    """
    if not _integer(jobs) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    tasks = [(config, i) for i in range(len(config.snr_db))]
    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            points = pool.starmap(_simulate_point, tasks)
    else:
        points = [_simulate_point(*task) for task in tasks]
    return BerCurve(config.scheme, config.modulation, config.feedback, tuple(points))
