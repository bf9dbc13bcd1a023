"""Bit-exact limited-feedback messages under a common 12N-bit budget.

Each receiver reports its channel through one of three message layouts,
all costing exactly 12*N bits:

======================  =================================================
scheme                  fields, in wire order
======================  =================================================
``reg-inv-sel``         8 unit-row components (N bits each),
                        2 row norms (2N bits each)
``reg-inv``             4 unit-row components (2N bits each),
                        1 row norm (4N bits)
``gmud``                4 principal-vector components (2N bits each),
                        lambda1, lambda2 (2N bits each)
======================  =================================================

Complex vectors are sent componentwise as (Re, Im) pairs in row order,
quantized by a uniform midrise quantizer on [-1, 1]; norms and singular
values use [0, 4].  Indices are packed most-significant-bit first in the
field order above; the bitstring is a ``str`` of '0'/'1' so its length
is the exact bit count.  Decoding renormalizes unit vectors and sorts
singular values, but keeps the raw reconstruction levels so re-encoding
a decoded message reproduces its bits exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

import numpy as np

from .errors import DomainError, FormatError, _integer
from .linalg import SvdFactorization, _norm, svd2x2

__all__ = [
    "SCHEMES",
    "VECTOR_RANGE",
    "MAGNITUDE_RANGE",
    "RegInvSelectionFeedback",
    "RegInvFixedFeedback",
    "GmudFeedback",
    "scheme_layout",
    "encode",
    "decode",
]

VECTOR_RANGE = (-1.0, 1.0)
MAGNITUDE_RANGE = (0.0, 4.0)
_MAX_WIDTH = 50  # the widest field whose levels lo + (cell + 0.5) * step stay exact on both wire ranges


def _cells(v, lo, hi, bits):
    """The cells of the uniform midrise quantizer, elementwise, as integer-valued floats.

    The kernel of :func:`encode` and the realization-batched reports, with
    :func:`_reconstruct`.
    """
    levels = np.ldexp(1.0, bits)
    # clamping first cannot overflow and moves no in-range index: (hi - lo) / step == levels
    return np.minimum(np.floor((np.clip(v, lo, hi) - lo) / ((hi - lo) / levels)), levels - 1.0)


def _reconstruct(cells, lo, hi, bits):
    return lo + (cells + 0.5) * ((hi - lo) / np.ldexp(1.0, bits))


def _pairs(z) -> list:
    """JSON-ready nested lists with each complex entry as [re, im]."""
    return np.ascontiguousarray(z, dtype=np.complex128).view(np.float64).reshape(np.shape(z) + (2,)).tolist()


def _unit(parts) -> np.ndarray:
    """(Re, Im) pairs back to complex vectors along the last axis, each divided by its norm."""
    vec = np.ascontiguousarray(parts, dtype=np.float64).view(np.complex128)
    return vec / _norm(vec)[..., None]


def _unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows and row norms along the last axis; a zero row gives [1, 0, ...] and norm 0."""
    # an overflowing or non-finite row leaves a non-finite field, which encode names
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nrm = _norm(rows)
        units = rows / nrm[..., None]
    units[nrm == 0.0] = np.eye(1, units.shape[-1])[0]
    return units, nrm


class _Message:
    """A decoded report, ``raw`` first.  The scheme's stacked decoder ``_decode``
    builds it from levels (..., fields), each field then carrying the leading
    axes; :meth:`from_values` is a batch of one through it."""

    @classmethod
    def from_values(cls, values):
        """The message of one report's reconstruction levels, in wire order."""
        stack = cls._decode(np.array(values, dtype=np.float64)[None])
        fields = (getattr(stack, f.name)[0] for f in dataclasses.fields(cls)[1:])
        return cls(values, *(v.item() if v.ndim == 0 else v for v in fields))


@dataclass(eq=False)
class RegInvSelectionFeedback(_Message):
    """Decoded full-channel report: two renormalized unit rows plus row norms."""

    raw: np.ndarray  # the 10 reconstruction levels, wire order
    unit_rows: np.ndarray  # 2x2 complex, each row unit norm
    row_norms: np.ndarray  # (2,)

    @classmethod
    def _decode(cls, levels: np.ndarray) -> RegInvSelectionFeedback:
        return cls(levels, _unit(levels[..., 0:8].reshape(levels.shape[:-1] + (2, 4))), levels[..., 8:10])

    @property
    def channel(self) -> np.ndarray:
        """Channel estimate: rows scaled back by their norms."""
        return self.unit_rows * self.row_norms[..., None]

    def as_dict(self) -> dict:
        """JSON-ready decoded values, complex entries as [re, im] pairs."""
        return {"channel": _pairs(self.channel), "norms": self.row_norms.tolist()}


@dataclass(eq=False)
class RegInvFixedFeedback(_Message):
    """Decoded single-row report (the no-selection baseline)."""

    raw: np.ndarray  # 5 reconstruction levels
    unit_row: np.ndarray  # (2,) complex, unit norm
    row_norm: float

    @classmethod
    def _decode(cls, levels: np.ndarray) -> RegInvFixedFeedback:
        return cls(levels, _unit(levels[..., 0:4]), levels[..., 4])

    @property
    def row(self) -> np.ndarray:
        return self.unit_row * np.expand_dims(self.row_norm, -1)

    def as_dict(self) -> dict:
        """JSON-ready decoded values, complex entries as [re, im] pairs."""
        return {"row": _pairs(self.row), "norm": self.row_norm}


@dataclass(eq=False)
class GmudFeedback(_Message):
    """Decoded spectral report: principal vector plus both singular values."""

    raw: np.ndarray  # 6 reconstruction levels
    v1: np.ndarray  # (2,) complex, unit norm
    lambda1: float
    lambda2: float

    @classmethod
    def _decode(cls, levels: np.ndarray) -> GmudFeedback:
        lam = levels[..., 4:6]
        return cls(levels, _unit(levels[..., 0:4]), lam.max(axis=-1), lam.min(axis=-1))

    @classmethod
    def from_svd(cls, svd: SvdFactorization) -> GmudFeedback:
        """The exact (unquantized) report of a channel: perfect CSI."""
        return cls(_spectral_scalars(svd), svd.v[:, 0].copy(), svd.lambda1, svd.lambda2)

    def as_dict(self) -> dict:
        """JSON-ready decoded values, complex entries as [re, im] pairs."""
        return {"v1": _pairs(self.v1), "lambda1": self.lambda1, "lambda2": self.lambda2}


def _rows(h) -> np.ndarray:
    """A channel source (..., rows, N_T) as complex; a vector reads as one-element rows."""
    h = np.asarray(h, dtype=np.complex128)
    return h[:, None] if h.ndim == 1 else h


def _row_scalars(rows) -> np.ndarray:
    """Wire scalars (..., 5 * rows) of rows (..., rows, 2): unit rows as (Re, Im) pairs, then row norms."""
    units, norms = _unit_rows(rows)
    return np.concatenate([units.view(np.float64).reshape(norms.shape[:-1] + (-1,)), norms], axis=-1)


def _spectral_scalars(source) -> np.ndarray:
    """The gmud wire scalars (..., 6) of (lambda1, lambda2, v1) as a tuple or list, which may be stacked, of
    an SVD, or of a 2x2 channel as any other array-like."""
    if isinstance(source, (tuple, list)) and len(source) == 3:
        lam1, lam2, v1 = source
    else:
        svd = source if isinstance(source, SvdFactorization) else svd2x2(source)
        lam1, lam2, v1 = svd.lambda1, svd.lambda2, svd.v[:, 0]
    v1 = np.ascontiguousarray(v1, dtype=np.complex128).view(np.float64)
    return np.concatenate([v1, np.stack([lam1, lam2], axis=-1).astype(np.float64)], axis=-1)


def _complex_fields(prefix: str, bits_per_n: int) -> tuple:
    return tuple(
        (f"{prefix}_{part}{j}", bits_per_n, VECTOR_RANGE)
        for j in range(2)
        for part in ("re", "im")
    )


@dataclass(frozen=True)
class _Scheme:
    """A feedback scheme: wire fields as (name, bits per unit N, range), source -> scalars, the message type,
    whose ``_decode`` is the stacked decoder, what the transmitter uses of a message, and the same of a
    source under perfect CSI (for gmud the source is (lambda1, lambda2, v1) itself)."""

    fields: tuple[tuple[str, int, tuple[float, float]], ...]
    scalars: Callable[..., np.ndarray]
    message: type
    report: Callable
    exact: Callable


_SCHEME_TABLE = {
    "reg-inv": _Scheme(
        _complex_fields("row", 2) + (("norm", 4, MAGNITUDE_RANGE),),
        lambda h: _row_scalars(_rows(h)[..., :1, :]), RegInvFixedFeedback, attrgetter("row"),
        lambda h: _rows(h)[..., 0, :],
    ),
    "reg-inv-sel": _Scheme(
        _complex_fields("row0", 1)
        + _complex_fields("row1", 1)
        + (("norm0", 2, MAGNITUDE_RANGE), ("norm1", 2, MAGNITUDE_RANGE)),
        lambda h: _row_scalars(_rows(h)), RegInvSelectionFeedback, attrgetter("channel"), _rows,
    ),
    "gmud": _Scheme(
        _complex_fields("v1", 2)
        + (("lambda1", 2, MAGNITUDE_RANGE), ("lambda2", 2, MAGNITUDE_RANGE)),
        _spectral_scalars, GmudFeedback, attrgetter("lambda1", "lambda2", "v1"), tuple,
    ),
}

SCHEMES = tuple(_SCHEME_TABLE)


def scheme_layout(scheme: str, n: int) -> list[tuple[str, int, float, float]]:
    """Ordered (name, bits, lo, hi) wire fields for a scheme at budget N.

    N is an integer >= 1 that makes no field wider than 50 bits, where
    every level is exact: N <= 12 for ``reg-inv`` (a 4N-bit norm), N <= 25
    for the others (``ValueError`` otherwise).
    """
    if not (_integer(n) and n >= 1):
        raise ValueError("budget parameter N must be an integer >= 1")
    if scheme not in _SCHEME_TABLE:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    fields = _SCHEME_TABLE[scheme].fields
    if (widest := max(k for _, k, _ in fields)) * n > _MAX_WIDTH:
        raise ValueError(f"budget parameter N must be <= {_MAX_WIDTH // widest} for {scheme}: "
                         f"its {widest}N-bit field may be at most {_MAX_WIDTH} bits wide")
    return [(name, k * n, lo, hi) for name, k, (lo, hi) in fields]


def _fields(scheme: str, n: int):
    """The wire layout as arrays: names, then bits, lo and hi per field."""
    names, bits, lo, hi = zip(*scheme_layout(scheme, n))
    return names, np.array(bits), np.array(lo), np.array(hi)


def _finite(scalars: np.ndarray, names) -> np.ndarray:
    """``scalars`` (..., fields), or :class:`DomainError` naming the first field that is not."""
    finite = np.isfinite(scalars)
    if not finite.all():
        raise DomainError(f"{names[int(np.argmin(finite)) % len(names)]} is not finite")
    return scalars


def encode(source, scheme: str, n: int) -> str:
    """Encode channel/decomposition data (or a decoded message) to 12*N bits.

    ``source`` is a 2x2 channel matrix, any array-like, for every scheme
    (``reg-inv`` reports its first row, ``gmud`` its :func:`svd2x2` factors), a
    ``(lambda1, lambda2, v1)`` tuple or list or :class:`SvdFactorization` for
    ``gmud``, or a previously decoded message of the matching type, whose
    stored reconstruction levels re-encode to identical bits.  Raises
    :class:`DomainError` naming the first wire field that is not finite,
    and ``ValueError`` when the source does not fill the scheme's fields.
    """
    names, bits, lo, hi = _fields(scheme, n)
    spec = _SCHEME_TABLE[scheme]
    scalars = np.asarray(source.raw if isinstance(source, spec.message) else spec.scalars(source), dtype=np.float64)
    if len(scalars) != len(names):
        raise ValueError(f"{scheme} source gives {len(scalars)} wire fields, expected {len(names)}")
    cells = _cells(_finite(scalars, names), lo, hi, bits)
    return "".join(format(int(c), f"0{w}b") for c, w in zip(cells.tolist(), bits.tolist()))


def decode(bits: str, scheme: str, n: int):
    """Decode a 12*N-bit message into the scheme's feedback dataclass.

    Scalars become their midrise reconstruction levels; unit vectors are
    renormalized and singular values sorted descending.  Raises
    :class:`FormatError` on a ``bits`` that is not a str, or of the wrong
    length or alphabet.
    """
    _, widths, lo, hi = _fields(scheme, n)
    if not isinstance(bits, str):
        raise FormatError(f"bitstring must be a str, got {type(bits).__name__}")
    if len(bits) != 12 * n:
        raise FormatError(f"expected {12 * n} bits, got {len(bits)}")
    if set(bits) - {"0", "1"}:
        raise FormatError("bitstring must contain only '0' and '1'")
    ends = np.cumsum(widths).tolist()
    cells = [float(int(bits[end - w : end], 2)) for end, w in zip(ends, widths.tolist())]
    return _SCHEME_TABLE[scheme].message.from_values(_reconstruct(np.array(cells), lo, hi, widths))


def _reports(source, scheme: str, n: int | None):
    """What the transmitter uses of each report in a stack: exact for ``n`` None, else decoded from 12N bits.

    ``source`` is a channel stack (..., 2, 2), or for ``gmud`` a stacked
    (lambda1, lambda2, v1).  Decoded, the reports are the ``row`` (..., 2),
    the ``channel`` (..., 2, 2) and the (lambda1, lambda2, v1) of
    :func:`decode`'s messages, through the same decoder.
    """
    spec = _SCHEME_TABLE[scheme]
    if n is None:
        return spec.exact(source)
    names, bits, lo, hi = _fields(scheme, n)
    cells = _cells(_finite(spec.scalars(source), names), lo, hi, bits)
    return spec.report(spec.message._decode(_reconstruct(cells, lo, hi, bits)))
