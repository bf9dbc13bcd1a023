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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, FormatError
from .linalg import SvdFactorization, svd2x2

__all__ = [
    "SCHEMES",
    "VECTOR_RANGE",
    "MAGNITUDE_RANGE",
    "RegInvSelectionFeedback",
    "RegInvFixedFeedback",
    "GmudFeedback",
    "quantize_scalar",
    "scheme_layout",
    "encode",
    "decode",
]

VECTOR_RANGE = (-1.0, 1.0)
MAGNITUDE_RANGE = (0.0, 4.0)


def quantize_scalar(v: float, lo: float, hi: float, bits: int) -> tuple[int, float]:
    """Uniform midrise quantizer on [lo, hi) with 2**bits levels.

    Out-of-range inputs clamp to the edge cells.  Returns the cell index
    and the reconstruction level lo + (index + 0.5) * step; in-range
    values err by at most half a step, and reconstruction levels map
    back to their own index.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if not lo < hi:
        raise ValueError("lo must be < hi")
    levels = 1 << bits
    step = (hi - lo) / levels
    # clamping first cannot overflow and moves no in-range index: (hi - lo) / step == levels
    index = min(int(np.floor((min(max(v, lo), hi) - lo) / step)), levels - 1)
    return index, _reconstruct(index, lo, hi, bits)


def _reconstruct(index: int, lo: float, hi: float, bits: int) -> float:
    step = (hi - lo) / (1 << bits)
    return lo + (index + 0.5) * step


def _floats(z) -> np.ndarray:
    """Complex values as (Re, Im) float64 pairs in row order, flat: an exact view."""
    return np.ascontiguousarray(z, dtype=np.complex128).view(np.float64).ravel()


def _complex(parts) -> np.ndarray:
    """Inverse of :func:`_floats`: (Re, Im) pairs back to complex values."""
    return np.ascontiguousarray(parts, dtype=np.float64).view(np.complex128)


def _pairs(z) -> list:
    """JSON-ready nested lists with each complex entry as [re, im]."""
    return _floats(z).reshape(np.shape(z) + (2,)).tolist()


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def _unit_row(row: np.ndarray) -> tuple[np.ndarray, float]:
    # an overflowing or non-finite row leaves a non-finite field, which encode names
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = float(np.linalg.norm(row))
        if nrm == 0.0:
            return np.array([1.0 + 0.0j, 0.0j]), 0.0
        return row / nrm, nrm


@dataclass(eq=False)
class RegInvSelectionFeedback:
    """Decoded full-channel report: two renormalized unit rows plus row norms."""

    raw: np.ndarray  # the 10 reconstruction levels, wire order
    unit_rows: np.ndarray  # 2x2 complex, each row unit norm
    row_norms: np.ndarray  # (2,)

    @classmethod
    def from_values(cls, values: np.ndarray) -> RegInvSelectionFeedback:
        rows = (_complex(values[0:4]), _complex(values[4:8]))
        return cls(values, np.stack([_unit(r) for r in rows]), values[8:10].copy())

    @property
    def channel(self) -> np.ndarray:
        """Channel estimate: rows scaled back by their norms."""
        return self.unit_rows * self.row_norms[:, None]

    def as_dict(self) -> dict:
        """JSON-ready decoded values, complex entries as [re, im] pairs."""
        return {"channel": _pairs(self.channel), "norms": self.row_norms.tolist()}


@dataclass(eq=False)
class RegInvFixedFeedback:
    """Decoded single-row report (the no-selection baseline)."""

    raw: np.ndarray  # 5 reconstruction levels
    unit_row: np.ndarray  # (2,) complex, unit norm
    row_norm: float

    @classmethod
    def from_values(cls, values: np.ndarray) -> RegInvFixedFeedback:
        return cls(values, _unit(_complex(values[0:4])), float(values[4]))

    @property
    def row(self) -> np.ndarray:
        return self.unit_row * self.row_norm

    def as_dict(self) -> dict:
        """JSON-ready decoded values, complex entries as [re, im] pairs."""
        return {"row": _pairs(self.row), "norm": self.row_norm}


@dataclass(eq=False)
class GmudFeedback:
    """Decoded spectral report: principal vector plus both singular values."""

    raw: np.ndarray  # 6 reconstruction levels
    v1: np.ndarray  # (2,) complex, unit norm
    lambda1: float
    lambda2: float

    @classmethod
    def from_values(cls, values: np.ndarray) -> GmudFeedback:
        lam = sorted((float(values[4]), float(values[5])), reverse=True)
        return cls(values, _unit(_complex(values[0:4])), lam[0], lam[1])

    @classmethod
    def from_svd(cls, svd: SvdFactorization) -> GmudFeedback:
        """The exact (unquantized) report of a channel: perfect CSI."""
        return cls(np.array(_spectral_scalars(svd)), svd.v[:, 0].copy(), svd.lambda1, svd.lambda2)

    def as_dict(self) -> dict:
        """JSON-ready decoded values, complex entries as [re, im] pairs."""
        return {"v1": _pairs(self.v1), "lambda1": self.lambda1, "lambda2": self.lambda2}


def _selection_scalars(h) -> list[float]:
    h = np.asarray(h, dtype=np.complex128)
    units, norms = zip(*(_unit_row(h[i]) for i in range(2)))
    return _floats(units).tolist() + list(norms)


def _fixed_row_scalars(h) -> list[float]:
    unit, nrm = _unit_row(np.asarray(h, dtype=np.complex128)[0])
    return _floats(unit).tolist() + [nrm]


def _spectral_scalars(source) -> list[float]:
    if isinstance(source, np.ndarray):
        source = svd2x2(source)
    if isinstance(source, SvdFactorization):
        source = (source.lambda1, source.lambda2, source.v[:, 0])
    lam1, lam2, v1 = source
    return _floats(v1).tolist() + [float(lam1), float(lam2)]


def _complex_fields(prefix: str, bits_per_n: int) -> tuple:
    return tuple(
        (f"{prefix}_{part}{j}", bits_per_n, VECTOR_RANGE)
        for j in range(2)
        for part in ("re", "im")
    )


@dataclass(frozen=True)
class _Scheme:
    """A feedback scheme: wire fields as (name, bits per unit N, range), source -> scalars, message type."""

    fields: tuple[tuple[str, int, tuple[float, float]], ...]
    scalars: Callable[..., list[float]]
    message: type


_SCHEME_TABLE = {
    "reg-inv": _Scheme(
        _complex_fields("row", 2) + (("norm", 4, MAGNITUDE_RANGE),),
        _fixed_row_scalars,
        RegInvFixedFeedback,
    ),
    "reg-inv-sel": _Scheme(
        _complex_fields("row0", 1)
        + _complex_fields("row1", 1)
        + (("norm0", 2, MAGNITUDE_RANGE), ("norm1", 2, MAGNITUDE_RANGE)),
        _selection_scalars,
        RegInvSelectionFeedback,
    ),
    "gmud": _Scheme(
        _complex_fields("v1", 2)
        + (("lambda1", 2, MAGNITUDE_RANGE), ("lambda2", 2, MAGNITUDE_RANGE)),
        _spectral_scalars,
        GmudFeedback,
    ),
}

SCHEMES = tuple(_SCHEME_TABLE)


def scheme_layout(scheme: str, n: int) -> list[tuple[str, int, float, float]]:
    """Ordered (name, bits, lo, hi) wire fields for a scheme at budget N."""
    if n < 1:
        raise ValueError("budget parameter N must be >= 1")
    if scheme not in _SCHEME_TABLE:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return [(name, k * n, lo, hi) for name, k, (lo, hi) in _SCHEME_TABLE[scheme].fields]


def encode(source, scheme: str, n: int) -> str:
    """Encode channel/decomposition data (or a decoded message) to 12*N bits.

    ``source`` is a 2x2 channel matrix for every scheme (``reg-inv``
    reports its first row, ``gmud`` its :func:`svd2x2` factors), a
    ``(lambda1, lambda2, v1)`` triple or :class:`SvdFactorization` for
    ``gmud``, or a previously decoded message of the matching type, whose
    stored reconstruction levels re-encode to identical bits.  Raises
    :class:`DomainError` naming the first wire field that is not finite,
    and ``ValueError`` when the source does not fill the scheme's fields.
    """
    layout = scheme_layout(scheme, n)
    spec = _SCHEME_TABLE[scheme]
    scalars = source.raw if isinstance(source, spec.message) else spec.scalars(source)
    if len(scalars) != len(layout):
        raise ValueError(f"{scheme} source gives {len(scalars)} wire fields, expected {len(layout)}")
    fields = []
    for v, (name, width, lo, hi) in zip(scalars, layout):
        if not math.isfinite(v):
            raise DomainError(f"{name} is not finite")
        fields.append(format(quantize_scalar(v, lo, hi, width)[0], f"0{width}b"))
    return "".join(fields)


def decode(bits: str, scheme: str, n: int):
    """Decode a 12*N-bit message into the scheme's feedback dataclass.

    Scalars become their midrise reconstruction levels; unit vectors are
    renormalized and singular values sorted descending.  Raises
    :class:`FormatError` on wrong length or alphabet.
    """
    layout = scheme_layout(scheme, n)
    if len(bits) != 12 * n:
        raise FormatError(f"expected {12 * n} bits, got {len(bits)}")
    if set(bits) - {"0", "1"}:
        raise FormatError("bitstring must contain only '0' and '1'")
    values, pos = [], 0
    for _, width, lo, hi in layout:
        values.append(_reconstruct(int(bits[pos : pos + width], 2), lo, hi, width))
        pos += width
    return _SCHEME_TABLE[scheme].message.from_values(np.array(values))
