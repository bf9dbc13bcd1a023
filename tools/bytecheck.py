"""Compare the outputs of two gmud source trees, byte for byte.

    python tools/bytecheck.py record <tree> <out.pkl>
    python tools/bytecheck.py diff <a.pkl> <b.pkl>

``record`` imports ``gmud`` from ``<tree>/src`` in a fresh subprocess and
runs a fixed, seeded battery of calls over every callable in
``gmud.__all__``, the link builders of ``gmud.simulation`` (on stacks of
one and of 33 realizations) and the
``decompose``/``quantize`` commands.  For each call it pickles what was
returned (arrays and floats with their raw bytes), or the type and message
of what was raised, plus every warning issued.  ``diff`` lists each item
that differs between two records by function, group and input index, with
the largest ulp distance between their float outputs, and ends with one
summary line.  A tree is any checkout of the repository, for instance one
unpacked with ``git archive`` or made with ``git worktree add``.  Each
record's battery comes from the ``tools/bytecheck.py`` that runs it, so
two trees recorded with the same file see the same inputs; across an API
change, record each tree with its own copy of this file, and the
battery entries of renamed names show as missing from one record.

Inputs come in named groups:

* ``typical``: random Gaussian channels, reports and scalars;
* ``edge``: equal singular values, exact multiples of the identity,
  rank-deficient matrices, zero noise, interval endpoints, exact quantizer
  levels;
* ``error``: inputs that must raise, compared by type and message;
* ``extreme-scale``: matrices and values at the ends of the float64 range
  (scales 2**-1000 .. 2**1000, 1e-15, 1e154, 1e305) and singular matrices
  at every scale.  Numerical fixes that are meant to change results show
  up here; a pure refactor leaves every group identical.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import pickle
import subprocess
import sys
import warnings
import zlib
from collections import Counter
from pathlib import Path

import numpy as np

GROUPS = ("typical", "edge", "error", "extreme-scale")
SCALES = tuple(np.ldexp(1.0, k) for k in (-1000, -600, -300, -100, 100, 300, 600, 1000)) + (1e-15, 1e154)
RANGES = ((-1.0, 1.0), (0.0, 4.0))
# exact multiples of the identity: h^H h = mu I, the branch of svd2x2 that takes v1 = e1
IDENTITIES = (0.7 * np.eye(2), np.ldexp(1.0, -600) * np.eye(2), np.exp(1.1j) * np.eye(2))

# name -> generator(gmud module) yielding (group, zero-argument call)
BATTERY: dict = {}


def case(name, *args):
    """Register ``fn(gmud, *args)`` as the battery of ``name``."""

    def register(fn):
        BATTERY[name] = lambda g: fn(g, *args)
        return fn

    return register


def _rng(name: str) -> np.random.Generator:
    # seeded by name, so adding a battery entry moves no other entry's inputs
    return np.random.default_rng(zlib.crc32(name.encode()))


def _crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


def _unitary(rng):
    q, r = np.linalg.qr(_crandn(rng, (2, 2)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _rank_one(rng):
    return np.outer(_crandn(rng, 2), _crandn(rng, 2).conj())


def _unit(rng):
    v = _crandn(rng, 2)
    return v / np.linalg.norm(v)


def _r_inside(rng, h):
    """A prescribed r strictly inside h's singular-value interval (numpy's SVD)."""
    l1, l2 = np.linalg.svd(h, compute_uv=False)
    return float(l2 + rng.uniform(0.01, 0.99) * (l1 - l2))


def _matrices(rng, count):
    """Random channels, then the edge and extreme-scale matrices, as (group, h)."""
    for _ in range(count):
        yield "typical", _crandn(rng, (2, 2))
    for _ in range(count // 10):
        yield "edge", rng.uniform(0.1, 3.0) * _unitary(rng)  # lambda1 = lambda2
        yield "edge", _rank_one(rng)
    yield "edge", np.diag([2.0, 1.0]).astype(complex)
    yield "edge", np.array([[1.0, 2.0], [3.0, -1.0]], dtype=complex)
    for scale in SCALES:
        for _ in range(5):
            yield "extreme-scale", scale * _crandn(rng, (2, 2))
        yield "extreme-scale", scale * _rank_one(rng)


# errors


@case("DomainError", "DomainError")
@case("FormatError", "FormatError")
@case("SingularMatrixError", "SingularMatrixError")
def _exception(g, name):
    cls = getattr(g, name)
    yield "typical", lambda: (str(cls("message")), [c.__name__ for c in cls.__mro__])


# linalg


@case("mat_inv")
def _mat_inv(g):
    rng = _rng("mat_inv")
    for _ in range(2000):
        yield "typical", lambda a=_crandn(rng, (2, 2)) + 2 * np.eye(2): g.mat_inv(a)
    for _ in range(1000):
        yield "typical", lambda a=_crandn(rng, (2, 2)): g.mat_inv(a)
    for noise in (0.0, 1e-3, 0.05, 1.0):
        for _ in range(500):
            h = _crandn(rng, (2, 2))
            yield "edge", lambda a=h @ h.conj().T + 2 * noise * np.eye(2): g.mat_inv(a)
    yield "edge", lambda: g.mat_inv(np.eye(2))
    yield "edge", lambda: g.mat_inv(np.diag([2.0, 4.0]))
    for bad in (np.eye(3), np.ones((2, 3)), np.ones(2), [[1.0, np.nan], [0.0, 1.0]]):
        yield "error", lambda a=bad: g.mat_inv(a)
    base = np.array([[1.0, 0.3j], [0.2, 2.0]])
    yield "extreme-scale", lambda: g.mat_inv(np.zeros((2, 2)))
    for scale in SCALES:
        yield "extreme-scale", lambda a=scale * base: g.mat_inv(a)
        yield "extreme-scale", lambda a=scale * np.eye(2): g.mat_inv(a)
        yield "extreme-scale", lambda a=scale * _rank_one(rng): g.mat_inv(a)
        yield "extreme-scale", lambda a=scale * _crandn(rng, (2, 2)): g.mat_inv(a)


@case("svd2x2")
def _svd2x2(g):
    rng = _rng("svd2x2")
    for group, h in _matrices(rng, 3000):
        yield group, lambda h=h: g.svd2x2(h)
    yield "edge", lambda: g.svd2x2(np.zeros((2, 2)))
    yield "edge", lambda: g.svd2x2(np.array([[1.0, 2.0], [3.0, 4.0]]))
    yield "edge", lambda: g.svd2x2(np.diag([1j, 1e-12j]))  # lambda2 / lambda1 = 1e-12
    t = 9.220892867948306e-139  # h^H h within 1e-155 of I: tiny eigenvector candidates
    yield "edge", lambda: g.svd2x2(np.exp(2j) * np.array([[np.exp(2j) * np.cos(t), np.sin(t)],
                                                           [-np.sin(t), np.exp(-2j) * np.cos(t)]]))
    for h in IDENTITIES:
        yield "edge", lambda h=h: g.svd2x2(h)
    for bad in (np.eye(3), np.ones(4), [[np.inf, 0.0], [0.0, 1.0]]):
        yield "error", lambda h=bad: g.svd2x2(h)


@case("SvdFactorization")
def _svd_factorization(g):
    rng = _rng("SvdFactorization")
    for group, h in _matrices(rng, 200):
        yield group, lambda h=h: (lambda s: g.SvdFactorization(s.u, s.lambda1, s.lambda2, s.v).reconstruct())(
            g.svd2x2(h)
        )


# decomposition


def _phase(rng):
    return rng.uniform(-7.0, 14.0)


@case("gmud")
def _gmud(g):
    rng = _rng("gmud")
    for group, h in _matrices(rng, 3000):
        r = _r_inside(rng, h)
        pp = g.PhasePair(_phase(rng), _phase(rng))
        yield group, lambda h=h, r=r, pp=pp: g.gmud(h, r, pp)
    for h in (_crandn(rng, (2, 2)) for _ in range(300)):
        for pick in (lambda s: s.lambda1, lambda s: s.lambda2, lambda s: s.lambda1 * (1 + 5e-10),
                     lambda s: s.lambda2 * (1 - 5e-10), lambda s: (s.lambda1 * s.lambda2) ** 0.5):
            yield "edge", lambda h=h, pick=pick: g.gmud(h, pick(g.svd2x2(h)))
    for _ in range(100):
        h = rng.uniform(0.1, 3.0) * _unitary(rng)
        yield "edge", lambda h=h: g.gmud(h, g.svd2x2(h).lambda1, g.PhasePair(1.0, 2.0))
    for h in IDENTITIES:
        yield "edge", lambda h=h: g.gmud(h, abs(h[0, 0]), g.PhasePair(1.0, 2.0))
    h = np.diag([2.0, 1.0])
    for r in (5.0, 0.5, 0.0, -1.0, np.nan, np.inf, 2.0 * (1 + 2e-9)):
        yield "error", lambda r=r: g.gmud(h, r)
    yield "error", lambda: g.gmud(np.zeros((2, 2)), 1.0)
    # r*r underflows: Q used to come out 0
    yield "extreme-scale", lambda: g.gmud(np.diag([2.0, 0.0]), 1e-300)


@case("solve_rotations")
def _solve_rotations(g):
    rng = _rng("solve_rotations")
    for _ in range(2000):
        l2, l1 = np.sort(rng.uniform(0.0, 4.0, 2))
        yield "typical", lambda l1=l1, l2=l2, r=rng.uniform(l2, l1): g.solve_rotations(l1, l2, r)
    for l1, l2, r in ((2.0, 1.0, 2.0), (2.0, 1.0, 1.0), (1.5, 1.5, 1.5), (2.0, 0.0, 1e-3),
                      (1.0, 1.0 - 1e-13, 1.0), (2.0, 1.0, 2.0 + 1e-9), (2.0, 1.0, 1.0 - 1e-9)):
        yield "edge", lambda l1=l1, l2=l2, r=r: g.solve_rotations(l1, l2, r)
    for l1, l2, r in ((0.0, 0.0, 1.0), (2.0, 1.0, 3.0), (2.0, 1.0, 0.5), (2.0, 1.0, np.nan), (-1.0, -2.0, 1.0),
                      (np.nan, 0.5, 1.0), (np.inf, 0.5, 1.0)):
        yield "error", lambda l1=l1, l2=l2, r=r: g.solve_rotations(l1, l2, r)
    for scale in SCALES:
        yield "extreme-scale", lambda s=scale: g.solve_rotations(2.0 * s, s, 1.5 * s)
    # r at an endpoint of a scaled interval, where the squares of r and lambda2 must agree
    yield "extreme-scale", lambda: g.solve_rotations(4.964992150187819e38, 2.716388943994476e38, 2.716388943994476e38)
    yield "extreme-scale", lambda: g.solve_rotations(2.0, 0.0, 1e-300)  # r*r underflows


@case("steered_beams")
def _steered_beams(g):
    rng = _rng("steered_beams")
    for _ in range(500):
        l2, l1 = np.sort(rng.uniform(0.0, 4.0, 2))
        rs = np.linspace(l2, l1, 8)[:, None]
        thetas = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)[None, :]
        yield "typical", lambda l1=l1, l2=l2, v=_unit(rng), rs=rs, t=thetas: g.steered_beams(l1, l2, v, rs, t)
        yield "typical", lambda l1=l1, l2=l2, v=_unit(rng), r=rng.uniform(l2, l1), t=_phase(rng): (
            g.steered_beams(l1, l2, v, r, t)
        )
    yield "edge", lambda: g.steered_beams(1.5, 1.5, np.array([0.6, 0.8j]), np.full((3, 1), 1.5), np.arange(4.0))
    for l1, v in ((0.0, [1.0, 0.0]), (2.0, [1.0, 1.0]), (-1.0, [1.0, 0.0]), (np.nan, [1.0, 0.0]), (np.inf, [1.0, 0.0])):
        yield "error", lambda l1=l1, v=v: g.steered_beams(l1, 0.5, v, 1.0, 0.0)
    for l2 in (0.0, 1e-310):  # r*r underflows: the beam used to be zero or of norm l2/r
        yield "extreme-scale", lambda l2=l2: g.steered_beams(2.0, l2, [1, 0], 1e-300, 0.3)


@case("beam_from_feedback")
def _beam_from_feedback(g):
    rng = _rng("beam_from_feedback")
    for _ in range(2000):
        l2, l1 = np.sort(rng.uniform(0.0, 4.0, 2))
        yield "typical", lambda l1=l1, l2=l2, v=_unit(rng), r=rng.uniform(l2, l1), t=_phase(rng): (
            g.beam_from_feedback(l1, l2, v, r, t)
        )
    for l1, l2, r in ((2.0, 1.0, 2.0), (2.0, 1.0, 1.0), (1.5, 1.5, 1.5), (2.0, 1.0, 1.0 - 1e-9)):
        yield "edge", lambda l1=l1, l2=l2, r=r: g.beam_from_feedback(l1, l2, np.array([0.6, 0.8j]), r, 1.0)
    for l1, l2, v, r in ((0.0, 0.0, [1.0, 0.0], 1.0), (2.0, 1.0, [1.0, 1.0], 1.5),
                         (2.0, 1.0, [1.0, 0.0], 3.0), (2.0, 1.0, [1.0, 1.0], 3.0),
                         (np.nan, 0.5, [1.0, 0.0], 1.0), (np.inf, 0.5, [1.0, 0.0], 1.0)):
        yield "error", lambda l1=l1, l2=l2, v=v, r=r: g.beam_from_feedback(l1, l2, v, r, 0.0)


@case("GmudFactorization")
def _gmud_factorization(g):
    rng = _rng("GmudFactorization")
    for _ in range(200):
        h = _crandn(rng, (2, 2))
        f = g.gmud(h, _r_inside(rng, h), g.PhasePair(_phase(rng), _phase(rng)))
        yield "typical", lambda f=f: g.GmudFactorization(f.p, f.rmat, f.q, f.r, f.phases, f.source_svd).reconstruct()


@case("GmudRotation")
def _gmud_rotation(g):
    yield "typical", lambda: g.GmudRotation(0.6, 0.8, 0.8, 0.6)


@case("SpecialR")
def _special_r(g):
    yield "typical", lambda: g.SpecialR(1.5, 0.3, 1.2).as_matrix()


@case("PhasePair")
def _phase_pair(g):
    rng = _rng("PhasePair")
    for _ in range(500):
        yield "typical", lambda a=_phase(rng), b=_phase(rng): g.PhasePair(a, b)
    for a in (0.0, -0.0, 2 * np.pi, -2 * np.pi, 1e300, -1e-300, np.nan, np.inf):
        yield "edge", lambda a=a: g.PhasePair(a, 1.0)
    yield "edge", lambda: g.PhasePair()


# precoding


def _reports(g, rng, n, h_k=None, h_l=None):
    """Two users' gmud reports: exact (n None) or round-tripped through n-bit feedback."""
    out = []
    for h in (h_k if h_k is not None else _crandn(rng, (2, 2)), h_l if h_l is not None else _crandn(rng, (2, 2))):
        svd = g.svd2x2(h)
        out.append(g.GmudFeedback.from_svd(svd) if n is None else g.decode(g.encode(svd, "gmud", n), "gmud", n))
    return out


def _bad_reports(g, rng):
    """Reports whose lambda1 is NaN or whose lambda1**2 overflows."""
    yield g.GmudFeedback(np.zeros(6), _unit(rng), np.nan, 0.5)
    yield g.GmudFeedback.from_svd(g.svd2x2(1e155 * _crandn(rng, (2, 2))))


@case("reg_inv")
def _reg_inv(g):
    rng = _rng("reg_inv")
    for noise in (1e-3, 0.05, 1.0):
        for _ in range(700):
            yield "typical", lambda h=_crandn(rng, (2, 2)), noise=noise: g.reg_inv(h, noise)
    for _ in range(700):
        yield "edge", lambda h=_crandn(rng, (2, 2)): g.reg_inv(h, 0.0)
    yield "edge", lambda: g.reg_inv(np.eye(2), 0.0)
    yield "edge", lambda: g.reg_inv(_rank_one(rng), 0.1)
    for h, noise in ((np.eye(2), -1.0), (np.ones((3, 2)), 0.1), ([[np.nan, 0.0], [0.0, 1.0]], 0.1), (np.eye(2), np.nan)):
        yield "error", lambda h=h, noise=noise: g.reg_inv(h, noise)
    for scale in SCALES:
        yield "extreme-scale", lambda h=scale * np.eye(2): g.reg_inv(h, 0.0)
        yield "extreme-scale", lambda h=scale * _rank_one(rng): g.reg_inv(h, 0.0)
        yield "extreme-scale", lambda h=scale * _crandn(rng, (2, 2)): g.reg_inv(h, 0.05)


@case("expected_gamma")
def _expected_gamma(g):
    rng = _rng("expected_gamma")
    for _ in range(500):
        yield "typical", lambda m=_crandn(rng, (2, 2)): g.expected_gamma(m)
    yield "edge", lambda: g.expected_gamma(np.zeros((2, 2)))


@case("antenna_selection")
def _antenna_selection(g):
    rng = _rng("antenna_selection")
    for noise in (1e-3, 0.05, 1.0):
        for _ in range(300):
            yield "typical", lambda c=_crandn(rng, (2, 2, 2)), noise=noise: g.antenna_selection(list(c), noise)
    for _ in range(300):
        yield "edge", lambda c=_crandn(rng, (2, 2, 2)): g.antenna_selection(list(c), 0.0)
    for c in (_crandn(rng, (1, 2, 2)), _crandn(rng, (3, 2, 2))):
        yield "error", lambda c=c: g.antenna_selection(list(c), 0.1)
    for noise in (-1.0, np.nan):
        yield "error", lambda c=_crandn(rng, (2, 2, 2)), noise=noise: g.antenna_selection(list(c), noise)
    h = _crandn(rng, (2, 2))
    yield "extreme-scale", lambda: g.antenna_selection([h, h], 0.0)  # every combination singular
    for scale in SCALES:
        yield "extreme-scale", lambda c=scale * _crandn(rng, (2, 2, 2)): g.antenna_selection(list(c), 0.0)


@case("gmud_min_sinr")
def _gmud_min_sinr(g):
    rng = _rng("gmud_min_sinr")
    for noise in (0.0, 1e-3, 0.05, 1.0):
        for _ in range(250):
            fb_k, fb_l = _reports(g, rng, None)
            alpha2 = rng.uniform(0.1, 0.9)
            params = g.GmudBeamParams(
                rng.uniform(fb_k.lambda2, fb_k.lambda1), _phase(rng),
                rng.uniform(fb_l.lambda2, fb_l.lambda1), _phase(rng),
                float(np.sqrt(alpha2)), float(np.sqrt(1 - alpha2)),
            )
            yield ("edge" if noise == 0.0 else "typical"), lambda p=params, k=fb_k, l=fb_l, noise=noise: (
                g.gmud_min_sinr(p, k, l, noise)
            )
    for noise in (-1.0, np.nan):
        yield "error", lambda p=params, k=fb_k, l=fb_l, noise=noise: g.gmud_min_sinr(p, k, l, noise)
    for bad in _bad_reports(g, rng):
        p = g.GmudBeamParams(bad.lambda1, 0.0, fb_l.lambda1, 0.0, float(np.sqrt(0.5)), float(np.sqrt(0.5)))
        yield "error", lambda p=p, k=bad, l=fb_l: g.gmud_min_sinr(p, k, l, 0.1)


@case("optimize_gmud")
def _optimize_gmud(g):
    rng = _rng("optimize_gmud")
    grids = [g.GridSpec(), g.GridSpec(4, 8, 5), g.GridSpec(3, 5, 2), g.GridSpec(1, 1, 1)]
    for i in range(1000):
        grid = grids[0] if i % 10 == 0 else grids[1 + i % 3]
        noise = (0.0, 1e-3, 0.05, 1.0)[i % 4]
        n = (None, 1, 2, 4)[(i // 4) % 4]
        h = _crandn(rng, (2, 2))
        group, h_l = ("edge", h) if i % 20 == 7 else ("typical", None)  # collinear users
        if i % 20 == 13:
            group, h = "edge", rng.uniform(0.1, 3.0) * _unitary(rng)  # lambda1 = lambda2
        fb_k, fb_l = _reports(g, rng, n, h, h_l)
        yield ("edge" if noise == 0.0 else group), lambda k=fb_k, l=fb_l, noise=noise, grid=grid: (
            g.optimize_gmud(k, l, noise, grid)
        )
    fb_k, fb_l = _reports(g, rng, None)
    bad = g.GmudFeedback(fb_k.raw, np.array([1.0, 1.0], dtype=complex), 1.0, 0.5)
    zero = g.GmudFeedback(fb_k.raw, fb_k.v1, 0.0, 0.0)
    yield "error", lambda: g.optimize_gmud(fb_k, fb_l, 0.1, g.GridSpec(0, 4, 4))  # GridSpec may raise first
    for args in ((bad, fb_l, 0.1, grids[3]), (zero, fb_l, 0.1, grids[3]),
                 (fb_k, fb_l, -1.0, grids[3]), (fb_k, fb_l, np.nan, grids[3])):
        yield "error", lambda args=args: g.optimize_gmud(*args)
    for bad in _bad_reports(g, rng):
        for args in ((bad, fb_l, 0.1, grids[1]), (fb_l, bad, 0.1, grids[1])):
            yield "error", lambda args=args: g.optimize_gmud(*args)


@case("GridSpec")
def _grid_spec(g):
    yield "typical", lambda: g.GridSpec()
    yield "typical", lambda: g.GridSpec(n_r=3, n_theta=5, n_p=2)
    for sizes in ((0, 4, 3), (4, 0, 3), (4, 4, 0), (-1, 4, 3)):
        yield "error", lambda sizes=sizes: g.GridSpec(*sizes)


@case("GmudBeamParams")
def _gmud_beam_params(g):
    yield "typical", lambda: g.GmudBeamParams(1.5, 0.5, 1.2, 2.0, 0.6, 0.8)


@case("SinrReport")
def _sinr_report(g):
    yield "typical", lambda: g.SinrReport((1.0, 2.0), 1.0, 1.0)


# feedback


NS = (1, 2, 3, 4, 8, 16)


def _sources(rng, scheme, count):
    """Encoder sources as (group, source, needs svd): channels, and gmud triples."""
    for _ in range(count):
        yield "typical", _crandn(rng, (2, 2))
        yield "typical", 3.0 * _crandn(rng, (2, 2))  # norms past the top level clamp
    for _ in range(count // 10):
        yield "edge", rng.uniform(0.1, 3.0) * _unitary(rng)
        yield "edge", _rank_one(rng)
    yield "edge", np.zeros((2, 2), dtype=complex)
    yield "edge", np.array([[0.0, 0.0], [1.0, 1j]])
    if scheme == "gmud":
        for l1, l2 in ((7.0, 0.5), (4.0, 4.0), (2.0, 0.0), (1.0, 2.0)):
            yield "edge", (l1, l2, np.array([0.6, 0.8j]))
    for scale in SCALES:
        yield "extreme-scale", scale * _crandn(rng, (2, 2))
    yield "extreme-scale", np.full((2, 2), 1e305, dtype=complex)
    if scheme == "gmud":
        yield "extreme-scale", (1e307, 0.5, [1, 0])
        yield "extreme-scale", (1e300, 1e300, [0.6, 0.8])


@case("encode")
def _encode(g):
    for scheme in ("reg-inv", "reg-inv-sel", "gmud"):
        rng = _rng("encode " + scheme)
        for group, source in _sources(rng, scheme, 150):
            for n in NS:
                yield group, lambda s=source, scheme=scheme, n=n: g.encode(s, scheme, n)
                if scheme == "gmud" and isinstance(source, np.ndarray) and group == "typical":
                    yield group, lambda s=source, n=n: g.encode(g.svd2x2(s), "gmud", n)
                    yield group, lambda s=source, n=n: g.encode(g.GmudFeedback.from_svd(g.svd2x2(s)), "gmud", n)
                    yield group, lambda s=source, n=n: g.encode(g.decode(g.encode(s, "gmud", n), "gmud", n), "gmud", n)
                elif group == "typical":
                    yield group, lambda s=source, scheme=scheme, n=n: g.encode(
                        g.decode(g.encode(s, scheme, n), scheme, n), scheme, n
                    )
    nan_matrix = np.array([[1.0, 0.5], [np.nan, 1.0]], dtype=complex)
    for scheme in ("reg-inv", "reg-inv-sel", "gmud"):
        yield "error", lambda scheme=scheme: g.encode(nan_matrix, scheme, 4)
        yield "error", lambda scheme=scheme: g.encode(np.eye(2), scheme, 0)
    yield "error", lambda: g.encode(np.array([[0.5, np.inf], [1.0, 1.0]]), "reg-inv", 4)
    yield "error", lambda: g.encode((np.nan, 0.5, [1.0, 0.0]), "gmud", 4)
    yield "error", lambda: g.encode(np.eye(2), "bogus", 4)


def _message_view(g, msg):
    view = {"message": msg, "json": json.dumps(msg.as_dict())}
    for prop in ("channel", "row"):
        if hasattr(type(msg), prop):
            view[prop] = getattr(msg, prop)
    return view


@case("decode")
def _decode(g):
    rng = _rng("decode")
    for scheme in ("reg-inv", "reg-inv-sel", "gmud"):
        for n in NS:
            for _ in range(150):
                bits = "".join(rng.choice(["0", "1"], 12 * n))
                yield "typical", lambda b=bits, s=scheme, n=n: _message_view(g, g.decode(b, s, n))
            for bits in ("0" * 12 * n, "1" * 12 * n, "01" * 6 * n):
                yield "edge", lambda b=bits, s=scheme, n=n: _message_view(g, g.decode(b, s, n))
    for bits, scheme, n in (("0" * 47, "gmud", 4), ("2" * 48, "gmud", 4), ("0" * 48, "bogus", 4),
                            ("", "gmud", 0), ("0 1" * 16, "reg-inv", 4)):
        yield "error", lambda b=bits, s=scheme, n=n: g.decode(b, s, n)


@case("RegInvSelectionFeedback", "RegInvSelectionFeedback", 10)
@case("RegInvFixedFeedback", "RegInvFixedFeedback", 5)
@case("GmudFeedback", "GmudFeedback", 6)
def _message(g, name, size):
    rng = _rng(name)
    cls = getattr(g, name)
    for _ in range(200):
        yield "typical", lambda v=rng.uniform(-1.0, 4.0, size): _message_view(g, cls.from_values(v))
    yield "typical", lambda: _message_view(g, cls.from_values(list(np.linspace(0.1, 0.9, size))))
    if name == "GmudFeedback":
        for _ in range(200):
            yield "typical", lambda h=_crandn(rng, (2, 2)): _message_view(g, cls.from_svd(g.svd2x2(h)))


@case("quantize_scalar")
def _quantize_scalar(g):
    rng = _rng("quantize_scalar")
    for lo, hi in RANGES:
        for bits in range(1, 17):
            for v in rng.uniform(lo - 0.5, hi + 1.5, 600):
                yield "typical", lambda v=v, lo=lo, hi=hi, bits=bits: g.quantize_scalar(v, lo, hi, bits)
            step = (hi - lo) / (1 << bits)
            for v in (lo, hi, lo + step, hi - step, lo + 0.5 * step, np.nextafter(hi, lo), -0.0, 0.0):
                yield "edge", lambda v=v, lo=lo, hi=hi, bits=bits: g.quantize_scalar(v, lo, hi, bits)
    for v, lo, hi, bits in ((0.0, -1.0, 1.0, 0), (0.0, 1.0, -1.0, 4), (0.0, 1.0, 1.0, 4), (np.nan, 0.0, 4.0, 8)):
        yield "error", lambda v=v, lo=lo, hi=hi, bits=bits: g.quantize_scalar(v, lo, hi, bits)
    for v in (1e305, -1e305, 1e300, np.inf, -np.inf, 1e308):
        for lo, hi in RANGES:
            for bits in (1, 8, 16):
                yield "extreme-scale", lambda v=v, lo=lo, hi=hi, bits=bits: g.quantize_scalar(v, lo, hi, bits)


@case("scheme_layout")
def _scheme_layout(g):
    for scheme in ("reg-inv", "reg-inv-sel", "gmud"):
        for n in range(1, 17):
            yield "typical", lambda s=scheme, n=n: g.scheme_layout(s, n)
        yield "error", lambda s=scheme: g.scheme_layout(s, 0)
    yield "error", lambda: g.scheme_layout("reg-inv-selection", 4)


# simulation


@case("crandn")
def _crandn_case(g):
    for seed in range(50):
        yield "typical", lambda seed=seed: g.crandn(np.random.default_rng(seed), (3, 2, 2))


@case("gen_channels")
def _gen_channels(g):
    for seed in range(200):
        yield "typical", lambda seed=seed: g.gen_channels(np.random.default_rng([seed, 1, 2]))


@case("modulate")
def _modulate(g):
    rng = _rng("modulate")
    for mod in ("qpsk", "16qam"):
        for _ in range(100):
            yield "typical", lambda b=rng.integers(0, 2, 40, dtype=np.uint8), mod=mod: g.modulate(b, mod)
        yield "edge", lambda mod=mod: g.modulate([], mod)
    # bad lengths, an unknown modulation, then bits other than 0 and 1
    for bits, mod in (([0, 1, 1], "qpsk"), ([0, 1], "16qam"), ([0, 1], "bpsk"), ([[0, 1]], "qpsk"),
                      ([0, 2], "qpsk"), ([0.5, 1], "qpsk"), ([1, 0, 3, 1], "16qam"),
                      ([[0, 1, 1, 0], [np.nan, 0, 1, 1]], "16qam")):
        yield "error", lambda b=bits, mod=mod: g.modulate(b, mod)


@case("demodulate")
def _demodulate(g):
    rng = _rng("demodulate")
    for mod in ("qpsk", "16qam"):
        for _ in range(100):
            yield "typical", lambda z=2.0 * _crandn(rng, 50), mod=mod: g.demodulate(z, mod)
        edges = np.array([0.0, -0.0, 2 / np.sqrt(10), -2 / np.sqrt(10)])
        yield "edge", lambda mod=mod: g.demodulate(edges[:, None] + 1j * edges[None, :], mod)
    yield "error", lambda: g.demodulate([1.0], "bpsk")


@case("transmit")
def _transmit(g):
    rng = _rng("transmit")
    for _ in range(300):
        yield "typical", lambda m=_crandn(rng, (2, 2)), u=_crandn(rng, (2, 20)): g.transmit(m, u)
    yield "edge", lambda: g.transmit(np.eye(2), np.array([1.0, 0.0]))
    # a rank-one G and a symbol pair in its null space, beside one that is not
    rank_one = np.outer(_crandn(rng, 2), [1.0, 1.0])
    yield "edge", lambda: g.transmit(rank_one, np.array([[1.0, 1.0], [-1.0, 1j]]))
    yield "error", lambda: g.transmit(np.zeros((2, 2)), np.ones((2, 3)))


def _config(g, scheme, mod, feedback, **kw):
    return g.SimConfig(scheme=scheme, modulation=mod, snr_db=(0.0, 10.0, 20.0), feedback=feedback,
                       realizations=6, symbols=10, seed=7, grid=g.GridSpec(4, 8, 5), **kw)


def _stacked(g) -> bool:
    """Whether the tree's link builders and receivers take realization stacks.

    Trees from before the chunked engine (no ``simulation._CHUNK``) build
    one realization per link-builder call and draw the receiver noise
    inside ``receive_detect``; the battery calls them that way, so the
    records of trees on either side of that change compare item by item.
    """
    return hasattr(g.simulation, "_CHUNK")


def _links(g):
    """(config, channels, noise_var) inputs of the link builders; channels are (R, 2, 2, 2) stacks."""
    rng = _rng("links")
    for scheme in ("reg-inv", "reg-inv-sel", "gmud"):
        for feedback in ("perfect", 1, 2, 4):
            for noise in (1e-3, 0.05, 1.0):
                for _ in range(10):
                    yield "typical", _config(g, scheme, "16qam", feedback), _crandn(rng, (1, 2, 2, 2)), noise
    yield "edge", _config(g, "gmud", "qpsk", "perfect"), np.stack([0.7 * _unitary(rng), _crandn(rng, (2, 2))])[None], 0.1
    rng = _rng("links batch")
    for scheme in ("reg-inv", "reg-inv-sel", "gmud"):
        for feedback in ("perfect", 1, 4):
            yield "typical", _config(g, scheme, "16qam", feedback), _crandn(rng, (33, 2, 2, 2)), 0.05
    # the masks of a stacked gmud builder: identity multiples, rank one, equal
    # singular values and scales 2**+-300 beside Gaussian channels, in one stack
    rng = _rng("links edge batch")
    kinds = (lambda: IDENTITIES[int(rng.integers(len(IDENTITIES)))], lambda: _rank_one(rng),
             lambda: rng.uniform(0.1, 3.0) * _unitary(rng), lambda: np.ldexp(1.0, 300) * _crandn(rng, (2, 2)),
             lambda: np.ldexp(1.0, -300) * _crandn(rng, (2, 2)), lambda: _crandn(rng, (2, 2)))
    channels = np.array([[kinds[(i + k * (i // 6)) % 6]() for k in range(2)] for i in range(33)], dtype=complex)
    for feedback in ("perfect", 1, 4):
        yield "edge", _config(g, "gmud", "16qam", feedback), channels, 0.05
    # the gmud search's pruning: the SINR_CAP plateau ties at zero noise, many
    # surviving blocks at high SNR, and the cases where its x bound is tight
    # (collinear users, singular values 2e-12 apart) in one stack
    rng = _rng("links pruning batch")
    for noise, group in ((0.0, "edge"), (1e-3, "typical")):
        for feedback in ("perfect", 4):
            yield group, _config(g, "gmud", "16qam", feedback), _crandn(rng, (33, 2, 2, 2)), noise
    kinds = (lambda h: h, lambda h: np.exp(2j * np.pi * rng.uniform()) * h,
             lambda h: _unitary(rng) @ np.diag([1.0, 1.0 - 2e-12]) @ _unitary(rng))
    channels = np.array([[h, kinds[i % 3](h)] for i, h in enumerate(_crandn(rng, (33, 2, 2)))])
    for noise in (0.0, 1e-3):
        yield "edge", _config(g, "gmud", "16qam", "perfect"), channels, noise
    # the inverse schemes' decode at its edges: zero rows, rows whose norm the
    # [0, 4] quantizer clamps, near-parallel rows (within a channel and across
    # the users' first rows) and Gaussian rows, in one stack
    rng = _rng("links inverse edge batch")
    channels = _crandn(rng, (33, 2, 2, 2))
    for i, h in enumerate(channels):
        kind, user, row = i % 4, (i // 8) % 2, (i // 4) % 2
        if kind == 0:
            h[user, row] = 0.0
        elif kind == 1:
            h[:, row] *= rng.uniform(4.0, 40.0) / np.linalg.norm(h[:, row], axis=-1, keepdims=True)
        elif kind == 2:
            h[user, 1 - row] = np.exp(2j * np.pi * rng.uniform()) * h[user, row] + 1e-9 * _crandn(rng, 2)
            h[1 - user, 0] = np.exp(2j * np.pi * rng.uniform()) * h[user, 0] + 1e-9 * _crandn(rng, 2)
    for scheme in ("reg-inv", "reg-inv-sel"):
        for feedback in (1, 2, 4):
            yield "edge", _config(g, scheme, "16qam", feedback), channels, 0.05


def _link(g, config, channels, noise):
    """The scheme's link builder on a stack: G (R, 2, 2) and the combiners (R, 2, 2)."""
    n = None if config.feedback == "perfect" else config.feedback
    build = g.simulation._LINKS[config.scheme]
    if _stacked(g):
        m, combiners = build(channels, noise, n, config.grid)
        return m, np.asarray(combiners)
    links = [build(h, noise, n, config.grid) for h in channels]
    return np.stack([m for m, _ in links]), np.stack([np.asarray(c) for _, c in links])


@case("receive_detect")
def _receive_detect(g):
    for group, config, channels, noise in _links(g):
        if len(channels) > 1:
            continue

        def call(config=config, channels=channels, noise=noise):
            rng = np.random.default_rng(11)
            m, combiners = (a[0] for a in _link(g, config, channels, noise))
            u = np.stack([g.modulate(rng.integers(0, 2, 40), config.modulation) for _ in range(2)])
            x, gamma = g.transmit(m, u)
            if not _stacked(g):
                return g.receive_detect(channels[0], m, combiners, x, gamma, config.modulation, noise, rng)
            n = g.crandn(rng, (2, 2, x.shape[-1])) * np.sqrt(noise)
            return g.receive_detect(channels[0], m, combiners, x, gamma, config.modulation, n)

        yield group, call


@case("simulation._LINKS")
def _links_case(g):
    for group, config, channels, noise in _links(g):
        yield group, lambda c=config, h=channels, noise=noise: _link(g, c, h, noise)


def _projection(g, svd, r, theta):
    """The gmud receiver combiner of one SVD.

    Trees from before the stacked gmud builder (no ``simulation._svd2x2``)
    take the SVD object, later ones its arrays, so both record the same items.
    """
    if hasattr(g.simulation, "_svd2x2"):
        return g.simulation._rotation_projection(svd.u, svd.lambda1, svd.lambda2, r, theta)
    return g.simulation._rotation_projection(svd, r, theta)


@case("simulation._rotation_projection")
def _rotation_projection(g):
    rng = _rng("rotation_projection")
    for group, h in _matrices(rng, 2000):
        if group != "extreme-scale":
            yield group, lambda h=h, u=rng.uniform(), t=_phase(rng): (
                lambda s: _projection(g, s, s.lambda2 + u * (s.lambda1 - s.lambda2), t)
            )(g.svd2x2(h))


@case("SimConfig")
def _sim_config(g):
    yield "typical", lambda: g.SimConfig(scheme="gmud")
    for kw in ({"scheme": "bogus"}, {"scheme": "gmud", "modulation": "bpsk"}, {"scheme": "gmud", "snr_db": ()},
               {"scheme": "gmud", "realizations": 0}, {"scheme": "gmud", "feedback": 0},
               {"scheme": "gmud", "feedback": "4"}, {"scheme": "gmud", "seed": -1}, {"scheme": "gmud", "seed": 1.5},
               {"scheme": "gmud", "snr_db": (-np.inf,)}, {"scheme": "gmud", "snr_db": (np.nan,)},
               {"scheme": "reg-inv", "snr_db": (0.0, np.inf)}, {"scheme": "gmud", "snr_db": "10"},
               {"scheme": "gmud", "realizations": 2.5}, {"scheme": "gmud", "symbols": 2.5},
               {"scheme": "gmud", "feedback": True}):
        yield "error", lambda kw=kw: g.SimConfig(**kw)


@case("BerPoint")
def _ber_point(g):
    yield "typical", lambda: g.BerPoint(10.0, 0.01, 1000, 10, 0.001)


@case("BerCurve")
def _ber_curve(g):
    for feedback in ("perfect", 4):
        yield "typical", lambda f=feedback: g.BerCurve("gmud", "qpsk", f, ()).feedback_bits


@case("run_ber")
def _run_ber(g):
    for scheme in ("reg-inv", "reg-inv-sel", "gmud"):
        for mod in ("qpsk", "16qam"):
            for feedback in ("perfect", 1, 4):
                yield "typical", lambda c=_config(g, scheme, mod, feedback): g.run_ber(c)
    yield "typical", lambda: g.run_ber(_config(g, "gmud", "qpsk", 2), jobs=2)
    # coarse feedback that gives a rank-one G and a vanishing G u (seed, SNR found by search)
    for scheme, mod, feedback, seed in (("reg-inv-sel", "16qam", 1, 12345), ("reg-inv-sel", "16qam", 2, 6),
                                        ("reg-inv-sel", "qpsk", 2, 6), ("reg-inv", "16qam", 1, 1)):
        yield "edge", lambda c=g.SimConfig(scheme=scheme, modulation=mod, snr_db=(0.0,), feedback=feedback,
                                           seed=seed): g.run_ber(c)
    # seeds of two and three 32-bit words, QPSK payloads of 125 32-bit words (an odd count), and one-symbol
    # payloads: QPSK's 4 bits are one 32-bit draw, half a PCG64 word, and 16QAM's 8 are one 64-bit word
    for scheme, mod, symbols, seed in (("gmud", "16qam", 10, 2**32), ("reg-inv-sel", "qpsk", 10, 2**64 + 7),
                                       ("reg-inv", "qpsk", 125, 7), ("gmud", "qpsk", 125, 2**64 + 7),
                                       ("gmud", "qpsk", 1, 11), ("reg-inv-sel", "16qam", 1, 11)):
        yield "edge", lambda c=g.SimConfig(scheme=scheme, modulation=mod, snr_db=(0.0, 10.0), feedback=4,
                                           realizations=40, symbols=symbols, seed=seed,
                                           grid=g.GridSpec(4, 8, 5)): g.run_ber(c)


# command line


def _cli(g, *argv):
    from gmud import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _matrix_arg(h):
    return " ".join(repr(float(x)) for x in np.ascontiguousarray(h).view(np.float64).ravel())


@case("cli decompose")
def _cli_decompose(g):
    rng = _rng("cli decompose")
    for group, h in _matrices(rng, 200):
        if group != "extreme-scale":
            r = _r_inside(rng, h) if group == "typical" else float(np.linalg.svd(h, compute_uv=False)[0])
            yield group, lambda m=_matrix_arg(h), r=repr(r), t=repr(_phase(rng)): _cli(
                g, "decompose", "--matrix", m, "--r", r, "--theta1", t, "--theta2", "0.5"
            )
    for matrix, r in (("1 2 3", "1"), ("2 0 0 0 0 0 1 0", "5"), ("a 0 0 0 0 0 1 0", "1"),
                      ("nan 0 0 0 0 0 1 0", "1"), ("0 0 0 0 0 0 0 0", "1")):
        yield "error", lambda m=matrix, r=r: _cli(g, "decompose", "--matrix", m, "--r", r)


@case("cli quantize")
def _cli_quantize(g):
    rng = _rng("cli quantize")
    for scheme in ("reg-inv", "reg-inv-sel", "reg-inv-selection", "gmud"):
        for group, h in _matrices(rng, 40):
            if group != "extreme-scale":
                for n in (1, 4):
                    yield group, lambda m=_matrix_arg(h), s=scheme, n=str(n): _cli(
                        g, "quantize", "--matrix", m, "--scheme", s, "--n", n
                    )
        yield "error", lambda s=scheme: _cli(g, "quantize", "--matrix", "nan 0 0 0 0 0 1 0", "--scheme", s)
        yield "error", lambda s=scheme: _cli(g, "quantize", "--matrix", "1 0 0 0 0 0 1 0", "--scheme", s, "--n", "0")


# recording and comparing


def _canon(x):
    """A picklable, comparable form of an output; arrays keep their exact bytes."""
    if isinstance(x, np.ndarray):
        return ("ndarray", np.array(x, copy=True))
    if isinstance(x, (np.generic, float, complex)):
        return (type(x).__name__, np.array(x))
    if isinstance(x, (int, str, bool, type(None))):
        return (type(x).__name__, x)
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [_canon(v) for v in x])
    if isinstance(x, dict):
        return ("dict", [(k, _canon(v)) for k, v in x.items()])
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__, [(f.name, _canon(getattr(x, f.name))) for f in dataclasses.fields(x)])
    return (type(x).__name__, repr(x))


def run_battery(gmud) -> list:
    """Every battery call as (name, index, group, outcome, warnings)."""
    items = []
    for name in sorted(BATTERY):
        for index, (group, call) in enumerate(BATTERY[name](gmud)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    outcome = ("ok", _canon(call()))
                except Exception as exc:  # the exception is the output being compared
                    outcome = ("raise", type(exc).__name__, str(exc))
            issued = [(w.category.__name__, str(w.message)) for w in caught]
            items.append((name, index, group, outcome, issued))
    return items


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def _ordered(x: np.ndarray) -> list[int]:
    bits = np.ascontiguousarray(x).view(np.int64).ravel()
    return [int(b) if b >= 0 else -(int(b) & 0x7FFF_FFFF_FFFF_FFFF) for b in bits]


def _ulp(a, b):
    """Largest ulp distance between the float arrays of two outputs, or None if not comparable."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if a.dtype != b.dtype or a.shape != b.shape or a.dtype.kind not in "fc":
            return None
        fa, fb = (np.ascontiguousarray(v, dtype=np.complex128 if v.dtype.kind == "c" else np.float64).view(np.float64)
                  for v in (a, b))
        if np.any(np.isnan(fa) != np.isnan(fb)):
            return None
        keep = ~np.isnan(fa)
        return max((abs(x - y) for x, y in zip(_ordered(fa[keep]), _ordered(fb[keep]))), default=0)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            return None
        worst = 0
        for x, y in zip(a, b):
            if _same(x, y):
                continue
            d = _ulp(x, y)
            if d is None:
                return None
            worst = max(worst, d)
        return worst
    return 0 if _same(a, b) else None


def diff(path_a: str, path_b: str) -> int:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        a, b = pickle.load(fa), pickle.load(fb)
    index_b = {(name, i): rest for name, i, *rest in b}
    totals, differing, by_function = Counter(), Counter(), Counter()
    for name, i, group, outcome, issued in a:
        totals[group] += 1
        other = index_b.pop((name, i), None)
        if other is not None and other[0] == group and _same(other[1], outcome) and other[2] == issued:
            continue
        differing[group] += 1
        by_function[group, name] += 1
        if other is None:
            detail = "missing from the second record"
        elif other[0] != group:
            detail = f"group {group} vs {other[0]}"
        elif outcome[0] == "ok" and other[1][0] == "ok":
            ulp = _ulp(outcome[1], other[1][1])
            detail = "values differ" if ulp is None else f"{ulp} ulp"
            if other[2] != issued:
                detail += f"; warnings {issued} vs {other[2]}"
        elif outcome[0] == "ok" or other[1][0] == "ok":
            first, second = ("returned" if o[0] == "ok" else f"raised {o[1]}: {o[2]}" for o in (outcome, other[1]))
            detail = f"{first} vs {second}"
        elif _same(other[1], outcome):
            detail = f"warnings {issued} vs {other[2]}"
        else:
            detail = f"{outcome[1]}: {outcome[2]} vs {other[1][1]}: {other[1][2]}"
        print(f"{name}[{group} #{i}]: {detail}")
    for name, i in index_b:
        print(f"{name}[#{i}]: missing from the first record")
    parts = []
    for group in GROUPS:
        funcs = ", ".join(f"{f} {n}" for (gr, f), n in sorted(by_function.items()) if gr == group)
        parts.append(f"{group} {differing[group]}/{totals[group]}" + (f" ({funcs})" if funcs else ""))
    total = sum(totals.values())
    outside = sum(n for gr, n in differing.items() if gr != "extreme-scale") + len(index_b)
    print(f"bytecheck: {total} items, {sum(differing.values())} differ, {outside} outside extreme-scale; "
          + "; ".join(parts))
    return 1 if outside else 0


def record(tree: str, out: str) -> int:
    """Run the battery against ``<tree>/src`` in a fresh interpreter."""
    src = Path(tree).resolve() / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    cmd = [sys.executable, str(Path(__file__).resolve()), "run", str(src), str(Path(out).resolve())]
    return subprocess.run(cmd, env=env, check=False).returncode


def _run(src: str, out: str) -> int:
    import gmud

    if Path(gmud.__file__).resolve().parent != Path(src).resolve() / "gmud":
        raise SystemExit(f"gmud imported from {gmud.__file__}, not from {src}")
    items = run_battery(gmud)
    with open(out, "wb") as fh:
        pickle.dump(items, fh, protocol=pickle.HIGHEST_PROTOCOL)
    print(f"recorded {len(items)} items from {src} to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record", help="run the battery against <tree>/src and pickle the outputs")
    p.add_argument("tree")
    p.add_argument("out")
    p = sub.add_parser("diff", help="list the items that differ between two records")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("run", help="run the battery in this interpreter (record starts it)")
    p.add_argument("src")
    p.add_argument("out")
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.tree, args.out)
    if args.command == "diff":
        return diff(args.a, args.b)
    return _run(args.src, args.out)


if __name__ == "__main__":
    sys.exit(main())
