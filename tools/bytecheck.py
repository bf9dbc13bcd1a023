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

* ``typical``: random Gaussian channels, reports and scalars, and for
  ``svd2x2`` and ``gmud`` matrices shaped like perfbench's ``factorize``
  inputs (known singular values; scaled and mixed-scale ones go to the
  other groups);
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
# counts that are not integers, which ended in a comparison's TypeError
BAD_SIZES = ("8", None, 4 + 0j)
# the largest N whose widest field holds at most 50 bits: 4N for reg-inv's norm, 2N for the others
N_LIMITS = {"reg-inv": 12, "reg-inv-sel": 25, "gmud": 25}
# a report's lambda2 outside [0, lambda1] for lambda1 = 2, which no check refused: NaN beams, or r outside it
LAMBDA2_BAD = (np.nan, np.inf, -np.inf, -1.0, 3.0)
# singular values that are not reals (or are bools), which ended in a comparison's TypeError
LAMBDA_NOT_REAL = ("a", None, 1j, np.complex128(0.5), True)
# a report's lambda1 that the precoders squared before any check (a bare TypeError, OverflowError or warning),
# and a lambda2 whose str() passes Python's digit limit
LAMBDA1_UNREAD = (*LAMBDA_NOT_REAL, 10**400, np.float64(1e155))
LAMBDA2_HUGE_INT = 10**5000
# a v1 that is not of shape (2,), which passed the norm check: a 3-entry beam, a bare IndexError or numpy's ValueError
V1_BAD_SHAPES = ([1.0, 0.0, 0.0], [1.0], [[1.0], [0.0]])
# narrow floats, which ran the rotation in their own precision (np.float16) or overflowed a cast (np.float32)
NARROW = (np.float32, np.float16)
# exactly parallel rows h and t h (t exact), and noise_vars whose regularizer 2*noise_var runs from 2e-16 to subnormal
PARALLEL = tuple(np.stack([r, t * r]) for r, t in ((np.array([1 + 2j, 3 - 1j]), 3), (np.array([0.3 - 1.1j, 2.5j]), 1),
                                                     (np.array([1.5, -0.5j]), -2j)))
PARALLEL_NOISES = (1e-16, 1e-100, 1e-310, 5e-324)
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


def _factorize_shaped(rng, count):
    """Matrices shaped like perfbench's ``factorize`` inputs, as (group, h).

    h = U diag(s1, s2) V^H with s1 = 2**u, u uniform in [-4, 4], and s2/s1
    = 10**w, w uniform in [-3, 0]: ``count`` as drawn, then ``count // 4``
    scaled by 2**+-(300..1000) and ``count // 4`` whose parts lie 2**-600
    apart inside one matrix.
    """

    def draw():
        s1 = 2.0 ** rng.uniform(-4.0, 4.0)
        return (_unitary(rng) * [s1, s1 * 10.0 ** rng.uniform(-3.0, 0.0)]) @ _unitary(rng).conj().T

    for _ in range(count):
        yield "typical", draw()
    for _ in range(count // 4):
        k = int(rng.integers(300, 1001)) * int(rng.choice((-1, 1)))
        yield "extreme-scale", np.ldexp(draw().view(np.float64), k).view(np.complex128)
    for _ in range(count // 4):
        parts = draw().view(np.float64)
        yield "edge", np.where(rng.random(parts.shape) < 0.5, parts * 2.0**-600, parts).view(np.complex128)


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
    for group, h in _factorize_shaped(_rng("svd2x2 factorize"), 1000):
        yield group, lambda h=h: g.svd2x2(h)
    # entries that are not finite in a matrix that is not 2x2: the error order of the checks
    for bad in (np.diag([1.0, np.nan, 1.0]), np.full((2, 3), np.inf), np.array([np.nan, 1.0, 0.0, 1.0]),
                np.full((1, 2, 2), np.nan), [[complex(0.0, np.nan)]]):
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
    rng = _rng("gmud factorize")
    for group, h in _factorize_shaped(rng, 1000):
        r, pp = _r_inside(rng, h), g.PhasePair(*rng.uniform(0.0, 2.0 * np.pi, 2))
        yield group, lambda h=h, r=r, pp=pp: g.gmud(h, r, pp)
    # r of other real types, which GmudFactorization.r holds as a float
    rng = _rng("gmud r types")
    for _ in range(100):
        h = _crandn(rng, (2, 2))
        yield "typical", lambda h=h, r=np.float64(_r_inside(rng, h)): g.gmud(h, r, g.PhasePair(0.4, 1.1))
    h = np.diag([3.0, 0.5]).astype(complex)
    for r in (1, 2, 3, np.int64(1), np.int64(3), np.float64(0.5), np.float64(3.0)):
        yield "edge", lambda r=r: g.gmud(h, r, g.PhasePair(0.4, 1.1))
    for r in (10**400, 1.5 + 0j, np.complex128(1.5), "1.5"):  # not a real r
        yield "error", lambda r=r: g.gmud(h, r)
    for r in (True, np.array(1.5)):  # neither is a real r either
        yield "error", lambda r=r: g.gmud(h, r)


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
    rng = _rng("solve_rotations float64")
    for _ in range(200):
        l2, l1 = np.sort(rng.uniform(0.0, 4.0, 2))  # numpy scalars throughout
        yield "typical", lambda l1=l1, l2=l2, r=rng.uniform(l2, l1): g.solve_rotations(l1, l2, np.float64(r))
    for r in (10**400, 1.5 + 0j, "1.5"):
        yield "error", lambda r=r: g.solve_rotations(2.0, 1.0, r)
    yield "error", lambda: g.solve_rotations(2.0, 1.0, True)
    for l2 in LAMBDA2_BAD:
        yield "error", lambda l2=l2: g.solve_rotations(2.0, l2, 1.5)
    for bad in LAMBDA_NOT_REAL:
        yield "error", lambda bad=bad: g.solve_rotations(2.0, bad, 1.5)
        yield "error", lambda bad=bad: g.solve_rotations(bad, 1.0, 1.5)
    yield "error", lambda: g.solve_rotations(2.0, LAMBDA2_HUGE_INT, 1.5)
    for f in NARROW:
        for l1, l2, r in ((3.3, 1.1, 2.0), (1.5, 1.5, 1.5), (2.0, 0.0, 1e-3)):
            yield "edge", lambda f=f, l1=l1, l2=l2, r=r: g.solve_rotations(f(l1), l2, r)
            yield "edge", lambda f=f, l1=l1, l2=l2, r=r: g.solve_rotations(l1, f(l2), r)
    yield "extreme-scale", lambda: g.solve_rotations(np.float32(3.0e38), np.float32(1.0e38), 2.0e38)


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
    for l2 in LAMBDA2_BAD:
        yield "error", lambda l2=l2: g.steered_beams(2.0, l2, [1.0, 0.0], 1.5, 0.0)
    for l2 in (0.0, 1e-310):  # r*r underflows: the beam used to be zero or of norm l2/r
        yield "extreme-scale", lambda l2=l2: g.steered_beams(2.0, l2, [1, 0], 1e-300, 0.3)
    for bad in LAMBDA_NOT_REAL:
        yield "error", lambda bad=bad: g.steered_beams(bad, 1.0, [1, 0], 1.5, 0.0)
    rs, thetas = np.linspace(1.1, 3.3, 8)[:, None], np.linspace(0.0, 2 * np.pi, 16, endpoint=False)[None, :]
    for f in NARROW:
        yield "edge", lambda f=f: g.steered_beams(f(3.3), 1.1, np.array([0.6, 0.8j]), rs, thetas)
        yield "edge", lambda f=f: g.steered_beams(3.3, f(1.1), np.array([0.6, 0.8j]), rs, thetas)
    for v1 in V1_BAD_SHAPES:
        yield "error", lambda v1=v1: g.steered_beams(2.0, 1.0, v1, 1.5, 0.0)


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
    rng = _rng("beam_from_feedback float64")
    for _ in range(200):
        l2, l1 = np.sort(rng.uniform(0.0, 4.0, 2))  # numpy scalars throughout
        yield "typical", lambda l1=l1, l2=l2, v=_unit(rng), r=rng.uniform(l2, l1), t=np.float64(_phase(rng)): (
            g.beam_from_feedback(l1, l2, v, np.float64(r), t)
        )
    for theta in (np.nan, np.inf, "1.5"):
        yield "error", lambda t=theta: g.beam_from_feedback(2.0, 1.0, np.array([0.6, 0.8j]), 1.5, t)
    for l2 in LAMBDA2_BAD:
        yield "error", lambda l2=l2: g.beam_from_feedback(2.0, l2, np.array([0.6, 0.8j]), 1.5, 0.3)
    for f in NARROW:
        for l1, l2, r in ((3.3, 1.1, 2.0), (1.5, 1.5, 1.5)):
            yield "edge", lambda f=f, l1=l1, l2=l2, r=r: g.beam_from_feedback(f(l1), l2, [0.6, 0.8j], r, 0.3)
            yield "edge", lambda f=f, l1=l1, l2=l2, r=r: g.beam_from_feedback(l1, f(l2), [0.6, 0.8j], r, 0.3)
    yield "error", lambda: g.beam_from_feedback(2.0, LAMBDA2_HUGE_INT, np.array([0.6, 0.8j]), 1.5, 0.3)
    for v1 in V1_BAD_SHAPES:
        yield "error", lambda v1=v1: g.beam_from_feedback(2.0, 1.0, v1, 1.5, 0.0)


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
    for a, b in ((1.0, np.inf), (1.0, -np.inf), ("1.5", 1.0), (True, 1.0)):
        yield "error", lambda a=a, b=b: g.PhasePair(a, b)


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


def _unread_reports(g):
    """Reports whose lambda1 is in LAMBDA1_UNREAD or whose lambda2 is LAMBDA2_HUGE_INT, each beside a good one."""
    e1, e2 = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
    good = g.GmudFeedback(np.zeros(6), e2, 2.0, 1.0)
    for bad in (*(g.GmudFeedback(np.zeros(6), e1, l1, 0.5) for l1 in LAMBDA1_UNREAD),
                g.GmudFeedback(np.zeros(6), e1, 2.0, LAMBDA2_HUGE_INT)):
        yield bad, good
        yield good, bad


# noise_vars at which the search's SINRs overflow or its denominators vanish: zero (the SINR_CAP plateau),
# the smallest subnormal and 1e-300
TINY_NOISES = (0.0, 5e-324, 1e-300)


def _meeting_reports(g, rng):
    """Report pairs whose beams can be orthogonal (x = 0) or collinear: orthogonal principal vectors,
    collinear users exact and 4-bit, a random pair, and lambda1 = lambda2."""
    e1, e2 = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
    yield g.GmudFeedback(np.zeros(6), e1, 2.0, 1.0), g.GmudFeedback(np.zeros(6), e2, 2.0, 1.0)
    h = _crandn(rng, (2, 2))
    yield _reports(g, rng, None, h, h)
    yield _reports(g, rng, 4, h, h)
    yield _reports(g, rng, None)
    yield _reports(g, rng, None, rng.uniform(0.1, 3.0) * _unitary(rng))


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
    # noise_vars that are not a real scalar that float64 holds
    for noise in (10**400, 1j, np.complex128(0.1), np.array([0.1, 0.2]), "0.1", None):
        yield "error", lambda noise=noise: g.reg_inv(np.eye(2), noise)
    # noise_vars whose regularizer K*noise_var overflows
    for noise in (np.inf, 1e308):
        yield "error", lambda noise=noise: g.reg_inv(np.eye(2), noise)
    # parallel rows: G from the SVD at any 2*noise_var > 0, an error at 0 or with 3 entries a row
    for h in PARALLEL:
        for noise in PARALLEL_NOISES:
            yield "edge", lambda h=h, noise=noise: g.reg_inv(h, noise)
        yield "error", lambda h=h: g.reg_inv(h, 0.0)
    yield "error", lambda: g.reg_inv([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]], 1e-16)


@case("expected_gamma")
def _expected_gamma(g):
    rng = _rng("expected_gamma")
    for _ in range(500):
        yield "typical", lambda m=_crandn(rng, (2, 2)): g.expected_gamma(m)
    yield "edge", lambda: g.expected_gamma(np.zeros((2, 2)))
    yield "error", lambda: g.expected_gamma(np.full((2, 2), 1e200))  # ||G||_F**2 overflows
    # a G that is not a finite matrix: a bare IndexError, a bare TypeError, or NaN
    for bad in (np.ones(2), 1.0, np.ones((2, 2, 2)), np.array([[1.0, np.nan], [0.0, 1.0]])):
        yield "error", lambda bad=bad: g.expected_gamma(bad)


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
    # a noise_var of a narrower real type, read as its float64 value
    for noise in (np.float32(1e-3), np.float32(0.1), np.float16(0.05)):
        for _ in range(20):
            yield "typical", lambda c=_crandn(rng, (2, 2, 2)), noise=noise: g.antenna_selection(list(c), noise)
    yield "error", lambda: g.antenna_selection([np.eye(2), np.eye(2)], np.inf)
    # equal channels (two combinations of parallel rows), and channels whose rows all share one direction
    for c in ([_crandn(rng, (2, 2))] * 2, [PARALLEL[0], 2 * PARALLEL[0]]):
        for noise in PARALLEL_NOISES:
            yield "edge", lambda c=c, noise=noise: g.antenna_selection(c, noise)


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
    for l2 in LAMBDA2_BAD:
        p = g.GmudBeamParams(1.5, 0.0, fb_l.lambda1, 0.0, float(np.sqrt(0.5)), float(np.sqrt(0.5)))
        bad = g.GmudFeedback(np.zeros(6), np.array([1.0, 0.0], dtype=complex), 2.0, l2)
        yield "error", lambda p=p, k=bad, l=fb_l: g.gmud_min_sinr(p, k, l, 0.1)
    # where the SINR kernel's division path meets its zero-denominator masks
    for fb_k, fb_l in _meeting_reports(g, rng):
        for noise in TINY_NOISES:
            # the principal vectors at an even split first: for orthogonal reports, x = 0
            points = [(fb_k.lambda1, 0.0, fb_l.lambda1, 0.0, 0.5)] + [
                (rng.uniform(fb_k.lambda2, fb_k.lambda1), _phase(rng), rng.uniform(fb_l.lambda2, fb_l.lambda1),
                 _phase(rng), rng.uniform(0.1, 0.9)) for _ in range(4)]
            for r_k, theta_k, r_l, theta_l, alpha2 in points:
                params = g.GmudBeamParams(r_k, theta_k, r_l, theta_l, float(np.sqrt(alpha2)),
                                          float(np.sqrt(1 - alpha2)))
                yield "edge", lambda p=params, k=fb_k, l=fb_l, noise=noise: g.gmud_min_sinr(p, k, l, noise)
    fb_k, fb_l = _reports(g, rng, None)
    params = g.GmudBeamParams(fb_k.lambda1, 0.0, fb_l.lambda1, 0.0, float(np.sqrt(0.5)), float(np.sqrt(0.5)))
    for field in ("alpha", "beta", "theta_k", "theta_l"):
        yield "error", lambda p=dataclasses.replace(params, **{field: np.nan}), k=fb_k, l=fb_l: (
            g.gmud_min_sinr(p, k, l, 0.1)
        )
    # r's inside the 1e-9 slack, scored at the clamped r their beams are built for, and float32 powers
    for _ in range(20):
        fb_k, fb_l = _reports(g, rng, None)
        for r_k, r_l in ((fb_k.lambda1 * (1 + 5e-10), fb_l.lambda1), (fb_k.lambda2, fb_l.lambda2 * (1 - 5e-10))):
            p = g.GmudBeamParams(r_k, _phase(rng), r_l, _phase(rng), float(np.sqrt(0.5)), float(np.sqrt(0.5)))
            yield "edge", lambda p=p, k=fb_k, l=fb_l: g.gmud_min_sinr(p, k, l, 0.05)
        alpha2 = rng.uniform(0.1, 0.9)
        p = g.GmudBeamParams(rng.uniform(fb_k.lambda2, fb_k.lambda1), _phase(rng),
                             rng.uniform(fb_l.lambda2, fb_l.lambda1), _phase(rng),
                             np.float32(np.sqrt(alpha2)), np.float32(np.sqrt(1 - alpha2)))
        yield "typical", lambda p=p, k=fb_k, l=fb_l: g.gmud_min_sinr(p, k, l, 0.05)
    p = g.GmudBeamParams(1.5, 0.0, 1.5, 0.0, float(np.sqrt(0.5)), float(np.sqrt(0.5)))
    for fb_k, fb_l in _unread_reports(g):
        yield "error", lambda p=p, k=fb_k, l=fb_l: g.gmud_min_sinr(p, k, l, 0.1)
    good = g.GmudFeedback(np.zeros(6), np.array([0.0, 1.0], dtype=complex), 2.0, 1.0)
    for v1 in V1_BAD_SHAPES:
        bad = g.GmudFeedback(np.zeros(6), v1, 2.0, 1.0)
        for k, l in ((bad, good), (good, bad)):
            yield "error", lambda p=p, k=k, l=l: g.gmud_min_sinr(p, k, l, 0.1)


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
    for bad in (*_bad_reports(g, rng), *(g.GmudFeedback(np.zeros(6), fb_k.v1, 2.0, l2) for l2 in LAMBDA2_BAD)):
        for args in ((bad, fb_l, 0.1, grids[1]), (fb_l, bad, 0.1, grids[1])):
            yield "error", lambda args=args: g.optimize_gmud(*args)
    # where the SINR kernel's division path meets its zero-denominator masks
    for fb_k, fb_l in _meeting_reports(g, rng):
        for noise in TINY_NOISES:
            for grid in grids:
                yield "edge", lambda k=fb_k, l=fb_l, noise=noise, grid=grid: g.optimize_gmud(k, l, noise, grid)
    # the check order within a pair: each user's report (lambdas, then v1) in turn, then both users' lambda1**2
    skewed = g.GmudFeedback(np.zeros(6), np.array([1.0, 1.0], dtype=complex), 1.0, 0.5)
    nan, huge = _bad_reports(g, rng)
    for pair in ((skewed, huge), (huge, skewed), (nan, skewed), (skewed, nan),
                 (dataclasses.replace(nan, v1=skewed.v1), fb_l)):
        yield "error", lambda pair=pair: g.optimize_gmud(*pair, 0.1, grids[3])
    for pair in _unread_reports(g):
        yield "error", lambda pair=pair: g.optimize_gmud(*pair, 0.1, grids[3])
    good = g.GmudFeedback(np.zeros(6), np.array([0.0, 1.0], dtype=complex), 2.0, 1.0)
    for v1 in V1_BAD_SHAPES:
        bad = g.GmudFeedback(np.zeros(6), v1, 2.0, 1.0)
        for pair in ((bad, good), (good, bad)):
            yield "error", lambda pair=pair: g.optimize_gmud(*pair, 0.1, grids[3])


@case("GridSpec")
def _grid_spec(g):
    yield "typical", lambda: g.GridSpec()
    yield "typical", lambda: g.GridSpec(n_r=3, n_theta=5, n_p=2)
    for sizes in ((0, 4, 3), (4, 0, 3), (4, 4, 0), (-1, 4, 3)):
        yield "error", lambda sizes=sizes: g.GridSpec(*sizes)
    for sizes in ((2.5, 4, 3), (4, 4.0, 3), (True, 4, 3)):
        yield "error", lambda sizes=sizes: g.GridSpec(*sizes)
    for size in BAD_SIZES:
        yield "error", lambda size=size: g.GridSpec(n_r=size)


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
    for n in (2.5, 2.0, True):
        yield "error", lambda n=n: g.encode(np.eye(2), "gmud", n)
    for n in BAD_SIZES:
        yield "error", lambda n=n: g.encode(np.eye(2), "gmud", n)
    for scheme, limit in N_LIMITS.items():
        yield "error", lambda s=scheme, n=limit + 1: g.encode(np.eye(2), s, n)
    yield "error", lambda: g.encode([[1.0, 0.0, 0.0], [0.0, 1j, 0.0]], "gmud", 4)  # a nested-list channel, not 2x2
    # the odd and even cells 2**49 + 1 and + 2 of the 50-bit fields at N = 25, and their levels
    step = 2.0**-49  # on [-1, 1); twice that on [0, 4)
    for source in ((2.0 + 5 * step, 2.0 + 3 * step, [1.25 * step + 2.5j * step, 1.0]),
                   (2.0 + 3 * step, 2.0 + 5 * step, [2.5 * step + 1.25j * step, 1.0j])):
        yield "edge", lambda s=source: g.encode(s, "gmud", 25)
        yield "edge", lambda s=source: _message_view(g, g.decode(g.encode(s, "gmud", 25), "gmud", 25))
    # magnitudes far past either range, clamped before the division
    for v in (1e300, 1e305, 1e308):
        for n in (1, 4, 8):
            yield "extreme-scale", lambda v=v, n=n: g.encode((v, 0.5, [v, -1j * v]), "gmud", n)


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
    for bits, n in (("0" * 30, 2.5), ("0" * 24, 2.0), ("0" * 12, True)):
        yield "error", lambda b=bits, n=n: g.decode(b, "gmud", n)
    for n in BAD_SIZES:
        yield "error", lambda n=n: g.decode("0" * 48, "gmud", n)
    for scheme, limit in N_LIMITS.items():
        yield "error", lambda s=scheme, n=limit + 1: g.decode("1" * 12 * n, s, n)
    for bits in (123, None, ["0"] * 48):
        yield "error", lambda b=bits: g.decode(b, "gmud", 4)


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


@case("scheme_layout")
def _scheme_layout(g):
    for scheme in ("reg-inv", "reg-inv-sel", "gmud"):
        for n in range(1, 17):
            yield "typical", lambda s=scheme, n=n: g.scheme_layout(s, n)
        yield "error", lambda s=scheme: g.scheme_layout(s, 0)
    yield "error", lambda: g.scheme_layout("reg-inv-selection", 4)
    for n in (2.5, True) + BAD_SIZES:
        yield "error", lambda n=n: g.scheme_layout("gmud", n)
    for scheme, limit in N_LIMITS.items():
        yield "error", lambda s=scheme, n=limit + 1: g.scheme_layout(s, n)


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


def _config(g, scheme, mod, feedback, grid=(4, 8, 5)):
    return g.SimConfig(scheme=scheme, modulation=mod, snr_db=(0.0, 10.0, 20.0), feedback=feedback,
                       realizations=6, symbols=10, seed=7, grid=g.GridSpec(*grid))


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
    # the gmud search's pruning at high SNR, where its bound moves the most: the
    # default grid (8 divides n_theta, the octant fold) and one that takes every phase
    rng = _rng("links high snr batch")
    for grid in ((8, 16, 9), (8, 12, 9)):
        for noise in (1e-3, 1e-6):
            for feedback in ("perfect", 4):
                yield "typical", _config(g, "gmud", "16qam", feedback, grid), _crandn(rng, (33, 2, 2, 2)), noise
    # the inverse schemes at 160 dB with N = 1, where two users' reports collide into parallel rows (equal
    # channels in every third realization)
    rng = _rng("links collision batch")
    channels = _crandn(rng, (33, 2, 2, 2))
    channels[::3, 1] = channels[::3, 0]
    for scheme in ("reg-inv", "reg-inv-sel"):
        yield "edge", _config(g, scheme, "16qam", 1), channels, 1e-16


def _link(g, config, channels, noise):
    """The scheme's link builder on a stack: G (R, 2, 2) and the combiners (R, 2, 2)."""
    n = None if config.feedback == "perfect" else config.feedback
    m, combiners = g.simulation._LINKS[config.scheme].build(channels, noise, n, config.grid)
    return m, np.asarray(combiners)


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
            n = g.crandn(rng, (2, 2, x.shape[-1])) * np.sqrt(noise)
            return g.receive_detect(channels[0], m, combiners, x, gamma, config.modulation, n)

        yield group, call
    # a zero genie gain: the second column of G is 0
    for mod in ("qpsk", "16qam"):
        def dead(mod=mod):
            rng = np.random.default_rng(12)
            channels, m = _crandn(rng, (2, 2, 2)), _crandn(rng, (2, 2)) * [1.0, 0.0]
            x, gamma = g.transmit(m, np.stack([g.modulate(rng.integers(0, 2, 40), mod) for _ in range(2)]))
            return g.receive_detect(channels, m, np.eye(2), x, gamma, mod, g.crandn(rng, (2, 2, x.shape[-1])) * 0.1)

        yield "edge", dead


@case("simulation._LINKS")
def _links_case(g):
    for group, config, channels, noise in _links(g):
        yield group, lambda c=config, h=channels, noise=noise: _link(g, c, h, noise)


@case("simulation._rotation_projection")
def _rotation_projection(g):
    rng = _rng("rotation_projection")
    for group, h in _matrices(rng, 2000):
        if group != "extreme-scale":
            yield group, lambda h=h, u=rng.uniform(), t=_phase(rng): (
                lambda s: g.simulation._rotation_projection(s.u, s.lambda1, s.lambda2,
                                                            s.lambda2 + u * (s.lambda1 - s.lambda2), t)
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
    for size in BAD_SIZES:
        for field in ("realizations", "symbols"):
            yield "error", lambda kw={field: size}: g.SimConfig(scheme="gmud", **kw)
    for scheme, limit in N_LIMITS.items():
        yield "error", lambda s=scheme, n=limit + 1: g.SimConfig(scheme=s, feedback=n)


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
    # SNRs of other real types, read as their float64 values
    for snr in (np.uint16(30), np.uint8(200), np.float16(-400.0), np.float32(-400.0), np.float32(7.3)):
        yield "edge", lambda s=snr: g.run_ber(dataclasses.replace(_config(g, "gmud", "16qam", 4), snr_db=(s,)))
    for jobs in (0, -3, True, 2.5, "2"):
        yield "error", lambda j=jobs: g.run_ber(_config(g, "reg-inv", "qpsk", "perfect"), jobs=j)


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
