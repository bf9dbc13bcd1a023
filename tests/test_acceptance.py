"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Monte Carlo criteria (7-10) run at 400+ channel realizations and at least
2e5 payload bits per SNR point and are judged within 3 standard errors
(per-realization cluster estimate); they carry the ``slow`` marker.
Run everything with ``pytest tests/test_acceptance.py -v``.

Criterion 8 judges the perfect-CSI gains of selection and steering over
fixed-row inversion by that rule: each gain's standard error comes from
the per-point ``se`` of its bracketing grid points through
:func:`crossing_se`.  Both 16QAM gains (at BER 1e-2) must lie within
3 se of their stated windows, [8, 13] dB for selection and [6, 11] dB
for steering, and all four gains within 3 se of a closed-form oracle
that evaluates the conditional BER exactly on the same seeded channels.
The stated QPSK windows (at BER 1e-3), [2.5, 6] dB and [0.8, 3.5] dB,
stay on record in the test's docstring, with the reason they cannot be
met alongside the 16QAM windows; the oracle comparison replaces them.
The oracle's own fast tests pin it to the textbook AWGN bit error rates.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from gmud import (
    GmudBeamParams,
    GmudFeedback,
    GridSpec,
    PhasePair,
    antenna_selection,
    beam_from_feedback,
    decode,
    encode,
    expected_gamma,
    gen_channels,
    gmud,
    gmud_min_sinr,
    optimize_gmud,
    reg_inv,
    run_ber,
    scheme_layout,
    solve_rotations,
    svd2x2,
)
from gmud.cli import main as cli_main
from gmud.simulation import MODULATIONS, SimConfig

SEED = 12345


def report(criterion, ok, detail=""):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def crand(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


# ---------------------------------------------------------------- criterion 1
def test_criterion_1_reconstruction_suite():
    rng = np.random.default_rng(SEED)
    started = time.perf_counter()
    for _ in range(10_000):
        h = crand(rng, (2, 2))
        svd = svd2x2(h)
        r = float(rng.uniform(svd.lambda2, svd.lambda1))
        fact = gmud(h, r, PhasePair(*rng.uniform(0.0, 2 * np.pi, 2)))
        scale = max(1.0, float(np.linalg.norm(h)))
        assert np.linalg.norm(fact.reconstruct() - h) <= 1e-10 * scale
        for m in (fact.p, fact.q):
            assert np.linalg.norm(m.conj().T @ m - np.eye(2)) <= 1e-12
        rm = fact.rmat.as_matrix()
        assert rm[0, 1] == 0.0
        assert abs(rm[0, 0].real - r) <= 1e-10 * svd.lambda1
        assert abs(rm[0, 0].real * rm[1, 1].real - svd.lambda1 * svd.lambda2) <= 1e-9 * svd.lambda1**2
    elapsed = time.perf_counter() - started
    report(1, elapsed < 5.0, f"(1e4 reconstructions in {elapsed:.2f}s)")


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_cone_invariance():
    rng = np.random.default_rng(SEED + 1)
    thetas = rng.uniform(0.0, 2 * np.pi, 100)
    checked = 0
    while checked < 100:
        h = crand(rng, (2, 2))
        svd = svd2x2(h)
        if svd.lambda2 >= 0.75 * svd.lambda1:  # need 0.75*l1 inside [l2, l1]
            continue
        checked += 1
        v1 = svd.v[:, 0]
        r = 0.95 * svd.lambda1
        align = [
            abs(np.vdot(v1, beam_from_feedback(svd.lambda1, svd.lambda2, v1, r, t)))
            for t in thetas
        ]
        assert np.std(align) <= 1e-12
        assert solve_rotations(svd.lambda1, svd.lambda2, 0.95 * svd.lambda1).c > solve_rotations(
            svd.lambda1, svd.lambda2, 0.75 * svd.lambda1
        ).c
    report(2, True, "(100 channels x 100 phases)")


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_degenerate_anchors():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(200):
        h = crand(rng, (2, 2))
        svd = svd2x2(h)
        if svd.lambda2 <= 1e-6:
            continue
        v1 = svd.v[:, 0]
        q1 = beam_from_feedback(svd.lambda1, svd.lambda2, v1, svd.lambda1, float(rng.uniform(0, 2 * np.pi)))
        assert abs(abs(np.vdot(q1, v1)) - 1.0) <= 1e-10
        spr = gmud(h, math.sqrt(svd.lambda1 * svd.lambda2)).rmat
        assert abs(spr.r - spr.z2) <= 1e-10 * svd.lambda1
    report(3, True)


# ---------------------------------------------------------------- criterion 4
def test_criterion_4_optimizer_oracle():
    rng = np.random.default_rng(SEED + 3)
    small = GridSpec(n_r=3, n_theta=4, n_p=3)
    for trial in range(100):
        fb_k, fb_l = (GmudFeedback.from_svd(svd2x2(h)) for h in gen_channels(rng))
        noise = float(rng.uniform(1e-3, 0.3))
        _, params, rep = optimize_gmud(fb_k, fb_l, noise, small)

        rk = np.linspace(fb_k.lambda2, fb_k.lambda1, small.n_r)
        rl = np.linspace(fb_l.lambda2, fb_l.lambda1, small.n_r)
        th = np.linspace(0.0, 2 * np.pi, small.n_theta, endpoint=False)
        a2s = np.concatenate([np.linspace(0.1, 0.9, small.n_p), [0.0, 1.0]])
        best = -np.inf
        for irk, irl, itk, itl, ia in itertools.product(
            range(small.n_r), range(small.n_r), range(small.n_theta),
            range(small.n_theta), range(len(a2s)),
        ):
            p = GmudBeamParams(
                float(rk[irk]), float(th[itk]), float(rl[irl]), float(th[itl]),
                alpha=float(np.sqrt(a2s[ia])), beta=float(np.sqrt(1.0 - a2s[ia])),
            )
            best = max(best, gmud_min_sinr(p, fb_k, fb_l, noise).min_sinr)
        assert rep.min_sinr == best, f"trial {trial}: {rep.min_sinr} != {best}"

    # the steered optimum dominates plain principal-vector beamforming on
    # the default grid (r = lambda1 is the last linspace point)
    rng = np.random.default_rng(SEED + 4)
    for _ in range(100):
        fb_k, fb_l = (GmudFeedback.from_svd(svd2x2(h)) for h in gen_channels(rng))
        noise = 0.01
        _, _, rep = optimize_gmud(fb_k, fb_l, noise)
        for a2 in np.concatenate([np.linspace(0.1, 0.9, 9), [0.0, 1.0]]):
            p = GmudBeamParams(
                fb_k.lambda1, 0.0, fb_l.lambda1, 0.0,
                alpha=float(np.sqrt(a2)), beta=float(np.sqrt(1.0 - a2)),
            )
            assert rep.min_sinr >= gmud_min_sinr(p, fb_k, fb_l, noise).min_sinr
    report(4, True, "(100 exact re-enumerations, 100 dominance checks)")


# ---------------------------------------------------------------- criterion 5
def test_criterion_5_antenna_selection_oracle():
    rng = np.random.default_rng(SEED + 5)
    for trial in range(1000):
        channels = [crand(rng, (2, 2)), crand(rng, (2, 2))]
        noise = float(rng.uniform(1e-4, 0.5))
        combo, _, _ = antenna_selection(channels, noise)

        best_combo, best_score = None, -1.0
        for cand in itertools.product(range(2), range(2)):
            h_hat = np.stack([channels[k][row] for k, row in enumerate(cand)])
            g = reg_inv(h_hat, noise)
            e = h_hat @ g
            noise_term = expected_gamma(g) * noise
            score = min(
                abs(e[m, m]) ** 2
                / (sum(abs(e[m, n]) ** 2 for n in range(2) if n != m) + noise_term)
                for m in range(2)
            )
            if score > best_score:
                best_combo, best_score = cand, score
        assert combo == best_combo, f"trial {trial}"
    report(5, True, "(1000 brute-forced draws)")


# ---------------------------------------------------------------- criterion 6
def test_criterion_6_feedback_codec():
    rng = np.random.default_rng(SEED + 6)
    for n in (2, 4, 8):
        for scheme in ("reg-inv", "reg-inv-sel", "gmud"):
            assert sum(b for _, b, _, _ in scheme_layout(scheme, n)) == 12 * n
            h = crand(rng, (2, 2))
            source = svd2x2(h) if scheme == "gmud" else h
            bits = encode(source, scheme, n)
            assert len(bits) == 12 * n
            msg = decode(bits, scheme, n)
            assert encode(msg, scheme, n) == bits
            again = decode(encode(msg, scheme, n), scheme, n)
            assert np.array_equal(msg.raw, again.raw)

    import os

    golden = os.path.join(os.path.dirname(__file__), "data", "golden_feedback.json")
    with open(golden) as fh:
        cases = json.load(fh)
    for case in cases:
        if case["scheme"] == "gmud":
            source = (
                case["lambda1"],
                case["lambda2"],
                np.array([complex(re, im) for re, im in case["v1"]]),
            )
        else:
            source = np.array([[complex(re, im) for re, im in row] for row in case["matrix"]])
        assert encode(source, case["scheme"], case["n"]) == case["bits"]
    report(6, True, f"(schemes x n in {{2,4,8}}, {len(cases)} golden vectors)")


# ------------------------------------------------------------- Monte Carlo --
_CURVES = {}


def curve(scheme, modulation, snr_db, feedback="perfect", realizations=400):
    key = (scheme, modulation, snr_db, feedback, realizations)
    if key not in _CURVES:
        config = SimConfig(
            scheme=scheme,
            modulation=modulation,
            snr_db=snr_db,
            feedback=feedback,
            realizations=realizations,
            symbols=125,
            seed=SEED,
        )
        _CURVES[key] = run_ber(config, jobs=2)
    return _CURVES[key]


QAM_GRID = tuple(float(s) for s in range(10, 29, 2))
QPSK_GRID = tuple(float(s) for s in range(10, 35, 2))


def bracket(bers, target):
    """Index i of the first grid interval with bers[i] >= target > bers[i+1] > 0."""
    for i, (b0, b1) in enumerate(zip(bers, bers[1:])):
        if b0 >= target > b1 and b1 > 0:
            return i
    return None


def crossing(points, target):
    """SNR where the curve crosses ``target``, log-linear between grid points."""
    i = bracket([b for _, b in points], target)
    if i is None:
        return None
    (s0, b0), (s1, b1) = points[i], points[i + 1]
    l0, l1, lt = math.log10(b0), math.log10(b1), math.log10(target)
    return s0 + (s1 - s0) * (l0 - lt) / (l0 - l1)


def crossing_se(points, target):
    """Standard error of :func:`crossing` by the delta method.

    ``points`` are (snr_db, ber, se) triples.  Only the two bracketing
    grid points move the crossing; they are independent (every SNR index
    seeds its own realizations), so their log-BER errors add in
    quadrature, each scaled by the partial derivative of the log-linear
    interpolation.
    """
    i = bracket([b for _, b, _ in points], target)
    if i is None:
        return None
    (s0, b0, e0), (s1, b1, e1) = points[i], points[i + 1]
    l0, l1, lt = math.log10(b0), math.log10(b1), math.log10(target)
    scale = (s1 - s0) / ((l0 - l1) ** 2 * math.log(10.0))
    return scale * math.hypot((lt - l1) * e0 / b0, (l0 - lt) * e1 / b1)


# ------------------------------------------------------ closed-form oracle --
# For one channel realization, user k combines its antennas with a unit
# vector w_k (a row selector for the inverse schemes, p1 for gmud) and
# divides by the genie gain e_kk = w_k^H H_k g_k.  With
# e_km = w_k^H H_k g_m and gamma = ||G u||^2 the decision statistic is
#     z = u_k + (e_kl / e_kk) u_l + w,  w ~ CN(0, gamma sigma^2 / |e_kk|^2),
# so averaging the Gaussian tails over every equiprobable symbol pair gives
# the realization's exact BER, with no noise or payload draws.

_SQRT2 = math.sqrt(2.0)
_AXIS_LEVELS = {  # per-axis amplitudes of the unit-energy Gray constellations
    "qpsk": np.array([-1.0, 1.0]) / _SQRT2,
    "16qam": np.array([-3.0, -1.0, 1.0, 3.0]) / math.sqrt(10.0),
}
_INNER_EDGE = 2.0 / math.sqrt(10.0)  # 16QAM inner-bit decision threshold
_erfc = np.frompyfunc(math.erfc, 1, 1)


def constellation(modulation):
    """Every symbol of the unit-energy constellation, each equally likely."""
    levels = _AXIS_LEVELS[modulation]
    return (levels[:, None] + 1j * levels[None, :]).ravel()


def q_function(x):
    """Gaussian tail Q(x) = erfc(x / sqrt(2)) / 2, elementwise."""
    return 0.5 * _erfc(np.asarray(x, dtype=np.float64) / _SQRT2).astype(np.float64)


def axis_bit_errors(level, mean, std, modulation):
    """Expected wrong bits on one axis: ``level`` sent, N(mean, std^2) observed.

    QPSK carries a sign bit; 16QAM adds the inner bit, which is wrong when
    an outer level lands inside +-_INNER_EDGE or an inner level outside it.
    """
    errors = q_function(np.sign(level) * mean / std)
    if modulation == "16qam":
        inside = q_function((-_INNER_EDGE - mean) / std) - q_function((_INNER_EDGE - mean) / std)
        errors = errors + np.where(np.abs(level) > _INNER_EDGE, inside, 1.0 - inside)
    return errors


def decision_bit_errors(u_k, u_l, e_kk, e_kl, gamma, noise_var, modulation):
    """Expected wrong bits in u_k, given z = u_k + (e_kl/e_kk) u_l + CN noise."""
    mean = u_k + (e_kl / e_kk) * u_l
    std = np.sqrt(gamma * noise_var / (2.0 * abs(e_kk) ** 2))
    return axis_bit_errors(u_k.real, mean.real, std, modulation) + axis_bit_errors(
        u_k.imag, mean.imag, std, modulation
    )


def conditional_ber(e, g, noise_var, modulation):
    """Exact two-user BER of one realization, from its gains ``e`` and precoder ``g``."""
    symbols = constellation(modulation)
    u = np.stack(np.meshgrid(symbols, symbols, indexing="ij")).reshape(2, -1)
    s = g @ u
    gamma = (s.real**2 + s.imag**2).sum(axis=0)
    errors = sum(
        decision_bit_errors(u[k], u[1 - k], e[k, k], e[k, 1 - k], gamma, noise_var, modulation)
        for k in range(2)
    )
    return float(errors.mean()) / (2 * MODULATIONS[modulation])


def link_gains(scheme, channels, noise_var):
    """Precoder G and gains e[k, m] = w_k^H H_k g_m of one perfect-CSI link.

    Built from the public precoders.  The fixed scheme inverts each
    user's first receive row; selection inverts the rows it picks; gmud
    combines with the first column p1 of its own factorization
    H = P R Q^H, whose first row [r, 0] of R gives p1^H H = r q1^H, i.e.
    p1 proportional to H^{-H} q1.
    """
    if scheme == "reg-inv":
        g = reg_inv(np.stack([h[0] for h in channels]), noise_var)
        combiners = [np.eye(2)[0]] * 2
    elif scheme == "reg-inv-sel":
        rows, g, _ = antenna_selection(list(channels), noise_var)
        combiners = [np.eye(2)[row] for row in rows]
    else:
        reports = [GmudFeedback.from_svd(svd2x2(h)) for h in channels]
        g, params, _ = optimize_gmud(reports[0], reports[1], noise_var)
        steering = ((params.r_k, params.theta_k), (params.r_l, params.theta_l))
        combiners = []
        for h, fb, (r, theta) in zip(channels, reports, steering):
            q1 = beam_from_feedback(fb.lambda1, fb.lambda2, fb.v1, r, theta)
            p1 = np.linalg.solve(h.conj().T, q1)
            combiners.append(p1 / np.linalg.norm(p1))
    e = np.array([w.conj() @ h @ g for w, h in zip(combiners, channels)])
    return g, e


def oracle_ber(scheme, modulation, grid, snr_idx, realizations=400):
    """Closed-form BER at ``grid[snr_idx]`` on the Monte Carlo's own channels."""
    noise_var = 10.0 ** (-grid[snr_idx] / 10.0)
    total = 0.0
    for j in range(realizations):
        channels = gen_channels(np.random.default_rng([SEED, snr_idx, j]))
        g, e = link_gains(scheme, channels, noise_var)
        total += conditional_ber(e, g, noise_var, modulation)
    return total / realizations


def oracle_crossing(scheme, modulation, grid, target, start):
    """:func:`crossing` of the oracle curve, evaluated only where needed.

    Starts at grid interval ``start`` (the Monte Carlo bracket) and steps
    down or up until the oracle's own values bracket ``target``; on a
    curve that crosses once this equals the crossing of the full curve.
    """
    bers = {}

    def ber(i):
        if i not in bers:
            bers[i] = oracle_ber(scheme, modulation, grid, i)
        return bers[i]

    i = start
    while True:
        if ber(i) < target and i > 0:
            i -= 1
        elif ber(i + 1) >= target and i + 2 < len(grid):
            i += 1
        else:
            return crossing([(grid[i], ber(i)), (grid[i + 1], ber(i + 1))], target)


# ---------------------------------------------------------------- criterion 7
@pytest.mark.slow
def test_criterion_7_perfect_csi_ordering():
    failures = []
    for modulation, grid in (("qpsk", QPSK_GRID), ("16qam", QAM_GRID)):
        sel = curve("reg-inv-sel", modulation, grid)
        gm = curve("gmud", modulation, grid)
        fx = curve("reg-inv", modulation, grid)
        for i, snr in enumerate(grid):
            if snr < 10.0:
                continue
            a, b, c = sel.points[i], gm.points[i], fx.points[i]
            if a.ber > b.ber + 3 * math.hypot(a.se, b.se):
                failures.append(f"{modulation}@{snr}: sel {a.ber:.2e} > gmud {b.ber:.2e}")
            if b.ber > c.ber + 3 * math.hypot(b.se, c.se):
                failures.append(f"{modulation}@{snr}: gmud {b.ber:.2e} > fixed {c.ber:.2e}")
    report(7, not failures, "; ".join(failures) or "(sel <= gmud <= fixed at every point)")


# ---------------------------------------------------------------- criterion 8
# stated windows on the gain over fixed-row inversion, judged within 3 se
QAM_GAIN_WINDOWS = {"reg-inv-sel": (8.0, 13.0), "gmud": (6.0, 11.0)}


@pytest.mark.slow
def test_criterion_8_perfect_csi_gains():
    """Perfect-CSI gains of selection and steering over fixed-row inversion.

    Each gain is the SNR gap between crossings of the reference BER
    (16QAM at 1e-2, QPSK at 1e-3); its standard error combines the
    two :func:`crossing_se` values in quadrature (the curves share their
    channels, so this overstates it).  Every gain must lie within 3 se of
    the closed-form oracle's gain on the same channels and grid, and the
    16QAM gains within 3 se of their stated windows.

    The stated QPSK windows, [2.5, 6] dB for selection and [0.8, 3.5] dB
    for steering, are kept here on record but not asserted: no program
    that fits the specified model can meet them together with the 16QAM
    windows.  With K = N_T inversion, the fixed-row link has diversity 1
    and needs ~9.4 dB per decade of BER against ~4.5 dB for selection,
    so its gap to selection widens as the reference BER falls and barely
    depends on the modulation (7.4 dB QPSK, 7.9 dB 16QAM at 1e-2).  A
    selection gain of at least 8 dB at 16QAM 1e-2 thus rules out at most
    6 dB at QPSK 1e-3; both the simulator and the oracle give ~13.3 dB.
    """
    failures, details = [], []
    for modulation, grid, target in (("16qam", QAM_GRID, 1e-2), ("qpsk", QPSK_GRID, 1e-3)):
        crossings = {}
        for scheme in ("reg-inv", "reg-inv-sel", "gmud"):
            triples = [(p.snr_db, p.ber, p.se) for p in curve(scheme, modulation, grid).points]
            start = bracket([b for _, b, _ in triples], target)
            assert start is not None, f"{scheme}/{modulation}: curve never crosses {target}"
            oracle = oracle_crossing(scheme, modulation, grid, target, start)
            assert oracle is not None, f"{scheme}/{modulation}: oracle never crosses {target}"
            crossings[scheme] = (
                crossing([(s, b) for s, b, _ in triples], target),
                crossing_se(triples, target),
                oracle,
            )
        fixed, fixed_se, fixed_oracle = crossings["reg-inv"]
        for scheme in ("reg-inv-sel", "gmud"):
            at, at_se, at_oracle = crossings[scheme]
            gain, se, oracle = fixed - at, math.hypot(fixed_se, at_se), fixed_oracle - at_oracle
            details.append(f"{modulation} {scheme} {gain:.2f}+-{se:.2f} dB (oracle {oracle:.2f})")
            if abs(gain - oracle) > 3 * se:
                failures.append(f"{modulation} {scheme}: {gain:.2f} dB vs oracle {oracle:.2f} dB")
            if modulation == "16qam":
                lo, hi = QAM_GAIN_WINDOWS[scheme]
                if not lo - 3 * se <= gain <= hi + 3 * se:
                    failures.append(f"{modulation} {scheme}: {gain:.2f} dB outside [{lo}, {hi}]")
    report(8, not failures, "; ".join(failures + [f"({'; '.join(details)})"]))


# ---------------------------------------------------------------- criterion 9
@pytest.mark.slow
def test_criterion_9_quantized_48_bit_losses():
    # 1 dB grid around the 1e-2 crossings; the window edge sits at 0.75 dB,
    # so the cheap inverse-precoding curves get extra realizations to push
    # the crossing noise well below it
    target = 1e-2
    grid = (15.0, 16.0, 17.0, 18.0, 19.0, 20.0)
    losses = {}
    for scheme, realizations in (("reg-inv-sel", 1600), ("gmud", 400)):
        perfect = crossing(
            [(p.snr_db, p.ber) for p in curve(scheme, "16qam", grid, realizations=realizations).points],
            target,
        )
        quantized = crossing(
            [
                (p.snr_db, p.ber)
                for p in curve(scheme, "16qam", grid, feedback=4, realizations=realizations).points
            ],
            target,
        )
        assert None not in (perfect, quantized), f"{scheme}: no {target} crossing"
        losses[scheme] = quantized - perfect
    detail = f"(sel loss {losses['reg-inv-sel']:.2f} dB, gmud loss {losses['gmud']:.2f} dB)"
    ok = 0.75 <= losses["reg-inv-sel"] <= 3.0 and losses["gmud"] <= 1.0
    report(9, ok, detail)


# --------------------------------------------------------------- criterion 10
@pytest.mark.slow
def test_criterion_10_quantized_24_bit_floor():
    grid = (20.0, 25.0, 30.0)
    sel = curve("reg-inv-sel", "16qam", grid, feedback=2, realizations=800)
    gm = curve("gmud", "16qam", grid, feedback=2, realizations=800)

    sel_bers = [p.ber for p in sel.points]
    floor_ok = sel_bers[2] >= 0.02
    drift_ok = all(
        abs(b1 - b0) / b0 <= 0.20 for b0, b1 in zip(sel_bers, sel_bers[1:])
    )
    gmud_ok = gm.points[2].ber < 1e-2 and min(p.ber for p in gm.points) < 1e-2
    detail = (
        f"(sel 20/25/30 dB: {sel_bers[0]:.4f}/{sel_bers[1]:.4f}/{sel_bers[2]:.4f}; "
        f"gmud@30: {gm.points[2].ber:.4f})"
    )
    report(10, floor_ok and drift_ok and gmud_ok, detail)


# ----------------------------------------------------- supporting invariants
def _textbook_q(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
def test_oracle_matches_awgn_ber(modulation):
    # zero interference with a fixed gamma and gain leaves an AWGN link at
    # Eb/N0 = |gain|^2 / (bits_per_symbol * gamma * sigma^2)
    symbols = constellation(modulation)
    bps = MODULATIONS[modulation]
    gain = 0.7 * np.exp(0.3j)
    for gamma, ebn0_db in itertools.product((0.5, 1.0, 2.3), (0.0, 6.0, 12.0)):
        ebn0 = 10.0 ** (ebn0_db / 10.0)
        noise_var = abs(gain) ** 2 / (bps * gamma * ebn0)
        errors = decision_bit_errors(symbols, symbols[::-1], gain, 0.0, gamma, noise_var, modulation)
        ber = float(errors.mean()) / bps
        if modulation == "qpsk":
            expected = _textbook_q(math.sqrt(2.0 * ebn0))
        else:  # Gray 16QAM, per axis: sign bit and inner bit
            d = math.sqrt(0.8 * ebn0)
            sign = (_textbook_q(d) + _textbook_q(3 * d)) / 2
            inner = (2 * _textbook_q(d) + _textbook_q(3 * d) - _textbook_q(5 * d)) / 2
            expected = (sign + inner) / 2
        assert ber == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_oracle_realization_ber_qpsk():
    # G = I/sqrt(2) keeps gamma = 1 for every QPSK pair; diagonal gains
    # leave each user an AWGN link with 2 Eb/N0 = |e_kk|^2 / sigma^2
    g = np.eye(2) / math.sqrt(2.0)
    e = np.diag([0.9, 0.4j])
    noise_var = 0.05
    expected = sum(_textbook_q(abs(e[k, k]) / math.sqrt(noise_var)) for k in range(2)) / 2
    assert conditional_ber(e, g, noise_var, "qpsk") == pytest.approx(expected, rel=1e-12)


def test_crossing_se_matches_numeric_propagation():
    points = [(14.0, 3e-2, 2e-3), (16.0, 1.5e-2, 1e-3), (18.0, 6e-3, 5e-4)]
    target = 1e-2
    h = 1e-7
    base = crossing([(s, b) for s, b, _ in points], target)
    grads = []
    for i in (1, 2):
        bumped = [list(p) for p in points]
        bumped[i][1] *= 1 + h
        moved = crossing([(s, b) for s, b, _ in bumped], target)
        grads.append((moved - base) / (h * points[i][1]) * points[i][2])
    assert crossing_se(points, target) == pytest.approx(math.hypot(*grads), rel=1e-5)


@pytest.mark.slow
def test_invariant_ber_monotone_in_snr():
    # perfect-CSI curves fall with SNR, within Monte Carlo error
    for modulation, grid in (("qpsk", QPSK_GRID), ("16qam", QAM_GRID)):
        for scheme in ("reg-inv", "reg-inv-sel", "gmud"):
            pts = curve(scheme, modulation, grid).points
            for a, b in zip(pts, pts[1:]):
                assert b.ber <= a.ber + 3 * math.hypot(a.se, b.se), (
                    f"{scheme}/{modulation}: {a.snr_db}->{b.snr_db} dB rose "
                    f"{a.ber:.2e}->{b.ber:.2e}"
                )


@pytest.mark.slow
def test_invariant_high_rate_feedback_matches_perfect_csi():
    # at n = 16 the quantized steered scheme is indistinguishable from
    # perfect CSI (within 2 standard errors)
    grid = (14.0, 18.0)
    perfect = curve("gmud", "16qam", grid, realizations=400)
    quantized = curve("gmud", "16qam", grid, feedback=16, realizations=400)
    for p, q in zip(perfect.points, quantized.points):
        assert abs(p.ber - q.ber) <= 2 * math.hypot(p.se, q.se)


# --------------------------------------------------------------- criterion 11
@pytest.mark.slow
def test_criterion_11_compare_determinism(tmp_path, capsys):
    args = [
        "compare", "--mod", "qpsk", "--snr", "10:10:20", "--feedback", "perfect",
        "--realizations", "6", "--symbols", "20", "--seed", str(SEED),
        "--grid", "4,8,5",
    ]
    paths = [str(tmp_path / name) for name in ("one", "two", "three")]
    assert cli_main(args + ["--out", paths[0], "--jobs", "1"]) == 0
    assert cli_main(args + ["--out", paths[1], "--jobs", "1"]) == 0
    assert cli_main(args + ["--out", paths[2], "--jobs", "2"]) == 0
    capsys.readouterr()
    contents = [open(p + ".csv", "rb").read() for p in paths]
    ok = contents[0] == contents[1] == contents[2]
    report(11, ok, "(two serial runs and one two-worker run byte-identical)")
