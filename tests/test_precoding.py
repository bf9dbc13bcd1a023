import dataclasses
import itertools
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmud import (
    SINR_CAP,
    DomainError,
    GmudBeamParams,
    GmudFeedback,
    GridSpec,
    SingularMatrixError,
    SinrReport,
    antenna_selection,
    beam_from_feedback,
    crandn,
    expected_gamma,
    gen_channels,
    gmud_min_sinr,
    mat_inv,
    optimize_gmud,
    reg_inv,
    steered_beams,
    svd2x2,
)


def random_reports(rng):
    return [GmudFeedback.from_svd(svd2x2(h)) for h in gen_channels(rng)]


def hard_pairs(rng, count, n=None):
    """Report pairs of the cases the search's x bound is tight or rounds on, perfect (n None) or N-bit.

    Collinear users (h_l = h_k and e^{i phi} h_k), equal singular values,
    lambda1 - lambda2 at 1.01e-12 and 2e-12 lambda1 (a and c lose accuracy
    to cancellation), rank one (lambda2 = 0) and channels scaled by
    2**+-300, beside Gaussian pairs.
    """
    from gmud import decode, encode

    def report(h):
        svd = svd2x2(h)
        return GmudFeedback.from_svd(svd) if n is None else decode(encode(svd, "gmud", n), "gmud", n)

    pairs = []
    for p in range(count):
        kind = p % 10
        h_k, h_l = crandn(rng, (2, 2, 2))
        if kind in (1, 4, 6):
            h_l = h_k
        elif kind == 2:
            h_l = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * h_k
        elif kind == 3:
            h_k = rng.uniform(0.1, 3.0) * np.linalg.qr(crandn(rng, (2, 2)))[0]
        elif kind == 8:
            h_k, h_l = 2.0**300 * h_k, 2.0**-300 * h_l
        fb_k, fb_l = report(h_k), report(h_l)
        if kind in (4, 5):
            fb_k = dataclasses.replace(fb_k, lambda2=fb_k.lambda1 * (1.0 - (1.01e-12, 2e-12)[kind - 4]))
        elif kind in (6, 7):
            fb_l = dataclasses.replace(fb_l, lambda2=0.0)
        pairs.append((fb_k, fb_l))
    return pairs


# noise_vars at which the search's SINRs overflow or its denominators vanish: zero (the SINR_CAP plateau),
# the smallest subnormal and 1e-300
TINY_NOISES = (0.0, 5e-324, 1e-300)


def stacked(pairs):
    """The (P, 2) lambda1, lambda2 and (P, 2, 2) v1 arrays of report pairs, as _search takes them."""
    return tuple(np.array([[getattr(fb, f) for fb in pair] for pair in pairs]) for f in ("lambda1", "lambda2", "v1"))


def exact_reg_inv(h, eps):
    """H^H (H H^H + eps I)^{-1} of a 2x2 complex matrix in exact rational arithmetic, as (re, im) Fractions."""
    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def add(a, b):
        return a[0] + b[0], a[1] + b[1]

    c = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in h.tolist()]
    hh = [[(c[j][i][0], -c[j][i][1]) for j in range(2)] for i in range(2)]
    a = [[add(add(mul(c[i][0], hh[0][j]), mul(c[i][1], hh[1][j])), (eps if i == j else 0, 0)) for j in range(2)]
         for i in range(2)]
    det = add(mul(a[0][0], a[1][1]), mul(a[0][1], (-a[1][0][0], -a[1][0][1])))
    over = (det[0] / (det[0] ** 2 + det[1] ** 2), -det[1] / (det[0] ** 2 + det[1] ** 2))  # 1 / det
    inv = [[mul(a[1][1], over), mul((-a[0][1][0], -a[0][1][1]), over)],
           [mul((-a[1][0][0], -a[1][0][1]), over), mul(a[0][0], over)]]
    return [[add(mul(hh[i][0], inv[0][j]), mul(hh[i][1], inv[1][j])) for j in range(2)] for i in range(2)]


class TestRegInv:
    # the formula's normwise relative error on exactly parallel rows: 5.8e-16 (5.2 units of 2**-53) measured
    # over these inputs; 8 units bound the SVD's few roundings in s, u1 and v1 and the product d1 v1 u1^H
    PARALLEL_BOUND = 8 * 2.0**-53

    def test_parallel_rows_match_exact_formula(self):
        # rows h and t h, t exact (a power of two times 1 or 1j, or 3 on integer rows): H H^H + eps I is singular
        # to working precision, and G comes from the SVD; it used to raise SingularMatrixError
        rng = np.random.default_rng(27)
        rows = [(np.array([1 + 2j, 3 - 1j]), 3), (np.array([-2j, 5.0]), 3)]
        rows += [(h, 1) for h in crandn(rng, (8, 2))]
        for h1, extra in rows:
            for t in (1, -1, 2, 0.5, 1j, -2j, 0.25j, extra):
                for scale in (1.0, 2.0**500):
                    h = scale * np.stack([h1, t * h1])
                    for noise in (1e-16, 1e-100, 1e-300, 1e-310, 5e-324):  # eps = 2e-16 down to subnormal
                        eps = 2.0 * noise
                        with pytest.raises(SingularMatrixError):
                            mat_inv(h @ h.conj().T + eps * np.eye(2))
                        g, want = reg_inv(h, noise), exact_reg_inv(h, Fraction(eps))
                        got = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in g.tolist()]
                        err = sum((x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2
                                  for rx, ry in zip(got, want) for x, y in zip(rx, ry))
                        norm = sum(y[0] ** 2 + y[1] ** 2 for ry in want for y in ry)
                        assert err <= Fraction(self.PARALLEL_BOUND) ** 2 * norm, (h1, t, scale, noise)

    def test_parallel_rows_at_zero_noise_raise(self):
        # at eps = 0 the inverse does not exist: the error says so
        message = r"^H H\^H \+ 2\*noise_var I is singular to working precision, and the regularizer 2\*noise_var is 0$"
        h = np.array([[1 + 2j, 3 - 1j], [2 + 4j, 6 - 2j]])
        for call in (lambda: reg_inv(h, 0.0), lambda: antenna_selection([h, h], 0.0)):
            with pytest.raises(SingularMatrixError, match=message):
                call()

    def test_parallel_rows_of_other_width_raise(self):
        # the SVD form is the 2x2 one: K x N_T rows with N_T != 2 keep the error
        h = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(SingularMatrixError, match=r"the rows have 3 entries, not 2$"):
            reg_inv(h, 1e-16)
        assert reg_inv(h, 0.1).shape == (3, 2)

    def test_parallel_rows_in_antenna_selection(self):
        # every combination of two equal channels is a pair of parallel rows
        h = crandn(np.random.default_rng(28), (2, 2))
        for noise in (1e-16, 5e-324):
            combo, g, report = antenna_selection([h, h], noise)
            assert np.isfinite(g).all() and np.isfinite(report.gamma_bar)
            assert np.array_equal(g, reg_inv(np.stack([h[combo[0]], h[combo[1]]]), noise))

    def test_zero_noise_identity(self):
        assert_allclose(reg_inv(np.eye(2), 0.0), np.eye(2))

    def test_scalar_regularization(self):
        # K*sigma^2 = 0.2, so G = I / 1.2
        assert_allclose(reg_inv(np.eye(2), 0.1), np.eye(2) / 1.2, rtol=1e-14)

    def test_zero_forcing_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h = crandn(rng, (2, 2))
            if abs(np.linalg.det(h)) < 0.1:
                continue
            assert np.linalg.norm(h @ reg_inv(h, 0.0) - np.eye(2)) <= 1e-9

    def test_negative_noise_rejected(self):
        for noise in (-1.0, np.nan):
            with pytest.raises(ValueError, match="noise_var must be nonnegative"):
                reg_inv(np.eye(2), noise)

    def test_overflowing_gram_names_finiteness(self):
        # finite rows whose H H^H overflows: the matmul warned (an error under this suite's filter) before
        # _mat_inv could name the cause
        huge = np.diag([1e200, 1e200])
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            reg_inv(huge, 0.1)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            antenna_selection([huge, huge], 0.1)


    def test_overflowing_regularizer_is_named(self):
        # these ended in _mat_inv's "matrix entries must be finite", which names neither noise_var nor K*noise_var
        for call in (lambda: reg_inv(np.eye(2), np.inf), lambda: reg_inv(np.eye(2), 1e308),
                     lambda: antenna_selection([np.eye(2), np.eye(2)], np.inf)):
            with pytest.raises(DomainError, match=r"^the regularizer 2\*noise_var overflows float64 at noise_var = "):
                call()


class TestExpectedGamma:
    def test_column_norms(self):
        g = np.array([[1.0, 0.0], [1.0, 2.0]])
        assert expected_gamma(g) == pytest.approx(6.0, rel=1e-12)

    def test_overflow_is_named(self):
        # it returned inf with a RuntimeWarning (overflow in vecdot)
        with pytest.raises(DomainError, match=r"^expected_gamma overflows float64: \|\|G\|\|_F\*\*2 is inf$"):
            expected_gamma(np.full((2, 2), 1e200))

    def test_g_is_read_as_a_finite_matrix(self):
        # a 1-D or 0-D G ended in a bare IndexError, a (2, 2, 2) stack in a bare TypeError, and NaN entries gave NaN
        not_2d = "expected a 2-D matrix, got ndim="
        for g, message in ((np.ones(2), not_2d + "1"), (1.0, not_2d + "0"), (np.ones((2, 2, 2)), not_2d + "3"),
                           (np.array([[1.0, np.nan], [0.0, 1.0]]), "matrix entries must be finite")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                expected_gamma(g)


class TestAntennaSelection:
    def brute_force(self, channels, noise_var):
        snr = np.inf if noise_var == 0 else 1.0 / noise_var
        best_combo, best_score = None, -1.0
        for combo in itertools.product(*[range(h.shape[0]) for h in channels]):
            h_hat = np.stack([channels[k][row] for k, row in enumerate(combo)])
            g = reg_inv(h_hat, noise_var)
            e = h_hat @ g
            gbar = expected_gamma(g)
            noise_term = 0.0 if snr == np.inf else gbar / snr
            score = min(
                min(abs(e[m, m]) ** 2 / (sum(abs(e[m, n]) ** 2 for n in range(2) if n != m) + noise_term), SINR_CAP)
                for m in range(2)
            )
            if score > best_score:
                best_combo, best_score = combo, score
        return best_combo, best_score

    def test_single_row_degenerate(self):
        rng = np.random.default_rng(1)
        channels = [crandn(rng, (1, 2)), crandn(rng, (1, 2))]
        combo, g, report = antenna_selection(channels, 0.01)
        assert combo == (0, 0)

    def test_orthogonal_rows_selected(self):
        # user 1 row 2 and user 2 row 1 are orthogonal units; other rows aliased
        aliased = np.array([1.0, 1.0]) / np.sqrt(2)
        h1 = np.stack([aliased, np.array([1.0, 0.0])])
        h2 = np.stack([np.array([0.0, 1.0]), aliased])
        combo, g, report = antenna_selection([h1, h2], 0.01)
        assert combo == (1, 0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            channels = [crandn(rng, (2, 2)), crandn(rng, (2, 2))]
            noise = float(rng.uniform(1e-4, 0.5))
            combo, g, report = antenna_selection(channels, noise)
            expected_combo, expected_score = self.brute_force(channels, noise)
            assert combo == expected_combo
            assert report.min_sinr == pytest.approx(expected_score, rel=1e-12)

    def test_candidate_order_invariance(self):
        rng = np.random.default_rng(3)
        channels = [crandn(rng, (2, 2)), crandn(rng, (2, 2))]
        combo1, _, rep1 = antenna_selection(channels, 0.05)
        combo2, _, rep2 = antenna_selection([c.copy() for c in channels], 0.05)
        assert combo1 == combo2 and rep1.min_sinr == rep2.min_sinr

    def test_float32_noise_gives_the_bytes_of_its_float64_value(self):
        # 1.0 / noise_var rounded to float32: SINRs 20.26867335729164 and 17.8399939021403 here, against
        # 20.268673056857626 and 17.83999363770558 for the same value as a float
        channels = list(crandn(np.random.default_rng(3), (2, 2, 2)))
        noise = np.float32(0.1)
        combo, g, report = antenna_selection(channels, noise)
        want_combo, want_g, want = antenna_selection(channels, float(noise))
        assert (combo, report) == (want_combo, want) and g.tobytes() == want_g.tobytes()
        assert reg_inv(channels[0], noise).tobytes() == reg_inv(channels[0], float(noise)).tobytes()


class TestGmudMinSinr:
    def test_orthogonal_beams(self):
        # beams along e1 and e2, alpha = beta = 1/sqrt(2): SINR_k = r_k^2/(2 sigma^2)
        fb_k = GmudFeedback(np.zeros(6), np.array([1.0, 0.0], dtype=complex), 2.0, 1.0)
        fb_l = GmudFeedback(np.zeros(6), np.array([0.0, 1.0], dtype=complex), 2.0, 1.0)
        params = GmudBeamParams(2.0, 0.0, 2.0, 0.0, alpha=np.sqrt(0.5), beta=np.sqrt(0.5))
        rep = gmud_min_sinr(params, fb_k, fb_l, 0.1)
        assert rep.per_user[0] == pytest.approx(4.0 / 0.2, rel=1e-12)
        assert rep.gamma_bar == pytest.approx(1.0, abs=1e-12)

    def test_identical_beams_interference_limited(self):
        v = np.array([1.0, 1.0j]) / np.sqrt(2)
        fb = GmudFeedback(np.zeros(6), v, 2.0, 1.0)
        params = GmudBeamParams(2.0, 0.0, 2.0, 0.0, alpha=np.sqrt(0.5), beta=np.sqrt(0.5))
        rep = gmud_min_sinr(params, fb, fb, 1e-15)
        assert rep.min_sinr == pytest.approx(1.0, rel=1e-9)

    def test_matches_independent_expression(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            fb_k, fb_l = random_reports(rng)
            params = GmudBeamParams(
                r_k=float(rng.uniform(fb_k.lambda2, fb_k.lambda1)),
                theta_k=float(rng.uniform(0, 2 * np.pi)),
                r_l=float(rng.uniform(fb_l.lambda2, fb_l.lambda1)),
                theta_l=float(rng.uniform(0, 2 * np.pi)),
                alpha=np.sqrt(0.3),
                beta=np.sqrt(0.7),
            )
            noise = float(rng.uniform(1e-4, 0.5))
            rep = gmud_min_sinr(params, fb_k, fb_l, noise)
            q1k = beam_from_feedback(fb_k.lambda1, fb_k.lambda2, fb_k.v1, params.r_k, params.theta_k)
            q1l = beam_from_feedback(fb_l.lambda1, fb_l.lambda2, fb_l.v1, params.r_l, params.theta_l)
            x = abs(np.vdot(q1k, q1l)) ** 2
            a2, b2 = params.alpha**2, params.beta**2
            sk = a2 * params.r_k**2 / (b2 * params.r_k**2 * x + noise * (a2 + b2))
            sl = b2 * params.r_l**2 / (a2 * params.r_l**2 * x + noise * (a2 + b2))
            assert rep.per_user[0] == pytest.approx(sk, rel=1e-12)
            assert rep.per_user[1] == pytest.approx(sl, rel=1e-12)
            assert rep.min_sinr == min(rep.per_user)

    def test_common_phase_invariance(self):
        # the cost sees the beams only through |q1k^H q1l|^2, which a common
        # phase rotation of both beams leaves untouched
        from gmud.precoding import _pair_grid

        rng = np.random.default_rng(5)
        fb_k, fb_l = random_reports(rng)
        params = GmudBeamParams(
            0.5 * (fb_k.lambda1 + fb_k.lambda2), 1.0,
            0.5 * (fb_l.lambda1 + fb_l.lambda2), 2.0,
            alpha=np.sqrt(0.5), beta=np.sqrt(0.5),
        )
        q1k = beam_from_feedback(fb_k.lambda1, fb_k.lambda2, fb_k.v1, params.r_k, params.theta_k)
        q1l = beam_from_feedback(fb_l.lambda1, fb_l.lambda2, fb_l.v1, params.r_l, params.theta_l)
        rep = gmud_min_sinr(params, fb_k, fb_l, 0.01)
        for delta in (0.7, 2.9, 5.5):
            rot = np.exp(1j * delta)
            sk, sl, _ = _pair_grid(
                (rot * q1k)[None, None], (rot * q1l)[None, None],
                np.array([params.r_k]), np.array([params.r_l]),
                np.array([params.alpha]), np.array([params.beta]), 0.01,
            )
            assert min(sk.item(), sl.item()) == pytest.approx(rep.min_sinr, rel=1e-12)

    def test_saturation_total_order(self):
        fb_k = GmudFeedback(np.zeros(6), np.array([1.0, 0.0], dtype=complex), 2.0, 1.0)
        fb_l = GmudFeedback(np.zeros(6), np.array([0.0, 1.0], dtype=complex), 2.0, 1.0)
        params = GmudBeamParams(2.0, 0.0, 2.0, 0.0, alpha=np.sqrt(0.5), beta=np.sqrt(0.5))
        rep = gmud_min_sinr(params, fb_k, fb_l, 0.0)
        assert rep.min_sinr == SINR_CAP

    @pytest.mark.parametrize("noise", [5e-324, 1e-300])
    def test_overflowing_sinr_saturates_silently(self, noise):
        # orthogonal beams at the smallest noise: r^2 / (2 sigma^2) overflows float64 at 5e-324, and the
        # SINR is SINR_CAP with no warning, from the search as from the point evaluator
        fb_k = GmudFeedback(np.zeros(6), np.array([1.0, 0.0], dtype=complex), 2.0, 1.0)
        fb_l = GmudFeedback(np.zeros(6), np.array([0.0, 1.0], dtype=complex), 2.0, 1.0)
        params = GmudBeamParams(2.0, 0.0, 2.0, 0.0, alpha=np.sqrt(0.5), beta=np.sqrt(0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, rep = optimize_gmud(fb_k, fb_l, noise)
            point = gmud_min_sinr(params, fb_k, fb_l, noise)
        assert rep.min_sinr == point.min_sinr == SINR_CAP
        assert rep.per_user == point.per_user == (SINR_CAP, SINR_CAP)

    def test_division_path_equals_masked_rule(self):
        # where every denominator is positive _ratio divides directly; capped, that is byte for byte the masked
        # rule written out below, at alpha^2 = 0 and beta^2 = 0 (criterion 4's edge splits), x = 0, r = 0 and
        # overflowing quotients too.  At zero noise, and for splits no search makes (alpha = beta = 0, a NaN or
        # an overflowing square, as gmud_min_sinr accepts them), _ratio takes the rule itself
        from gmud.precoding import _sinr

        def masked(num, den):  # num/den capped; a den that is not positive gives CAP for num > 0, else 0
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return np.minimum(np.where(den > 0.0, num / den, np.where(num > 0.0, np.inf, 0.0)), SINR_CAP)

        rng = np.random.default_rng(61)
        x = rng.uniform(0.0, 1.0, (400, 1))
        x[::7] = 0.0
        rk2, rl2 = (rng.uniform(0.0, 9.0, (400, 1)) for _ in range(2))
        rk2[::11], rl2[::13] = 0.0, 0.0
        a2 = np.concatenate([np.linspace(0.1, 0.9, 9), rng.uniform(0.0, 1.0, 5), [0.0, 1.0]])
        b2 = np.concatenate([1.0 - a2[:-2], [1.0, 0.0]])
        odd = np.array([0.0, 1e-320, np.nan, np.inf, 1e300, 0.5])
        for noise in (0.0, 5e-324, 1e-300, 1e-3, 0.05, 1.0):
            for split_a2, split_b2 in ((a2, b2), (odd, odd[::-1])):
                with warnings.catch_warnings():  # the odd splits' products may warn (inf * 0), the search's not
                    warnings.simplefilter("error" if split_a2 is a2 else "ignore")
                    sinrs = _sinr(x, rk2, rl2, split_a2, split_b2, noise)
                    n = noise * (split_a2 + split_b2)
                    want = [masked(split_a2 * rk2, (split_b2 * rk2) * x + n),
                            masked(split_b2 * rl2, (split_a2 * rl2) * x + n)]
                for got, expected in zip(sinrs, want):
                    assert got.tobytes() == expected.tobytes(), noise
                if split_a2 is a2:  # a silenced user
                    assert (sinrs[0][:, -2] == 0.0).all() and (sinrs[1][:, -1] == 0.0).all()

    @pytest.mark.parametrize("field", ["theta_k", "theta_l", "alpha", "beta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_phase_or_power_rejected(self, field, value):
        # alpha = NaN gave per-user SINRs (0, SINR_CAP) and a NaN gamma_bar
        fb_k, fb_l = random_reports(np.random.default_rng(13))
        params = GmudBeamParams(fb_k.lambda1, 0.0, fb_l.lambda1, 0.0, alpha=np.sqrt(0.5), beta=np.sqrt(0.5))
        with pytest.raises(DomainError, match="theta_k, theta_l, alpha and beta must be finite reals"):
            gmud_min_sinr(dataclasses.replace(params, **{field: value}), fb_k, fb_l, 0.1)

    def test_slack_r_scored_as_its_beam(self):
        # an r inside the 1e-9 slack builds the beam of its clamped value, but the SINRs scored the raw r:
        # SINR_k read 1.3560053626863848 at r_k = lambda1 (1 + 5e-10), against 1.35600536263364 at lambda1
        fb_k, fb_l = random_reports(np.random.default_rng(13))
        params = GmudBeamParams(fb_k.lambda1, 0.3, fb_l.lambda2, 1.1, alpha=np.sqrt(0.5), beta=np.sqrt(0.5))
        want = gmud_min_sinr(params, fb_k, fb_l, 0.1)
        for slack in ({"r_k": fb_k.lambda1 * (1 + 5e-10)}, {"r_l": fb_l.lambda2 * (1 - 5e-10)}):
            assert gmud_min_sinr(dataclasses.replace(params, **slack), fb_k, fb_l, 0.1) == want

    def test_float32_powers_and_noise_read_as_float64(self):
        # float32 alpha and beta made the powers float32: gamma_bar read 1.0 against 1.0000000476837165
        fb_k, fb_l = random_reports(np.random.default_rng(13))
        params = GmudBeamParams(fb_k.lambda1, 0.3, fb_l.lambda1, 1.1, alpha=np.float32(0.6), beta=np.float32(0.8))
        as_floats = dataclasses.replace(params, alpha=float(params.alpha), beta=float(params.beta))
        noise = np.float32(0.1)
        assert gmud_min_sinr(params, fb_k, fb_l, noise) == gmud_min_sinr(as_floats, fb_k, fb_l, float(noise))


class TestOptimizeGmud:
    def enumerate_grid(self, fb_k, fb_l, noise, grid):
        """The grid maximum and its first argmax in C order, with alpha^2 in {0, 1} appended."""
        rk = np.linspace(fb_k.lambda2, fb_k.lambda1, grid.n_r)
        rl = np.linspace(fb_l.lambda2, fb_l.lambda1, grid.n_r)
        th = np.linspace(0.0, 2 * np.pi, grid.n_theta, endpoint=False)
        a2s = np.concatenate([np.linspace(0.1, 0.9, grid.n_p), [0.0, 1.0]])
        best, best_params = -np.inf, None
        for irk, irl, itk, itl, ia in itertools.product(
            range(grid.n_r), range(grid.n_r), range(grid.n_theta), range(grid.n_theta), range(len(a2s))
        ):
            p = GmudBeamParams(
                float(rk[irk]), float(th[itk]), float(rl[irl]), float(th[itl]),
                alpha=float(np.sqrt(a2s[ia])), beta=float(np.sqrt(1.0 - a2s[ia])),
            )
            value = gmud_min_sinr(p, fb_k, fb_l, noise).min_sinr
            if value > best:
                best, best_params = value, p
        return best, best_params

    def test_single_point_grid(self):
        rng = np.random.default_rng(6)
        fb_k, fb_l = random_reports(rng)
        g, params, rep = optimize_gmud(fb_k, fb_l, 0.01, GridSpec(1, 1, 1))
        assert params.r_k == fb_k.lambda2
        assert params.theta_k == 0.0
        assert params.alpha == pytest.approx(np.sqrt(0.1), rel=1e-15)

    def test_exact_grid_maximum(self):
        rng = np.random.default_rng(7)
        grid = GridSpec(n_r=3, n_theta=4, n_p=3)
        for _ in range(5):
            fb_k, fb_l = random_reports(rng)
            noise = float(rng.uniform(1e-3, 0.2))
            _, params, rep = optimize_gmud(fb_k, fb_l, noise, grid)
            assert rep.min_sinr == self.enumerate_grid(fb_k, fb_l, noise, grid)[0]
            # returned params reproduce the returned report bit for bit
            again = gmud_min_sinr(params, fb_k, fb_l, noise)
            assert again.min_sinr == rep.min_sinr
            assert again.per_user == rep.per_user

    def test_report_equals_oracle_bit_for_bit(self):
        # gmud_min_sinr runs the search's own kernel on a one-point grid, so
        # the report of the chosen point comes out identical, not just close
        from gmud import decode, encode

        rng = np.random.default_rng(2024)
        grid = GridSpec(n_r=3, n_theta=4, n_p=3)
        for i in range(3000):
            svds = [svd2x2(h) for h in gen_channels(rng)]
            if i % 2:
                fb_k, fb_l = (decode(encode(s, "gmud", 2), "gmud", 2) for s in svds)
            else:
                fb_k, fb_l = (GmudFeedback.from_svd(s) for s in svds)
            noise = (0.0, 1e-3, 0.05, 1.0)[(i // 2) % 4]
            _, params, rep = optimize_gmud(fb_k, fb_l, noise, grid)
            again = gmud_min_sinr(params, fb_k, fb_l, noise)
            assert again.per_user == rep.per_user, i
            assert again.min_sinr == rep.min_sinr, i
            assert again.gamma_bar == rep.gamma_bar, i

    @pytest.mark.parametrize("noise", [0.05, 0.0])
    def test_params_are_first_argmax_with_edge_powers(self, noise):
        # alpha^2 in {0, 1} silences a user (min-SINR 0) and sits last on the
        # power axis, so the search without it picks the same point; at zero
        # noise the orthogonal pair puts a SINR_CAP plateau of ties on the grid
        rng = np.random.default_rng(12)
        grid = GridSpec(n_r=3, n_theta=4, n_p=3)
        orthogonal = (
            GmudFeedback(np.zeros(6), np.array([1.0, 0.0], dtype=complex), 2.0, 1.0),
            GmudFeedback(np.zeros(6), np.array([0.0, 1.0], dtype=complex), 2.0, 1.0),
        )
        for fb_k, fb_l in [orthogonal] + [random_reports(rng) for _ in range(4)]:
            _, params, rep = optimize_gmud(fb_k, fb_l, noise, grid)
            best, best_params = self.enumerate_grid(fb_k, fb_l, noise, grid)
            assert params == best_params
            assert rep.min_sinr == best

    def test_dominates_svd_beamforming_point(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            fb_k, fb_l = random_reports(rng)
            noise = 0.01
            _, _, rep = optimize_gmud(fb_k, fb_l, noise)
            a2s = np.concatenate([np.linspace(0.1, 0.9, 9), [0.0, 1.0]])
            for a2 in a2s:
                p = GmudBeamParams(
                    fb_k.lambda1, 0.0, fb_l.lambda1, 0.0,
                    alpha=float(np.sqrt(a2)), beta=float(np.sqrt(1.0 - a2)),
                )
                assert rep.min_sinr >= gmud_min_sinr(p, fb_k, fb_l, noise).min_sinr

    def test_orthogonal_users_pick_principal_vectors(self):
        # orthogonal principal vectors: the zero-interference point r = lambda1 wins
        fb_k = GmudFeedback(np.zeros(6), np.array([1.0, 0.0], dtype=complex), 2.0, 1.0)
        fb_l = GmudFeedback(np.zeros(6), np.array([0.0, 1.0], dtype=complex), 2.0, 1.0)
        g, params, rep = optimize_gmud(fb_k, fb_l, 1e-6)
        assert params.r_k == 2.0 and params.r_l == 2.0
        assert params.alpha**2 == pytest.approx(0.5, rel=1e-12)

    def test_g_columns_are_loaded_beams(self):
        rng = np.random.default_rng(9)
        fb_k, fb_l = random_reports(rng)
        g, params, _ = optimize_gmud(fb_k, fb_l, 0.01)
        assert np.linalg.norm(g[:, 0]) == pytest.approx(params.alpha, abs=1e-12)
        assert np.linalg.norm(g[:, 1]) == pytest.approx(params.beta, abs=1e-12)

    def test_bad_grid_rejected(self):
        rng = np.random.default_rng(11)
        fb_k, fb_l = random_reports(rng)
        with pytest.raises(ValueError):
            optimize_gmud(fb_k, fb_l, 0.01, GridSpec(0, 4, 3))
        # 2.5 failed mid-run in a TypeError, and True searched a one-point grid
        for sizes in ((2.5, 4, 3), (4, 4.0, 3), (4, 4, True)):
            with pytest.raises(ValueError, match="grid sizes must be integers >= 1"):
                GridSpec(*sizes)
        with pytest.raises(ValueError, match="grid sizes must be integers >= 1"):
            GridSpec(0.5, 4, 3)

    def full_grid_search(self, fb_k, fb_l, noise, grid):
        """The exhaustive search: every grid point through _pair_grid, first argmax in C order."""
        from gmud.precoding import _pair_grid

        rk = np.linspace(fb_k.lambda2, fb_k.lambda1, grid.n_r)
        rl = np.linspace(fb_l.lambda2, fb_l.lambda1, grid.n_r)
        thetas = np.linspace(0.0, 2.0 * np.pi, grid.n_theta, endpoint=False)
        alpha2 = np.linspace(0.1, 0.9, grid.n_p)
        alpha, beta = np.sqrt(alpha2), np.sqrt(1.0 - alpha2)
        beams_k = steered_beams(fb_k.lambda1, fb_k.lambda2, fb_k.v1, rk[:, None], thetas[None, :])
        beams_l = steered_beams(fb_l.lambda1, fb_l.lambda2, fb_l.v1, rl[:, None], thetas[None, :])
        sk, sl, gamma_bar = _pair_grid(beams_k, beams_l, rk, rl, alpha, beta, noise)
        min_sinr = np.minimum(sk, sl)
        idx = np.unravel_index(int(np.argmax(min_sinr)), min_sinr.shape)
        i_rk, i_rl, i_tk, i_tl, i_a = (int(i) for i in idx)
        params = GmudBeamParams(float(rk[i_rk]), float(thetas[i_tk]), float(rl[i_rl]), float(thetas[i_tl]),
                                float(alpha[i_a]), float(beta[i_a]))
        report = SinrReport((float(sk[idx]), float(sl[idx])), float(min_sinr[idx]), float(gamma_bar[i_a]))
        g = np.column_stack([params.alpha * beams_k[i_rk, i_tk], params.beta * beams_l[i_rl, i_tl]])
        return g, params, report

    def test_two_stage_equals_full_grid(self):
        # the block-peak search returns the exhaustive grid's first argmax byte
        # for byte, ties on the SINR_CAP plateau included
        from gmud import decode, encode

        rng = np.random.default_rng(31)
        grids = [GridSpec(), GridSpec(4, 8, 5), GridSpec(3, 5, 2), GridSpec(2, 3, 1), GridSpec(1, 1, 1)]
        orthogonal = (
            GmudFeedback(np.zeros(6), np.array([1.0, 0.0], dtype=complex), 2.0, 1.0),
            GmudFeedback(np.zeros(6), np.array([0.0, 1.0], dtype=complex), 2.0, 1.0),
        )
        for i in range(1200):
            grid = grids[0] if i % 10 == 0 else grids[1 + i % 4]
            noise = (0.0, 1e-3, 0.05, 1.0)[i % 4]
            n = (None, 1, 2, 4)[(i // 4) % 4]
            h_k, h_l = crandn(rng, (2, 2, 2))
            if i % 20 == 7:
                h_l = h_k  # collinear users
            if i % 37 == 5:
                h_k = rng.uniform(0.1, 3.0) * np.linalg.qr(crandn(rng, (2, 2)))[0]  # lambda1 = lambda2
            svds = (svd2x2(h_k), svd2x2(h_l))
            if n is None:
                fb_k, fb_l = (GmudFeedback.from_svd(s) for s in svds)
            else:
                fb_k, fb_l = (decode(encode(s, "gmud", n), "gmud", n) for s in svds)
            if i % 50 == 0:
                (fb_k, fb_l), noise = orthogonal, 0.0
            g, params, rep = optimize_gmud(fb_k, fb_l, noise, grid)
            want_g, want_params, want_rep = self.full_grid_search(fb_k, fb_l, noise, grid)
            assert g.tobytes() == want_g.tobytes(), i
            for got, want in ((params, want_params), (rep, want_rep)):
                for field in dataclasses.fields(got):
                    a, b = getattr(got, field.name), getattr(want, field.name)
                    assert np.array(a).tobytes() == np.array(b).tobytes(), (i, field.name)

    def test_x_bound_below_block_minima(self):
        # the bound on each block's smallest x holds against x as computed, on the
        # cases where it is tight and only the slack covers rounding: the octant
        # fold when 8 divides n_theta, every phase otherwise
        from gmud.decomposition import _rotation_factors, _steer
        from gmud.linalg import orthonormal_complement
        from gmud.precoding import _beam_x, _grid_tables, _linspace, _x_bound

        rng = np.random.default_rng(51)
        for n_theta in (1, 3, 5, 8, 12, 16, 24):
            grid, checked = GridSpec(8, n_theta, 9), 0
            thetas, w, fold = _grid_tables(grid)[:3]
            assert fold.shape == (2, n_theta // 8 + 1 if n_theta % 8 == 0 else n_theta)
            for chunk in range(12):
                lambda1, lambda2, v1 = stacked(hard_pairs(rng, 33, (None, 1, 2, 4)[chunk % 4]))
                r = _linspace(lambda2, lambda1, grid.n_r)
                _, _, c, s = _rotation_factors(lambda1[..., None], lambda2[..., None], r)
                v2 = orthonormal_complement(v1)
                beams = _steer(c[..., None], s[..., None], thetas, v1[:, :, None, None], v2[:, :, None, None])
                bound = _x_bound(c, s, v1, v2, w, fold)
                x_min = _beam_x(beams[:, 0], beams[:, 1]).min(axis=(-2, -1))
                assert not np.isnan(x_min).any() and not np.isnan(bound).any()
                assert (bound <= x_min).all(), (n_theta, chunk)
                # near-exact: off the block minimum by no more than the slack's scale
                assert (x_min - bound <= 1e-12 * (1.0 + x_min)).all(), (n_theta, chunk)
                checked += len(v1)
            assert checked == 396

    @pytest.mark.parametrize("noise", (*TINY_NOISES, 1e-3, 0.05, 1.0, 1e300, np.inf))
    def test_crossing_bound_covers_every_split(self, noise):
        # the bound from the two splits around the SINR crossing is at least the
        # min-SINR of every split, at any x >= 0, r and noise, n_p = 1 included
        from gmud.precoding import _grid_tables, _peak_bound, _sinr

        rng = np.random.default_rng(55)
        r2 = np.concatenate([[0.0, 5e-324, 1e-300, 1e300], rng.uniform(0.0, 4.0, 20) ** 2])
        x = np.concatenate([[0.0, 5e-324, 1e-300, 1e-12], rng.uniform(0.0, 4.0, 20) ** 2])
        rk2, rl2, x = (a.ravel() for a in np.meshgrid(r2, r2[::-1], x))
        moderate = (np.minimum(rk2, rl2) > 1e-6) & (np.maximum(rk2, rl2) < 1e6)
        for n_p in (1, 2, 3, 9, 17):
            grid = GridSpec(2, 8, n_p)
            a2, b2 = _grid_tables(grid)[5:7]
            sk, sl = _sinr(x, rk2, rl2, a2[:, None], b2[:, None], noise)
            exact = np.minimum(sk, sl).max(axis=0)
            bound = _peak_bound(x, rk2, rl2, noise, grid)
            assert (bound >= exact).all(), (n_p, noise)
            if n_p > 1 and 0.0 < noise < np.inf:  # the grid's own maximum, but for the noise term's ulp
                assert (bound[moderate] <= exact[moderate] * (1.0 + 1e-15)).all(), (n_p, noise)

    @pytest.mark.parametrize("noise", [*TINY_NOISES, 1e-3, 0.05, 1.0])
    def test_pruned_search_equals_full_grid(self, noise):
        # a chunk of the bound's hard cases gives each pair the exhaustive
        # grid's first argmax, byte for byte: pruning drops no block that
        # could win or tie, and stage 2 no power split
        from gmud.precoding import _search

        rng = np.random.default_rng(52)
        for grid in (GridSpec(), GridSpec(4, 8, 5), GridSpec(3, 12, 2)):
            for n in (None, 4):
                pairs = hard_pairs(rng, 33, n)
                g, params, report = _search(*stacked(pairs), noise, grid)
                for j, (fb_k, fb_l) in enumerate(pairs):
                    want_g, want_params, want_rep = self.full_grid_search(fb_k, fb_l, noise, grid)
                    assert g[j].tobytes() == want_g.tobytes(), (grid, n, j)
                    assert params[j].tobytes() == np.array(dataclasses.astuple(want_params)).tobytes(), (grid, n, j)
                    want = [*want_rep.per_user, want_rep.min_sinr, want_rep.gamma_bar]
                    assert report[j].tobytes() == np.array(want).tobytes(), (grid, n, j)

    def test_pruning_keeps_ties_with_the_seed_peak(self, monkeypatch):
        # pruning is exact under any valid bound on the block minima.  Here the
        # bound is the minima themselves, but -inf on the last block, which so
        # is searched first.  Both reports have lambda1 = lambda2 to 5e-13, so
        # every block has the same x, and user k, the weaker, is the binding
        # one: the blocks of the last i_rk all tie that block's peak, with
        # bounds equal to it, and the first of them must win
        from gmud import precoding
        from gmud.decomposition import _steer

        def minima(c, s, v1, v2, w, fold):
            thetas = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
            beams_k, beams_l = (_steer(c[:, u, :, None], s[:, u, :, None], thetas, v1[:, u, None, None],
                                       v2[:, u, None, None]) for u in (0, 1))
            bound = precoding._beam_x(beams_k, beams_l).min(axis=(-2, -1))
            bound[:, -1, -1] = -np.inf
            return bound

        monkeypatch.setattr(precoding, "_x_bound", minima)
        rng = np.random.default_rng(53)
        for noise in (1e-3, 0.05, 1.0):
            v1_k, v1_l = (v / np.linalg.norm(v) for v in crandn(rng, (2, 2)))
            fb_k = GmudFeedback(np.zeros(6), v1_k, 0.2, 0.2 * (1.0 - 5e-13))
            fb_l = GmudFeedback(np.zeros(6), v1_l, 1.0, 1.0 - 5e-13)
            g, params, rep = optimize_gmud(fb_k, fb_l, noise)
            want_g, want_params, want_rep = self.full_grid_search(fb_k, fb_l, noise, GridSpec())
            assert params.r_l == fb_l.lambda2 and want_params.r_l == fb_l.lambda2
            assert g.tobytes() == want_g.tobytes() and params == want_params and rep == want_rep

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_nan_or_negative_bound_is_searched_first(self, monkeypatch, bad):
        # a NaN or negative bound on a block's smallest x scores as x = 0, the largest min-SINR, so that
        # block is still searched first (the seed) and never pruned.  Here the last block (r = lambda1 for
        # both users, where c = 1) gets it and every other block its true minimum
        from gmud import precoding
        from gmud.decomposition import _steer

        def minima(c, s, v1, v2, w, fold):
            thetas = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
            beams_k, beams_l = (_steer(c[:, u, :, None], s[:, u, :, None], thetas, v1[:, u, None, None],
                                       v2[:, u, None, None]) for u in (0, 1))
            bound = precoding._beam_x(beams_k, beams_l).min(axis=(-2, -1))
            bound[:, -1, -1] = bad
            return bound

        steered = []

        def spy(w1, *args):
            steered.append(w1)
            return _steer(w1, *args)

        monkeypatch.setattr(precoding, "_x_bound", minima)
        monkeypatch.setattr(precoding, "_steer", spy)
        rng = np.random.default_rng(54)
        for noise in (1e-3, 0.05, 1.0):
            fb_k, fb_l = random_reports(rng)
            steered.clear()
            g, params, rep = optimize_gmud(fb_k, fb_l, noise)
            assert (steered[0] == 1.0).all()  # the seed's beams have c = 1 for both users
            want_g, want_params, want_rep = self.full_grid_search(fb_k, fb_l, noise, GridSpec())
            assert g.tobytes() == want_g.tobytes() and params == want_params and rep == want_rep

    def test_bound_leaves_few_survivors_at_high_snr(self, monkeypatch):
        # the grid-exact x bound, scored at the SINR crossing, leaves next to no block
        # beside the seed to search at 30 dB (a continuous-theta_k bound leaves ~4.5 per pair)
        from gmud import decode, encode, precoding
        from gmud.decomposition import _steer

        steered = []

        def spy(w1, *args):
            steered.append(len(w1))
            return _steer(w1, *args)

        monkeypatch.setattr(precoding, "_steer", spy)
        rng = np.random.default_rng(56)
        for n in (None, 4):
            pairs = [[GmudFeedback.from_svd(s) if n is None else decode(encode(s, "gmud", n), "gmud", n)
                      for s in map(svd2x2, gen_channels(rng))] for _ in range(200)]
            steered.clear()
            precoding._search(*stacked(pairs), 1e-3, GridSpec())
            assert steered[0] == len(pairs)  # the seeds
            assert sum(steered[1:]) <= 0.1 * len(pairs), (n, steered)

    def test_bad_reports_rejected(self):
        # lambda1**2 overflows from ~1.34e154 up and the SINRs would come out
        # NaN (inf/inf); a NaN lambda1 gave NaN beams; both now raise
        rng = np.random.default_rng(14)
        h_k, h_l = crandn(rng, (2, 2, 2))
        fb_l = GmudFeedback.from_svd(svd2x2(h_l))
        huge = GmudFeedback.from_svd(svd2x2(1e155 * h_k))
        nan = GmudFeedback(np.zeros(6), np.array([0.6, 0.8j]), np.nan, 0.5)
        # an np.float64 lambda1 was squared as a numpy scalar, whose overflow warned
        huge64 = dataclasses.replace(huge, lambda1=np.float64(huge.lambda1))
        for fb, message in ((huge, r"lambda1\*\*2 overflows"), (huge64, r"lambda1\*\*2 overflows"),
                            (nan, "lambda1 must be finite")):
            params = GmudBeamParams(fb.lambda1, 0.0, fb_l.lambda1, 0.0, alpha=np.sqrt(0.5), beta=np.sqrt(0.5))
            for k, l in ((fb, fb_l), (fb_l, fb)):
                with pytest.raises(DomainError, match=message):
                    optimize_gmud(k, l, 0.1, GridSpec(2, 3, 2))
            with pytest.raises(DomainError, match=message):
                gmud_min_sinr(params, fb, fb_l, 0.1)
        # per pair, each user's report (lambdas, then v1) is read, user k first, before either lambda1**2 check
        skewed = GmudFeedback(np.zeros(6), np.array([1.0, 1.0], dtype=complex), 1.0, 0.5)
        not_unit = "v1 must be unit norm, got ||v1|| = 1.41421356237"
        for k, l, message in ((skewed, huge, not_unit), (huge, skewed, not_unit),
                              (nan, skewed, "lambda1 must be finite"), (skewed, nan, not_unit)):
            with pytest.raises(DomainError) as info:
                optimize_gmud(k, l, 0.1, GridSpec(2, 3, 2))
            assert str(info.value) == message
        # the last r whose square is finite still gives a finite report
        edge = GmudFeedback.from_svd(svd2x2(1e153 * h_k))
        _, _, rep = optimize_gmud(edge, fb_l, 0.1, GridSpec(2, 3, 2))
        assert np.isfinite(rep.min_sinr)

    def test_chunk_equals_per_pair_search(self):
        # the kernel over a chunk of pairs gives each pair the bytes of its own search
        from gmud import decode, encode
        from gmud.precoding import _search

        rng = np.random.default_rng(41)
        for grid in (GridSpec(4, 8, 5), GridSpec(1, 1, 1)):
            for noise in (0.0, 1e-3, 0.1, 1.0):
                for n in (None, 1, 2, 4):
                    pairs = []
                    for p in range(9):
                        channels = crandn(rng, (2, 2, 2))
                        if p % 3 == 1:  # lambda1 = lambda2
                            channels[p % 2] = rng.uniform(0.1, 3.0) * np.linalg.qr(crandn(rng, (2, 2)))[0]
                        svds = [svd2x2(h) for h in channels]
                        pairs.append([GmudFeedback.from_svd(s) if n is None else decode(encode(s, "gmud", n), "gmud", n)
                                      for s in svds])
                    g, params, report = _search(*(np.array([[getattr(fb, f) for fb in pair] for pair in pairs])
                                                  for f in ("lambda1", "lambda2", "v1")), noise, grid)
                    for j, (fb_k, fb_l) in enumerate(pairs):
                        want_g, want_params, want_rep = optimize_gmud(fb_k, fb_l, noise, grid)
                        assert g[j].tobytes() == want_g.tobytes(), (grid, noise, n, j)
                        assert params[j].tobytes() == np.array(dataclasses.astuple(want_params)).tobytes()
                        want = [*want_rep.per_user, want_rep.min_sinr, want_rep.gamma_bar]
                        assert report[j].tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("noise", [10**400, 1j, np.complex128(0.1), np.array([0.1, 0.2]), "0.1", None, b"1",
                                       Decimal("NaN")])
    def test_non_real_noise_named(self, noise):
        # a noise_var that is not a real scalar float64 holds ended in a bare OverflowError, TypeError,
        # decimal.InvalidOperation or numpy's ambiguous-truth ValueError, and a numpy complex was read as its
        # real part with a ComplexWarning
        rng = np.random.default_rng(13)
        fb_k, fb_l = random_reports(rng)
        params = GmudBeamParams(fb_k.lambda1, 0.0, fb_l.lambda1, 0.0, alpha=np.sqrt(0.5), beta=np.sqrt(0.5))
        calls = (lambda: optimize_gmud(fb_k, fb_l, noise, GridSpec(1, 1, 1)),
                 lambda: gmud_min_sinr(params, fb_k, fb_l, noise),
                 lambda: antenna_selection(list(crandn(rng, (2, 2, 2))), noise),
                 lambda: reg_inv(np.eye(2), noise))
        for call in calls:
            with pytest.raises(ValueError, match="noise_var must be a real scalar that float64 holds, got"):
                call()

    def test_real_noise_of_any_type_keeps_its_bytes(self):
        # every noise_var accepted before is read as its float64 value, as before
        from fractions import Fraction

        rng = np.random.default_rng(16)
        fb_k, fb_l = random_reports(rng)
        h = crandn(rng, (2, 2))
        grid = GridSpec(4, 8, 5)
        accepted = ((1, 1.0), (True, 1.0), (np.True_, 1.0), (np.int64(2), 2.0), (np.float32(0.5), 0.5),
                    (np.longdouble(0.1), 0.1), (np.array(0.05), 0.05), (Fraction(1, 20), 0.05), (Decimal("0.05"), 0.05))
        for noise, value in accepted:
            assert reg_inv(h, noise).tobytes() == reg_inv(h, value).tobytes(), noise
            got, want = optimize_gmud(fb_k, fb_l, noise, grid), optimize_gmud(fb_k, fb_l, value, grid)
            assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:], noise
        # an int below -float64's range is negative, as before, not out of range
        with pytest.raises(ValueError, match="noise_var must be nonnegative"):
            reg_inv(h, -10**400)

    @pytest.mark.parametrize("noise", [-1.0, np.nan])
    def test_bad_noise_rejected(self, noise):
        rng = np.random.default_rng(13)
        fb_k, fb_l = random_reports(rng)
        params = GmudBeamParams(fb_k.lambda1, 0.0, fb_l.lambda1, 0.0, alpha=np.sqrt(0.5), beta=np.sqrt(0.5))
        with pytest.raises(ValueError, match="noise_var must be nonnegative"):
            optimize_gmud(fb_k, fb_l, noise, GridSpec(1, 1, 1))
        with pytest.raises(ValueError, match="noise_var must be nonnegative"):
            gmud_min_sinr(params, fb_k, fb_l, noise)
        with pytest.raises(ValueError, match="noise_var must be nonnegative"):
            antenna_selection(list(crandn(rng, (2, 2, 2))), noise)
