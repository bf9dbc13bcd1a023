import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmud import (
    BerCurve,
    DomainError,
    GmudFeedback,
    GridSpec,
    SimConfig,
    SingularMatrixError,
    crandn,
    demodulate,
    gen_channels,
    modulate,
    receive_detect,
    reg_inv,
    run_ber,
    svd2x2,
    transmit,
)
from gmud.feedback import SCHEMES
from gmud.simulation import _LINKS, _rotation_projection


def qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _closed_form(bits, modulation):
    """The Gray maps of ``modulate`` written out on float bits: the oracle of its symbol tables."""
    bits = np.asarray(bits, dtype=np.float64)
    if modulation == "qpsk":
        b1, b0 = bits[..., 0::2], bits[..., 1::2]
        return ((1.0 - 2.0 * b1) + 1j * (1.0 - 2.0 * b0)) / np.sqrt(2.0)
    a, b = bits[..., 0::4], bits[..., 1::4]
    c, d = bits[..., 2::4], bits[..., 3::4]
    re = (2.0 * a - 1.0) * (3.0 - 2.0 * b)
    im = (2.0 * c - 1.0) * (3.0 - 2.0 * d)
    return (re + 1j * im) / np.sqrt(10.0)


class TestModulation:
    def test_qpsk_map(self):
        s = modulate([0, 0, 0, 1, 1, 0, 1, 1], "qpsk")
        root_half = 1 / np.sqrt(2)
        assert_allclose(
            s,
            [
                root_half * (1 + 1j),
                root_half * (1 - 1j),
                root_half * (-1 + 1j),
                root_half * (-1 - 1j),
            ],
        )

    def test_16qam_unit_energy(self):
        bits = np.array([[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)]).ravel()
        s = modulate(bits, "16qam")
        assert np.mean(np.abs(s) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_16qam_gray_axis(self):
        # per-axis code {00:-3, 01:-1, 11:+1, 10:+3}
        levels = {
            (0, 0): -3,
            (0, 1): -1,
            (1, 1): +1,
            (1, 0): +3,
        }
        for (a, b), lvl in levels.items():
            s = modulate([a, b, 0, 0], "16qam")
            assert s[0].real == pytest.approx(lvl / np.sqrt(10), rel=1e-12)

    def test_round_trip_all_symbols(self):
        for mod, count in (("qpsk", 2), ("16qam", 4)):
            bits = np.array(
                [[b >> i & 1 for i in reversed(range(count))] for b in range(2**count)]
            ).ravel()
            assert np.array_equal(demodulate(modulate(bits, mod), mod), bits)

    @pytest.mark.parametrize("mod", ["qpsk", "16qam"])
    def test_rows_equal_per_row_calls(self, mod):
        bits = np.random.default_rng(9).integers(0, 2, size=(2, 400), dtype=np.uint8)
        symbols = modulate(bits, mod)
        assert np.array_equal(symbols, np.stack([modulate(row, mod) for row in bits]))
        z = symbols * 1.7 + crandn(np.random.default_rng(10), symbols.shape)
        assert np.array_equal(demodulate(z, mod), np.stack([demodulate(row, mod) for row in z]))
        assert np.array_equal(demodulate(symbols, mod), bits)

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            modulate([0, 1, 0], "qpsk")
        with pytest.raises(ValueError):
            modulate([0, 1, 0], "16qam")
        with pytest.raises(ValueError):
            modulate([0, 0], "8psk")
        with pytest.raises(ValueError, match="unknown modulation '8psk'"):
            demodulate([1.0], "8psk")

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool, np.float64])
    @pytest.mark.parametrize("mod", ["qpsk", "16qam"])
    def test_table_equals_closed_form(self, mod, dtype):
        bps = {"qpsk": 2, "16qam": 4}[mod]
        every = np.array([[b >> i & 1 for i in reversed(range(bps))] for b in range(2**bps)]).ravel()
        rows = np.random.default_rng(bps).integers(0, 2, size=(3, 2, 40 * bps)).astype(dtype)
        for bits in (every.astype(dtype), rows, rows[..., ::-1], rows.transpose(1, 0, 2)):  # and two strided views
            got = modulate(bits, mod)
            assert got.dtype == np.complex128 and got.tobytes() == _closed_form(bits, mod).tobytes()
        empty = modulate(np.zeros(0, dtype), mod)
        assert empty.shape == (0,) and empty.dtype == np.complex128

    def test_non_binary_bits_rejected(self):
        for bits in ([0, 2], [0.5, 1], [-1, 1], [np.nan, 1], [[1, 0], [1, 3]]):
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                modulate(bits, "qpsk")
        # the modulation, then the bit count, are checked first
        with pytest.raises(ValueError, match="unknown modulation"):
            modulate([0, 2], "8psk")
        with pytest.raises(ValueError, match="bit count must be a multiple of 4"):
            modulate([0, 2], "16qam")


class TestChannels:
    def test_deterministic(self):
        a = gen_channels(np.random.default_rng(42))
        b = gen_channels(np.random.default_rng(42))
        assert a.shape == (2, 2, 2)
        assert np.array_equal(a, b)

    def test_entry_power(self):
        rng = np.random.default_rng(0)
        acc = 0.0
        count = 12500  # 1e5 entries in total
        for _ in range(count):
            acc += sum(float(np.mean(np.abs(h) ** 2)) for h in gen_channels(rng)) / 2
        assert acc / count == pytest.approx(1.0, abs=0.01)

    def test_singular_value_trace_identity(self):
        rng = np.random.default_rng(1)
        acc, count = 0.0, 4000
        for _ in range(count):
            svd = svd2x2(gen_channels(rng)[0])
            acc += svd.lambda1**2 + svd.lambda2**2
        # E[l1^2 + l2^2] = E||H||_F^2 = 4, sd of the mean ~ 2/sqrt(n)
        assert acc / count == pytest.approx(4.0, abs=3 * 2 / np.sqrt(count))


class TestTransmit:
    def test_identity(self):
        x, gamma = transmit(np.eye(2), np.array([1.0, 0.0]))
        assert gamma == pytest.approx(1.0)
        assert_allclose(x, [1.0, 0.0])

    def test_scaling_cancels(self):
        x, gamma = transmit(np.eye(2) / 2, np.array([1.0, 0.0]))
        assert gamma == pytest.approx(0.25)
        assert_allclose(x, [1.0, 0.0])

    def test_unit_norm(self):
        rng = np.random.default_rng(2)
        g = crandn(rng, (2, 2))
        u = crandn(rng, (2, 30))
        x, gamma = transmit(g, u)
        assert_allclose(np.linalg.norm(x, axis=0), np.ones(30), atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            transmit(np.zeros((2, 2)), np.array([1.0, 0.0]))

    def test_reciprocal_equals_complex_division(self):
        # numpy divides by a real-valued complex through its reciprocal, so scaling
        # by 1/sqrt(gamma) gives the bytes of s / sqrt(gamma)
        rng = np.random.default_rng(3)
        g, u = crandn(rng, (40, 2, 2)), crandn(rng, (40, 2, 125))
        s = g @ u
        x, gamma = transmit(g, u)
        assert x.tobytes() == (s / np.sqrt(gamma)[..., None, :]).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_off_the_unit_scale(self):
        # outside [2**-960, 2**960] gamma is taken on G u scaled by a power of two: the bytes of the unit scale,
        # with gamma scaled back; 1e-200 gave x = 0 and gamma = 0, 1e200 x = 0, gamma = inf and a warning
        rng = np.random.default_rng(4)
        g, u = crandn(rng, (3, 2, 2)), crandn(rng, (3, 2, 5))
        x1, gamma1 = transmit(g, u)
        for k in (-495, -485, 485, 495):
            x, gamma = transmit(np.ldexp(1.0, k) * g, u)
            assert x.tobytes() == x1.tobytes() and gamma.tobytes() == np.ldexp(gamma1, 2 * k).tobytes(), k
        for scale in (1e-200, 2.0**-600):  # ||G u||**2 rounds to 0 here, but G u does not vanish
            x, gamma = transmit(scale * np.eye(2), np.ones((2, 3)))
            assert x.tobytes() == transmit(np.eye(2), np.ones((2, 3)))[0].tobytes() and not gamma.any()
        for scale in (1e200, 2.0**600):
            with pytest.raises(DomainError, match=r"^transmit: \|\|G u\|\|\*\*2 overflows float64$"):
                transmit(scale * np.eye(2), np.ones((2, 3)))

    def test_vanished_column_beside_a_tiny_one(self):
        g = np.outer([0.6, 0.8j], [1.0, 1.0])
        x, gamma = transmit(g, np.array([[1.0, 2.0**-500], [-1.0, 2.0**-500]]))
        assert gamma[0] == 0.0 and not np.any(x[:, 0])
        assert gamma[1] == 2.0**-998 and np.array_equal(x[:, 1], [0.6, 0.8j])

    @pytest.mark.parametrize("where", ["g", "u"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_non_finite_entries_rejected(self, where, bad):
        # NaN gave NaN silently, inf NaN with two warnings
        g, u = np.eye(2, dtype=complex), np.ones((2, 3), dtype=complex)
        (g if where == "g" else u)[0, 0] = bad
        with pytest.raises(ValueError, match="^transmit: G and u entries must be finite$"):
            transmit(g, u)


class TestReceiveDetect:
    @pytest.mark.parametrize("mod", ["qpsk", "16qam"])
    def test_zero_noise_zero_forcing(self, mod):
        # 16QAM decisions come out exact only with the right gain magnitude
        rng = np.random.default_rng(3)
        channels = gen_channels(rng)
        g = reg_inv(np.stack([h[0] for h in channels]), 0.0)
        bits = rng.integers(0, 2, size=(2, 40), dtype=np.uint8)
        x, gamma = transmit(g, modulate(bits, mod))
        w = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)  # both select receive row 0
        detected = receive_detect(channels, g, w, x, gamma, mod, np.zeros((2, 2, x.shape[1])))
        assert detected.dtype == np.uint8
        assert np.array_equal(detected, bits)

    def test_zero_noise_orthogonal_beams(self):
        h = np.diag([2.0, 1.0]).astype(complex)
        channels = np.stack((h, np.fliplr(np.diag([1.0, 2.0])).astype(complex)))
        g, combiners = (a[0] for a in _LINKS["gmud"].build(channels[None], 0.0, None, GridSpec()))
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=(2, 20), dtype=np.uint8)
        x, gamma = transmit(g, modulate(bits, "qpsk"))
        detected = receive_detect(channels, g, combiners, x, gamma, "qpsk", np.zeros((2, 2, 10)))
        assert np.array_equal(detected, bits)

    def test_gmud_combiner_sees_only_its_beam(self):
        # p1^H H is r times the conjugate of the transmitted beam up to a common
        # phase, so the row of R the receiver discards never reaches the statistic
        from gmud import beam_from_feedback
        from gmud.linalg import orthonormal_complement

        rng = np.random.default_rng(6)
        channels = [gen_channels(rng)[0] for _ in range(200)]
        channels.append(0.7 * svd2x2(channels[0]).u)  # equal singular values
        for channel in channels:
            svd = svd2x2(channel)
            h = svd.reconstruct()
            r = float(rng.uniform(svd.lambda2, svd.lambda1))
            theta = float(rng.uniform(0.0, 2 * np.pi))
            p1 = _rotation_projection(svd.u, svd.lambda1, svd.lambda2, r, theta)
            q1 = beam_from_feedback(svd.lambda1, svd.lambda2, svd.v[:, 0], r, theta)
            assert np.linalg.norm(p1) == pytest.approx(1.0, abs=1e-12)
            assert abs(p1.conj() @ h @ q1) == pytest.approx(r, rel=1e-10)
            assert abs(p1.conj() @ h @ orthonormal_complement(q1)) <= 1e-10 * svd.lambda1

    def test_inverse_combiners_select_rows(self):
        from gmud import antenna_selection, decode, encode

        channels = gen_channels(np.random.default_rng(7))
        estimates = [decode(encode(h, "reg-inv-sel", 2), "reg-inv-sel", 2).channel for h in channels]
        for scheme in ("reg-inv", "reg-inv-sel"):
            combiners = _LINKS[scheme].build(channels[None], 0.1, 2, GridSpec())[1][0]
            rows = tuple(int(np.flatnonzero(w)[0]) for w in combiners)
            expected = (0, 0) if scheme == "reg-inv" else antenna_selection(estimates, 0.1)[0]
            assert rows == expected
            assert np.array_equal(combiners, np.eye(2)[list(rows)])

    @pytest.mark.parametrize("mod", ["qpsk", "16qam"])
    def test_zero_gain_gives_nan_decisions(self, mod):
        # a zero column of G gave that user's statistic 0/0 or x/0 with a RuntimeWarning; it is NaN + NaN j, whose
        # decisions are all 0, and the other user, who divides by its own gain only, is untouched
        rng = np.random.default_rng(8)
        channels, g = gen_channels(rng), crandn(rng, (2, 2))
        dead = g.copy()
        dead[:, 1] = 0.0
        x, gamma = transmit(dead, modulate(rng.integers(0, 2, size=(2, 40), dtype=np.uint8), mod))
        w, noise = np.eye(2, dtype=complex), 0.1 * crandn(rng, (2, 2, x.shape[-1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            detected = receive_detect(channels, dead, w, x, gamma, mod, noise)
        assert np.array_equal(detected[1], demodulate(np.full(x.shape[-1], complex(np.nan, np.nan)), mod))
        assert not detected[1].any()
        assert np.array_equal(detected[0], receive_detect(channels, g, w, x, gamma, mod, noise)[0])

    def test_awgn_qpsk_matches_q_function(self):
        # unit scalar channel: BER = Q(sqrt(2 Eb/N0)) with Eb/N0 = 1/(2 sigma^2)
        rng = np.random.default_rng(5)
        sigma2 = 0.25
        n_bits = 200_000
        bits = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
        s = modulate(bits, "qpsk")
        y = s + crandn(rng, s.shape) * np.sqrt(sigma2)
        errors = int(np.count_nonzero(demodulate(y, "qpsk") != bits))
        p = errors / n_bits
        expected = qfunc(math.sqrt(2.0 * 1.0 / (2 * sigma2)))
        se = math.sqrt(expected * (1 - expected) / n_bits)
        assert abs(p - expected) <= 3 * se


class TestRunBer:
    def test_deterministic(self):
        cfg = SimConfig(
            scheme="reg-inv-sel", modulation="qpsk", snr_db=(5.0, 15.0),
            feedback=2, realizations=8, symbols=20, seed=7,
        )
        a, b = run_ber(cfg), run_ber(cfg)
        assert a.points == b.points

    def test_jobs_invariant(self):
        cfg = SimConfig(
            scheme="gmud", modulation="16qam", snr_db=(8.0, 20.0),
            feedback=4, realizations=4, symbols=10, seed=11,
        )
        assert run_ber(cfg, jobs=1).points == run_ber(cfg, jobs=2).points

    @pytest.mark.parametrize("jobs", [0, -3, True, 2.5, "2", None])
    def test_bad_jobs_refused(self, jobs):
        # 0, -3 and True ran serially, and 2.5 ended in TypeError from the process pool once there were 3 points
        cfg = SimConfig(scheme="reg-inv", snr_db=(0.0, 10.0, 20.0), realizations=1, symbols=1)
        with pytest.raises(ValueError, match="^jobs must be a positive integer, got "):
            run_ber(cfg, jobs=jobs)

    @pytest.mark.slow
    def test_gmud_high_snr_interference_free(self):
        cfg = SimConfig(
            scheme="gmud", modulation="qpsk", snr_db=(60.0,),
            feedback="perfect", realizations=50, symbols=50, seed=3,
        )
        assert run_ber(cfg).points[0].ber <= 1e-5

    @pytest.mark.slow
    def test_selection_quantized_floor_smoke(self):
        cfg = SimConfig(
            scheme="reg-inv-sel", modulation="16qam", snr_db=(30.0,),
            feedback=2, realizations=120, symbols=60, seed=5,
        )
        ber = run_ber(cfg).points[0].ber
        assert 0.02 <= ber <= 0.12  # coarse feedback leaves an interference plateau


class TestBerCurve:
    def test_feedback_bits(self):
        assert BerCurve("gmud", "qpsk", "perfect", ()).feedback_bits == "perfect"
        assert BerCurve("gmud", "qpsk", 4, ()).feedback_bits == 48


class TestSchemeTable:
    def test_one_link_builder_per_scheme(self):
        assert tuple(_LINKS) == SCHEMES


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(scheme="nope")
        with pytest.raises(ValueError):
            SimConfig(scheme="gmud", modulation="64qam")
        with pytest.raises(ValueError):
            SimConfig(scheme="gmud", snr_db=())
        with pytest.raises(ValueError):
            SimConfig(scheme="gmud", realizations=0)
        with pytest.raises(ValueError):
            SimConfig(scheme="gmud", feedback=0)
        with pytest.raises(ValueError):
            SimConfig(scheme="gmud", feedback="sometimes")
        for seed in (-1, 1.5, "7", None, np.int64(-3), np.float64(2.0), True):
            with pytest.raises(ValueError, match="seed"):
                SimConfig(scheme="gmud", seed=seed)
        for seed in (0, 2**32, 2**64 + 7, np.int64(5), np.uint64(2**64 - 1)):  # numpy seeds these too
            assert SimConfig(scheme="gmud", seed=seed).seed == seed
        for grid in ((4, 8, 5), None):  # run_ber failed mid-run with AttributeError
            with pytest.raises(ValueError, match="grid must be a GridSpec"):
                SimConfig(scheme="gmud", grid=grid)

    @pytest.mark.parametrize("scheme, wide_n", [("reg-inv", 255), ("reg-inv-sel", 511), ("gmud", 511)])
    def test_feedback_fields_fit_float64(self, scheme, wide_n):
        # gmud at N = 512 decoded NaN levels; wide_n, the limit of fields up to 1023 bits, is refused now too
        limit = {"reg-inv": 12, "reg-inv-sel": 25, "gmud": 25}[scheme]  # fields up to 50 bits
        for n in (limit + 1, wide_n):
            with pytest.raises(ValueError, match=f"^budget parameter N must be <= {limit} for {scheme}: "):
                SimConfig(scheme=scheme, feedback=n)
        config = SimConfig(scheme=scheme, snr_db=(10.0,), feedback=limit, realizations=3, symbols=4)
        assert run_ber(config).points[0].bits == 3 * 2 * 4 * 2

    @pytest.mark.parametrize("snr_db", [(-np.inf,), (np.nan,), (np.inf,), (0.0, np.inf), [np.float64(-np.inf)],
                                        (10**400,), (-(10**400),)])
    def test_non_finite_snr_refused(self, snr_db):
        # -inf gave gmud a BER from NaN decisions, NaN a noise_var error, +inf singular inverses, and an int
        # beyond float64 an OverflowError from math.isfinite
        with pytest.raises(ValueError, match="snr_db must be a sequence of finite reals"):
            SimConfig(scheme="gmud", snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", ["10", 10.0, ("10",), (True,), None, (1j,)])
    def test_snr_must_be_a_sequence_of_reals(self, snr_db):
        with pytest.raises(ValueError, match="snr_db must be a sequence of finite reals"):
            SimConfig(scheme="gmud", snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [(-5000.0,), (0.0, -3083.0), np.array([-5000.0])])
    def test_overflowing_noise_variance_refused(self, snr_db):
        # 10**(-snr_db/10) overflows: a float raised OverflowError in run_ber, a numpy scalar gave inf noise
        with pytest.raises(ValueError, match=r"snr_db -?\d.* overflows"):
            run_ber(SimConfig(scheme="reg-inv", snr_db=snr_db, realizations=1, symbols=1))
        assert SimConfig(scheme="reg-inv", snr_db=(-3082.0,)).snr_db == (-3082.0,)  # 10**308.2 is finite

    @pytest.mark.parametrize("snr_db", [np.float32(-400.0), np.float16(-400.0), np.uint16(30), np.uint8(200)])
    def test_snr_of_any_real_type_read_as_float64(self, snr_db):
        # the noise variance was computed in the SNR's own type: unsigned negation wrapped around and float16 and
        # float32 overflowed at 10**40, so all four were refused as "too low"
        config = SimConfig(scheme="reg-inv", snr_db=(snr_db,), realizations=2, symbols=2)
        assert run_ber(config).points == run_ber(dataclasses.replace(config, snr_db=(float(snr_db),))).points

    def test_float32_snr_gives_the_errors_of_its_float64_value(self):
        # a float32 SNR gave a float32 noise variance: 8,690 errors here against 8,666 for the same value as a float
        config = SimConfig(scheme="gmud", modulation="16qam", snr_db=(np.float32(7.3),), realizations=64, seed=5)
        point = run_ber(config).points[0]
        assert point == run_ber(dataclasses.replace(config, snr_db=(float(np.float32(7.3)),))).points[0]
        assert point.errors == 8666

    def test_overflowing_regularizer_refused_when_the_point_runs(self):
        # between about -3079.5 and -3082 dB the noise variance is finite but the inverse schemes'
        # regularizer 2*noise_var is not; it used to end in "matrix entries must be finite" from _mat_inv
        for scheme in ("reg-inv", "reg-inv-sel"):
            config = SimConfig(scheme=scheme, snr_db=(0.0, -3082.0), realizations=2, symbols=2)
            with pytest.raises(ValueError, match=f"^snr_db -3082.0 is too low for {scheme}: its regularizer "
                                                 r"2\*noise_var overflows$"):
                run_ber(config)
            assert run_ber(dataclasses.replace(config, snr_db=(-3079.0,))).points[0].bits == 16
        assert run_ber(SimConfig(scheme="gmud", snr_db=(-3082.0,), realizations=2, symbols=2)).points[0].bits == 16

    def test_colliding_reports_same_across_jobs(self):
        # at 160 dB two users' N = 1 reports can be parallel rows, which 2*noise_var = 2e-16 cannot separate in
        # H H^H + eps I; G comes from the SVD there (it raised SingularMatrixError), in any worker
        for scheme in ("reg-inv", "reg-inv-sel"):
            config = SimConfig(scheme=scheme, snr_db=(150.0, 160.0), feedback=1, realizations=64, symbols=4, seed=12345)
            curve = run_ber(config)
            assert run_ber(config, jobs=2).points == curve.points and [p.bits for p in curve.points] == [1024] * 2

    def test_colliding_reports_at_zero_noise_raise(self):
        # from about 3240 dB the noise variance is 0, and parallel reports have no regularized inverse
        for scheme in ("reg-inv", "reg-inv-sel"):
            config = SimConfig(scheme=scheme, snr_db=(3300.0,), feedback=1, realizations=32, symbols=4, seed=12345)
            with pytest.raises(SingularMatrixError, match=r"and the regularizer 2\*noise_var is 0$"):
                run_ber(config)

    def test_snr_sequences_accepted(self):
        for snr_db in ((0.0, 10.0), [5, 7.5], range(0, 30, 10), (np.float32(3.0), np.int64(4)), np.array([1.0, 2.0])):
            assert SimConfig(scheme="gmud", snr_db=snr_db).snr_db is snr_db

    @pytest.mark.parametrize("field", ["realizations", "symbols"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(3.0), "4"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match="realizations and symbols must be integers >= 1"):
            SimConfig(scheme="gmud", **{field: value})

    def test_feedback_integers(self):
        for feedback in (True, False, 2.0, np.float64(4.0)):
            with pytest.raises(ValueError, match="feedback"):
                SimConfig(scheme="gmud", feedback=feedback)
        # numpy integers are taken as seeds are, with the same results as Python ints
        native, numpy_n = (run_ber(SimConfig(scheme="reg-inv-sel", snr_db=(10.0,), feedback=n, realizations=3,
                                             symbols=4)) for n in (4, np.int64(4)))
        assert native.points == numpy_n.points

    def test_quantized_transmitter_only_sees_decoded_values(self):
        rng = np.random.default_rng(8)
        from gmud import decode, encode, optimize_gmud

        channels = gen_channels(rng)
        cfg = SimConfig(scheme="gmud", modulation="qpsk", snr_db=(10.0,), feedback=2)
        g = _LINKS["gmud"].build(channels[None], 0.1, 2, cfg.grid)[0][0]
        # the precoder is the search over the decoded reports, nothing else
        msgs = [decode(encode(svd2x2(h), "gmud", 2), "gmud", 2) for h in channels]
        g_decoded, params, _ = optimize_gmud(msgs[0], msgs[1], 0.1, cfg.grid)
        assert np.array_equal(g, g_decoded)
        # beams must be expressible from quantized reconstruction levels only
        for msg, r in zip(msgs, (params.r_k, params.r_l)):
            assert msg.lambda2 <= r <= msg.lambda1 + 1e-12


def _loop_error_counts(config, snr_idx):
    """The per-realization engine the chunked one replaced, written from the scalar API."""
    from gmud import antenna_selection, decode, encode, optimize_gmud

    n = None if config.feedback == "perfect" else config.feedback
    noise_var = 10.0 ** (-config.snr_db[snr_idx] / 10.0)
    bps = {"qpsk": 2, "16qam": 4}[config.modulation]
    counts = []
    for j in range(config.realizations):
        rng = np.random.default_rng([config.seed, snr_idx, j])
        channels = gen_channels(rng)
        if config.scheme == "reg-inv":
            rows = [h[0] if n is None else decode(encode(h, "reg-inv", n), "reg-inv", n).row for h in channels]
            g, combiners = reg_inv(np.stack(rows), noise_var), np.eye(2)[[0, 0]]
        elif config.scheme == "reg-inv-sel":
            est = [h if n is None else decode(encode(h, "reg-inv-sel", n), "reg-inv-sel", n).channel for h in channels]
            selection, g, _ = antenna_selection(est, noise_var)
            combiners = np.eye(2)[list(selection)]
        else:
            svds = [svd2x2(h) for h in channels]
            reports = [GmudFeedback.from_svd(s) if n is None else decode(encode(s, "gmud", n), "gmud", n) for s in svds]
            g, p, _ = optimize_gmud(reports[0], reports[1], noise_var, config.grid)
            steering = ((p.r_k, p.theta_k), (p.r_l, p.theta_l))
            combiners = np.stack([_rotation_projection(s.u, s.lambda1, s.lambda2, r, t)
                                  for s, (r, t) in zip(svds, steering)])
        payload = rng.integers(0, 2, size=(2, config.symbols * bps), dtype=np.uint8)
        x, gamma = transmit(g, modulate(payload, config.modulation))
        noise = crandn(rng, (2, 2, config.symbols)) * np.sqrt(noise_var)
        detected = receive_detect(channels, g, combiners.astype(complex), x, gamma, config.modulation, noise)
        counts.append(np.count_nonzero(detected != payload))
    return np.array(counts)


class TestChunkedEngine:
    """The realization-batched engine against the scalar API, call for call."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**96 + 5])
    def test_seed_states_equal_seed_sequence(self, seed):
        from gmud.simulation import _seed_states

        for snr_idx in range(7):
            want = [np.random.SeedSequence([seed, snr_idx, j]).generate_state(4, np.uint64) for j in range(401)]
            got = _seed_states(seed, snr_idx, 401)
            assert got.dtype == np.uint64 and np.array_equal(got, np.stack(want)), snr_idx

    @pytest.mark.parametrize("mod", ["qpsk", "16qam"])
    @pytest.mark.parametrize("symbols", [1, 2, 3, 125])
    def test_payload_words_equal_integers(self, symbols, mod):
        # the engine reads a realization's payload as the top bit of each byte of its raw
        # PCG64 words, between the channel and noise normals; this pins the numpy behaviour
        # it relies on (Lemire's integers on the bytes of half-word draws)
        bits = 2 * symbols * {"qpsk": 2, "16qam": 4}[mod]
        for seed_row in ([5, 0, 0], [5, 3, 17], [2**64 + 7, 6, 399], [0, 1, 2]):
            want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed_row)))
            pcg = np.random.PCG64(np.random.SeedSequence(seed_row))
            got = np.random.Generator(pcg)
            assert np.array_equal(want.standard_normal((2, 2, 2, 2)), got.standard_normal((2, 2, 2, 2)))
            payload = want.integers(0, 2, size=(2, bits // 2), dtype=np.uint8)
            words = pcg.random_raw(-(-bits // 8)).astype("<u8")
            assert np.array_equal((words.view(np.uint8)[:bits] >> 7).reshape(2, -1), payload), seed_row
            noise = (2, 2, 2, symbols)
            assert np.array_equal(want.standard_normal(noise), got.standard_normal(noise)), seed_row

    def test_error_counts_equal_per_realization_loop(self, monkeypatch):
        from gmud import simulation

        # link blocks of 40 and symbol chunks of 16: 31, 33 and 67 realizations end a symbol chunk inside a
        # block, and 67 also spans two blocks whose second starts mid-chunk
        for scheme, link in simulation._LINKS.items():
            monkeypatch.setitem(simulation._LINKS, scheme, link._replace(cap=40))
        monkeypatch.setattr(simulation, "_CHUNK", 16)
        sizes = (31, 33, 67)
        configs = [
            SimConfig(scheme=scheme, modulation=mod, snr_db=(0.0, 20.0), feedback=fb,
                      realizations=sizes[i % 3], symbols=20, seed=100 + i, grid=GridSpec(4, 8, 5))
            for i, (scheme, mod, fb) in enumerate(
                (s, m, f) for s in SCHEMES for m in ("qpsk", "16qam") for f in ("perfect", 1, 2, 4)
            )
        ]
        # seeds of two, three and four 32-bit words, and QPSK payloads of 125 32-bit words: an odd count, so a
        # generator reused across realizations would start the next payload on the leftover half word
        configs += [
            SimConfig(scheme=scheme, modulation=mod, snr_db=(0.0, 20.0), feedback=fb, realizations=size,
                      symbols=symbols, seed=seed, grid=GridSpec(4, 8, 5))
            for scheme, mod, fb, size, symbols, seed in (
                ("reg-inv", "qpsk", "perfect", 33, 125, 2**64 + 7), ("reg-inv-sel", "16qam", 2, 65, 20, 2**32),
                ("gmud", "qpsk", 4, 31, 125, 2**96 + 5), ("reg-inv-sel", "qpsk", "perfect", 64, 125, np.int64(9)),
            )
        ]
        for cfg in configs:
            for snr_idx in range(2):
                assert np.array_equal(simulation._error_counts(cfg, snr_idx), _loop_error_counts(cfg, snr_idx)), cfg

    @pytest.mark.parametrize("scheme, calls", [("reg-inv", 1), ("reg-inv-sel", 1), ("gmud", 4)])
    def test_one_link_call_per_block(self, monkeypatch, scheme, calls):
        # a 400-realization point builds its precoders in ceil(400 / cap) calls: one for the inverse schemes
        from gmud import simulation

        link = simulation._LINKS[scheme]
        sizes = []

        def build(channels, *args):
            sizes.append(len(channels))
            return link.build(channels, *args)

        monkeypatch.setitem(simulation._LINKS, scheme, link._replace(build=build))
        config = SimConfig(scheme=scheme, snr_db=(10.0,), feedback=4, realizations=400, symbols=2,
                           grid=GridSpec(4, 8, 5))
        simulation._error_counts(config, 0)
        assert len(sizes) == calls == -(-400 // link.cap) and sum(sizes) == 400

    @pytest.mark.parametrize("scheme, bound_mib", [("reg-inv", 3), ("reg-inv-sel", 3), ("gmud", 3)])
    def test_point_memory_is_bounded(self, scheme, bound_mib):
        # a CLI-size point (400 realizations of 125 symbols) holds one link block and one symbol chunk at a
        # time; gmud's search peaks at ~2.45 MiB at 10 and 60 dB alike (its bound leaves next to no block
        # beside the seed to search; it held ~14 MiB at 60 dB when its bound left ~11 per pair)
        import tracemalloc

        from gmud.simulation import _error_counts

        config = SimConfig(scheme=scheme, modulation="16qam", snr_db=(10.0, 60.0), feedback=4, realizations=400)
        for snr_idx in range(2):
            tracemalloc.start()
            try:
                _error_counts(config, snr_idx)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound_mib * 2**20, (snr_idx, peak / 2**20)

    def test_gmud_link_equals_single_realizations(self):
        # the stacked gmud builder on 33 realizations gives each one the bytes of
        # its own call, and of the scalar API: svd2x2, the report, optimize_gmud
        from gmud import decode, encode, optimize_gmud

        rng = np.random.default_rng(33)
        channels = crandn(rng, (33, 2, 2, 2))
        channels[7, 1] = 0.7 * np.eye(2)  # lambda1 = lambda2
        grid = GridSpec(4, 8, 5)
        for n in (None, 1, 4):
            g, combiners = _LINKS["gmud"].build(channels, 0.05, n, grid)
            for j, pair in enumerate(channels):
                g_j, combiners_j = _LINKS["gmud"].build(pair[None], 0.05, n, grid)
                assert g[j].tobytes() == g_j[0].tobytes() and combiners[j].tobytes() == combiners_j[0].tobytes(), (n, j)
                svds = [svd2x2(h) for h in pair]
                reports = [GmudFeedback.from_svd(s) if n is None else decode(encode(s, "gmud", n), "gmud", n)
                           for s in svds]
                want_g, p, _ = optimize_gmud(*reports, 0.05, grid)
                steering = ((p.r_k, p.theta_k), (p.r_l, p.theta_l))
                want = [_rotation_projection(s.u, s.lambda1, s.lambda2, r, t) for s, (r, t) in zip(svds, steering)]
                assert g[j].tobytes() == want_g.tobytes() and combiners[j].tobytes() == np.stack(want).tobytes(), (n, j)

    def test_stacked_kernels_equal_batch_of_one(self):
        from gmud import antenna_selection, mat_inv
        from gmud.feedback import _reports
        from gmud.linalg import _mat_inv, _svd2x2
        from gmud.precoding import _combos, _reg_inv, _select

        rng = np.random.default_rng(2024)
        draws = 3000
        channels = crandn(rng, (draws, 2, 2, 2))
        a = channels[:, 0] @ np.conj(np.swapaxes(channels[:, 0], 1, 2)) + 0.1 * np.eye(2)
        inv, singular = _mat_inv(a)
        assert not singular.any() and np.array_equal(inv, np.stack([mat_inv(m) for m in a]))
        rows = channels[:, :, 0]
        for noise in (0.0, 0.05):
            assert np.array_equal(_reg_inv(rows, noise), np.stack([reg_inv(h, noise) for h in rows]))
        combos = _combos((2, 2))
        pick, g, sinrs, gamma_bar = _select(channels[:, [0, 1], combos], 0.05)
        for k in range(draws):
            combo, g_k, report = antenna_selection(list(channels[k]), 0.05)
            assert tuple(combos[pick[k]]) == combo and np.array_equal(g[k], g_k)
            assert tuple(sinrs[k].tolist()) == report.per_user and gamma_bar[k] == report.gamma_bar
        # each scheme's stacked reports: the exact view under perfect CSI, else the decoded message's
        _, lam1, lam2, v = (x.reshape((draws, 2) + x.shape[1:]) for x in _svd2x2(channels.reshape(-1, 2, 2)))
        for scheme, source in (("reg-inv", channels), ("reg-inv-sel", channels), ("gmud", (lam1, lam2, v[..., 0]))):
            for n in (None, 1, 2, 4, 8):
                reports = _reports(source, scheme, n)
                for k in range(0, draws, 10):
                    for user in range(2):
                        got = [x[k, user] for x in reports] if scheme == "gmud" else [reports[k, user]]
                        want = _public_report(channels[k, user], scheme, n)
                        assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want]
        u = modulate(rng.integers(0, 2, size=(draws, 2, 40), dtype=np.uint8), "16qam")
        x, gamma = transmit(g, u)
        for k in range(draws):
            x_k, gamma_k = transmit(g[k], u[k])
            assert np.array_equal(x[k], x_k) and np.array_equal(gamma[k], gamma_k)


def _public_report(h, scheme, n):
    """What the transmitter uses of one user's channel h, through the public API: the exact view or the message."""
    from gmud import decode, encode

    if scheme == "gmud":
        msg = GmudFeedback.from_svd(svd2x2(h)) if n is None else decode(encode(h, scheme, n), scheme, n)
        return [msg.lambda1, msg.lambda2, msg.v1]
    if n is None:
        return [h[0] if scheme == "reg-inv" else h]
    msg = decode(encode(h, scheme, n), scheme, n)
    return [msg.row if scheme == "reg-inv" else msg.channel]


class TestZeroTransmitVector:
    """Coarse reports can give both users the same row, so G has rank one."""

    def test_null_space_symbols_send_nothing(self):
        g = np.outer([0.6, 0.8j], [1.0, 1.0])  # G u = 0 for u2 = -u1
        u = np.array([[1.0, 1.0, 1j], [-1.0, 1.0, -1j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, gamma = transmit(g, u)
            assert gamma[0] == 0.0 and gamma[2] == 0.0 and gamma[1] > 0.0
            assert not np.any(x[:, [0, 2]]) and np.linalg.norm(x[:, 1]) == pytest.approx(1.0)
            channels = crandn(np.random.default_rng(12), (2, 2, 2))
            noise = crandn(np.random.default_rng(13), (2, 2, 3))
            detected = receive_detect(channels, g, np.eye(2)[[0, 0]], x, gamma, "16qam", noise)
        # z = 0 slices to the level +1 on each axis: bits 1, 1 per axis
        assert np.array_equal(detected[:, :4], np.ones((2, 4))) and np.array_equal(detected[:, 8:], np.ones((2, 4)))

    def test_coarse_selection_run_completes(self):
        cfg = SimConfig(scheme="reg-inv-sel", modulation="16qam", snr_db=(0.0,), feedback=1, seed=12345)
        point = run_ber(cfg).points[0]
        assert point.bits == 400 * 2 * 125 * 4 and 0.0 < point.ber < 0.5
