import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmud import (
    BerCurve,
    GmudFeedback,
    ReceiverInfo,
    SimConfig,
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
from gmud.simulation import _LINKS, _build_link, _rotation_projection


def qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


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

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            modulate([0, 1, 0], "qpsk")
        with pytest.raises(ValueError):
            modulate([0, 1, 0], "16qam")
        with pytest.raises(ValueError):
            modulate([0, 0], "8psk")


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


class TestReceiveDetect:
    def test_zero_noise_zero_forcing(self):
        rng = np.random.default_rng(3)
        channels = gen_channels(rng)
        rows = [h[0] for h in channels]
        g = reg_inv(np.stack(rows), 0.0)
        bits = rng.integers(0, 2, size=(2, 40), dtype=np.uint8)
        u = np.stack([modulate(bits[k], "qpsk") for k in range(2)])
        x, gamma = transmit(g, u)
        w = np.array([1.0, 0.0], dtype=complex)  # selects receive row 0
        gains = tuple(complex(rows[k] @ g[:, k]) for k in range(2))
        info = ReceiverInfo("qpsk", (w, w), gains)
        detected = receive_detect(channels, x, gamma, info, 0.0, rng)
        assert detected.dtype == np.uint8
        assert np.array_equal(detected, bits)

    def test_zero_noise_orthogonal_beams(self):
        h = np.diag([2.0, 1.0]).astype(complex)
        channels = np.stack((h, np.fliplr(np.diag([1.0, 2.0])).astype(complex)))
        cfg = SimConfig(scheme="gmud", modulation="qpsk", snr_db=(60.0,), feedback="perfect")
        g, info = _build_link(cfg, channels, 0.0)
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=(2, 20), dtype=np.uint8)
        u = np.stack([modulate(bits[k], "qpsk") for k in range(2)])
        x, gamma = transmit(g, u)
        detected = receive_detect(channels, x, gamma, info, 0.0, rng)
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
            p1 = _rotation_projection(svd, r, theta)
            q1 = beam_from_feedback(svd.lambda1, svd.lambda2, svd.v[:, 0], r, theta)
            assert np.linalg.norm(p1) == pytest.approx(1.0, abs=1e-12)
            assert abs(p1.conj() @ h @ q1) == pytest.approx(r, rel=1e-10)
            assert abs(p1.conj() @ h @ orthonormal_complement(q1)) <= 1e-10 * svd.lambda1

    def test_inverse_combiners_select_rows(self):
        from gmud import antenna_selection, decode, encode

        channels = gen_channels(np.random.default_rng(7))
        estimates = [decode(encode(h, "reg-inv-sel", 2), "reg-inv-sel", 2).channel for h in channels]
        for scheme in ("reg-inv", "reg-inv-sel"):
            g, info = _build_link(SimConfig(scheme=scheme, feedback=2), channels, 0.1)
            rows = tuple(int(np.flatnonzero(w)[0]) for w in info.combiners)
            expected = (0, 0) if scheme == "reg-inv" else antenna_selection(estimates, 0.1)[0]
            assert rows == expected
            for k, h in enumerate(channels):
                assert np.array_equal(info.combiners[k], np.eye(2)[rows[k]])
                assert info.gains[k] == h[rows[k]] @ g[:, k]

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

    def test_quantized_transmitter_only_sees_decoded_values(self):
        rng = np.random.default_rng(8)
        from gmud import decode, encode, optimize_gmud

        channels = gen_channels(rng)
        cfg = SimConfig(scheme="gmud", modulation="qpsk", snr_db=(10.0,), feedback=2)
        g, info = _build_link(cfg, channels, 0.1)
        # the precoder is the search over the decoded reports, nothing else
        msgs = [decode(encode(svd2x2(h), "gmud", 2), "gmud", 2) for h in channels]
        g_decoded, params, _ = optimize_gmud(msgs[0], msgs[1], 0.1, cfg.grid)
        assert np.array_equal(g, g_decoded)
        # beams must be expressible from quantized reconstruction levels only
        for msg, r in zip(msgs, (params.r_k, params.r_l)):
            assert msg.lambda2 <= r <= msg.lambda1 + 1e-12
