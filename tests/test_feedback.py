import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from gmud import (
    DomainError,
    FormatError,
    GmudFeedback,
    RegInvFixedFeedback,
    RegInvSelectionFeedback,
    decode,
    encode,
    quantize_scalar,
    scheme_layout,
    svd2x2,
)
from gmud.feedback import SCHEMES

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_feedback.json")


def crand(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


class TestQuantizeScalar:
    def test_midrange(self):
        assert quantize_scalar(0.0, -1.0, 1.0, 4) == (8, 0.0625)

    def test_lower_clamp(self):
        assert quantize_scalar(-1.0, -1.0, 1.0, 4) == (0, -0.9375)
        assert quantize_scalar(-5.0, -1.0, 1.0, 4) == (0, -0.9375)

    def test_upper_clamp(self):
        idx, recon = quantize_scalar(5.0, 0.0, 4.0, 8)
        assert idx == 255
        assert recon == pytest.approx(3.9921875, rel=1e-15)
        # clamped before the division, which would overflow at this size
        assert quantize_scalar(1e305, 0.0, 4.0, 16)[0] == 65535
        assert encode((1e307, 0.5, [1, 0]), "gmud", 4)[32:40] == "11111111"

    def test_bad_args(self):
        with pytest.raises(ValueError):
            quantize_scalar(0.0, -1.0, 1.0, 0)
        with pytest.raises(ValueError):
            quantize_scalar(0.0, 1.0, -1.0, 4)

    @given(
        st.floats(-1.0, 1.0, allow_nan=False),
        st.integers(1, 16),
    )
    def test_error_bound_and_idempotence(self, v, bits):
        idx, recon = quantize_scalar(v, -1.0, 1.0, bits)
        step = 2.0 / (1 << bits)
        assert 0 <= idx < (1 << bits)
        assert abs(v - recon) <= step / 2 + 1e-15
        assert quantize_scalar(recon, -1.0, 1.0, bits) == (idx, recon)


class TestBudget:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
    def test_layout_totals_12n(self, scheme, n):
        layout = scheme_layout(scheme, n)
        assert sum(bits for _, bits, _, _ in layout) == 12 * n

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_encoded_lengths(self, n):
        rng = np.random.default_rng(0)
        h = crand(rng, (2, 2))
        svd = svd2x2(h)
        assert len(encode(h, "reg-inv-sel", n)) == 12 * n
        assert len(encode(h, "reg-inv", n)) == 12 * n
        assert len(encode(svd, "gmud", n)) == 12 * n

    def test_gmud_48_bits(self):
        # n = 4: four components at 8 bits plus two singular values at 8 bits
        layout = scheme_layout("gmud", 4)
        assert [bits for _, bits, _, _ in layout] == [8] * 6
        assert sum(bits for _, bits, _, _ in layout) == 48

    def test_selection_24_bits(self):
        layout = scheme_layout("reg-inv-sel", 2)
        assert [bits for _, bits, _, _ in layout] == [2] * 8 + [4, 4]

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            scheme_layout("bogus", 4)


class TestCodec:
    def test_round_trip_reconstruction_exact(self):
        rng = np.random.default_rng(1)
        h = crand(rng, (2, 2))
        for scheme, source in (
            ("reg-inv-sel", h),
            ("reg-inv", h),
            ("gmud", svd2x2(h)),
        ):
            bits = encode(source, scheme, 4)
            msg = decode(bits, scheme, 4)
            assert encode(msg, scheme, 4) == bits

    def test_decode_encode_decode_idempotent(self):
        rng = np.random.default_rng(2)
        for scheme in SCHEMES:
            for n in (2, 4):
                bits = "".join(rng.choice(["0", "1"], size=12 * n))
                m1 = decode(bits, scheme, n)
                m2 = decode(encode(m1, scheme, n), scheme, n)
                assert np.array_equal(m1.raw, m2.raw)

    def test_all_zero_gmud_message(self):
        # 48-bit message: components at 8 bits on [-1, 1), magnitudes at 8 bits on [0, 4)
        msg = decode("0" * 48, "gmud", 4)
        assert_allclose(msg.raw[:4], [-1.0 + 0.5 * (2.0 / 256)] * 4)  # -0.99609375
        assert msg.lambda1 == msg.lambda2 == pytest.approx(0.0078125, rel=1e-15)
        assert np.linalg.norm(msg.v1) == pytest.approx(1.0, abs=1e-12)

    def test_decoded_vectors_unit_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            h = crand(rng, (2, 2))
            sel = decode(encode(h, "reg-inv-sel", 2), "reg-inv-sel", 2)
            for row in sel.unit_rows:
                assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)
            fixed = decode(encode(h, "reg-inv", 2), "reg-inv", 2)
            assert np.linalg.norm(fixed.unit_row) == pytest.approx(1.0, abs=1e-12)
            gm = decode(encode(svd2x2(h), "gmud", 2), "gmud", 2)
            assert np.linalg.norm(gm.v1) == pytest.approx(1.0, abs=1e-12)
            assert gm.lambda1 >= gm.lambda2 >= 0.0

    def test_singular_values_sorted_after_decode(self):
        # wire order lambda1 then lambda2; encode a swapped pair by hand
        layout = scheme_layout("gmud", 2)
        bits = ""
        for value, (_, width, lo, hi) in zip([0.5, 0.5, 0.1, 0.1, 0.5, 3.5], layout):
            idx, _ = quantize_scalar(value, lo, hi, width)
            bits += format(idx, f"0{width}b")
        msg = decode(bits, "gmud", 2)
        assert msg.lambda1 > msg.lambda2

    def test_principal_vector_fidelity_n8(self):
        v1 = np.array([1.0, 0.0], dtype=complex)
        bits = encode((2.0, 1.0, v1), "gmud", 8)
        msg = decode(bits, "gmud", 8)
        assert abs(np.vdot(msg.v1, v1)) >= 0.999

    def test_high_rate_beam_consistency(self):
        # at n = 16 the decoded report steers within 1e-3 radians of the exact one
        from gmud import beam_from_feedback

        rng = np.random.default_rng(4)
        for _ in range(20):
            svd = svd2x2(crand(rng, (2, 2)))
            msg = decode(encode(svd, "gmud", 16), "gmud", 16)
            r = 0.5 * (svd.lambda1 + svd.lambda2)
            r_hat = min(max(r, msg.lambda2), msg.lambda1)
            exact = beam_from_feedback(svd.lambda1, svd.lambda2, svd.v[:, 0], r, 1.0)
            approx = beam_from_feedback(msg.lambda1, msg.lambda2, msg.v1, r_hat, 1.0)
            angle = np.arccos(min(abs(np.vdot(exact, approx)), 1.0))
            assert angle <= 1e-3

    def test_wrong_length(self):
        with pytest.raises(FormatError, match="bits"):
            decode("0" * 47, "gmud", 4)

    def test_bad_alphabet(self):
        with pytest.raises(FormatError):
            decode("2" * 48, "gmud", 4)

    def test_gmud_channel_source_is_its_svd(self):
        rng = np.random.default_rng(6)
        h = crand(rng, (2, 2))
        assert encode(h, "gmud", 4) == encode(svd2x2(h), "gmud", 4)

    def test_exact_report_from_svd(self):
        rng = np.random.default_rng(7)
        svd = svd2x2(crand(rng, (2, 2)))
        msg = GmudFeedback.from_svd(svd)
        assert np.array_equal(msg.v1, svd.v[:, 0])
        assert (msg.lambda1, msg.lambda2) == (svd.lambda1, svd.lambda2)
        assert encode(msg, "gmud", 4) == encode(svd, "gmud", 4)

    @pytest.mark.parametrize(
        "scheme, source, field",
        [
            ("reg-inv-sel", np.array([[1.0, 0.5], [np.nan, 1.0]], dtype=complex), "row1_re0"),
            ("reg-inv", np.array([[0.5, np.inf], [1.0, 1.0]], dtype=complex), "row_re1"),
            ("gmud", (np.nan, 0.5, np.array([1.0, 0.0], dtype=complex)), "lambda1"),
        ],
    )
    def test_non_finite_field_named(self, scheme, source, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
            with pytest.raises(DomainError, match=f"^{field} is not finite$"):
                encode(source, scheme, 4)

    @pytest.mark.parametrize(
        "scheme, source",
        [("reg-inv", np.array([1.0, 0.5j])), ("gmud", (2.0, 1.0, np.array([1.0, 0.0, 0.0])))],
    )
    def test_source_must_fill_the_fields(self, scheme, source):
        with pytest.raises(ValueError, match="wire fields"):
            encode(source, scheme, 4)

    def test_encoding_pure_function(self):
        rng = np.random.default_rng(5)
        h = crand(rng, (2, 2))
        assert encode(h, "reg-inv-sel", 4) == encode(h.copy(), "reg-inv-sel", 4)


class TestGoldenVectors:
    def test_stable_bitstrings(self):
        with open(GOLDEN_PATH) as fh:
            cases = json.load(fh)
        assert cases, "golden file must not be empty"
        for case in cases:
            scheme, n = case["scheme"], case["n"]
            if scheme == "gmud":
                source = (
                    case["lambda1"],
                    case["lambda2"],
                    np.array([complex(re, im) for re, im in case["v1"]]),
                )
            else:
                source = np.array(
                    [[complex(re, im) for re, im in row] for row in case["matrix"]]
                )
            assert encode(source, scheme, n) == case["bits"], f"{scheme} n={n}"
