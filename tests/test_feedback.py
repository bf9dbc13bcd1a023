import json
import math
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
    crandn,
    decode,
    encode,
    scheme_layout,
    svd2x2,
)
from gmud.feedback import MAGNITUDE_RANGE, SCHEMES, VECTOR_RANGE, _MAX_WIDTH, _cells, _reconstruct

# the largest N whose widest field holds at most 50 bits: 4N for reg-inv's norm, 2N for the others
N_LIMITS = {"reg-inv": 12, "reg-inv-sel": 25, "gmud": 25}

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_feedback.json")


def _quantize(v, lo, hi, bits):
    """(cell, level) of one value through the codec's quantizer, as a one-element array."""
    cell = _cells(np.array([v], dtype=np.float64), lo, hi, bits)
    return int(cell[0]), float(_reconstruct(cell, lo, hi, bits)[0])


class TestQuantizeScalar:
    """The wire's uniform midrise quantizer, _cells and _reconstruct, on VECTOR_RANGE and MAGNITUDE_RANGE."""

    def test_midrange(self):
        # v1 = e1 leaves 0 in three components: cell 8 of 16 at N = 2, whose level is 0.0625
        bits = encode((2.0, 1.0, [1, 0]), "gmud", 2)
        assert bits == "1111" + "1000" * 4 + "0100"
        assert decode(bits, "gmud", 2).raw.tolist() == [0.9375, 0.0625, 0.0625, 0.0625, 2.125, 1.125]
        assert _quantize(0.0, -1.0, 1.0, 4) == (8, 0.0625)

    def test_lower_clamp(self):
        assert encode((2.0, 1.0, [-1, 0]), "gmud", 2)[:4] == "0000"
        assert _quantize(-1.0, -1.0, 1.0, 4) == (0, -0.9375)
        assert _quantize(-5.0, -1.0, 1.0, 4) == (0, -0.9375)

    def test_upper_clamp(self):
        # a norm or lambda above 4 takes the top cell, clamped before the division, which would overflow from 1e305
        for big in (5.0, 1e305, 1.7e308):
            bits = encode((big, 0.5, [1, 0]), "gmud", 4)
            assert bits[32:40] == "11111111" and decode(bits, "gmud", 4).lambda1 == 3.9921875
            assert encode((big, 0.5, [1, 0]), "gmud", 8)[64:80] == "1" * 16
        assert encode(np.diag([5.0, 1.0]), "reg-inv", 4)[32:] == "1" * 16
        assert _quantize(5.0, 0.0, 4.0, 8) == (255, 3.9921875)

    def test_widths_past_float64_are_refused(self):
        # past 50 bits lo + (cell + 0.5) * step is not exact on the wire ranges: 53 bits took a level rescue
        with pytest.raises(ValueError, match="^budget parameter N must be <= 25 for gmud: its 2N-bit field may be at "
                                             "most 50 bits wide$"):
            scheme_layout("gmud", 26)
        for lo, hi in (VECTOR_RANGE, MAGNITUDE_RANGE):  # the widest field's odd top cell and even cell 2**49
            for v, cell in ((hi, 2**50 - 1), (lo + (hi - lo) / 2, 2**49)):
                level = lo + (cell + 0.5) * (hi - lo) / 2**50
                assert _quantize(v, lo, hi, 50) == (cell, level) and _quantize(level, lo, hi, 50) == (cell, level)

    @given(st.sampled_from([VECTOR_RANGE, MAGNITUDE_RANGE]), st.integers(1, _MAX_WIDTH), st.data())
    def test_error_bound_and_idempotence(self, ends, bits, data):
        lo, hi = ends
        v = data.draw(st.one_of(st.floats(lo, hi), st.sampled_from(ends)))
        cell, level = _quantize(v, lo, hi, bits)
        assert 0 <= cell < 2**bits and lo <= level <= hi
        assert _quantize(level, lo, hi, bits) == (cell, level)
        # half a step, up to the rounding of v - lo and of the level
        assert abs(v - level) <= math.ldexp(hi - lo, -bits - 1) + 4 * math.ulp(max(-lo, hi))


class TestBudget:
    @pytest.mark.parametrize("n, scheme", [(n, s) for n in (1, 2, 3, 4, 8, 12, 16, 25) for s in SCHEMES
                                           if n <= N_LIMITS[s]])
    def test_layout_totals_12n(self, n, scheme):
        layout = scheme_layout(scheme, n)
        assert sum(bits for _, bits, _, _ in layout) == 12 * n

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_encoded_lengths(self, n):
        rng = np.random.default_rng(0)
        h = crandn(rng, (2, 2))
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

    @pytest.mark.parametrize("scheme, wide_n", [("reg-inv", 255), ("reg-inv-sel", 511), ("gmud", 511)])
    def test_widest_field_fits_float64(self, scheme, wide_n):
        # N = wide_n gave fields of 1020 and 1022 bits, which took a level rescue; it is refused like N = limit + 1
        limit = N_LIMITS[scheme]
        assert max(bits for _, bits, _, _ in scheme_layout(scheme, limit)) <= 50
        for n in (limit + 1, wide_n):
            for call in (lambda: scheme_layout(scheme, n), lambda: encode(np.eye(2), scheme, n),
                         lambda: decode("1" * 12 * n, scheme, n)):
                with pytest.raises(ValueError, match=f"^budget parameter N must be <= {limit} for {scheme}: "
                                                     r"its \dN-bit field may be at most 50 bits wide$"):
                    call()
        bits = encode(crandn(np.random.default_rng(limit), (2, 2)), scheme, limit)
        assert encode(decode(bits, scheme, limit), scheme, limit) == bits

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_widest_field_at_the_limit_passes_the_step_rule(self, scheme):
        # _MAX_WIDTH keeps every wire step at least 4 ulps of max(|lo|, |hi|), so every level stays in its own cell
        for _, bits, lo, hi in scheme_layout(scheme, N_LIMITS[scheme]):
            assert (hi - lo) / 2**bits >= 4 * math.ulp(max(-lo, hi))
        # the widest [0, 4) field has a step of exactly 4 ulps of 4: one bit more would fall below the margin
        lo, hi = MAGNITUDE_RANGE
        assert (hi - lo) / 2**_MAX_WIDTH == 4 * math.ulp(hi)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            scheme_layout("bogus", 4)
        with pytest.raises(ValueError, match="budget parameter N must be an integer >= 1"):
            scheme_layout("gmud", 0)
        # encode ended in numpy's "ufunc 'ldexp' not supported", decode expected "30.0 bits", and True was 1
        for n in (2.5, 2.0, True):
            for call in (lambda: scheme_layout("gmud", n), lambda: encode(np.eye(2), "gmud", n),
                         lambda: decode("0" * 30, "gmud", n)):
                with pytest.raises(ValueError, match="budget parameter N must be an integer >= 1"):
                    call()


class TestCodec:
    def test_round_trip_reconstruction_exact(self):
        rng = np.random.default_rng(1)
        h = crandn(rng, (2, 2))
        for scheme, source in (
            ("reg-inv-sel", h),
            ("reg-inv", h),
            ("gmud", svd2x2(h)),
        ):
            bits = encode(source, scheme, 4)
            msg = decode(bits, scheme, 4)
            assert encode(msg, scheme, 4) == bits

    @pytest.mark.parametrize("scheme, n, field, cell", [("gmud", 27, "v1_im1", 7307383006929629),
                                                        ("reg-inv", 14, "norm", 2**52 + 1)])
    def test_wide_field_round_trip(self, scheme, n, field, cell):
        # at N = n this message re-encoded its odd cell as the next one (gmud: ...630); that N is refused now
        bits = "".join(format(cell if name == field else 0, f"0{k * n}b") for name, k, _, _ in scheme_layout(scheme, 1))
        with pytest.raises(ValueError, match=f"^budget parameter N must be <= {N_LIMITS[scheme]} for {scheme}: "):
            decode(bits, scheme, n)
        # at the limit the field's odd cells round-trip, its top cell among them, and so do random channels
        limit = N_LIMITS[scheme]
        layout = scheme_layout(scheme, limit)
        for odd in ((lambda w: 2**w - 1), (lambda w: 2 ** (w - 1) + 1)):
            bits = "".join(format(odd(w) if name == field else 1, f"0{w}b") for name, w, _, _ in layout)
            assert encode(decode(bits, scheme, limit), scheme, limit) == bits
        rng = np.random.default_rng(n)
        for _ in range(50):
            bits = encode(crandn(rng, (2, 2)), scheme, limit)
            assert encode(decode(bits, scheme, limit), scheme, limit) == bits

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
            h = crandn(rng, (2, 2))
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
        bits = encode((0.5, 3.5, [0.5 + 0.5j, 0.1 + 0.1j]), "gmud", 2)
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
            svd = svd2x2(crandn(rng, (2, 2)))
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
        h = crandn(rng, (2, 2))
        assert encode(h, "gmud", 4) == encode(svd2x2(h), "gmud", 4)

    def test_exact_report_from_svd(self):
        rng = np.random.default_rng(7)
        svd = svd2x2(crandn(rng, (2, 2)))
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

    def test_nested_list_channel(self):
        # gmud read a 2x2 list as a (lambda1, lambda2, v1) triple: "not enough values to unpack"
        h = [[1, 0], [0, 1j]]
        for scheme in SCHEMES:
            assert encode(h, scheme, 4) == encode(np.array(h), scheme, 4)
        assert encode([2.0, 1.0, [0.6, 0.8j]], "gmud", 4) == encode((2.0, 1.0, np.array([0.6, 0.8j])), "gmud", 4)

    def test_bitstring_must_be_a_str(self):
        for bits in (123, None, ["0"] * 48):  # each raised TypeError
            with pytest.raises(FormatError, match=f"^bitstring must be a str, got {type(bits).__name__}$"):
                decode(bits, "gmud", 4)

    def test_encoding_pure_function(self):
        rng = np.random.default_rng(5)
        h = crandn(rng, (2, 2))
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
