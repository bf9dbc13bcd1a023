import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
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
    quantize_scalar,
    scheme_layout,
    svd2x2,
)
from gmud.feedback import MAGNITUDE_RANGE, SCHEMES, _MAX_WIDTH

# the largest N whose widest field holds at most 50 bits: 4N for reg-inv's norm, 2N for the others
N_LIMITS = {"reg-inv": 12, "reg-inv-sel": 25, "gmud": 25}

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_feedback.json")


@st.composite
def _ranges(draw):
    """(lo, hi), lo < hi, of any finite magnitude from subnormal to 1e307: two ends, one of them 0, or -hi and hi."""
    a = draw(st.floats(-1e307, 1e307))
    b = draw(st.one_of(st.floats(-1e307, 1e307), st.just(0.0), st.just(-a)))
    assume(a != b)
    return min(a, b), max(a, b)


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
        # a float width ended in numpy's "ufunc 'ldexp' not supported", and True was taken as 1
        for bits in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="bits must be an integer from 1 to 50"):
                quantize_scalar(0.3, -1.0, 1.0, bits)

    def test_nan_raises_and_infinities_clamp(self):
        with pytest.raises(DomainError, match="NaN"):
            quantize_scalar(float("nan"), 0.0, 4.0, 8)
        assert quantize_scalar(np.inf, 0.0, 4.0, 8)[0] == 255
        assert quantize_scalar(-np.inf, 0.0, 4.0, 8)[0] == 0
        assert quantize_scalar(np.float32(-np.inf), 0.0, 4.0, 8)[0] == 0
        assert quantize_scalar(2**1000, 0.0, 4.0, 8)[0] == 255  # an int that float64 holds

    @pytest.mark.parametrize("v", ["a", None, 1j, np.complex128(1j), 10**400, True],
                             ids=["str", "None", "complex", "complex128", "int beyond float64", "bool"])
    def test_v_must_be_a_real_that_float64_holds(self, v):
        # str, None and complex ended in TypeError, a numpy complex in a ComplexWarning, 10**400 in OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^v must be a real that float64 holds$"):
                quantize_scalar(v, -1.0, 1.0, 4)

    def test_range_must_be_finite(self):
        # an infinite range returned the level inf, and a str lo ended in a TypeError
        for lo, hi in ((0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), ("a", 1.0), (0.0, None), (0.0, 10**400)):
            with pytest.raises(DomainError, match="^lo and hi must be finite reals$"):
                quantize_scalar(0.3, lo, hi, 3)
        # a span that overflows, steps that underflow to 0 or to a subnormal, and steps under 4 ulps of the ends
        for lo, hi, bits in ((-1e308, 1e308, 3), (0.0, 5e-324, 1), (0.0, 1e-300, 50), (1.0, 1.0 + 6 * 2.0**-52, 1)):
            with pytest.raises(DomainError, match=r"^the step \(hi - lo\) / 2\*\*bits = \S+ must be a normal float64 "
                                                  r"of at least 4 ulps of max\(\|lo\|, \|hi\|\)$"):
                quantize_scalar(0.3, lo, hi, bits)
        assert quantize_scalar(1.0, 1.0, 1.0 + 8 * 2.0**-52, 1) == (0, 1.0 + 2 * 2.0**-52)  # a step of 4 ulps

    def test_widths_past_float64_are_refused(self):
        # past 50 bits lo + (cell + 0.5) * step is not exact on the wire ranges: 53 bits took a level rescue
        for bits in (51, 53, 1023, 1024):  # 1024 raised OverflowError
            with pytest.raises(ValueError, match="^bits must be an integer from 1 to 50$"):
                quantize_scalar(0.3, -1.0, 1.0, bits)
        for lo, hi in ((-1.0, 1.0), (0.0, 4.0)):  # the widest field's odd top cell and even cell 2**49
            for v in (hi, lo + (hi - lo) / 2):
                idx, level = quantize_scalar(v, lo, hi, 50)
                assert level == lo + (idx + 0.5) * (hi - lo) / 2**50
                assert quantize_scalar(level, lo, hi, 50) == (idx, level)

    def test_end_cells_of_a_far_range_stay_inside_it(self):
        # hi far below the step: at 53 bits the top cell's level came back as 0.0, above hi
        lo, hi = -6.946576564250563e189, -1.516894669567117e170
        with pytest.raises(ValueError, match="^bits must be an integer from 1 to 50$"):
            quantize_scalar(hi, lo, hi, 53)
        for bits in range(40, 51):
            step = math.ldexp(hi - lo, -bits)
            for v in (lo, np.nextafter(lo, hi), lo + step / 2, hi - step / 2, np.nextafter(hi, lo), hi):
                idx, level = quantize_scalar(v, lo, hi, bits)
                assert idx in (0, 2**bits - 1)
                # the bounds themselves: a map-back check alone passes a level past hi, which _cells clamps
                assert lo <= level <= hi and quantize_scalar(level, lo, hi, bits) == (idx, level)

    @pytest.mark.parametrize("bits", [50, 51, 52])
    def test_levels_map_back_on_any_range(self, bits):
        # lo + (cell + 0.5) * step rounded across a cell edge where the step nears lo's ulp: 1 to 3 of these failed.
        # Such steps are now refused by the step rule, and widths past 50 bits by the width limit.
        rng = np.random.default_rng(bits)
        mapped = 0
        for _ in range(300):  # ranges 1% to 100% as wide as their distance from 0
            center = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 3.0)
            lo, hi = center + np.array([-0.5, 0.5]) * abs(center) * 10.0 ** rng.uniform(-2.0, 0.0)
            v = rng.uniform(lo, hi)
            if bits > 50:
                with pytest.raises(ValueError, match="^bits must be an integer from 1 to 50$"):
                    quantize_scalar(v, lo, hi, bits)
                continue
            if math.ldexp(hi - lo, -bits) < 4 * math.ulp(max(-lo, hi)):
                with pytest.raises(DomainError, match=r"^the step \(hi - lo\) / 2\*\*bits"):
                    quantize_scalar(v, lo, hi, bits)
                continue
            idx, level = quantize_scalar(v, lo, hi, bits)
            assert lo <= level <= hi and quantize_scalar(level, lo, hi, bits) == (idx, level)
            mapped += 1
        assert bits > 50 or mapped > 0

    @given(_ranges(), st.integers(1, 50), st.data())
    def test_levels_map_back_on_drawn_ranges(self, ends, bits, data):
        # a step within a few ulps of the ends rounded levels across cell edges; the step rule refuses it
        lo, hi = ends
        v = data.draw(st.floats(lo, hi))
        try:
            idx, level = quantize_scalar(v, lo, hi, bits)
        except DomainError as err:
            assert str(err).startswith("the step (hi - lo) / 2**bits")
            return
        assert lo <= level <= hi and quantize_scalar(level, lo, hi, bits) == (idx, level)
        # half a step, up to the rounding of v - lo and of the level: under 3 ulps of the ends where measured
        assert abs(v - level) <= math.ldexp(hi - lo, -bits - 1) + 4 * math.ulp(max(-lo, hi))

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
        # the codec's fields meet quantize_scalar's rule up to _MAX_WIDTH, so both paths need only that rule
        for _, bits, lo, hi in scheme_layout(scheme, N_LIMITS[scheme]):
            idx, level = quantize_scalar(hi, lo, hi, bits)
            assert idx == 2**bits - 1 and level == hi - (hi - lo) / 2 ** (bits + 1)
        # the widest [0, 4) field has a step of exactly 4 ulps of 4: one bit more would fall below the rule
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
