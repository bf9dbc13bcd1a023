import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from numpy.testing import assert_allclose

from gmud import (
    DomainError,
    PhasePair,
    beam_from_feedback,
    crandn,
    gmud,
    solve_rotations,
    steered_beams,
    svd2x2,
)


class TestSolveRotations:
    def test_upper_boundary_is_svd(self):
        rot = solve_rotations(2.0, 1.0, 2.0)
        assert (rot.a, rot.b, rot.c, rot.s) == (1.0, 0.0, 1.0, 0.0)

    def test_lower_boundary(self):
        rot = solve_rotations(2.0, 1.0, 1.0)
        assert (rot.a, rot.b, rot.c, rot.s) == (0.0, 1.0, 0.0, 1.0)

    def test_geometric_mean_point(self):
        rot = solve_rotations(2.0, 1.0, np.sqrt(2.0))
        assert_allclose(
            [rot.a, rot.b, rot.c, rot.s],
            [0.57735027, 0.81649658, 0.81649658, 0.57735027],
            atol=5e-9,
        )

    def test_first_row_equations(self):
        # a*c*l1 + b*s*l2 = r and a*s*l1 - b*c*l2 = 0
        rng = np.random.default_rng(0)
        for _ in range(300):
            l2, l1 = np.sort(rng.uniform(0.05, 4.0, 2))
            if l1 - l2 < 1e-6:
                continue
            r = rng.uniform(l2, l1)
            rot = solve_rotations(l1, l2, r)
            assert rot.a * rot.c * l1 + rot.b * rot.s * l2 == pytest.approx(r, rel=1e-12)
            assert abs(rot.a * rot.s * l1 - rot.b * rot.c * l2) <= 1e-12 * l1
            assert rot.a**2 + rot.b**2 == pytest.approx(1.0, abs=1e-12)
            assert rot.c**2 + rot.s**2 == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_equal_singular_values(self):
        rot = solve_rotations(1.5, 1.5, 1.5)
        assert (rot.a, rot.b, rot.c, rot.s) == (1.0, 0.0, 1.0, 0.0)

    def test_out_of_range(self):
        with pytest.raises(DomainError, match=r"\[1, 2\]"):
            solve_rotations(2.0, 1.0, 5.0)
        with pytest.raises(DomainError):
            solve_rotations(2.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            solve_rotations(2.0, 1.0, -1.0)

    def test_edge_tolerance_clamps(self):
        rot = solve_rotations(2.0, 1.0, 2.0 + 1e-10)
        assert (rot.a, rot.c) == (1.0, 1.0)


class TestSpecialR:
    def test_svd_boundary(self):
        spr = gmud(np.diag([2.0, 1.0]), 2.0).rmat
        assert (spr.r, spr.z1, spr.z2) == (2.0, 0.0, 1.0)
        assert_allclose(spr.as_matrix(), [[2, 0], [0, 1]])

    def test_geometric_mean_decomposition_case(self):
        spr = gmud(np.diag([2.0, 1.0]), np.sqrt(2.0)).rmat
        assert spr.r == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert spr.z1 == pytest.approx(1.0, rel=1e-12)
        assert spr.z2 == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert spr.r * spr.z2 == pytest.approx(2.0, rel=1e-12)

    def test_degenerate(self):
        spr = gmud(np.diag([0.7, 0.7]), 0.7).rmat
        assert_allclose(spr.as_matrix(), np.diag([0.7, 0.7]))

    def test_determinant_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            l2, l1 = np.sort(rng.uniform(0.05, 4.0, 2))
            r = rng.uniform(l2, l1)
            spr = gmud(np.diag([l1, l2]), r).rmat
            assert spr.r * spr.z2 == pytest.approx(l1 * l2, rel=1e-10)


class TestPhasePair:
    def test_range_normalization(self):
        pp = PhasePair(-0.5, 7.0)
        assert 0.0 <= pp.theta1 < 2 * np.pi
        assert 0.0 <= pp.theta2 < 2 * np.pi

    @pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan, "1.5", 1j, True])
    def test_non_finite_or_non_real_refused(self, theta):
        # inf normalized to NaN, and gmud() then returned a NaN factorization without an error
        for args in ((theta, 0.0), (0.0, theta)):
            with pytest.raises(DomainError, match="phases theta1 and theta2 must be finite reals"):
                PhasePair(*args)


class TestGmud:
    def test_diagonal_svd_boundary(self):
        f = gmud(np.diag([2.0, 1.0]), 2.0, PhasePair(0.0, 0.0))
        assert_allclose(f.p, np.eye(2))
        assert_allclose(f.q, np.eye(2))
        assert_allclose(f.rmat.as_matrix(), np.diag([2.0, 1.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            h = crandn(rng, (2, 2))
            svd = svd2x2(h)
            if svd.lambda1 <= 0:
                continue
            r = rng.uniform(svd.lambda2, svd.lambda1)
            f = gmud(h, r, PhasePair(*rng.uniform(0, 2 * np.pi, 2)))
            scale = max(1.0, np.linalg.norm(h))
            assert np.linalg.norm(f.reconstruct() - h) <= 1e-10 * scale
            for m in (f.p, f.q):
                assert np.linalg.norm(m.conj().T @ m - np.eye(2)) <= 1e-12
            assert f.rmat.as_matrix()[0, 1] == 0.0

    @given(
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=8, max_size=8),
        st.floats(0.0, 1.0),
        st.floats(0.0, 2 * np.pi),
        st.integers(-1000, 1000),
    )
    @example([0.8966339015324198, -0.22812541899815986, 0.2011906908222605, -0.40940717317402153,
              0.30078125, 0.060810972669327557, 0.8966339015324198, 0.8966339015324198], 0.0, 0.0, 128)  # r = lambda2
    def test_any_scale(self, parts, u, theta, k):
        # the rotation factors depend on ratios only; 2**k must not move them
        l1, l2 = np.linalg.svd(np.array(parts).view(np.complex128).reshape(2, 2), compute_uv=False)
        assume(l1 >= 1e-3 and l2 >= 1e-6 * l1)
        h = np.ldexp(np.array(parts), k).view(np.complex128).reshape(2, 2)
        svd = svd2x2(h)
        r = svd.lambda2 + u * (svd.lambda1 - svd.lambda2)
        f = gmud(h, r, PhasePair(theta, 0.5))
        for m in (f.p, f.q):
            assert np.abs(m.conj().T @ m - np.eye(2)).max() <= 1e-12
        assert np.abs(f.reconstruct() - h).max() <= 1e-10 * svd.lambda1
        assert f.rmat.r * f.rmat.z2 == pytest.approx(svd.lambda1 * svd.lambda2, rel=1e-10)
        base = solve_rotations(*np.ldexp([svd.lambda1, svd.lambda2, r], -k))
        rot = solve_rotations(svd.lambda1, svd.lambda2, r)
        assert_allclose([rot.a, rot.b, rot.c, rot.s], [base.a, base.b, base.c, base.s], rtol=0, atol=1e-9)

    def test_factors_equal_numpy_oracle_bytes(self):
        # gmud() takes its phases from cos/sin and makes both factors in one stacked product; the oracle is
        # u @ diag(exp(1j*theta)) @ u0 and v @ diag(exp(1j*theta)) @ v0 with solve_rotations' coefficients
        rng = np.random.default_rng(31)
        cases = []
        for i in range(500):
            if i % 2:
                h = crandn(rng, (2, 2))
            else:  # the benchmark's factorize inputs, 1 in 4 of them scaled by 2**+-(300..1000)
                q1, q2 = (np.linalg.qr(crandn(rng, (2, 2)))[0] for _ in range(2))
                s1 = 2.0 ** rng.uniform(-4.0, 4.0)
                h = (q1 * [s1, s1 * 10.0 ** rng.uniform(-3.0, 0.0)]) @ q2.conj().T
                if i % 8 == 0:
                    h = np.ldexp(h.view(np.float64), int(rng.integers(300, 1001)) * int(rng.choice((-1, 1))))
                    h = h.view(np.complex128)
            svd = svd2x2(h)
            r = [svd.lambda1, svd.lambda2, svd.lambda1 * (1 + 5e-10)][i % 5] if i % 5 < 3 else \
                float(svd.lambda2 + rng.uniform() * (svd.lambda1 - svd.lambda2))
            cases.append((h, r, None if i % 7 == 0 else PhasePair(*rng.uniform(-7.0, 14.0, 2))))
        cases += [(0.7 * np.eye(2), 0.7, PhasePair(1.0, 2.0)), (np.diag([2.0, 1.0]), 2.0, None)]
        for i, (h, r, pp) in enumerate(cases):
            f = gmud(h, r, pp)
            svd, pp = svd2x2(h), pp or PhasePair()
            l1, l2 = svd.lambda1, svd.lambda2
            rot, r = solve_rotations(l1, l2, r), min(max(r, l2), l1)
            m = np.diag(np.exp(1j * np.array([pp.theta1, pp.theta2])))
            p = svd.u @ m @ np.array([[rot.a, rot.b], [-rot.b, rot.a]], dtype=np.complex128)
            q = svd.v @ m @ np.array([[rot.c, rot.s], [-rot.s, rot.c]], dtype=np.complex128)
            z = [r, rot.b * rot.c * l1 - rot.a * rot.s * l2, rot.b * rot.s * l1 + rot.a * rot.c * l2]
            rec = p @ np.array([[z[0], 0.0], [z[1], z[2]]], dtype=np.complex128) @ q.conj().T
            assert (f.p.tobytes(), f.q.tobytes()) == (p.tobytes(), q.tobytes()), i
            assert np.array([f.r, f.rmat.r, f.rmat.z1, f.rmat.z2]).tobytes() == np.array([r] + z).tobytes(), i
            assert f.reconstruct().tobytes() == rec.tobytes(), i

    def test_r_independent_of_phases(self):
        rng = np.random.default_rng(4)
        h = crandn(rng, (2, 2))
        svd = svd2x2(h)
        r = 0.5 * (svd.lambda1 + svd.lambda2)
        f1 = gmud(h, r, PhasePair(0.3, 1.8))
        f2 = gmud(h, r, PhasePair(5.1, 0.0))
        assert (f1.rmat.r, f1.rmat.z1, f1.rmat.z2) == (f2.rmat.r, f2.rmat.z1, f2.rmat.z2)
        assert np.linalg.norm(f1.q - f2.q) > 1e-3  # phases really move the unitaries

    def test_out_of_range_names_interval(self):
        with pytest.raises(DomainError, match="interval"):
            gmud(np.diag([2.0, 1.0]), 5.0)
        with pytest.raises(DomainError, match="zero matrix admits no positive r"):
            gmud(np.zeros((2, 2)), 1.0)
        # not a real r: an int beyond float64, complex numbers, a str and a bool get the named error
        for r in (10**400, 1.5 + 0j, np.complex128(1.5), "1.5", True):
            with pytest.raises(DomainError, match="r must be a positive real"):
                gmud(np.diag([2.0, 1.0]), r)

    def test_int64_r_is_squared_as_a_float(self):
        # r * r used to overflow int64 above ~3.04e9: reconstruct() was off by 6.9e9, with only a RuntimeWarning
        # (the suite's warning filter fails this test if one is issued)
        h = np.diag([1e10, 1.0])
        f = gmud(h, np.int64(5_000_000_000))
        assert type(f.r) is float
        assert np.abs(f.reconstruct() - h).max() <= 1e-15 * 1e10

    def test_transmitted_beam_and_combiner_are_one_factorization(self):
        # svd2x2 completes v1 as the transmitter does, so at (theta, 0) the beam
        # steered from the report (lambda1, lambda2, v1) is q[:, 0], and the
        # receiver combiner (the beam kernel on u1, u2) is p[:, 0]
        from gmud.simulation import _rotation_projection

        rng = np.random.default_rng(9)
        channels = [crandn(rng, (2, 2)) for _ in range(500)]
        channels += [np.outer(crandn(rng, 2), crandn(rng, 2).conj()), 0.7 * np.eye(2), np.diag([2.0, 1.0])]
        for h in channels:
            svd = svd2x2(h)
            r = float(rng.uniform(svd.lambda2, svd.lambda1))
            theta = float(rng.uniform(0.0, 2 * np.pi))
            f = gmud(h, r, PhasePair(theta, 0.0))
            beam = beam_from_feedback(svd.lambda1, svd.lambda2, svd.v[:, 0], r, theta)
            assert np.abs(f.q[:, 0] - beam).max() <= 1e-12
            assert np.abs(f.p[:, 0] - _rotation_projection(svd.u, svd.lambda1, svd.lambda2, r, theta)).max() <= 1e-12


class TestRotationFactors:
    @pytest.mark.parametrize(
        "lambda1, lambda2, r, masked",
        [
            (1.0, 1.0 - 0.5e-12, 1.0 - 0.25e-12, True),  # equal singular values: the identity rotation
            (1.0, 1.0 - 1.01e-12, 1.0 - 0.5e-12, False),  # lambda1 - lambda2 just above 1e-12 * lambda1
            (1.0, 1.0 - 2e-12, 1.0 - 1e-12, False),
            (2.0, 0.0, 0.0, True),  # r = lambda2 = 0: the r -> 0+ limit
            (2.0, 0.0, 1e-300, True),  # r*r underflows
            (2.0, 1e-310, 1e-300, True),
            (2.0**-140, 2.0**-142, 3.0 * 2.0**-143, False),  # lambda1 below 2**-128: scaled
            (2.0**128, 2.0**126, 3.0 * 2.0**125, False),  # lambda1 at 2**128: scaled
            (3.0 * 2.0**600, 2.0**600, 2.0**601, False),
            (2.0, 1.0, 2.0, False),  # r at both endpoints
            (2.0, 1.0, 1.0, False),
            (1.7, 0.3, 0.9, False),
        ],
    )
    def test_python_floats_match_one_element_arrays(self, lambda1, lambda2, r, masked):
        # one home for the rotation rules: Python floats and arrays take the same steps, byte for byte,
        # and off the masked branches (np.where) Python floats stay Python floats
        from gmud.decomposition import _rotation_factors

        plain = _rotation_factors(lambda1, lambda2, r)
        arrays = _rotation_factors(np.array([lambda1]), np.array([lambda2]), np.array([r]))
        assert [np.float64(f).tobytes() for f in plain] == [a.tobytes() for a in arrays]
        if not masked:
            assert [type(f) for f in plain] == [float] * 4

    def test_array_lambda1_with_float_lambda2_and_r(self):
        # broadcastable inputs: only lambda1 is an array, so the quotients under the roots are arrays
        from gmud.decomposition import _rotation_factors

        mixed = _rotation_factors(np.array([2.0, 3.0]), 1.0, 1.5)
        arrays = _rotation_factors(np.array([2.0, 3.0]), np.array([1.0, 1.0]), np.array([1.5, 1.5]))
        assert [f.tobytes() for f in mixed] == [a.tobytes() for a in arrays]


class TestBeams:
    def test_svd_boundary_is_principal_vector(self):
        rng = np.random.default_rng(6)
        svd = svd2x2(crandn(rng, (2, 2)))
        v1 = svd.v[:, 0]
        for theta in (0.0, 1.0, 4.0):
            q1 = beam_from_feedback(svd.lambda1, svd.lambda2, v1, svd.lambda1, theta)
            assert abs(np.vdot(v1, q1)) == pytest.approx(1.0, abs=1e-10)
            assert_allclose(q1, np.exp(1j * theta) * v1, atol=1e-12)

    def test_alignment_value_narrow_cone(self):
        # c = (l1/r) * sqrt((r^2-l2^2)/(l1^2-l2^2)) at (2, 1, 1.9)
        expected = (2.0 / 1.9) * np.sqrt((1.9**2 - 1.0) / 3.0)
        assert expected == pytest.approx(0.98183, abs=5e-6)
        v1 = np.array([1.0, 0.0], dtype=complex)
        for theta in np.linspace(0, 2 * np.pi, 100, endpoint=False):
            q1 = beam_from_feedback(2.0, 1.0, v1, 1.9, theta)
            assert abs(np.vdot(v1, q1)) == pytest.approx(expected, abs=1e-12)
            assert np.linalg.norm(q1) == pytest.approx(1.0, abs=1e-12)

    def test_alignment_value_wide_cone(self):
        expected = (2.0 / 1.5) * np.sqrt((1.5**2 - 1.0) / 3.0)
        assert expected == pytest.approx(0.86066, abs=5e-6)
        v1 = np.array([0.6, 0.8j])
        q1 = beam_from_feedback(2.0, 1.0, v1, 1.5, 2.5)
        assert abs(np.vdot(v1, q1)) == pytest.approx(expected, abs=1e-12)
        assert expected < 0.98183  # wider cone for smaller r

    def test_alignment_monotonic_in_r(self):
        cs = [solve_rotations(2.0, 1.0, r).c for r in np.linspace(1.0, 2.0, 10)]
        assert all(b > a for a, b in zip(cs, cs[1:]))
        assert cs[-1] == 1.0

    def test_grid_matches_scalar_bit_exactly(self):
        rng = np.random.default_rng(7)
        v1 = crandn(rng, (2,))
        v1 /= np.linalg.norm(v1)
        thetas = np.linspace(0.0, 2 * np.pi, 7, endpoint=False)
        # (1.5, 1.5): equal singular values, where every beam is e^{i theta} v1
        for l1, l2 in ((2.0, 1.0), (1.5, 1.5)):
            rs = np.linspace(l2, l1, 5)
            grid = steered_beams(l1, l2, v1, rs[:, None], thetas[None, :])
            for i, r in enumerate(rs):
                for j, t in enumerate(thetas):
                    beam = beam_from_feedback(l1, l2, v1, float(r), float(t))
                    assert np.array_equal(grid[i, j], beam)
                    if l1 == l2:
                        assert np.array_equal(beam, np.exp(1j * t) * v1)

    @pytest.mark.parametrize("r, theta", [(np.array([[1.0], [1.4], [2.0]]), np.linspace(0.0, 6.0, 4)),
                                          (1.5, np.linspace(0.0, 6.0, 5)), (np.linspace(1.0, 2.0, 5), 0.7)])
    def test_broadcast_matches_scalar_calls(self, r, theta):
        # r and theta broadcast in the beam kernel's products, with no materialized copies
        v1 = np.array([0.6, 0.8j])
        beams = steered_beams(2.0, 1.0, v1, r, theta)
        shape = np.broadcast_shapes(np.shape(r), np.shape(theta))
        assert beams.shape == shape + (2,)
        rs, thetas = np.broadcast_arrays(r, theta)
        for i in np.ndindex(shape):
            assert beams[i].tobytes() == steered_beams(2.0, 1.0, v1, float(rs[i]), float(thetas[i])).tobytes(), i

    def test_combiners_of_a_stack_match_scalar_calls(self):
        from gmud.linalg import _svd2x2
        from gmud.simulation import _rotation_projection

        rng = np.random.default_rng(8)
        u, lambda1, lambda2, _ = (a.reshape((5, 2) + a.shape[1:]) for a in _svd2x2(crandn(rng, (10, 2, 2))))
        r, theta = lambda2 + rng.uniform(size=(5, 2)) * (lambda1 - lambda2), rng.uniform(0.0, 2 * np.pi, (5, 2))
        p = _rotation_projection(u, lambda1, lambda2, r, theta)
        assert p.shape == (5, 2, 2)
        for i in np.ndindex(5, 2):
            want = _rotation_projection(u[i], float(lambda1[i]), float(lambda2[i]), float(r[i]), float(theta[i]))
            assert want.shape == (2,) and p[i].tobytes() == want.tobytes(), i

    def test_rank_one_report_at_zero_r(self):
        # r = lambda2 = 0 takes the r -> 0+ limit (a, b, c, s) = (0, 1, 1, 0),
        # so the beam is e^{i theta} v1, with no 0/0 and no warning
        import warnings

        from gmud.decomposition import _rotation_factors

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beams = steered_beams(2.0, 0.0, [1, 0], [0.0, 1.0], 0.3)
            factors = _rotation_factors(2.0, 0.0, np.array([0.0, 1.0]))
        assert np.isfinite(beams).all()
        assert_allclose(np.linalg.norm(beams, axis=-1), 1.0, rtol=1e-15)
        assert np.array_equal(beams[0], np.exp(0.3j) * np.array([1.0, 0.0]))
        assert [f[0] for f in factors] == [0.0, 1.0, 1.0, 0.0]
        assert [f[1] for f in factors] == [0.5, np.sqrt(0.75), 1.0, 0.0]  # r > 0 is unchanged

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lambda2, r", [(0.0, 1e-300), (1e-310, 1e-300), (0.0, 1e-320), (1e-200, 3e-155)])
    def test_tiny_r_keeps_unit_norm_and_unitary_factors(self, lambda2, r):
        # r*r underflows here; c used to come out 0, the beam zero or of norm lambda2/r
        beam = steered_beams(2.0, lambda2, [1, 0], r, 0.3)
        assert_allclose(np.linalg.norm(beam), 1.0, rtol=1e-15)
        rot = solve_rotations(2.0, lambda2, r)
        assert_allclose([rot.a**2 + rot.b**2, rot.c**2 + rot.s**2], 1.0, rtol=1e-15)
        assert_allclose(rot.a * rot.c * 2.0 + rot.b * rot.s * lambda2, r, rtol=1e-14, atol=1e-323)
        h = np.diag([2.0, lambda2]).astype(complex)
        fact = gmud(h, r, PhasePair(0.3, 0.0))
        for m in (fact.p, fact.q):
            assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-15)
        assert_allclose(fact.reconstruct(), h, rtol=0, atol=1e-15)
        svd = fact.source_svd  # its lambda2 may round to 0 next to lambda1 = 2
        assert_allclose(fact.q[:, 0], steered_beams(svd.lambda1, svd.lambda2, svd.v[:, 0], r, 0.3), atol=1e-15)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            beam_from_feedback(2.0, 1.0, np.array([1.0, 0.0]), 0.2, 0.0)

    def test_non_unit_v1(self):
        with pytest.raises(DomainError):
            beam_from_feedback(2.0, 1.0, np.array([1.0, 1.0]), 1.5, 0.0)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, "1.5"])
    def test_non_finite_theta_rejected(self, theta):
        # NaN gave a NaN beam and inf a RuntimeWarning
        with pytest.raises(DomainError, match="theta must be a finite real"):
            beam_from_feedback(2.0, 1.0, np.array([1.0, 0.0]), 1.5, theta)

    @pytest.mark.parametrize("lambda1", [np.nan, np.inf])
    def test_non_finite_lambda1_rejected(self, lambda1):
        # a NaN or infinite report used to give NaN beams without an error
        v1 = np.array([0.6, 0.8j])
        with pytest.raises(DomainError, match="lambda1 must be finite"):
            steered_beams(lambda1, 0.5, v1, np.full((2, 1), 1.0), np.zeros((1, 3)))
        with pytest.raises(DomainError, match="lambda1 must be finite"):
            beam_from_feedback(lambda1, 0.5, v1, 1.0, 0.0)
        with pytest.raises(DomainError, match="lambda1 must be finite"):
            solve_rotations(lambda1, 0.5, 1.0)
