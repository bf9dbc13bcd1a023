import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from numpy.testing import assert_allclose

from gmud import DomainError, SingularMatrixError, crandn, mat_inv, svd2x2
from gmud.linalg import _RANK_TOL, _svd2x2, orthonormal_complement


unit_floats = st.floats(-1.0, 1.0, allow_nan=False)
exponents = st.integers(-1000, 1000)


def from_parts(parts) -> np.ndarray:
    """Complex values from (Re, Im) pairs."""
    return np.array(parts, dtype=np.float64).view(np.complex128)


def scaled(h, k) -> np.ndarray:
    """h * 2**k, exactly (part by part)."""
    return np.ldexp(np.ascontiguousarray(h).view(np.float64), k).view(np.complex128)


def check_factorization(f, h):
    """f factors h: unitary u and v, ordered singular values, small residual."""
    assert f.lambda1 >= f.lambda2 >= 0.0
    for m in (f.u, f.v):
        assert np.abs(m.conj().T @ m - np.eye(2)).max() <= 1e-12
    # entrywise abs: no squares, so the check itself cannot overflow at 2**1000
    assert np.abs(f.reconstruct() - h).max() <= 1e-12 * f.lambda1


class TestMatInv:
    def test_diagonal(self):
        assert_allclose(mat_inv(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_identity(self):
        assert_allclose(mat_inv(np.eye(2)), np.eye(2))

    def test_residual_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = crandn(rng, (2, 2)) + 2 * np.eye(2)
            assert np.linalg.norm(a @ mat_inv(a) - np.eye(2)) <= 1e-10

    def test_double_inverse(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = crandn(rng, (2, 2)) + 2 * np.eye(2)
            assert np.linalg.norm(mat_inv(mat_inv(a)) - a) <= 1e-9 * np.linalg.norm(a)

    def test_larger_square_rejected(self):
        # only 2x2 matrices are ever inverted (K = 2 users); larger ones are a shape error
        for n in (3, 4):
            with pytest.raises(ValueError, match="2x2") as exc:
                mat_inv(np.eye(n))
            assert not isinstance(exc.value, SingularMatrixError)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            mat_inv(np.zeros((2, 2)))
        with pytest.raises(SingularMatrixError):
            mat_inv(np.array([[1.0, 1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("exponent", [-1000, -500, -50, 0, 50, 500, 1000])
    def test_any_scale(self, exponent):
        # det ~ scale**2 while ||a|| ~ scale: the singularity test must not depend on scale
        base = np.array([[1.0, 0.3j], [0.2, 2.0]])
        inv = mat_inv(np.ldexp(1.0, exponent) * base)
        assert np.array_equal(inv, np.ldexp(1.0, -exponent) * mat_inv(base))
        with pytest.raises(SingularMatrixError):
            mat_inv(np.ldexp(1.0, exponent) * np.array([[1.0, 2.0j], [0.5, 1.0j]]))

    def test_not_square(self):
        with pytest.raises(ValueError, match="square"):
            mat_inv(np.ones((2, 3)))
        with pytest.raises(ValueError, match="expected a 2-D matrix, got ndim=1"):
            mat_inv(np.ones(4))


class TestOrthonormalComplement:
    def test_axis_vectors(self):
        assert_allclose(orthonormal_complement(np.array([1.0, 0.0])), [0.0, 1.0])
        assert_allclose(orthonormal_complement(np.array([0.0, 1.0])), [-1.0, 0.0])

    def test_random_orthogonality(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            v = crandn(rng, (2,))
            v /= np.linalg.norm(v)
            w = orthonormal_complement(v)
            assert abs(np.vdot(v, w)) <= 1e-12
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12


class TestSvd2x2:
    def test_identity(self):
        f = svd2x2(np.eye(2))
        assert f.lambda1 == 1.0 and f.lambda2 == 1.0
        assert np.array_equal(f.u, np.eye(2))
        assert np.array_equal(f.v, np.eye(2))

    def test_diagonal(self):
        f = svd2x2(np.diag([2.0, 1.0]))
        assert f.lambda1 == pytest.approx(2.0, rel=1e-15)
        assert f.lambda2 == pytest.approx(1.0, rel=1e-15)

    def test_shear_golden_ratio(self):
        # eigenvalues of [[1,1],[1,2]] are (3 +- sqrt(5))/2
        h = np.array([[1.0, 1.0], [0.0, 1.0]])
        f = svd2x2(h)
        assert f.lambda1 == pytest.approx((1 + np.sqrt(5)) / 2, rel=1e-12)
        assert f.lambda2 == pytest.approx((np.sqrt(5) - 1) / 2, rel=1e-12)
        assert np.linalg.norm(f.reconstruct() - h) <= 1e-12

    def test_zero_matrix(self):
        f = svd2x2(np.zeros((2, 2)))
        assert f.lambda1 == 0.0 and f.lambda2 == 0.0
        assert np.array_equal(f.u, np.eye(2))
        assert np.array_equal(f.v, np.eye(2))

    def test_rank_one_completion(self):
        u = np.array([1.0, 1j]) / np.sqrt(2)
        v = np.array([1.0, -1.0]) / np.sqrt(2)
        h = 3.0 * np.outer(u, v.conj())
        f = svd2x2(h)
        assert f.lambda1 == pytest.approx(3.0, rel=1e-12)
        assert f.lambda2 <= 1e-12
        for m in (f.u, f.v):
            assert np.linalg.norm(m.conj().T @ m - np.eye(2)) <= 1e-12
        assert np.linalg.norm(f.reconstruct() - h) <= 1e-10 * 3.0

    def test_random_suite(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            h = crandn(rng, (2, 2))
            f = svd2x2(h)
            scale = max(1.0, np.linalg.norm(h))
            assert f.lambda1 >= f.lambda2 >= 0.0
            assert np.linalg.norm(f.reconstruct() - h) <= 1e-10 * scale
            assert np.linalg.norm(f.u.conj().T @ f.u - np.eye(2)) <= 1e-12
            assert np.linalg.norm(f.v.conj().T @ f.v - np.eye(2)) <= 1e-12
            det = abs(h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0])
            assert f.lambda1 * f.lambda2 == pytest.approx(det, rel=1e-10, abs=1e-300)

    def test_phase_convention(self):
        # v1's largest entry (the first on ties) is real and >= 0, and v2 is the
        # transmitter's completion of v1, bit for bit; multiples of the identity
        # take the same path with v1 = e1
        rng = np.random.default_rng(7)
        channels = [crandn(rng, (2, 2)) for _ in range(200)]
        channels += [0.7 * np.eye(2), np.ldexp(1.0, -600) * np.eye(2), np.exp(1.1j) * np.eye(2)]
        for h in channels:
            f = svd2x2(h)
            v1 = f.v[:, 0]
            i = 0 if abs(v1[0]) >= abs(v1[1]) else 1
            assert v1[i].imag == 0.0
            assert v1[i].real >= 0.0
            assert f.v[:, 1].tobytes() == orthonormal_complement(v1).tobytes()

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        h = crandn(rng, (2, 2))
        f1, f2 = svd2x2(h), svd2x2(h)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.v, f2.v)
        assert (f1.lambda1, f1.lambda2) == (f2.lambda1, f2.lambda2)

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            svd2x2(np.eye(3))
        # the entries are checked before the 2x2 shape, and the 2-D shape before both
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            svd2x2(np.diag([1.0, np.nan, 1.0]))
        with pytest.raises(ValueError, match="expected a 2-D matrix, got ndim=1"):
            svd2x2(np.array([np.nan, 1.0, 0.0, 1.0]))
        for bad in ([[np.inf, 0.0], [0.0, 1.0]], [[1.0, 0.0], [complex(0.0, np.nan), 1.0]]):
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                svd2x2(bad)

    @given(st.lists(unit_floats, min_size=8, max_size=8), exponents)
    @example([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-12], 0)  # lambda2 / lambda1 = 1e-12
    def test_any_scale(self, parts, k):
        base = from_parts(parts).reshape(2, 2)
        assume(np.abs(base).max() >= 1e-3)
        f = svd2x2(scaled(base, k))
        check_factorization(f, scaled(base, k))
        l1, l2 = np.ldexp(np.linalg.svd(base, compute_uv=False), k)
        assert f.lambda1 == pytest.approx(l1, rel=1e-12)
        assert abs(f.lambda2 - l2) <= 1e-12 * f.lambda1

    @given(st.lists(unit_floats, min_size=8, max_size=8), exponents)
    def test_rank_deficient_any_scale(self, parts, k):
        a, b = from_parts(parts[:4]), from_parts(parts[4:])
        assume(min(np.abs(a).max(), np.abs(b).max()) >= 1e-3)
        h = scaled(np.outer(a, b.conj()), k)
        f = svd2x2(h)
        check_factorization(f, h)
        assert f.lambda2 <= 1e-12 * f.lambda1

    @given(st.lists(st.floats(0.0, 2 * np.pi), min_size=4, max_size=4), exponents)
    @example([9.220892867948306e-139, 2.0, 0.0, 2.0], 0)  # h^H h within 1e-155 of I
    def test_equal_singular_values_any_scale(self, angles, k):
        t, phi, psi, chi = angles
        c, s = np.cos(t), np.sin(t)
        unitary = np.exp(1j * chi) * np.array(
            [[np.exp(1j * phi) * c, np.exp(1j * psi) * s], [-np.exp(-1j * psi) * s, np.exp(-1j * phi) * c]]
        )
        h = scaled(unitary, k)
        f = svd2x2(h)
        check_factorization(f, h)
        assert f.lambda2 == pytest.approx(f.lambda1, rel=1e-12)
        assert f.lambda1 == pytest.approx(np.ldexp(1.0, k), rel=1e-12)

    def test_subnormal_and_overflowing_input(self):
        f = svd2x2(5e-324 * np.eye(2))
        assert (f.lambda1, f.lambda2) == (5e-324, 5e-324)
        f = svd2x2(1e-160 * np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert f.lambda2 == pytest.approx(1e-160 * np.linalg.svd([[1.0, 2.0], [3.0, 4.0]])[1][1], rel=1e-12)
        with pytest.raises(DomainError, match="overflows"):
            svd2x2(np.full((2, 2), 1.5e308))


def unitary(t, phi, psi, chi) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.exp(1j * chi) * np.array(
        [[np.exp(1j * phi) * c, np.exp(1j * psi) * s], [-np.exp(-1j * psi) * s, np.exp(-1j * phi) * c]]
    )


class TestStackedSvd:
    """_svd2x2 on a stack against svd2x2 matrix by matrix, byte for byte."""

    def stack(self):
        rng = np.random.default_rng(21)
        q1, q2 = (unitary(*rng.uniform(0.0, 2 * np.pi, 4)) for _ in range(2))
        mats = [crandn(rng, (2, 2)) for _ in range(13)]
        mats += [np.zeros((2, 2)), 0.7 * np.eye(2), np.exp(1.1j) * np.eye(2), np.ldexp(1.0, -600) * np.eye(2)]
        mats += [np.outer(crandn(rng, 2), crandn(rng, 2).conj()) for _ in range(3)]
        # lambda2 just below and just above _RANK_TOL * lambda1: u2 completed, then u2 = h v2 / lambda2
        mats += [q1 @ np.diag([1.0, f * _RANK_TOL]) @ q2 for f in (0.99, 1.01)]
        mats += [unitary(9.220892867948306e-139, 2.0, 0.0, 2.0)]  # h^H h within 2**-128 of I
        mats += [scaled(crandn(rng, (2, 2)), k) for k in (1000, -1000, 1000, -1000)]
        mats += [scaled(np.outer(crandn(rng, 2), crandn(rng, 2).conj()), k) for k in (1000, -1000)]
        mats += [scaled(unitary(*rng.uniform(0.0, 2 * np.pi, 4)), k) for k in (1000, -1000)]
        mats += [5e-324 * np.eye(2), 1e-160 * np.array([[1.0, 2.0], [3.0, 4.0]])]
        assert len(mats) == 33
        return np.array(mats, dtype=np.complex128)

    def test_stack_equals_per_matrix(self):
        h = self.stack()
        u, lambda1, lambda2, v = _svd2x2(h)
        for i, m in enumerate(h):
            f = svd2x2(m)
            assert u[i].tobytes() == f.u.tobytes(), i
            assert v[i].tobytes() == f.v.tobytes(), i
            assert lambda1[i].tobytes() == np.float64(f.lambda1).tobytes(), i
            assert lambda2[i].tobytes() == np.float64(f.lambda2).tobytes(), i

    def test_random_stack_equals_per_matrix(self):
        # equal singular values make the moduli of v1's entries tie or nearly
        # tie, where only hypot's rounding picks the entry svd2x2 picks
        rng = np.random.default_rng(22)
        kinds = (lambda: crandn(rng, (2, 2)), lambda: rng.uniform(0.1, 3.0) * unitary(*rng.uniform(0.0, 2 * np.pi, 4)),
                 lambda: np.outer(crandn(rng, 2), crandn(rng, 2).conj()))
        h = np.array([scaled(kinds[i % 3](), int(rng.integers(-60, 60))) for i in range(600)])
        u, lambda1, lambda2, v = _svd2x2(h)
        for i, m in enumerate(h):
            f = svd2x2(m)
            assert (u[i].tobytes(), v[i].tobytes()) == (f.u.tobytes(), f.v.tobytes()), i
            assert (lambda1[i], lambda2[i]) == (f.lambda1, f.lambda2), i

    def test_factorize_shaped_stack_equals_per_matrix(self):
        # the benchmark's factorize inputs: h = U diag(s1, s2) V^H with s2/s1 in [1e-3, 1], every third
        # scaled by 2**+-(300..1000), every third with parts 2**-600 apart inside one matrix
        rng = np.random.default_rng(23)
        mats = []
        for i in range(900):
            s1 = 2.0 ** rng.uniform(-4.0, 4.0)
            u, v = (unitary(*rng.uniform(0.0, 2 * np.pi, 4)) for _ in range(2))
            h = (u * [s1, s1 * 10.0 ** rng.uniform(-3.0, 0.0)]) @ v.conj().T
            if i % 3 == 1:
                h = scaled(h, int(rng.integers(300, 1001)) * int(rng.choice((-1, 1))))
            elif i % 3 == 2:
                parts = h.view(np.float64)
                h = np.where(rng.random(parts.shape) < 0.5, parts * 2.0**-600, parts).view(np.complex128)
            mats.append(h)
        h = np.array(mats)
        u, lambda1, lambda2, v = _svd2x2(h)
        for i, m in enumerate(h):
            f = svd2x2(m)
            assert (u[i].tobytes(), v[i].tobytes()) == (f.u.tobytes(), f.v.tobytes()), i
            assert (lambda1[i].tobytes(), lambda2[i].tobytes()) == (np.float64(f.lambda1).tobytes(),
                                                                    np.float64(f.lambda2).tobytes()), i
