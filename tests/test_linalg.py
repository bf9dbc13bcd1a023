import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmud import SingularMatrixError, mat_inv, svd2x2
from gmud.linalg import orthonormal_complement


def crand(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


class TestMatInv:
    def test_diagonal(self):
        assert_allclose(mat_inv(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_identity(self):
        assert_allclose(mat_inv(np.eye(2)), np.eye(2))

    def test_residual_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = crand(rng, (2, 2)) + 2 * np.eye(2)
            assert np.linalg.norm(a @ mat_inv(a) - np.eye(2)) <= 1e-10

    def test_double_inverse(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = crand(rng, (2, 2)) + 2 * np.eye(2)
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

    def test_not_square(self):
        with pytest.raises(ValueError, match="square"):
            mat_inv(np.ones((2, 3)))


class TestOrthonormalComplement:
    def test_axis_vectors(self):
        assert_allclose(orthonormal_complement(np.array([1.0, 0.0])), [0.0, 1.0])
        assert_allclose(orthonormal_complement(np.array([0.0, 1.0])), [-1.0, 0.0])

    def test_random_orthogonality(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            v = crand(rng, (2,))
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
            h = crand(rng, (2, 2))
            f = svd2x2(h)
            scale = max(1.0, np.linalg.norm(h))
            assert f.lambda1 >= f.lambda2 >= 0.0
            assert np.linalg.norm(f.reconstruct() - h) <= 1e-10 * scale
            assert np.linalg.norm(f.u.conj().T @ f.u - np.eye(2)) <= 1e-12
            assert np.linalg.norm(f.v.conj().T @ f.v - np.eye(2)) <= 1e-12
            det = abs(h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0])
            assert f.lambda1 * f.lambda2 == pytest.approx(det, rel=1e-10, abs=1e-300)

    def test_phase_convention(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            f = svd2x2(crand(rng, (2, 2)))
            for j in range(2):
                col = f.v[:, j]
                i = 0 if abs(col[0]) >= abs(col[1]) else 1
                assert col[i].imag == 0.0
                assert col[i].real >= 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        h = crand(rng, (2, 2))
        f1, f2 = svd2x2(h), svd2x2(h)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.v, f2.v)
        assert (f1.lambda1, f1.lambda2) == (f2.lambda1, f2.lambda2)

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            svd2x2(np.eye(3))

