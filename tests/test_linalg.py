import warnings

import numpy as np
import pytest

from corrpca.correntropy import weighted_scatter
from corrpca.linalg import (
    check_integer,
    check_positive,
    check_symmetric,
    complement_basis,
    eigh_descending,
    eigh_vectors,
    fix_sign,
    null_space_vector,
    sym_evd,
)

DEMO_SCATTER = np.array([[8.0, 3.0, -1.0], [3.0, 4.0, -2.0], [-1.0, -2.0, 6.0]])


def random_orthonormal(p, rng):
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return q


class TestScalarChecks:
    @pytest.mark.parametrize("value", [2, 2.5, np.float32(2.5), np.int8(2), np.float64(1e300)])
    def test_positive_accepts_reals(self, value):
        assert check_positive("x", value) == float(value)
        assert type(check_positive("x", value)) is float

    @pytest.mark.parametrize(
        "value", [0, -1.0, np.inf, np.nan, True, np.bool_(True), "1", None, np.array(1.0), [1.0]]
    )
    def test_positive_rejects(self, value):
        with pytest.raises(ValueError, match="x must be positive and finite"):
            check_positive("x", value)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 1.0, "1", None, -1])
    def test_integer_rejects(self, value):
        with pytest.raises(ValueError, match="x must be an integer >= 0"):
            check_integer("x", value, 0)


class TestSymEvd:
    def test_demo_scatter_spectrum(self):
        pairs = sym_evd(DEMO_SCATTER)
        assert np.allclose(pairs.values, [10.40, 5.66, 1.94], atol=0.01)

    def test_diagonal_matrix(self):
        pairs = sym_evd(np.diag([5.0, 2.0, 1.0]))
        assert np.array_equal(pairs.values, [5.0, 2.0, 1.0])
        assert np.allclose(pairs.vectors, np.eye(3))

    def test_reconstruction_random_symmetric(self):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((4, 4))
        A = A + A.T
        pairs = sym_evd(A)
        recon = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
        assert np.max(np.abs(recon - A)) <= 1e-8 * np.max(np.abs(A))

    def test_orthonormal_and_sorted(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = rng.standard_normal((6, 6))
            A = A + A.T
            pairs = sym_evd(A)
            V = pairs.vectors
            assert np.max(np.abs(V.T @ V - np.eye(6))) <= 1e-8
            assert np.all(np.diff(pairs.values) <= 1e-12)
            # eigenpair residual
            for i in range(6):
                r = A @ V[:, i] - pairs.values[i] * V[:, i]
                assert np.linalg.norm(r) <= 1e-6 * max(1.0, abs(pairs.values[i]))

    def test_sign_convention(self):
        pairs = sym_evd(DEMO_SCATTER)
        for i in range(3):
            col = pairs.vectors[:, i]
            assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            sym_evd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonfinite(self):
        A = np.eye(2)
        A[0, 1] = A[1, 0] = np.nan
        with pytest.raises(ValueError):
            sym_evd(A)

    def test_rejects_complex_before_cast(self):
        # a cast to float would keep [[2, 0], [0, 2]] and return [2, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="expected a real matrix, got dtype complex128"):
                sym_evd([[2, 1j], [1j, 2]])

    def test_zero_matrix(self):
        pairs = sym_evd(np.zeros((3, 3)))
        assert np.array_equal(pairs.values, np.zeros(3))

    def test_tied_entries_lowest_index_positive(self):
        # both eigenvectors have entries of equal magnitude, +-1/sqrt(2)
        V = sym_evd(np.array([[0.0, 1.0], [1.0, 0.0]])).vectors
        assert np.abs(V[0, 0]) == np.abs(V[1, 0]) and np.abs(V[0, 1]) == np.abs(V[1, 1])
        assert np.all(V[0] > 0)

    def test_sign_matches_fix_sign_per_column(self):
        # exact ties keep LAPACK's ascending column order: eigh lists
        # diag(1, 2, 1)'s vectors as e1, e3, e2, and reversing would put e3 first
        matrices = [np.eye(3), np.diag([2.0, 1.0, 1.0]), np.diag([1.0, 2.0, 1.0])]
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = int(rng.integers(1, 9))
            A = rng.standard_normal((p, p))
            matrices.append(A + A.T)
        for A in matrices:
            values, V = np.linalg.eigh(A)
            order = np.argsort(-values, kind="stable")
            V = V[:, order]
            expected = np.column_stack([fix_sign(V[:, k]) for k in range(len(A))])
            # sym_evd is check_symmetric, then the unchecked eigh_descending
            for pairs in (sym_evd(A), eigh_descending(A)):
                assert pairs.values.tobytes() == values[order].tobytes()
                assert pairs.vectors.tobytes() == expected.tobytes()


# 2 x 2 inputs of ``eigh_vectors`` at the edges of the Schur rotation and
# of float64's range
TWO_BY_TWO = {
    "diagonal-a<c": np.diag([1.0, 2.0]),
    "diagonal-a>c": np.diag([2.0, 1.0]),
    "negative-b": np.array([[3.0, -1.0], [-1.0, 2.0]]),
    "negative-b-a<c": np.array([[2.0, -1.0], [-1.0, 3.0]]),
    "equal-diagonal": np.array([[2.0, 1.0], [1.0, 2.0]]),
    "equal-diagonal-negative-b": np.array([[2.0, -1.0], [-1.0, 2.0]]),
    # tau = 5e159, whose square overflows
    "tiny-b": np.array([[1.0, 1e-160], [1e-160, 2.0]]),
    "subnormal-b": np.array([[1.0, 5e-324], [5e-324, 2.0]]),
    "subnormal-b-a>c": np.array([[2.0, -5e-324], [-5e-324, 1.0]]),
    "huge": 1e300 * np.array([[3.0, 1.0], [1.0, 2.0]]),
    "huge-diagonal": np.array([[1e300, 1e-300], [1e-300, 3e299]]),
    "tiny": 1e-300 * np.array([[3.0, 1.0], [1.0, 2.0]]),
    # a gemm scatter can be asymmetric by an ulp
    "ulp-asymmetric": np.array([[3.0, np.nextafter(0.3, 1.0)], [0.3, 2.0]]),
}


class TestEighVectors:
    """``eigh_vectors`` is ``np.linalg.eigh(S)[1]``: bit for bit for m >= 3,
    and by the symmetric Schur rotation for m = 2, within a few ulps of it."""

    @staticmethod
    def check_two_by_two(S):
        eps = np.finfo(float).eps
        V = eigh_vectors(S)
        ref = np.linalg.eigh(S)[1]
        assert V.shape == (2, 2) and V.dtype == np.float64
        assert np.max(np.abs(V.T @ V - np.eye(2))) <= 2 * eps
        # the Rayleigh quotients of the lower triangle's matrix, ascending
        L = np.tril(S) + np.tril(S, -1).T
        values = np.einsum("ij,ik,kj->j", V, L, V)
        assert values[0] <= values[1]
        signs = np.copysign(1.0, np.sum(V * ref, axis=0))
        assert np.max(np.abs(V - signs * ref)) <= 4 * eps

    def test_weighted_scatters(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            Y = rng.standard_normal((int(rng.integers(2, 400)), 2)) * rng.uniform(0.1, 3.0, 2)
            self.check_two_by_two(weighted_scatter(Y, rng.random(len(Y))))

    @pytest.mark.parametrize("name", TWO_BY_TWO)
    def test_edge_cases(self, name):
        self.check_two_by_two(TWO_BY_TWO[name])

    def test_reads_the_lower_triangle(self):
        # the upper triangle's b is an ulp larger, which moves the rotation's bits
        S = TWO_BY_TWO["ulp-asymmetric"]
        assert eigh_vectors(S).tobytes() == eigh_vectors(np.tril(S) + np.tril(S, -1).T).tobytes()
        assert eigh_vectors(S).tobytes() != eigh_vectors(S.T).tobytes()

    def test_diagonal_matrix_is_eigh_bit_for_bit(self):
        # a scalar matrix, the exact tie, gives the identity
        for c in (0.0, 1.0, 3.0, -2.0, 1e-300, 1e300):
            S = c * np.eye(2)
            assert eigh_vectors(S).tobytes() == np.eye(2).tobytes() == np.linalg.eigh(S)[1].tobytes()
        for S in (np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), np.array([[2.0, -0.0], [-0.0, 1.0]])):
            assert eigh_vectors(S).tobytes() == np.linalg.eigh(S)[1].tobytes()

    @pytest.mark.parametrize("m", [3, 10])
    def test_larger_matrices_are_eigh_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        for _ in range(20):
            Y = rng.standard_normal((200, m))
            S = weighted_scatter(Y, rng.random(200))
            assert eigh_vectors(S).tobytes() == np.linalg.eigh(S)[1].tobytes()


class TestCheckSymmetric:
    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix"):
            check_symmetric(np.zeros(shape))

    @pytest.mark.parametrize("entries", [{(1, 1): np.inf}, {(0, 1): np.inf, (1, 0): -np.inf}])
    def test_non_finite_before_the_symmetry_test(self, entries):
        # A - A^T would be inf - inf = NaN here, with a RuntimeWarning
        A = np.eye(2)
        for index, value in entries.items():
            A[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix has non-finite entries"):
                check_symmetric(A)


class TestNullSpaceVector:
    def test_standard_basis_complement(self):
        V = np.eye(3)[:, :2]
        assert np.allclose(null_space_vector(V), [0.0, 0.0, 1.0])

    def test_2d_complement(self):
        V = np.array([[1.0], [1.0]]) / np.sqrt(2)
        v = null_space_vector(V)
        assert np.allclose(np.abs(v), np.array([1.0, 1.0]) / np.sqrt(2))

    def test_random_orthonormal_5x4(self):
        rng = np.random.default_rng(11)
        V = random_orthonormal(5, rng)[:, :4]
        v = null_space_vector(V)
        assert np.linalg.norm(V.T @ v) <= 1e-8
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_orthogonal_to_machine_precision(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            p = int(rng.integers(2, 12))
            V = random_orthonormal(p, rng)[:, : p - 1]
            assert np.linalg.norm(V.T @ null_space_vector(V)) <= 1e-14

    def test_sign_fixed(self):
        rng = np.random.default_rng(13)
        V = random_orthonormal(4, rng)[:, :3]
        v = null_space_vector(V)
        assert v[np.argmax(np.abs(v))] > 0
        # complement of the same subspace is unique up to sign: flipping
        # column signs must not change the output
        assert np.allclose(null_space_vector(-V), v)

    def test_rejects_non_orthonormal(self):
        V = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            null_space_vector(V)

    def test_rejects_nan_column(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            null_space_vector(np.array([[np.nan, 0.0], [0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            null_space_vector(np.eye(3))

    def test_degenerate_when_basis_spans_everything(self):
        # p=1 with zero columns is the only way to drive every residual to 0
        with pytest.raises(ValueError):
            null_space_vector(np.ones((2, 1)))


class TestComplementBasis:
    @pytest.mark.parametrize("p", [1, 3, 7])
    def test_no_columns_is_the_identity(self, p):
        # eigh of the p x p zero matrix F F^T, as the complete QR of the
        # p x 0 matrix F was, with no branch for k = 0
        empty = np.empty((p, 0))
        assert complement_basis(empty).tobytes() == np.eye(p).tobytes()
        assert np.linalg.qr(empty, mode="complete")[0].tobytes() == np.eye(p).tobytes()

    @pytest.mark.parametrize("p", [1, 3, 7])
    def test_orthonormal_complement_of_orthonormal_columns(self, p):
        rng = np.random.default_rng(p)
        for k in range(p + 1):
            F = random_orthonormal(p, rng)[:, :k]
            H = complement_basis(F)
            assert H.shape == (p, p - k)
            assert np.max(np.abs(H.T @ H - np.eye(p - k)), initial=0.0) <= 1e-14
            assert np.max(np.abs(F.T @ H), initial=0.0) <= 1e-14
