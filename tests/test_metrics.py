import numpy as np
import pytest

from corrpca.metrics import component_alignment, reconstruction_error


def random_orthonormal(p, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return q


class TestComponentAlignment:
    def test_identical_bases(self):
        V = random_orthonormal(4, 0)
        rep = component_alignment(V, V)
        assert np.allclose(rep.per_component_abs_cos, 1.0, atol=1e-12)
        assert np.array_equal(rep.component_order, np.arange(4))
        assert rep.min_abs_cos == pytest.approx(1.0)
        assert rep.mean_abs_cos == pytest.approx(1.0)

    def test_sign_flip_invariance(self):
        V = random_orthonormal(3, 1)
        flipped = V * np.array([1.0, -1.0, -1.0])
        rep = component_alignment(flipped, V)
        assert np.allclose(rep.per_component_abs_cos, 1.0, atol=1e-12)

    def test_column_swap_recorded_in_permutation(self):
        V = random_orthonormal(3, 2)
        swapped = V[:, [1, 0, 2]]
        rep = component_alignment(swapped, V)
        assert np.allclose(rep.per_component_abs_cos, 1.0, atol=1e-12)
        assert np.array_equal(rep.component_order, [1, 0, 2])

    def test_values_invariant_under_permutation_of_truth(self):
        V = random_orthonormal(5, 3)
        W = random_orthonormal(5, 4)
        rep1 = component_alignment(V, W)
        rep2 = component_alignment(V, W[:, ::-1])
        assert np.allclose(
            np.sort(rep1.per_component_abs_cos), np.sort(rep2.per_component_abs_cos)
        )

    def test_rejects_non_orthonormal(self):
        V = np.eye(3)
        bad = np.eye(3)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            component_alignment(bad, V)

    def test_rejects_shape_mismatch(self):
        # both orthonormal, of different sizes
        with pytest.raises(ValueError, match=r"shape mismatch: \(3, 3\) vs \(4, 4\)"):
            component_alignment(np.eye(3), np.eye(4))

    @pytest.mark.parametrize("side", ["estimate", "truth"])
    def test_rejects_nan(self, side):
        V = np.eye(3)
        bad = np.eye(3)
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="not orthonormal"):
            component_alignment(*((bad, V) if side == "estimate" else (V, bad)))

    @pytest.mark.parametrize("p", [2, 3, 10])
    def test_matches_masked_argmax_loop_bit_for_bit(self, p):
        # the greedy match as an array loop: mask the matched true columns,
        # take the first argmax; the same scores, order and summaries
        for seed in range(20):
            V, W = random_orthonormal(p, seed), random_orthonormal(p, 100 + seed)
            cos = np.abs(V.T @ W)
            matched, scores = [], np.empty(p)
            for i in range(p):
                row = cos[i].copy()
                row[matched] = -1.0
                matched.append(int(row.argmax()))
                scores[i] = min(cos[i, matched[-1]], 1.0)
            rep = component_alignment(V, W)
            assert rep.per_component_abs_cos.tobytes() == scores.tobytes()
            assert rep.component_order.tolist() == matched
            assert rep.min_abs_cos == scores.min() and rep.mean_abs_cos == scores.mean()

    def test_ties_go_to_the_lowest_index(self):
        # every |cos| is 1/2: each estimate takes the lowest unmatched column
        H = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0],
                      [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]) / 2.0
        rep = component_alignment(H, np.eye(4))
        assert rep.component_order.tolist() == [0, 1, 2, 3]
        assert rep.per_component_abs_cos.tolist() == [0.5] * 4

    def test_scores_within_unit_interval(self):
        rep = component_alignment(random_orthonormal(6, 5), random_orthonormal(6, 6))
        assert np.all(rep.per_component_abs_cos >= 0.0)
        assert np.all(rep.per_component_abs_cos <= 1.0)


class TestReconstructionError:
    def test_full_basis_zero(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 4))
        V = random_orthonormal(4, 8)
        err = reconstruction_error(X, V)
        assert err <= 1e-8 * np.sum(X * X)

    def test_orthogonal_subspace(self):
        X = np.zeros((5, 3))
        X[:, 0] = np.arange(1.0, 6.0)
        V = np.zeros((3, 1))
        V[1, 0] = 1.0
        assert reconstruction_error(X, V) == pytest.approx(np.sum(X * X))

    def test_matches_row_loop_oracle(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((15, 4))
        V = random_orthonormal(4, 10)[:, :2]
        expected = sum(
            float(np.linalg.norm((np.eye(4) - V @ V.T) @ x) ** 2) for x in X
        )
        assert reconstruction_error(X, V) == pytest.approx(expected, abs=1e-10)

    def test_monotone_in_subspace_growth(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((30, 5))
        V = random_orthonormal(5, 12)
        errs = [reconstruction_error(X, V[:, : m + 1]) for m in range(5)]
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(4))
