import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab import posdef
from levylab.norms import NormSpec
from levylab.posdef import (REFINE_STEPS, SCALE_SWEEP, kernel_matrix, min_eigenvalue,
                            pairwise_norms, witness_csv, witness_report_text,
                            witness_search)

L2 = NormSpec.lq(2, 3)
L4 = NormSpec.lq(4, 3)
L4_2 = NormSpec.lq(4, 2)

# regression baselines from the first verified run (seed 11, 20 points,
# 10^4 trials); searches are deterministic so these are exact reruns
L4_P15_WITNESS = -0.17273939268404315
L4_2_P15_WITNESS = -0.04387238781869016


class _EigenCountingNumpy:
    """numpy for ``posdef`` whose eigvalsh counts the matrices it solves."""

    def __init__(self):
        self.solved = 0
        self.linalg = SimpleNamespace(eigvalsh=self._eigvalsh)

    def _eigvalsh(self, a, *args, **kwargs):
        self.solved += math.prod(np.shape(a)[:-2])
        return np.linalg.eigvalsh(a, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


class TestKernel:
    def test_single_point(self):
        np.testing.assert_array_equal(kernel_matrix(L4, 1.0, [[0.0, 0.0, 0.0]]),
                                      [[1.0]])

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(0)
        G = kernel_matrix(L4, 1.5, rng.standard_normal((12, 3)))
        np.testing.assert_array_equal(G, G.T)
        np.testing.assert_array_equal(np.diag(G), np.ones(12))

    def test_gaussian_kernel_always_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            G = kernel_matrix(L2, 2.0, rng.standard_normal((10, 3)))
            assert min_eigenvalue(G) >= -1e-12

    def test_euclidean_p1_always_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            G = kernel_matrix(L2, 1.0, rng.standard_normal((10, 3)) * 2.0)
            assert min_eigenvalue(G) >= -1e-12

    def test_duplicate_points_warn(self):
        pts = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.warns(UserWarning, match="duplicate"):
            kernel_matrix(L4, 1.0, pts)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((8, 3))
        shift = np.array([0.7, -2.0, 1.1])
        np.testing.assert_allclose(kernel_matrix(L4, 1.5, pts),
                                   kernel_matrix(L4, 1.5, pts + shift), rtol=1e-12)

    @settings(max_examples=25)
    @given(st.integers(0, 2))
    def test_coordinate_sign_flip_invariance(self, axis):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((8, 3))
        flipped = pts.copy()
        flipped[:, axis] *= -1.0
        np.testing.assert_allclose(kernel_matrix(L4, 1.0, pts),
                                   kernel_matrix(L4, 1.0, flipped), rtol=1e-12)

    def test_pairwise_norms_zero_diagonal(self):
        rng = np.random.default_rng(5)
        D = pairwise_norms(L4, rng.standard_normal((6, 3)))
        np.testing.assert_array_equal(np.diag(D), np.zeros(6))


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(5)) == 1.0

    def test_rank_one_ones(self):
        assert min_eigenvalue(np.ones((2, 2))) == pytest.approx(0.0, abs=1e-15)

    def test_planted_spectrum(self):
        rng = np.random.default_rng(6)
        Q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        vals = np.sort(rng.standard_normal(9))
        M = Q @ np.diag(vals) @ Q.T
        M = 0.5 * (M + M.T)
        assert min_eigenvalue(M) == pytest.approx(vals[0], abs=1e-9)

    def test_row_order_independent(self):
        rng = np.random.default_rng(7)
        G = kernel_matrix(L4, 1.5, rng.standard_normal((10, 3)))
        perm = rng.permutation(10)
        assert min_eigenvalue(G[np.ix_(perm, perm)]) == pytest.approx(
            min_eigenvalue(G), abs=1e-12)

    def test_asymmetric_rejected(self):
        M = np.eye(3)
        M[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            min_eigenvalue(M)


class TestWitnessSearch:
    def test_l4_dim3_regression(self):
        w = witness_search(L4, 1.5, n_points=20, trials=10000, seed=11)
        assert w.found
        assert w.min_eigenvalue == pytest.approx(L4_P15_WITNESS, rel=1e-9)

    def test_l4_dim2_regression(self):
        w = witness_search(L4_2, 1.5, n_points=20, trials=10000, seed=11)
        assert w.found
        assert w.min_eigenvalue == pytest.approx(L4_2_P15_WITNESS, rel=1e-9)

    def test_witness_reverifiable_from_points(self):
        w = witness_search(L4, 1.5, n_points=12, trials=300, seed=5)
        rebuilt = min_eigenvalue(kernel_matrix(L4, 1.5, w.points))
        assert rebuilt == w.min_eigenvalue

    def test_euclidean_finds_nothing(self):
        w = witness_search(L2, 1.0, n_points=12, trials=500, seed=5)
        assert not w.found
        assert w.min_eigenvalue >= -1e-10

    def test_deterministic_bit_for_bit(self):
        a = witness_search(L4, 1.5, n_points=10, trials=200, seed=9)
        b = witness_search(L4, 1.5, n_points=10, trials=200, seed=9)
        assert np.array_equal(a.points, b.points)
        assert a.min_eigenvalue == b.min_eigenvalue
        assert witness_csv(a) == witness_csv(b)

    def test_eigenproblems_counts_every_kernel_solve(self, monkeypatch):
        counting = _EigenCountingNumpy()
        monkeypatch.setattr(posdef, "np", counting)
        w = witness_search(L4, 1.5, n_points=6, trials=7, seed=3)
        assert w.eigenproblems == counting.solved == 7 * len(SCALE_SWEEP) + REFINE_STEPS + 1
        assert f"\neigenproblems: {w.eigenproblems}\n" in witness_report_text(w)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            witness_search(L4, 1.5, n_points=2, trials=10, seed=0)
        with pytest.raises(ValueError):
            witness_search(L4, 1.5, n_points=5, trials=0, seed=0)
        with pytest.raises(ValueError):
            witness_search(L4, 2.5, n_points=5, trials=10, seed=0)

    def test_csv_header_carries_context(self):
        w = witness_search(L4, 1.5, n_points=8, trials=50, seed=2)
        text = witness_csv(w)
        head = text.splitlines()[0]
        assert "spec=lq:q=4:dim=3" in head and "p=1.5" in head and "seed=2" in head
        assert text.splitlines()[1] == "x_1,x_2,x_3"
        assert len(text.splitlines()) == 2 + 8
