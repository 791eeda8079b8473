import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import full_pairwise_norms, serial_witness_search
from levylab import posdef
from levylab.norms import NormSpec
from levylab.posdef import (REFINE_STEP_FRACTION, REFINE_STEPS, SCALE_SWEEP, cannot_beat,
                            pairwise_norms, witness_csv, witness_report_text,
                            witness_search)

L2 = NormSpec.lq(2, 3)
L4 = NormSpec.lq(4, 3)
L4_2 = NormSpec.lq(4, 2)
ORLICZ_5 = NormSpec.orlicz_norm([(1.0, 2.0), (1.0, 8.0)], 5)

# regression baselines from the first verified run (seed 11, 20 points,
# 10^4 trials); searches are deterministic so these are exact reruns
L4_P15_WITNESS = -0.17273939268404315
L4_2_P15_WITNESS = -0.04387238781869016


class _EigenCountingNumpy:
    """numpy for ``posdef`` whose eigvalsh counts the matrices it solves."""

    def __init__(self):
        self.solved = 0
        self.linalg = SimpleNamespace(eigvalsh=self._eigvalsh,
                                      cholesky=np.linalg.cholesky,
                                      LinAlgError=np.linalg.LinAlgError)

    def _eigvalsh(self, a, *args, **kwargs):
        self.solved += math.prod(np.shape(a)[:-2])
        return np.linalg.eigvalsh(a, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


def kernel(spec, p, points):
    """exp(-||x_i - x_j||^p) of one point set."""
    return np.exp(-pairwise_norms(spec, np.asarray(points, dtype=float)) ** p)


class TestKernel:
    def test_single_point(self):
        np.testing.assert_array_equal(kernel(L4, 1.0, [[0.0, 0.0, 0.0]]), [[1.0]])

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(0)
        G = kernel(L4, 1.5, rng.standard_normal((12, 3)))
        np.testing.assert_array_equal(G, G.T)
        np.testing.assert_array_equal(np.diag(G), np.ones(12))

    def test_gaussian_kernel_always_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            G = kernel(L2, 2.0, rng.standard_normal((10, 3)))
            assert np.linalg.eigvalsh(G)[0] >= -1e-12

    def test_euclidean_p1_always_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            G = kernel(L2, 1.0, rng.standard_normal((10, 3)) * 2.0)
            assert np.linalg.eigvalsh(G)[0] >= -1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((8, 3))
        shift = np.array([0.7, -2.0, 1.1])
        np.testing.assert_allclose(kernel(L4, 1.5, pts),
                                   kernel(L4, 1.5, pts + shift), rtol=1e-12)

    @settings(max_examples=25)
    @given(st.integers(0, 2))
    def test_coordinate_sign_flip_invariance(self, axis):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((8, 3))
        flipped = pts.copy()
        flipped[:, axis] *= -1.0
        np.testing.assert_allclose(kernel(L4, 1.0, pts),
                                   kernel(L4, 1.0, flipped), rtol=1e-12)

    def test_pairwise_norms_zero_diagonal(self):
        rng = np.random.default_rng(5)
        D = pairwise_norms(L4, rng.standard_normal((6, 3)))
        np.testing.assert_array_equal(np.diag(D), np.zeros(6))

    @pytest.mark.parametrize("spec", [L4, L2, NormSpec.lq(math.inf, 3), ORLICZ_5])
    def test_pairwise_norms_stack_matches_each_cloud(self, spec):
        rng = np.random.default_rng(8)
        clouds = rng.standard_normal((4, 7, spec.dim))
        D = pairwise_norms(spec, clouds)
        assert D.shape == (4, 7, 7)
        for cloud, dist in zip(clouds, D):
            np.testing.assert_array_equal(dist, pairwise_norms(spec, cloud))
            np.testing.assert_array_equal(dist, full_pairwise_norms(spec, cloud))
        np.testing.assert_array_equal(D, np.swapaxes(D, -1, -2))
        np.testing.assert_array_equal(np.diagonal(D, axis1=-2, axis2=-1), np.zeros((4, 7)))


class TestScreen:
    @pytest.mark.parametrize("spec, p", [(L4, 1.5), (L2, 1.0), (ORLICZ_5, 1.3)])
    def test_screen_clears_only_kernels_that_cannot_beat_the_best(self, spec, p):
        rng = np.random.default_rng(10)
        dist = pairwise_norms(spec, rng.standard_normal((30, 12, spec.dim)))[:, None]
        kernels = np.exp(-(np.array(SCALE_SWEEP)[:, None, None] * dist) ** p)
        lowest = float(np.linalg.eigvalsh(kernels)[..., 0].min())
        assert not cannot_beat(kernels, lowest)     # a tie must be eigensolved
        assert not cannot_beat(kernels, lowest - 0.5 * posdef.SCREEN_MARGIN)
        assert cannot_beat(kernels, lowest - 1e-6)

    def test_unscreened_finds_exactly_the_kernels_that_can_beat_the_best(self):
        rng = np.random.default_rng(3)
        basis = np.linalg.qr(rng.standard_normal((40, 6, 6)))[0]
        spectra = rng.uniform(0.5, 2.0, (40, 6))
        spectra[[7, 29], 0] = -0.1                  # the two that beat best = 0
        kernels = basis @ (spectra[:, :, None] * basis.transpose(0, 2, 1))
        assert posdef.unscreened(kernels, 0.0) == [7, 29]


class TestWitnessSearch:
    def test_l4_dim3_regression(self):
        w = witness_search(L4, 1.5, n_points=20, trials=10000, seed=11)
        assert w.found
        assert w.min_eigenvalue == pytest.approx(L4_P15_WITNESS, rel=1e-9)

    def test_l4_dim2_regression(self):
        w = witness_search(L4_2, 1.5, n_points=20, trials=10000, seed=11)
        assert w.found
        assert w.min_eigenvalue == pytest.approx(L4_2_P15_WITNESS, rel=1e-9)

    def test_witness_reverifiable_from_points(self, monkeypatch):
        # a zero step proposes the same cloud, so the refinement never improves
        # and the reported eigenvalue is the scale sweep's, from scaled norms
        cases = [(L4, 1.5, 5), (L4_2, 0.5, 1), (NormSpec.lq(math.inf, 3), 1.0, 2),
                 (NormSpec.lq(1, 5), 2.0, 3), (ORLICZ_5, 1.3, 4), (NormSpec.lq(3, 8), 0.7, 0)]
        for step_fraction in (REFINE_STEP_FRACTION, 0.0):
            monkeypatch.setattr(posdef, "REFINE_STEP_FRACTION", step_fraction)
            for spec, p, seed in cases:
                w = witness_search(spec, p, n_points=12, trials=300, seed=seed)
                dist = full_pairwise_norms(spec, w.points)
                assert np.linalg.eigvalsh(np.exp(-dist ** p))[0] == w.min_eigenvalue

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

    @pytest.mark.parametrize("spec, p, n_points, trials, seed", [
        (L4_2, 1.5, 10, 40, 1),
        (L4, 1.5, 12, 37, 2),
        (NormSpec.lq(math.inf, 3), 1.0, 8, 20, 3),
        (NormSpec.lq(1, 4), 0.7, 9, 33, 4),
        (NormSpec.euclidean(3), 1.0, 10, 25, 5),
        (ORLICZ_5, 1.3, 7, 50, 6),
        (L4, 1.5, 3, 7, 7),
        (L4, 1.5, 181, 2, 8),     # 16,290 pairs: the largest cloud, one per block
    ])
    def test_matches_serial_reference_bit_for_bit(self, spec, p, n_points, trials, seed):
        w = witness_search(spec, p, n_points=n_points, trials=trials, seed=seed)
        ref = serial_witness_search(spec, p, n_points=n_points, trials=trials, seed=seed)
        assert np.array_equal(w.points, ref.points)
        assert w.min_eigenvalue == ref.min_eigenvalue
        assert witness_csv(w) == witness_csv(ref)

    @pytest.mark.parametrize("spec, p, n_points, trials, seed", [
        (L4, 1.5, 10, 60, 1),
        (NormSpec.euclidean(3), 1.0, 8, 60, 2),
        (ORLICZ_5, 1.3, 7, 60, 6),
    ])
    def test_matches_serial_reference_bit_for_bit_one_cloud_per_block(
            self, monkeypatch, spec, p, n_points, trials, seed):
        # one cloud per block, so the screen decides cloud by cloud
        monkeypatch.setattr(posdef, "SEARCH_BLOCK_ROWS", n_points * (n_points - 1) // 2)
        w = witness_search(spec, p, n_points=n_points, trials=trials, seed=seed)
        ref = serial_witness_search(spec, p, n_points=n_points, trials=trials, seed=seed)
        assert w.screened > trials * len(SCALE_SWEEP) // 2
        assert np.array_equal(w.points, ref.points)
        assert w.min_eigenvalue == ref.min_eigenvalue
        assert witness_csv(w) == witness_csv(ref)

    def test_block_size_does_not_change_the_witness(self, monkeypatch):
        runs = []
        for rows in (45, 10**9):       # one 10-point cloud per block, or all in one block
            monkeypatch.setattr(posdef, "SEARCH_BLOCK_ROWS", rows)
            runs.append(witness_search(L4, 1.5, n_points=10, trials=50, seed=4))
        assert np.array_equal(runs[0].points, runs[1].points)
        assert runs[0].min_eigenvalue == runs[1].min_eigenvalue
        assert witness_csv(runs[0]) == witness_csv(runs[1])

    @pytest.mark.parametrize("block_rows, n_points", [(500, 10), (45, 10), (1 << 14, 20)])
    def test_norm_batch_rows_stay_bounded(self, monkeypatch, block_rows, n_points):
        rows, real_norm_batch = [], posdef.norm_batch

        def recording_norm_batch(spec, xs):
            rows.append(len(xs))
            return real_norm_batch(spec, xs)

        monkeypatch.setattr(posdef, "SEARCH_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(posdef, "norm_batch", recording_norm_batch)
        witness_search(L4, 1.5, n_points=n_points, trials=2000, seed=1)
        pairs = n_points * (n_points - 1) // 2
        assert max(rows) <= block_rows
        assert sum(rows) == 2000 * pairs + REFINE_STEPS * n_points + pairs

    def test_eigenproblems_counts_every_kernel_solve(self, monkeypatch):
        counting = _EigenCountingNumpy()
        monkeypatch.setattr(posdef, "np", counting)
        w = witness_search(L4, 1.5, n_points=6, trials=7, seed=3)
        assert w.eigenproblems == counting.solved
        assert w.screened > 0
        assert w.eigenproblems + w.screened == 7 * len(SCALE_SWEEP) + REFINE_STEPS
        text = witness_report_text(w)
        assert f"\neigenproblems: {w.eigenproblems}\nscreened: {w.screened}\n" in text

    def test_input_validation(self):
        with pytest.raises(ValueError):
            witness_search(L4, 1.5, n_points=2, trials=10, seed=0)
        with pytest.raises(ValueError):
            witness_search(L4, 1.5, n_points=5, trials=0, seed=0)
        with pytest.raises(ValueError):
            witness_search(L4, 2.5, n_points=5, trials=10, seed=0)

    def test_cloud_must_fit_one_search_block(self, monkeypatch):
        with pytest.raises(ValueError, match="at most 181: 182 points make 16471 pairs"):
            witness_search(L4, 1.5, n_points=182, trials=1, seed=0)
        monkeypatch.setattr(posdef, "SEARCH_BLOCK_ROWS", 45)
        assert witness_search(L4, 1.5, n_points=10, trials=3, seed=0).points.shape == (10, 3)
        with pytest.raises(ValueError, match="at most 10: 11 points"):
            witness_search(L4, 1.5, n_points=11, trials=3, seed=0)

    def test_csv_header_carries_context(self):
        w = witness_search(L4, 1.5, n_points=8, trials=50, seed=2)
        text = witness_csv(w)
        head = text.splitlines()[0]
        assert "spec=lq:q=4:dim=3" in head and "p=1.5" in head and "seed=2" in head
        assert text.splitlines()[1] == "x_1,x_2,x_3"
        assert len(text.splitlines()) == 2 + 8
