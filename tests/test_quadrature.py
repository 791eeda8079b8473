import math

import numpy as np
import pytest
from _reference import lone_adaptive_integral

from levylab.quadrature import integrate_batch

# (centre, width) of a Lorentzian peak per integral: the broad ones converge
# on the seed panels, the narrow ones need more and more refinement rounds
PEAKS = [(0.3, 1.0), (0.5, 0.1), (0.7, 1e-2), (0.2, 1e-3), (0.6, 3e-5), (0.4, 1e-6)]


def peaks_integrand(peaks):
    centre = np.array([c for c, _ in peaks])
    width = np.array([w for _, w in peaks])

    def f(x, owner):
        w = width[owner]
        core = w / ((x - centre[owner]) ** 2 + w * w)
        return np.column_stack([core, x * core])

    return f


def alone(peak, **kwargs):
    return integrate_batch(peaks_integrand([peak]), 1, 0.0, 1.0, **kwargs)[0]


def same(a, b) -> bool:
    return (a.value.tobytes() == b.value.tobytes() and a.error == b.error
            and a.panels == b.panels and a.converged == b.converged)


class TestRule:
    @pytest.mark.parametrize("degree", range(24))
    def test_k15_exact_on_one_panel_through_degree_23(self, degree):
        # 2 * 7 + 1 Kronrod nodes: exact through degree 3 * 7 + 2
        res = integrate_batch(lambda x, _o: x ** degree, 1, 0.0, 1.0, max_panels=1)[0]
        assert res.panels == 1
        assert res.value[0] == pytest.approx(1.0 / (degree + 1), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("degree", [24, 26, 28])
    def test_k15_not_exact_from_degree_24(self, degree):
        # on [-1, 1] the odd powers vanish by symmetry; the first even power
        # past the Kronrod degree leaves a gap far above rounding
        res = integrate_batch(lambda x, _o: x ** degree, 1, -1.0, 1.0, max_panels=1)[0]
        assert abs(res.value[0] - 2.0 / (degree + 1)) > 1e-9

    def test_inverse_square_root_with_breakpoints(self):
        res = integrate_batch(lambda x, _o: x ** -0.5, 1, 0.0, 1.0, rel_tol=1e-10,
                              breakpoints=[2.0 ** -k for k in range(1, 40)])[0]
        assert res.converged
        assert abs(res.value[0] - 2.0) <= res.error
        assert res.error <= 1e-10 * 2.0

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 0.0), (0.0, math.nan)])
    def test_empty_or_reversed_interval_rejected(self, a, b):
        with pytest.raises(ValueError, match="bad interval"):
            integrate_batch(lambda x, _o: x, 1, a, b)
        with pytest.raises(ValueError, match="bad interval"):
            integrate_batch(lambda x, owner: x, 2, a, b)


class TestBatch:
    def test_each_integral_equals_running_it_alone(self):
        seen = []
        f = peaks_integrand(PEAKS)

        def counting(x, owner):
            assert owner.shape == x.shape
            seen.append(set(np.unique(owner).tolist()))
            return f(x, owner)

        batch = integrate_batch(counting, len(PEAKS), 0.0, 1.0, rel_tol=1e-9,
                                breakpoints=[0.25, 0.5, 0.75])
        for peak, res in zip(PEAKS, batch):
            assert same(res, alone(peak, rel_tol=1e-9, breakpoints=[0.25, 0.5, 0.75]))
        assert all(res.converged for res in batch)
        # every integral is in the first call; the integrals stop in
        # different rounds, and one that has stopped never comes back
        assert seen[0] == set(range(len(PEAKS)))
        assert all(b <= a for a, b in zip(seen, seen[1:]))
        rounds = [sum(i in s for s in seen) for i in range(len(PEAKS))]
        assert len(set(rounds)) >= 4 and rounds[0] == 1

    def test_integral_stopped_by_max_panels_matches_alone(self):
        batch = integrate_batch(peaks_integrand(PEAKS), len(PEAKS), 0.0, 1.0,
                                rel_tol=1e-9, max_panels=12)
        for peak, res in zip(PEAKS, batch):
            assert same(res, alone(peak, rel_tol=1e-9, max_panels=12))
        assert batch[0].converged
        assert not batch[-1].converged
        assert batch[-1].panels >= 12

    @pytest.mark.parametrize("kwargs", [
        dict(rel_tol=1e-9), dict(rel_tol=1e-9, max_panels=12),
        dict(rel_tol=1e-12, breakpoints=[0.25, 0.5, 0.75])])
    def test_table_matches_one_integral_refined_on_its_own_arrays(self, kwargs):
        batch = integrate_batch(peaks_integrand(PEAKS), len(PEAKS), 0.0, 1.0, **kwargs)
        for i, res in enumerate(batch):
            lone = peaks_integrand([PEAKS[i]])
            assert same(res, lone_adaptive_integral(
                lambda x: lone(x, np.zeros(len(x), dtype=int)), 0.0, 1.0, **kwargs))

    def test_permuting_the_batch_changes_no_result(self):
        f = peaks_integrand(PEAKS)
        base = integrate_batch(f, len(PEAKS), 0.0, 1.0, rel_tol=1e-9)
        perm = np.random.default_rng(0).permutation(len(PEAKS))
        shuffled = integrate_batch(peaks_integrand([PEAKS[i] for i in perm]),
                                   len(PEAKS), 0.0, 1.0, rel_tol=1e-9)
        for j, i in enumerate(perm):
            assert same(shuffled[j], base[i])
