import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import fd_d1, fd_d2
from levylab import criterion
from levylab.derivatives import d1_d2_norm_batch
from levylab.norms import NormSpec, norm_batch, parse_spec

T4 = parse_spec("orlicz:terms=1*t^4:dim=3")
T2 = parse_spec("orlicz:terms=1*t^2:dim=3")
MIX = parse_spec("orlicz:terms=0.5*t^3+0.5*t^5:dim=3")
L2 = NormSpec.lq(2, 3)
L4 = NormSpec.lq(4, 3)

# Floored relative comparison: central second differences of an eps-accurate
# norm carry ~eps ||x|| / h^2 ~ 5e-6 absolute noise at h = 1e-5, so pointwise
# relative error is meaningless where |d2| sits below that; the tolerances
# act relative to max(|value|, floor) with the floor at the noise scale.
D1_REL, D1_FLOOR = 1e-5, 0.01
D2_REL, D2_FLOOR = 1e-3, 0.05

# fixed probes: interior points, x1 = 0, a tiny x1, and a point with x1 < 0
DERIVE_PROBES = (
    (0.5, 1.0, 0.25),
    (1.0, 1.0, 1.0),
    (0.0, 1.0, 1.0),
    (2.0, 0.5, 0.5),
    (0.001, 1.0, 0.0),
    (-1.0, 0.3, 0.8),
)
# (d1, d2) of each probe for lq:q=4:dim=3, frozen from a run that
# evaluated one probe per call
L4_DERIVE_D1_D2 = [
    (0.11911542419999835, 0.67280580262416678),
    (0.43869133765083085, 0.87738267530166181),
    (0.0, 0.0),
    (0.99418039455939189, 0.01156023714603944),
    (9.9999999999925002e-10, 2.9999999999947502e-06),
    (-0.76968273608106152, 0.68031983958748565),
]


def d1_d2(spec, x) -> tuple[float, float]:
    """(d1, d2) at the single point x."""
    d1, d2, _ = d1_d2_norm_batch(spec, np.asarray(x, dtype=float)[None, :])
    return float(d1[0]), float(d2[0])


def _random_points(rng, count, min_section=0.1):
    pts = rng.standard_normal((count, 3))
    bad = np.hypot(pts[:, 1], pts[:, 2]) < min_section
    while np.any(bad):
        pts[bad] = rng.standard_normal((int(bad.sum()), 3))
        bad = np.hypot(pts[:, 1], pts[:, 2]) < min_section
    return pts


class TestAnalyticValues:
    def test_power_norm_reduction_at_diagonal(self):
        # M(t) = t^q collapses the quotient to x1^{q-1} / ||x||^{q-1}
        value, _ = d1_d2(T4, (1.0, 1.0, 1.0))
        assert value == pytest.approx(3.0 ** -0.75, rel=1e-12)

    def test_zero_section_derivatives_for_flat_norm(self):
        for x23 in [(1.0, 2.0), (0.5, 0.0), (3.0, -1.0)]:
            assert d1_d2(T4, (0.0, *x23)) == (0.0, 0.0)

    def test_euclidean_d2_at_zero_section(self):
        # d^2/dx1^2 sqrt(x1^2 + r^2) at x1 = 0 equals 1/r
        assert d1_d2(T2, (0.0, 3.0, 4.0))[1] == pytest.approx(0.2, rel=1e-10)
        assert d1_d2(T2, (0.0, 1.0, 0.0))[1] == pytest.approx(1.0, rel=1e-10)

    def test_d1_range_at_positive_orthant(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = np.abs(rng.standard_normal(3)) + 1e-3
            d1, _ = d1_d2(MIX, x)
            assert 0.0 <= d1 <= 1.0 + 1e-9

    def test_degenerate_section_rejected(self):
        with pytest.raises(ValueError):
            d1_d2(T4, (1.0, 0.0, 0.0))


class TestSymmetriesAndBounds:
    def test_d1_odd_d2_even_in_x1(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.standard_normal(3)
            if np.hypot(x[1], x[2]) < 1e-6:
                continue
            flipped = x * np.array([-1.0, 1.0, 1.0])
            (d1, d2), (f1, f2) = d1_d2(MIX, x), d1_d2(MIX, flipped)
            assert f1 == pytest.approx(-d1, abs=1e-15)
            assert f2 == pytest.approx(d2, abs=1e-15)

    def test_gradient_bound_500_points(self):
        rng = np.random.default_rng(8)
        pts = _random_points(rng, 500)
        d1, d2, _ = d1_d2_norm_batch(T4, pts)
        assert np.max(np.abs(d1)) <= 1.0 + 1e-9
        assert np.min(d2) >= -1e-9

    def test_degree_minus_one_homogeneity(self):
        rng = np.random.default_rng(9)
        pts = _random_points(rng, 500)
        _, d2, _ = d1_d2_norm_batch(T4, pts)
        _, d2_scaled, _ = d1_d2_norm_batch(T4, 2.0 * pts)
        assert np.max(np.abs(d2_scaled - d2 / 2.0)) <= 1e-9

    def test_d2_bounded_by_k_hat_over_section_norm(self):
        report = criterion.second_derivative_test(MIX)
        assert report.verdict == criterion.APPLIES
        rng = np.random.default_rng(10)
        pts = _random_points(rng, 500)
        _, d2, _ = d1_d2_norm_batch(MIX, pts)
        sections = pts.copy()
        sections[:, 0] = 0.0
        section_norms = norm_batch(MIX, sections)
        assert np.all(d2 <= report.k_hat / section_norms * (1.0 + 1e-9))

    @pytest.mark.parametrize(
        "spec", [T4, T2, MIX, NormSpec.orlicz_norm([(0.2, 3.0), (0.3, 4.0), (0.5, 7.0)], 3)],
        ids=["t^4", "t^2", "mix", "three-term"])
    def test_exact_power_of_two_homogeneity(self, spec):
        # the criterion's condition-II tail is its scan continued on
        # x1 = X1_MAX 2^k, which rests on this holding bit for bit
        pts = _random_points(np.random.default_rng(17), 500)
        d1, d2, nrm = d1_d2_norm_batch(spec, pts)
        for k in range(-40, 41):
            scale = 2.0 ** k
            d1_s, d2_s, nrm_s = d1_d2_norm_batch(spec, scale * pts)
            assert np.array_equal(d1_s, d1)
            assert np.array_equal(d2_s * scale, d2)
            assert np.array_equal(nrm_s / scale, nrm)

    @settings(max_examples=40)
    @given(st.floats(-4, 4), st.floats(0.2, 3), st.floats(-3, 3),
           st.floats(0.25, 4))
    def test_homogeneity_property(self, x1, x2, x3, lam):
        x = np.array([x1, x2, x3])
        _, d2 = d1_d2(MIX, x)
        assert d1_d2(MIX, lam * x)[1] == pytest.approx(d2 / lam, rel=1e-9, abs=1e-12)


class TestBatching:
    @pytest.mark.parametrize(
        "spec", [T4, T2, MIX, NormSpec.orlicz_norm([(0.3, 2.0), (0.7, 7.5)], 3)],
        ids=["t^4", "t^2", "mix", "t^2+t^7.5"])
    def test_rows_equal_points_evaluated_alone(self, spec):
        # the fixed probes, random points, and rows x1 = 1 with shrinking
        # sections (the criterion's tail rows after prescaling) all go
        # through one call
        rng = np.random.default_rng(31)
        tube = _random_points(rng, 40)[:, 1:]
        tail = np.concatenate([np.column_stack([np.ones(len(tube)), tube * 2.0 ** -k])
                               for k in range(0, 40, 8)])
        pts = np.vstack([DERIVE_PROBES, _random_points(rng, 200), tail])
        batch = d1_d2_norm_batch(spec, pts)
        alone = [d1_d2_norm_batch(spec, x[None, :]) for x in pts]
        for k in range(3):
            assert np.array_equal(batch[k], np.concatenate([a[k] for a in alone]))


class TestFiniteDifferenceOracle:
    def test_probe_table(self):
        d1, d2, _ = d1_d2_norm_batch(T4, DERIVE_PROBES)
        for x, a1, a2, frozen in zip(DERIVE_PROBES, d1, d2, L4_DERIVE_D1_D2):
            assert (a1, a2) == pytest.approx(frozen, rel=1e-12, abs=0.0)
            f1, f2 = fd_d1(L4, x), fd_d2(L4, x)
            assert abs(a1 - f1) <= D1_REL * max(abs(f1), D1_FLOOR)
            assert abs(a2 - f2) <= D2_REL * max(abs(f2), D2_FLOOR)

    def test_euclidean_gradient(self):
        assert fd_d1(L2, (3.0, 4.0, 0.0)) == pytest.approx(0.6, abs=1e-8)

    def test_l4_cross_check_single_point(self):
        d1, d2 = d1_d2(L4, (1.0, 1.0, 1.0))
        assert fd_d1(L4, (1.0, 1.0, 1.0)) == pytest.approx(d1, rel=1e-6)
        assert fd_d2(L4, (1.0, 1.0, 1.0)) == pytest.approx(d2, rel=1e-4)

    @pytest.mark.parametrize("spec,fn", [(L4, T4), (MIX, MIX), (L2, T2),
                                         (parse_spec("euclidean:dim=3"), T2)])
    def test_analytic_vs_central_differences_500_points(self, spec, fn):
        rng = np.random.default_rng(21)
        pts = _random_points(rng, 500)
        d1, d2, nrm = d1_d2_norm_batch(fn, pts)
        # one M in any spelling: l_q and Euclidean match t^q bit for bit
        assert all(np.array_equal(a, b)
                   for a, b in zip(d1_d2_norm_batch(spec, pts), (d1, d2, nrm)))
        for x, a1, a2 in zip(pts, d1, d2):
            f1 = fd_d1(spec, x)
            f2 = fd_d2(spec, x)
            assert abs(a1 - f1) <= D1_REL * max(abs(f1), D1_FLOOR)
            assert abs(a2 - f2) <= D2_REL * max(abs(f2), D2_FLOOR)

    def test_custom_step_honored(self):
        x = (0.7, 1.0, 0.2)
        coarse = fd_d2(L4, x, h=1e-2)
        default = fd_d2(L4, x)
        _, exact = d1_d2(T4, x)
        assert abs(default - exact) < abs(coarse - exact)
