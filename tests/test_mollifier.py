import math

import numpy as np
import pytest

from _reference import (Mollifier, continuum_rhs_euclidean, euclidean_pairing_limit,
                        fourier_constant_reference, reduced_lhs_lq, tensor_lhs)
from levylab import mollifier
from levylab.levy import SphericalMeasure, uniform_calibrated_measure
from levylab.mollifier import (DemoReport, demo_csv, fourier_constant, lhs_integral,
                               rhs_value)
from levylab.norms import NormSpec, parse_spec
from levylab.quadrature import QuadratureError

EUC = NormSpec.euclidean(3)
L4 = NormSpec.lq(4, 3)

# frozen from the first verified run; the reflection-formula route is also
# cross-checked against scipy's Gamma in test_matches_gamma_oracle
C_HALF = -1.2533141373155003
ATOM_E1_VALUE = 1.1627366340382375   # single atom at e1, p = 0.5, n = 2
ATOM_E1_LOWER = 0.41108947933122936

# (value, error, term_first, term_second, phi_count, panels) at p = 0.5,
# frozen from one adaptive theta-quadrature per phi (the Orlicz errors from
# the Newton solve in log s of norms._luxemburg_batch); batching the phi of a
# level must not move a single bit
LHS_BASELINE = {
    ("lq:q=4:dim=3", 2): (0.25833405599712916, 4.875012134936995e-08, -0.06270281611168649,
                          0.32103687210881565, 64, 1536),
    ("lq:q=4:dim=3", 32): (0.1217115247538224, 4.759354828727845e-08, -0.017707369474946288,
                           0.13941889422876869, 64, 1760),
    ("lq:q=4:dim=3", 1024): (0.021922347939678448, 8.838593913942268e-09,
                             -0.003132145592598649, 0.025054493532277098, 64, 1968),
    ("euclidean:dim=3", 2): (0.3517691371751348, 2.5685001512044264e-11,
                             -0.06758062473859196, 0.41934976191372675, 32, 704),
    ("euclidean:dim=3", 32): (0.8611696200277927, 3.440077166297142e-08,
                              -0.023943351223440514, 0.8851129712512332, 32, 704),
    ("euclidean:dim=3", 1024): (1.039362126577685, 2.2058126278915544e-08,
                                -0.00428185167204489, 1.0436439782497298, 32, 704),
    ("orlicz:terms=0.5*t^3+0.5*t^5:dim=3", 2): (
        0.26173663307229755, 5.462732742678545e-07, -0.06255540982403338,
        0.3242920428963309, 64, 1536),
    ("orlicz:terms=0.5*t^3+0.5*t^5:dim=3", 32): (
        0.14458334368881245, 1.136009877120882e-07, -0.017718792816154374,
        0.16230213650496683, 64, 1776),
    ("orlicz:terms=0.5*t^3+0.5*t^5:dim=3", 1024): (
        0.02909020279724057, 1.4899670747504622e-08, -0.0031343105604923114,
        0.03222451335773288, 64, 2028),
}


def nan_d2_at_phi_zero(real):
    """``d1_d2_norm_batch`` with d2 replaced by NaN on the phi = 0 rows."""
    def patched(spec, pts):
        d1, d2, nrm = real(spec, pts)
        return d1, np.where((pts[:, 1] == 1.0) & (pts[:, 2] == 0.0), np.nan, d2), nrm
    return patched


class TestFourierConstant:
    def test_exact_value_at_one(self):
        assert abs(fourier_constant(1.0) + 2.0) <= 1e-12

    def test_frozen_value_at_half(self):
        assert fourier_constant(0.5) == pytest.approx(C_HALF, rel=1e-14)

    def test_negative_on_zero_two(self):
        for p in np.linspace(0.05, 1.95, 39):
            assert fourier_constant(float(p)) < 0.0

    # 1.999, 1.99999 and 1.9999999 approach the pole at p = 2, where -p/2
    # nears the pole of Gamma at -1
    @pytest.mark.parametrize("p", [-0.5, 0.25, 0.5, 1.0, 1.5, 1.9, 1.999, 1.99999,
                                   1.9999999, 2.5, 3.0])
    def test_matches_gamma_oracle(self, p):
        assert fourier_constant(p) == pytest.approx(
            fourier_constant_reference(p), rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 2.0, 4.0])
    def test_even_integer_poles_rejected(self, p):
        with pytest.raises(ValueError):
            fourier_constant(p)

    def test_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            fourier_constant(-1.0)


class TestMollifier:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 128])
    def test_unit_mass(self, n):
        assert abs(Mollifier(n).mass() - 1.0) <= 1e-10

    def test_tail_mass_matches_erfc(self):
        for n in (1, 4, 16):
            tail = Mollifier(n).tail_mass(0.1)
            assert tail == pytest.approx(math.erfc(n * 0.1 / math.sqrt(2.0)), rel=1e-9)

    def test_tail_mass_vanishes_with_sharpness(self):
        tails = [Mollifier(n).tail_mass(0.1) for n in (1, 4, 16, 64)]
        assert all(b < a for a, b in zip(tails, tails[1:]))
        assert tails[-1] < 1e-8

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            Mollifier(0)


class TestRhsValue:
    def test_atom_off_axis_contributes_nothing(self):
        mu = SphericalMeasure(directions=np.array([[0.0, 1.0, 0.0]]),
                              weights=np.array([1.0]))
        for n in (1, 2, 16):
            value, lower = rhs_value(0.7, n, mu)
            assert value == 0.0 and lower == 0.0

    def test_atom_on_axis_fixture(self):
        mu = SphericalMeasure(directions=np.eye(3)[:1], weights=np.array([1.0]))
        value, lower = rhs_value(0.5, 2, mu)
        assert value == pytest.approx(ATOM_E1_VALUE, rel=1e-13)
        assert lower == pytest.approx(ATOM_E1_LOWER, rel=1e-13)

    def test_value_dominates_lower_bound_random_measures(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = rng.integers(1, 12)
            dirs = rng.standard_normal((k, 3))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            mu = SphericalMeasure(directions=dirs, weights=rng.random(k))
            p = float(rng.uniform(0.05, 1.9))
            n = int(rng.integers(1, 40))
            value, lower = rhs_value(p, n, mu)
            assert value >= lower >= 0.0

    def test_plane_supported_measure_gives_zero(self):
        # the degenerate configuration: all mass in the plane xi_1 = 0
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((6, 2))
        dirs = np.column_stack([np.zeros(6), raw / np.linalg.norm(raw, axis=1)[:, None]])
        mu = SphericalMeasure(directions=dirs, weights=rng.random(6))
        for n in (1, 4, 32):
            value, _ = rhs_value(0.5, n, mu)
            assert value == 0.0

    def test_p_range_enforced(self):
        mu = SphericalMeasure(directions=np.eye(3), weights=np.ones(3))
        with pytest.raises(ValueError):
            rhs_value(2.0, 4, mu)
        with pytest.raises(ValueError):
            rhs_value(0.0, 4, mu)


@pytest.fixture(scope="module")
def lhs_cache():
    return {
        ("euc", 4): lhs_integral(EUC, 0.5, 4),
        ("l4", 2): lhs_integral(L4, 0.5, 2),
        ("l4", 8): lhs_integral(L4, 0.5, 8),
    }


class TestLhsIntegral:
    def test_euclidean_matches_reduced_form(self, lhs_cache):
        res = lhs_cache[("euc", 4)]
        assert res.value == pytest.approx(reduced_lhs_lq(2.0, 0.5, 4), rel=2e-5)

    @pytest.mark.parametrize("n", [2, 8])
    def test_l4_matches_reduced_form(self, lhs_cache, n):
        res = lhs_cache[("l4", n)]
        assert res.value == pytest.approx(reduced_lhs_lq(4.0, 0.5, n), rel=2e-5)

    def test_error_estimate_within_tolerance(self, lhs_cache):
        for res in lhs_cache.values():
            assert res.error <= 1e-4 * abs(res.value)

    def test_first_term_nonpositive_second_nonnegative(self, lhs_cache):
        for res in lhs_cache.values():
            assert res.term_first <= 0.0
            assert res.term_second >= 0.0
            assert res.value == pytest.approx(res.term_first + res.term_second)

    def test_euclidean_value_bounded_away_from_zero(self, lhs_cache):
        # no flat section at x1 = 0: the pairing converges to a positive
        # limit instead of decaying
        assert lhs_cache[("euc", 4)].value > 0.3

    def test_decay_not_specific_to_quartic(self):
        # another flat norm decays the same way, and the quadrature still
        # tracks the independent reduced form
        spec = NormSpec.lq(6, 3)
        small = lhs_integral(spec, 0.5, 2)
        large = lhs_integral(spec, 0.5, 16)
        assert large.value < small.value
        assert large.value == pytest.approx(reduced_lhs_lq(6.0, 0.5, 16), rel=2e-5)

    def test_l4_matches_tensor_quadrature(self, lhs_cache):
        # the unreduced triple integral: no homogeneity, no radial moment
        assert lhs_cache[("l4", 2)].value == pytest.approx(tensor_lhs(L4, 0.5, 2), rel=2e-5)

    def test_diagnostics_recorded(self, lhs_cache):
        for res in lhs_cache.values():
            assert res.phi_count >= 2 * mollifier.PHI_START
            # 21 seeded breakpoints: at least 22 theta panels per phi evaluated
            assert res.panels >= 22 * res.phi_count
        assert lhs_integral(L4, 0.5, 2) == lhs_cache[("l4", 2)]
        assert lhs_integral(L4, 0.5, 2) == lhs_cache[("l4", 2)]

    def test_pairing_below_five_percent_by_4096_at_rate_p(self, lhs_cache):
        base = lhs_cache[("l4", 2)].value
        ns = (1024, 2048, 4096)
        values = [lhs_integral(L4, 0.5, n).value for n in ns]
        assert values[-1] < 0.05 * base
        slope = np.polyfit(np.log(ns), np.log(values), 1)[0]
        assert abs(slope + 0.5) <= 0.05

    @pytest.mark.parametrize("spec, n", list(LHS_BASELINE))
    def test_matches_frozen_baseline_bit_for_bit(self, spec, n):
        res = lhs_integral(parse_spec(spec), 0.5, n)
        assert (res.value, res.error, res.term_first, res.term_second,
                res.phi_count, res.panels) == LHS_BASELINE[(spec, n)]

    def test_demo_sweep_batches_each_round_into_one_derivative_call(self, monkeypatch):
        # one call per quadrature round of each phi level, over every phi of
        # the level: the l4 sweep makes 39 calls over 141,840 rows
        real = mollifier.d1_d2_norm_batch
        rows = []

        def counting(spec, pts):
            rows.append(len(pts))
            return real(spec, pts)

        monkeypatch.setattr(mollifier, "d1_d2_norm_batch", counting)
        mollifier.demo_run(L4, 0.5)
        assert (len(rows), sum(rows)) == (39, 141_840)

    def test_non_finite_integrand_raises_at_the_first_level(self, monkeypatch):
        monkeypatch.setattr(mollifier, "d1_d2_norm_batch",
                            nan_d2_at_phi_zero(mollifier.d1_d2_norm_batch))
        with pytest.raises(QuadratureError, match="non-finite .* phi_count = 16"):
            lhs_integral(L4, 0.5, 4)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lhs_integral(L4, 1.0, 4)          # p must sit inside (0, 1)
        with pytest.raises(ValueError):
            lhs_integral(NormSpec.lq(4, 2), 0.5, 4)
        with pytest.raises(ValueError):
            lhs_integral(NormSpec.lq(1.5, 3), 0.5, 4)
        mu = SphericalMeasure(directions=np.eye(3), weights=np.ones(3))
        for n in (0, 2.5):                     # the bump index is a positive integer
            with pytest.raises(ValueError, match="positive integer"):
                lhs_integral(L4, 0.5, n)
            with pytest.raises(ValueError, match="positive integer"):
                rhs_value(0.5, n, mu)


class TestContradictionScaffold:
    def test_candidate_measure_excluded_by_pairing_decay(self):
        # the moment-problem candidate for l4^3 carries substantial mass off
        # the plane xi_1 = 0 (the NNLS fit spreads it nearly coordinate-
        # symmetrically), so its Fourier-side floor exceeds the decaying
        # pairing: no such candidate can represent the norm
        from levylab.levy import feasibility_scan

        scan = feasibility_scan(NormSpec.lq(4, 3), 0.5, seed=7)
        report = mollifier.contradiction_report(L4, 0.5, scan.best_measure, n=128)
        assert report.floor_exceeds_pairing
        assert report.rhs_lower_bound > 2.0 * report.pairing_value
        assert report.plane_mass_fraction < 0.99

    def test_plane_concentrated_measure_escapes_the_floor(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((8, 2))
        dirs = np.column_stack([np.zeros(8),
                                raw / np.linalg.norm(raw, axis=1)[:, None]])
        mu = SphericalMeasure(directions=dirs, weights=rng.random(8))
        report = mollifier.contradiction_report(L4, 0.5, mu, n=8)
        assert report.rhs_lower_bound == 0.0
        assert report.plane_mass_fraction == 1.0
        assert not report.floor_exceeds_pairing


class TestIdentity:
    def test_euclidean_identity_short(self):
        # the Euclidean norm's representing measure is the calibrated uniform
        # one, so the direct and the Fourier-side pairing must agree
        mu = uniform_calibrated_measure(0.5)
        for n in (4, 8):
            lhs = lhs_integral(EUC, 0.5, n).value
            rhs, _ = rhs_value(0.5, n, mu)
            assert abs(lhs - rhs) / abs(rhs) <= 2e-2

    def test_discrete_rhs_tracks_continuum(self):
        mu = uniform_calibrated_measure(0.5)
        for n in (2, 8):
            value, _ = rhs_value(0.5, n, mu)
            assert value == pytest.approx(continuum_rhs_euclidean(0.5, n), rel=1e-3)

    def test_both_routes_climb_toward_the_closed_form_limit(self):
        # convergence is slow (~n^-p: n = 32 still sits near 80% of the
        # limit), but both routes stay below it, increase monotonically,
        # and agree with each other
        limit = euclidean_pairing_limit(0.5)
        mu = uniform_calibrated_measure(0.5)
        rhs_seq = [rhs_value(0.5, n, mu)[0] for n in (4, 8, 16, 32)]
        assert all(b > a for a, b in zip(rhs_seq, rhs_seq[1:]))
        assert all(v < limit for v in rhs_seq)
        # the 2048-atom discretization overshoots the continuum fraction
        # 0.799 by its pole resolution error (~7e-3 at n = 32)
        assert rhs_seq[-1] / limit == pytest.approx(0.8045, abs=5e-3)

    @pytest.mark.parametrize("text", ["lq:q=2:dim=3", "orlicz:terms=1*t^2:dim=3"])
    def test_every_spelling_of_l2_gets_the_fourier_side(self, text):
        report = mollifier.demo_run(parse_spec(text), 0.5)
        assert report.measure_atoms == 2048
        assert report.rows == mollifier.demo_run(EUC, 0.5).rows

    def test_demo_rows_hold_the_pairing_lhs_integral_returns(self):
        report = mollifier.demo_run(L4, 0.5)
        assert [row.n for row in report.rows] == list(mollifier.DEMO_N)
        for row in report.rows:
            assert row.pairing == lhs_integral(L4, 0.5, row.n)

    def test_demo_csv_shape(self):
        report = DemoReport(spec_label="lq:q=4:dim=3", p=0.5,
                            rows=[], measure_atoms=0)
        assert demo_csv(report).startswith("n,lhs,lhs_err,rhs,lower_bound")
