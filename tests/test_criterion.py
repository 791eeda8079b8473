import math

import numpy as np
import pytest

from levylab import criterion as cr
from levylab.norms import NormSpec, OrliczFunction, parse_spec


@pytest.fixture(scope="module")
def reports():
    """One shared pass over the specs the verdict tests need."""
    labels = ["lq:q=3:dim=3", "lq:q=4:dim=3", "lq:q=6:dim=3",
              "orlicz:terms=0.5*t^3+0.5*t^5:dim=3", "lq:q=2:dim=3"]
    return {label: cr.second_derivative_test(parse_spec(label)) for label in labels}


class TestVerdicts:
    @pytest.mark.parametrize("label", [
        "lq:q=3:dim=3", "lq:q=4:dim=3", "lq:q=6:dim=3",
        "orlicz:terms=0.5*t^3+0.5*t^5:dim=3",
    ])
    def test_flat_norms_apply(self, reports, label):
        report = reports[label]
        assert report.verdict == cr.APPLIES
        assert report.cond_i_max_d1 <= 1e-8
        assert report.cond_i_max_d2 <= 1e-8

    def test_euclidean_fails_condition_one(self, reports):
        report = reports["lq:q=2:dim=3"]
        assert report.verdict == cr.FAILS_I
        assert report.cond_i_max_d2 == pytest.approx(1.0, abs=1e-6)
        assert report.cond_i_max_d1 <= 1e-8

    def test_dim_two_refused(self):
        report = cr.second_derivative_test(NormSpec.lq(4, 2))
        assert report.verdict == cr.NOT_APPLICABLE
        assert "dim" in report.reason

    def test_max_norm_refused(self):
        report = cr.second_derivative_test(NormSpec.lq(math.inf, 3))
        assert report.verdict == cr.NOT_APPLICABLE
        assert "inf" in report.reason

    def test_rough_lq_refused(self):
        report = cr.second_derivative_test(NormSpec.lq(1.5, 3))
        assert report.verdict == cr.NOT_APPLICABLE
        assert "C^2" in report.reason

    def test_rough_orlicz_refused(self):
        spec = NormSpec.orlicz_norm([(0.5, 1.5), (0.5, 3.0)], 3)
        report = cr.second_derivative_test(spec)
        assert report.verdict == cr.NOT_APPLICABLE

    def test_degenerate_grid_parameters_rejected(self):
        with pytest.raises(ValueError):
            cr.second_derivative_test(NormSpec.lq(4, 3), theta_count=4)
        with pytest.raises(ValueError):
            cr.second_derivative_test(NormSpec.lq(4, 3), x1_max=1e-6)


class TestReportInvariants:
    def test_applies_profile_monotone_below_tol(self, reports):
        report = reports["lq:q=4:dim=3"]
        values = [v for _, v in report.decay_profile]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(values, values[1:]))
        assert values[-1] <= cr.TOL_III
        assert len(values) >= 11

    def test_k_hat_dominates_samples(self, reports):
        for label in ("lq:q=4:dim=3", "orlicz:terms=0.5*t^3+0.5*t^5:dim=3"):
            report = reports[label]
            assert all(v <= report.k_hat * (1 + 1e-12)
                       for _, v in report.decay_profile)
            assert report.cond_i_max_d2 <= report.k_hat

    @pytest.mark.parametrize("q", [3, 4, 6])
    def test_k_hat_stable_under_grid_doubling(self, q):
        spec = NormSpec.lq(q, 3)
        base = cr.second_derivative_test(spec)
        fine = cr.second_derivative_test(spec, theta_count=1440, x1_max=128.0)
        assert abs(fine.k_hat - base.k_hat) / base.k_hat < 0.05

    def test_assumptions_recorded(self, reports):
        report = reports["lq:q=4:dim=3"]
        assert any("sampled" in a for a in report.assumptions)


class TestFlatnessShortcut:
    def test_quartic_eligible(self):
        assert cr.check_orlicz_flatness(OrliczFunction.from_terms([(1, 4)])).eligible

    def test_quadratic_rejected_with_reason(self):
        res = cr.check_orlicz_flatness(OrliczFunction.from_terms([(1, 2)]))
        assert not res.eligible
        assert any("M''(0) = 2" in r for r in res.reasons)

    def test_fractional_exponents_above_two(self):
        fn = OrliczFunction.from_terms([(0.9, 3.0), (0.1, 2.5)])
        res = cr.check_orlicz_flatness(fn)
        assert res.eligible and res.note == "proved for power families"

    def test_linear_term_rejected(self):
        res = cr.check_orlicz_flatness(OrliczFunction.from_terms([(0.5, 1), (0.5, 4)]))
        assert not res.eligible
        assert any("M'(0)" in r for r in res.reasons)

    def test_divergent_second_derivative_reported(self):
        res = cr.check_orlicz_flatness(OrliczFunction.from_terms([(0.5, 1.5), (0.5, 4)]))
        assert not res.eligible
        assert any("diverges" in r for r in res.reasons)

    def test_shortcut_consistent_with_grid_test(self):
        # flat power families must pass the full numerical check
        rng = np.random.default_rng(42)
        for _ in range(3):
            exps = np.sort(rng.uniform(2.2, 6.0, size=2))
            coefs = rng.uniform(0.2, 1.0, size=2)
            fn = OrliczFunction.from_terms(list(zip(coefs, exps)))
            assert cr.check_orlicz_flatness(fn).eligible
            report = cr.second_derivative_test(NormSpec.orlicz_norm(fn, 3))
            assert report.verdict == cr.APPLIES

    def test_disagreement_reported_in_both_directions(self):
        quadratic = cr.check_orlicz_flatness(OrliczFunction.from_terms([(1, 2)]))
        flat = cr.check_orlicz_flatness(OrliczFunction.from_terms([(1, 4)]))
        applies = cr.CriterionReport("x", cr.APPLIES, analytic_flatness=quadratic)
        assert "M''(0) = 2" in applies.disagreement
        assert "grid verdict is Applies" in cr.report_text(applies)
        fails = cr.CriterionReport("x", cr.FAILS_III, analytic_flatness=flat)
        assert "proves conditions I-III" in fails.disagreement
        for verdict, fn in ((cr.FAILS_I, quadratic), (cr.APPLIES, flat),
                            (cr.NOT_APPLICABLE, flat)):
            report = cr.CriterionReport("x", verdict, analytic_flatness=fn)
            assert report.disagreement == ""
            assert "disagreement:" not in cr.report_text(report)


class TestSerialization:
    def test_report_text_fields(self, reports):
        text = cr.report_text(reports["lq:q=4:dim=3"])
        for key in ("spec:", "verdict:", "cond_i_max_d1:", "cond_i_max_d2:",
                    "K_hat:", "tol_i:", "tol_iii:"):
            assert key in text

    def test_decay_csv_shape(self, reports):
        csv = cr.decay_profile_csv(reports["lq:q=4:dim=3"])
        lines = csv.strip().split("\n")
        assert lines[0] == "x1,sup_d2"
        assert len(lines) == 1 + len(reports["lq:q=4:dim=3"].decay_profile)

    def test_deterministic_serialization(self, reports):
        report_a = cr.second_derivative_test(NormSpec.lq(3, 3))
        assert cr.report_text(report_a) == cr.report_text(
            cr.second_derivative_test(NormSpec.lq(3, 3)))
