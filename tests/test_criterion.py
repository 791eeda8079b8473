import math

import numpy as np
import pytest

from levylab import criterion as cr
from levylab.derivatives import d1_d2_norm_batch
from levylab.norms import NormSpec, parse_spec

# Criterion values at the default grid, frozen from the earlier six-batch grid
# test (the Orlicz values from the Newton solve in log s of
# norms._luxemburg_batch); decay[k] is sup_theta d2 at x1 = 2^-k, the profile
# starting at x1 = 1.
PINNED = {
    "lq:q=4:dim=3": {
        "k_hat": 1.0529971310778756,
        "k_hat_at_x1": 0.7952727369459434,
        "decay": [
            0.8919053362520413, 0.6745056946277422, 0.1862251125955288,
            0.04685497956028924, 0.011718437082180228, 0.0029296826105628965,
            0.0007324217986024517, 0.00018310546755628837, 4.577636716884829e-05,
            1.1444091796583575e-05, 2.861022949214199e-06, 7.152557373046169e-07,
            1.788139343261709e-07, 4.470348358154298e-08, 1.117587089538575e-08,
            2.793967723846438e-09, 6.984919309616095e-10, 1.7462298274040238e-10,
            4.3655745685100594e-11, 1.0913936421275149e-11, 2.728484105318787e-12,
            6.821210263296968e-13, 1.705302565824242e-13, 4.263256414560605e-14,
            1.0658141036401512e-14, 2.664535259100378e-15,
        ],
    },
    "orlicz:terms=0.5*t^3+0.5*t^5:dim=3": {
        "k_hat": 1.0571372715618574,
        "k_hat_at_x1": 0.8235612182716407,
        "decay": [
            0.9186932859682149, 0.650595462584303, 0.2352900002299088,
            0.1030865165528367, 0.049658778900754035, 0.024591672428497365,
            0.01226601408271034, 0.00612927297340773, 0.003064169340850141,
            0.0015320262530844743, 0.0007660058228694371, 0.00038300199838156666,
            0.00019150088505326138, 9.575042825907313e-05, 4.78752123460689e-05,
            2.3937605950099557e-05, 1.1968802947182826e-05, 5.984401470108041e-06,
            2.9922007346185973e-06, 1.4961003672548709e-06, 7.48050183620632e-07,
            3.7402509180946556e-07, 1.8701254590462648e-07, 9.350627295229995e-08,
            4.6753136476148314e-08, 2.337656823807395e-08,
        ],
    },
}


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


# Verdicts at THETA_COUNT = 720, one spec per l_q exponent, Euclidean and Orlicz
# case; the tube grid is a fixed constant because none of them moves with it.
GRID_VERDICTS = {
    "lq:q=2.2:dim=3": cr.FAILS_III,
    "lq:q=2.5:dim=3": cr.APPLIES,
    "lq:q=3:dim=3": cr.APPLIES,
    "lq:q=4:dim=3": cr.APPLIES,
    "lq:q=6:dim=3": cr.APPLIES,
    "lq:q=20:dim=3": cr.APPLIES,
    "lq:q=100:dim=3": cr.APPLIES,
    "euclidean:dim=3": cr.FAILS_I,
    "orlicz:terms=0.5*t^3+0.5*t^5:dim=3": cr.APPLIES,
    "orlicz:terms=0.5*t^2+0.5*t^4:dim=3": cr.FAILS_I,
    "orlicz:terms=1*t^2.0000001:dim=3": cr.FAILS_III,
    "orlicz:terms=0.9*t^2.1+0.1*t^40:dim=3": cr.FAILS_III,
}


@pytest.mark.parametrize("label", list(GRID_VERDICTS))
def test_verdict_does_not_depend_on_the_theta_grid(monkeypatch, label):
    spec = parse_spec(label)
    for theta_count in (cr.THETA_COUNT, 8, 1440):
        monkeypatch.setattr(cr, "THETA_COUNT", theta_count)
        assert cr.second_derivative_test(spec).verdict == GRID_VERDICTS[label], theta_count


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
    def test_k_hat_stable_under_grid_doubling(self, q, monkeypatch):
        spec = NormSpec.lq(q, 3)
        base = cr.second_derivative_test(spec)
        monkeypatch.setattr(cr, "X1_MAX", 128.0)    # doubled, still a power of two
        monkeypatch.setattr(cr, "THETA_COUNT", 1440)
        fine = cr.second_derivative_test(spec)
        assert abs(fine.k_hat - base.k_hat) / base.k_hat < 0.05

    @pytest.mark.parametrize("label", ["lq:q=4:dim=3", "orlicz:terms=0.5*t^3+0.5*t^5:dim=3"])
    def test_report_values_pinned(self, reports, label):
        report = reports[label]
        expected = PINNED[label]
        assert report.k_hat == expected["k_hat"]
        assert report.k_hat_at_x1 == expected["k_hat_at_x1"]
        assert report.cond_i_max_d1 == 0.0
        assert report.cond_i_max_d2 == 0.0
        assert report.decay_profile == tuple(
            (2.0 ** -k, v) for k, v in enumerate(expected["decay"]))

    @pytest.mark.parametrize("theta_count", [8, cr.THETA_COUNT])
    def test_derivative_batches(self, monkeypatch, theta_count):
        # 1 condition-I batch, 8 scan blocks, 4 zoom steps of one x1 and one
        # theta batch of 33 rows each, 2 tail and 2 ladder blocks, none above
        # 16 * THETA_COUNT rows
        monkeypatch.setattr(cr, "THETA_COUNT", theta_count)
        rows = []

        def counted(spec, pts):
            rows.append(len(pts))
            return d1_d2_norm_batch(spec, pts)

        monkeypatch.setattr(cr, "d1_d2_norm_batch", counted)
        cr.second_derivative_test(NormSpec.lq(4, 3))
        assert len(rows) == 21
        assert rows.count(33) == 8
        assert max(rows) <= 16 * theta_count

    def test_assumptions_recorded(self, reports):
        report = reports["lq:q=4:dim=3"]
        assumptions = [line for line in cr.report_text(report).splitlines()
                       if line.startswith("assumption: ")]
        assert any("sampled" in a for a in assumptions)


class TestFlatnessShortcut:
    def test_quartic_eligible(self):
        assert cr.check_orlicz_flatness(NormSpec.orlicz_norm([(1, 4)], 3)).eligible

    def test_quadratic_rejected_with_reason(self):
        res = cr.check_orlicz_flatness(NormSpec.orlicz_norm([(1, 2)], 3))
        assert not res.eligible
        assert any("M''(0) = 2" in r for r in res.reasons)

    def test_fractional_exponents_above_two(self):
        res = cr.check_orlicz_flatness(NormSpec.orlicz_norm([(0.9, 3.0), (0.1, 2.5)], 3))
        assert res.eligible and res.note == "proved for power families"

    def test_linear_term_rejected(self):
        res = cr.check_orlicz_flatness(NormSpec.orlicz_norm([(0.5, 1), (0.5, 4)], 3))
        assert not res.eligible
        assert any("M'(0)" in r for r in res.reasons)

    def test_divergent_second_derivative_reported(self):
        res = cr.check_orlicz_flatness(NormSpec.orlicz_norm([(0.5, 1.5), (0.5, 4)], 3))
        assert not res.eligible
        assert any("diverges" in r for r in res.reasons)

    def test_shortcut_consistent_with_grid_test(self):
        # flat power families must pass the full numerical check
        rng = np.random.default_rng(42)
        for _ in range(3):
            exps = np.sort(rng.uniform(2.2, 6.0, size=2))
            coefs = rng.uniform(0.2, 1.0, size=2)
            spec = NormSpec.orlicz_norm(list(zip(coefs, exps)), 3)
            assert cr.check_orlicz_flatness(spec).eligible
            report = cr.second_derivative_test(spec)
            assert report.verdict == cr.APPLIES

    def test_disagreement_reported_in_both_directions(self):
        quadratic = cr.check_orlicz_flatness(NormSpec.orlicz_norm([(1, 2)], 3))
        flat = cr.check_orlicz_flatness(NormSpec.orlicz_norm([(1, 4)], 3))
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
