"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line (visible with -s or in captured output);
a failing criterion prints FAIL with the measured values before asserting.

Criterion 5's mollified-pairing decay assertion (below 5% of the n = 2
value by n <= 128) is implemented exactly as stated and is expected to
fail: the pairing decays like n^(-p), so at p = 0.5 the n = 128 value sits
near 24% of the n = 2 value, and reaching 5% needs n ~ 4000. The decay
itself, its rate, and the quadrature are verified against an independent
reduced-form oracle in test_mollifier.py, so the red assertion records the
stated threshold being out of reach at this bump index, not a numerical
defect.
"""

import math

import numpy as np
import pytest

from _reference import Mollifier, fd_d1, fd_d2
from levylab import criterion as cr
from levylab import levy, mollifier, posdef
from levylab.cli import main as cli_main
from levylab.derivatives import d1_d2_norm_batch
from levylab.norms import NormSpec, parse_spec

# -- regression baselines from the first verified run ------------------------
L4_P1_PLATEAU = 0.029208427881332277         # l4^3, p=1, seed 7, final level
L4_P15_WITNESS = -0.17273939268404315        # l4^3, p=1.5, seed 11, 20 pts, 1e4 trials
L4_2_P15_WITNESS = -0.04387238781869016      # l4^2, same search parameters
LHS_L4_SWEEP = {                             # l4^3, p=0.5 mollified pairing
    2: 0.2583340559839314,
    4: 0.2613190617563506,
    8: 0.21929330635019806,
    16: 0.16700662931062044,
    32: 0.12171152475050216,
    64: 0.08708281696097143,
    128: 0.06185221031343608,
}


def report_line(ok: bool, label: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return ok


# ---------------------------------------------------------------- criterion 1
@pytest.fixture(scope="module")
def reports():
    labels = ["lq:q=3:dim=3", "lq:q=4:dim=3", "lq:q=6:dim=3",
              "orlicz:terms=0.5*t^3+0.5*t^5:dim=3", "lq:q=2:dim=3"]
    return {lab: cr.second_derivative_test(parse_spec(lab)) for lab in labels}


class TestCriterion1SecondDerivativeTest:
    @pytest.mark.parametrize("label", ["lq:q=3:dim=3", "lq:q=4:dim=3",
                                       "lq:q=6:dim=3",
                                       "orlicz:terms=0.5*t^3+0.5*t^5:dim=3"])
    def test_applies_with_vanishing_section_derivatives(self, reports, label):
        rep = reports[label]
        ok = (rep.verdict == cr.APPLIES and rep.cond_i_max_d1 <= 1e-8
              and rep.cond_i_max_d2 <= 1e-8)
        assert report_line(ok, "criterion-1 verdict",
                           f"{label} -> {rep.verdict}, cond_i=({rep.cond_i_max_d1:.2e},"
                           f" {rep.cond_i_max_d2:.2e})")

    def test_euclidean_fails_with_unit_second_derivative(self, reports):
        rep = reports["lq:q=2:dim=3"]
        ok = (rep.verdict == cr.FAILS_I
              and abs(rep.cond_i_max_d2 - 1.0) <= 1e-6)
        assert report_line(ok, "criterion-1 l2 rejection",
                           f"verdict={rep.verdict}, cond_i_max_d2={rep.cond_i_max_d2!r}")

    def test_refusals_carry_reasons(self):
        dim2 = cr.second_derivative_test(NormSpec.lq(4, 2))
        inf3 = cr.second_derivative_test(NormSpec.lq(math.inf, 3))
        ok = (dim2.verdict == cr.NOT_APPLICABLE and dim2.reason
              and inf3.verdict == cr.NOT_APPLICABLE and inf3.reason)
        assert report_line(ok, "criterion-1 refusals",
                           f"dim2: {dim2.reason[:40]}...; inf: {inf3.reason[:40]}...")


# ---------------------------------------------------------------- criterion 2
@pytest.fixture(scope="module")
def sample():
    rng = np.random.default_rng(21)
    pts = rng.standard_normal((500, 3))
    bad = np.hypot(pts[:, 1], pts[:, 2]) < 0.1
    while np.any(bad):
        pts[bad] = rng.standard_normal((int(bad.sum()), 3))
        bad = np.hypot(pts[:, 1], pts[:, 2]) < 0.1
    return pts


class TestCriterion2DerivativeOracle:
    def test_analytic_matches_finite_differences(self, sample):
        # relative tolerances with an absolute floor at the second-difference
        # noise scale (~eps ||x|| / h^2); see test_derivatives for the analysis
        spec = NormSpec.lq(4, 3)
        d1, d2, _ = d1_d2_norm_batch(NormSpec.orlicz_norm([(1.0, 4.0)], 3), sample)
        worst1 = worst2 = 0.0
        for x, a1, a2 in zip(sample, d1, d2):
            f1, f2 = fd_d1(spec, x), fd_d2(spec, x)
            worst1 = max(worst1, abs(a1 - f1) / max(abs(f1), 0.01))
            worst2 = max(worst2, abs(a2 - f2) / max(abs(f2), 0.05))
        ok = worst1 <= 1e-5 and worst2 <= 1e-3
        assert report_line(ok, "criterion-2 oracle",
                           f"500 points: d1 worst {worst1:.2e} (tol 1e-5), "
                           f"d2 worst {worst2:.2e} (tol 1e-3)")

    def test_gradient_bound_and_homogeneity(self, sample):
        spec = NormSpec.orlicz_norm([(1.0, 4.0)], 3)
        d1, d2, _ = d1_d2_norm_batch(spec, sample)
        _, d2_scaled, _ = d1_d2_norm_batch(spec, 2.0 * sample)
        bound_ok = np.max(np.abs(d1)) <= 1.0 + 1e-9
        homog_ok = np.max(np.abs(d2_scaled - d2 / 2.0)) <= 1e-9
        ok = bound_ok and homog_ok
        assert report_line(ok, "criterion-2 invariants",
                           f"max|d1|={np.max(np.abs(d1)):.12f}, "
                           f"homogeneity gap={np.max(np.abs(d2_scaled - d2 / 2.0)):.2e}")


# ---------------------------------------------------------------- criterion 3
class TestCriterion3MomentProblem:
    def test_l1_three_atom_system_exact(self):
        rng = np.random.default_rng(31)
        spec = NormSpec.lq(1, 3)
        samples = levy.sample_norm_sphere(spec, 200, rng)
        A, b = levy.assemble_moment_system(spec, 1.0, samples, np.eye(3))
        sol = levy.solve_nnls(A, b)
        ok = sol.relative_residual <= 1e-10
        assert report_line(ok, "criterion-3 l1 atoms",
                           f"3-atom residual {sol.relative_residual:.2e} (tol 1e-10)")

    def test_l4_dim2_feasible_by_256_directions(self):
        res = levy.feasibility_scan(NormSpec.lq(4, 2), 1.0, seed=7)
        final = res.levels[-1]
        ok = (res.interpretation == levy.FEASIBLE
              and final.direction_count == 256
              and final.relative_residual <= 1e-3)
        assert report_line(ok, "criterion-3 l4^2 feasible",
                           f"{res.interpretation}, final residual "
                           f"{final.relative_residual:.2e} at {final.direction_count} dirs")

    def test_l4_dim3_infeasible_plateau(self):
        res = levy.feasibility_scan(NormSpec.lq(4, 3), 1.0, seed=7)
        plateau = res.levels[-1].relative_residual
        ok = (res.interpretation == levy.INFEASIBLE
              and plateau == pytest.approx(L4_P1_PLATEAU, rel=1e-6))
        assert report_line(ok, "criterion-3 l4^3 plateau",
                           f"{res.interpretation}, plateau {plateau!r} "
                           f"(baseline {L4_P1_PLATEAU!r})")

    def test_euclidean_p2_exact(self):
        rng = np.random.default_rng(32)
        spec = NormSpec.euclidean(3)
        samples = levy.sample_norm_sphere(spec, 128, rng)
        A, b = levy.assemble_moment_system(spec, 2.0, samples, np.eye(3))
        sol = levy.solve_nnls(A, b)
        ok = sol.relative_residual <= 1e-10
        assert report_line(ok, "criterion-3 p=2 exactness",
                           f"orthonormal residual {sol.relative_residual:.2e}")


# ---------------------------------------------------------------- criterion 4
class TestCriterion4PositiveDefiniteness:
    def test_euclidean_p1_stays_psd_over_1e4_trials(self):
        w = posdef.witness_search(NormSpec.lq(2, 3), 1.0, n_points=20,
                                  trials=10000, seed=11)
        ok = w.min_eigenvalue >= -1e-10
        assert report_line(ok, "criterion-4 l2 psd",
                           f"best eigenvalue {w.min_eigenvalue:.3e} over 1e4 trials")

    def test_l4_dim3_witness_regression(self):
        w = posdef.witness_search(NormSpec.lq(4, 3), 1.5, n_points=20,
                                  trials=10000, seed=11)
        ok = w.found and w.min_eigenvalue == pytest.approx(L4_P15_WITNESS, rel=1e-9)
        assert report_line(ok, "criterion-4 l4^3 witness",
                           f"min eigenvalue {w.min_eigenvalue!r} "
                           f"(baseline {L4_P15_WITNESS!r})")

    def test_l4_dim2_witness_regression(self):
        w = posdef.witness_search(NormSpec.lq(4, 2), 1.5, n_points=20,
                                  trials=10000, seed=11)
        ok = w.found and w.min_eigenvalue == pytest.approx(L4_2_P15_WITNESS, rel=1e-9)
        assert report_line(ok, "criterion-4 l4^2 witness",
                           f"min eigenvalue {w.min_eigenvalue!r} "
                           f"(baseline {L4_2_P15_WITNESS!r})")

    def test_cross_module_consistency_matrix(self):
        rows = []
        consistent = True
        for q in (2, 3, 4):
            spec = NormSpec.lq(q, 3)
            for p in (0.5, 1.0, 1.5):
                eigs = [posdef.witness_search(spec, p, n_points=16, trials=500,
                                              seed=s).min_eigenvalue
                        for s in range(10)]
                witness_found = min(eigs) < -1e-8
                scan = levy.feasibility_scan(spec, p, seed=7)
                clash = witness_found and scan.interpretation == levy.FEASIBLE
                consistent &= not clash
                rows.append(f"l{q}^3 p={p}: witness={witness_found}, "
                            f"scan={scan.interpretation}")
        assert report_line(consistent, "criterion-4 consistency",
                           "; ".join(rows))


# ---------------------------------------------------------------- criterion 5
@pytest.fixture(scope="module")
def l4_sweep():
    spec = NormSpec.lq(4, 3)
    return {n: mollifier.lhs_integral(spec, 0.5, n)
            for n in (2, 4, 8, 16, 32, 64, 128)}


class TestCriterion5ProofDemonstrator:
    def test_fourier_constant(self):
        c1 = mollifier.fourier_constant(1.0)
        grid_ok = all(mollifier.fourier_constant(float(p)) < 0.0
                      for p in np.linspace(0.05, 1.95, 39))
        ok = abs(c1 + 2.0) <= 1e-12 and grid_ok
        assert report_line(ok, "criterion-5 fourier constant",
                           f"c_1 = {c1!r}, negative across (0, 2): {grid_ok}")

    def test_mollifier_mass(self):
        worst = max(abs(Mollifier(n).mass() - 1.0)
                    for n in (1, 2, 4, 8, 16, 32, 64, 128))
        ok = worst <= 1e-10
        assert report_line(ok, "criterion-5 bump mass",
                           f"worst |mass - 1| = {worst:.2e} (tol 1e-10)")

    def test_sweep_matches_regression_baseline(self, l4_sweep):
        worst = max(abs(res.value - LHS_L4_SWEEP[n]) / LHS_L4_SWEEP[n]
                    for n, res in l4_sweep.items())
        ok = worst <= 1e-6
        assert report_line(ok, "criterion-5 sweep regression",
                           f"worst relative drift {worst:.2e}")

    def test_pairing_decay_below_five_percent_by_128(self, l4_sweep):
        """Implemented exactly as specified; expected to fail (see module
        docstring): the pairing decays like n^-0.5, so 128 is ~30x short of
        the index needed to reach 5%."""
        base = l4_sweep[2].value
        ratios = {n: res.value / base for n, res in l4_sweep.items()}
        ok = any(r <= 0.05 for r in ratios.values())
        assert report_line(ok, "criterion-5 decay-to-5%",
                           "ratios to n=2: " + ", ".join(
                               f"n={n}: {r:.3f}" for n, r in ratios.items()))

    def test_identity_check(self):
        """Direct and Fourier-side pairings of the Euclidean norm agree."""
        report = mollifier.demo_run(NormSpec.euclidean(3), 0.5)
        gap = max(row.rel_gap for row in report.rows if row.n >= 4)
        ok = gap <= 2e-2
        assert report_line(ok, "criterion-5 identity",
                           f"max relative gap {gap:.3e} over n in (4,8,16,32) (tol 2e-2)")


# ---------------------------------------------------------------- criterion 6
class TestCriterion6Determinism:
    def test_cli_artifacts_byte_identical(self, tmp_path):
        configs = [
            ["criterion", "--spec", "lq:q=3:dim=3"],
            ["levy", "--spec", "lq:q=4:dim=2", "--p", "1", "--seed", "7"],
            ["posdef", "--spec", "lq:q=4:dim=2", "--p", "1.5",
             "--trials", "300", "--points", "10", "--seed", "3"],
        ]
        identical = True
        for i, argv in enumerate(configs):
            out_a = tmp_path / f"a{i}"
            out_b = tmp_path / f"b{i}"
            cli_main(argv + ["--out", str(out_a)])
            cli_main(argv + ["--out", str(out_b)])
            for name in sorted(f.name for f in out_a.iterdir()):
                identical &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert report_line(identical, "criterion-6 determinism",
                           f"{len(configs)} commands rerun byte-identically")
