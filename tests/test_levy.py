import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from levylab import levy
from levylab.levy import (SphericalMeasure,
                          assemble_moment_system, circle_directions,
                          direction_grid, feasibility_csv,
                          feasibility_report_text, feasibility_scan,
                          fibonacci_sphere, measure_csv, sample_norm_sphere,
                          solve_nnls, to_hemisphere, uniform_calibrated_measure)
from levylab.norms import NormSpec

L1 = NormSpec.lq(1, 3)
L2 = NormSpec.lq(2, 3)
L4 = NormSpec.lq(4, 3)
EUC = NormSpec.euclidean(3)

# regression baseline from the first verified run (seed 7, default levels)
L4_P1_PLATEAU = 0.029208427881332277
L4_P1_PROBE = 0.0290388612220332


def assert_matches_reference(A, b):
    mine = solve_nnls(A, b)
    w_ref, r_ref = scipy_nnls(A, b)
    assert mine.relative_residual == pytest.approx(r_ref / np.linalg.norm(b), abs=1e-12)
    np.testing.assert_allclose(mine.weights, w_ref, atol=1e-9)
    return mine


def check_rank_deficient(monkeypatch, rows, extra, dual_tol):
    """12 columns plus a duplicate of column 3 or a zero column; the extra
    column must never be factored beside its twin."""
    monkeypatch.setattr(levy, "NNLS_DUAL_TOL", dual_tol)
    rng = np.random.default_rng(13)
    A = rng.random((rows, 12))
    M = np.column_stack([A, A[:, 3] if extra == "duplicate" else np.zeros(rows)])
    for b in (2.0 * A[:, 3] + 0.3 * rng.random(rows), rng.standard_normal(rows),
              A @ rng.random(12)):
        sol = solve_nnls(M, b)
        _, r_ref = scipy_nnls(M, b)
        assert sol.converged
        assert np.all(sol.weights >= 0.0)
        assert sol.relative_residual == pytest.approx(
            r_ref / np.linalg.norm(b), abs=1e-12)
        assert sol.weights[3] == 0.0 or sol.weights[12] == 0.0


def removal_block(seed, rows):
    """A rows x 80 moment-type system whose solve removes columns one at a time."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, 3))
    return np.abs(X @ rng.standard_normal((80, 3)).T), np.sum(X ** 4, axis=1) ** 0.25


def check_column_removals(seed, rows):
    """The removal block beside a 3 x 3 block whose third column, entering
    last, drives the first two to zero in the same step (exactly, by
    symmetry): 2 entries + 1 step + 1 re-solve = 4 iterations."""
    R, r_rhs = removal_block(seed, rows)
    alone = solve_nnls(R, r_rhs)
    assert alone.iterations > np.count_nonzero(alone.weights)   # columns left
    A = np.zeros((rows + 3, 83))
    A[:3, :3] = [[1.0, 0.0, 0.2], [0.0, 1.0, 0.2], [0.0, 0.0, 0.1]]
    A[3:, 3:] = R
    mine = assert_matches_reference(A, np.concatenate([np.ones(3), r_rhs]))
    assert mine.iterations == alone.iterations + 4
    np.testing.assert_allclose(mine.weights[:3], [0.0, 0.0, 50.0 / 9.0], rtol=1e-14)


@pytest.fixture(scope="module")
def euclidean_level():
    xs = sample_norm_sphere(EUC, 2048, np.random.default_rng(0))
    A, b = assemble_moment_system(EUC, 1.0, xs, direction_grid(3, 1024))
    return A, b, solve_nnls(A, b)


class TestAssembly:
    def test_basis_directions_give_identity(self):
        A, b = assemble_moment_system(L1, 1.0, np.eye(3), np.eye(3))
        np.testing.assert_allclose(A, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(b, np.ones(3), atol=1e-15)

    def test_p2_euclidean_row_sums(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((40, 3))
        A, b = assemble_moment_system(EUC, 2.0, xs, np.eye(3))
        np.testing.assert_allclose(A.sum(axis=1), b, rtol=1e-12)

    def test_normalized_samples_give_unit_rhs(self):
        rng = np.random.default_rng(1)
        xs = sample_norm_sphere(L4, 64, rng)
        _, b = assemble_moment_system(L4, 1.0, xs, direction_grid(3, 16))
        np.testing.assert_allclose(b, np.ones(64), atol=1e-14)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            assemble_moment_system(L4, 0.0, np.eye(3), np.eye(3))
        with pytest.raises(ValueError):
            assemble_moment_system(L4, 2.5, np.eye(3), np.eye(3))

    def test_zero_sample_rejected(self):
        with pytest.raises(ValueError):
            assemble_moment_system(L4, 1.0, np.zeros((1, 3)), np.eye(3))


class TestNnls:
    def test_identity_system(self):
        sol = solve_nnls(np.eye(3), np.ones(3))
        np.testing.assert_allclose(sol.weights, np.ones(3), atol=1e-14)
        assert sol.relative_residual <= 1e-14
        assert sol.converged

    def test_consistent_column(self):
        sol = solve_nnls(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
        np.testing.assert_allclose(sol.weights, [1.0], atol=1e-14)
        assert sol.relative_residual <= 1e-14

    def test_recovers_planted_solution(self):
        rng = np.random.default_rng(3)
        A = rng.random((50, 20))
        w_true = np.abs(rng.standard_normal(20))
        w_true[rng.random(20) < 0.4] = 0.0
        sol = solve_nnls(A, A @ w_true)
        assert sol.relative_residual <= 1e-8
        np.testing.assert_allclose(sol.weights, w_true, atol=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_solver(self, seed):
        rng = np.random.default_rng(seed)
        assert_matches_reference(rng.standard_normal((40, 15)), rng.standard_normal(40))

    @pytest.mark.parametrize("seed", range(12))
    def test_wide_matches_reference_solver(self, seed):
        # more columns than rows: Gram columns are computed as they enter
        rng = np.random.default_rng(seed)
        assert_matches_reference(rng.standard_normal((15, 40)), rng.standard_normal(15))

    def test_iteration_cap_reports_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(levy, "NNLS_ITER_FACTOR", 0.1)     # cap = 1 on 10 columns
        rng = np.random.default_rng(5)
        A = rng.random((30, 10))
        sol = solve_nnls(A, rng.random(30))
        assert not sol.converged

    def test_nonnegativity(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            A = rng.standard_normal((25, 12))
            sol = solve_nnls(A, rng.standard_normal(25))
            assert np.all(sol.weights >= 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            solve_nnls(np.array([[np.nan]]), np.array([1.0]))

    def test_euclidean_level_matches_reference_solver(self, euclidean_level):
        # the finest Euclidean level at p = 1: about 1,050 iterations that
        # grow the passive set to about 950 columns
        A, b, mine = euclidean_level
        w_ref, r_ref = scipy_nnls(A, b)
        assert mine.converged
        assert mine.relative_residual == pytest.approx(
            r_ref / np.linalg.norm(b), rel=1e-8)
        assert np.count_nonzero(mine.weights) == np.count_nonzero(w_ref)

    def test_euclidean_level_passive_solution_at_rounding_floor(self, euclidean_level):
        # the carried passive solution (updated as columns enter, recomputed
        # after a column leaves) solves the final normal equations, checked
        # against a Gram block formed here from A
        A, b, sol = euclidean_level
        passive = sol.weights > 0.0
        A_p = A[:, passive]
        rhs = A_p.T @ b
        resid = (A_p.T @ A_p) @ sol.weights[passive] - rhs
        assert np.linalg.norm(resid) <= 1e-13 * np.linalg.norm(rhs)
        assert (sol.iterations, int(np.count_nonzero(passive))) == (1048, 952)

    @pytest.mark.parametrize("seed", range(4))
    def test_carried_passive_solution_without_refinement(self, seed, monkeypatch):
        # with refinement off, each passive solution is the carried one
        # alone: updated when a column enters, recomputed after one leaves
        monkeypatch.setattr(levy, "NNLS_REFINE_STEPS", 0)
        R, r_rhs = removal_block(seed, 200)
        mine = assert_matches_reference(R, r_rhs)
        assert mine.iterations > np.count_nonzero(mine.weights)     # columns left
        rng = np.random.default_rng(seed)
        assert_matches_reference(rng.standard_normal((40, 15)), rng.standard_normal(40))

    @pytest.mark.parametrize("seed", range(4))
    def test_near_duplicate_pairs_match_passive_least_squares(self, seed):
        # both columns of a pair enter, so G_PP passes through condition
        # numbers near 1e10 before one of them leaves; a solve that started
        # from the passive solution carried across that leave, rather than
        # a recomputed one, is off by up to about 1e-11 at the end
        rng = np.random.default_rng(seed)
        A = np.repeat(rng.random((30, 6)), 2, axis=1) + 1e-5 * rng.standard_normal((30, 12))
        b = rng.random(30)
        sol = solve_nnls(A, b)
        passive = sol.weights > 0.0
        ref = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
        assert sol.converged
        np.testing.assert_allclose(sol.weights[passive], ref, rtol=0.0,
                                   atol=1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("dual_tol", [levy.NNLS_DUAL_TOL, 0.0])
    @pytest.mark.parametrize("extra", ["duplicate", "zero"])
    def test_rank_deficient_columns(self, monkeypatch, extra, dual_tol):
        # dual_tol = 0 lets the duplicate's rounding-level dual select it
        # after its twin entered; it must be passed over, not factored
        check_rank_deficient(monkeypatch, 50, extra, dual_tol)

    @pytest.mark.parametrize("dual_tol", [levy.NNLS_DUAL_TOL, 0.0])
    @pytest.mark.parametrize("extra", ["duplicate", "zero"])
    def test_wide_rank_deficient_columns(self, monkeypatch, extra, dual_tol):
        check_rank_deficient(monkeypatch, 10, extra, dual_tol)

    @pytest.mark.parametrize("seed", range(4))
    def test_column_removals_match_reference_solver(self, seed):
        check_column_removals(seed, 200)

    @pytest.mark.parametrize("seed", range(4))
    def test_wide_column_removals_match_reference_solver(self, seed):
        check_column_removals(seed, 40)

    def test_repeat_calls_bit_identical(self):
        xs = sample_norm_sphere(L4, 512, np.random.default_rng(21))
        A, b = assemble_moment_system(L4, 1.0, xs, direction_grid(3, 256))
        first, second = solve_nnls(A, b), solve_nnls(A, b)
        assert first.weights.tobytes() == second.weights.tobytes()
        assert first.iterations == second.iterations


class TestDirections:
    def test_hemisphere_fold_is_canonical(self):
        dirs = to_hemisphere(np.array([[0.0, 0.0, -1.0], [0.0, -1.0, 0.0],
                                       [-1.0, 0.0, 0.0], [0.3, 0.4, -0.5]]))
        assert dirs[0, 2] == 1.0
        assert dirs[1, 1] == 1.0
        assert dirs[2, 0] == 1.0
        assert dirs[3, 2] > 0.0

    def test_hemisphere_identification_leaves_matrix_invariant(self):
        rng = np.random.default_rng(7)
        xs = sample_norm_sphere(L4, 32, rng)
        dirs = fibonacci_sphere(64)
        A_plus, _ = assemble_moment_system(L4, 1.0, xs, dirs)
        A_minus, _ = assemble_moment_system(L4, 1.0, xs, -dirs)
        np.testing.assert_array_equal(A_plus, A_minus)

    def test_fibonacci_unit_length(self):
        pts = fibonacci_sphere(500)
        np.testing.assert_allclose((pts ** 2).sum(axis=1), 1.0, atol=1e-12)

    def test_circle_unit_length_upper_half(self):
        pts = circle_directions(64)
        np.testing.assert_allclose((pts ** 2).sum(axis=1), 1.0, atol=1e-12)
        assert np.all(pts[:, 1] > 0.0)


def representation_error(spec, p, measure, points) -> float:
    """Max relative error of ||x||^p = sum_j w_j |<x, xi_j>|^p over the points."""
    A, b = assemble_moment_system(spec, p, points, measure.directions)
    return float(np.max(np.abs(A @ measure.weights - b) / b))


class TestMeasure:
    def test_three_atom_exact_for_l1(self):
        mu = SphericalMeasure(directions=np.eye(3), weights=np.ones(3))
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((50, 3))
        assert representation_error(L1, 1.0, mu, pts) <= 1e-12

    def test_empty_measure_full_error(self):
        mu = SphericalMeasure(directions=np.zeros((0, 3)), weights=np.zeros(0))
        assert representation_error(L4, 1.0, mu, [(1.0, 0.0, 0.0)]) == 1.0

    def test_calibrated_uniform_measure_accuracy(self):
        mu = uniform_calibrated_measure(1.0)
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((200, 3)) * 1.7
        assert representation_error(EUC, 1.0, mu, pts) <= 1e-3

    def test_measure_validation(self):
        with pytest.raises(ValueError):
            SphericalMeasure(directions=np.array([[1.0, 1.0, 0.0]]),
                             weights=np.array([1.0]))
        with pytest.raises(ValueError):
            SphericalMeasure(directions=np.eye(3), weights=np.array([1.0, -1.0, 1.0]))

    @settings(max_examples=30)
    @given(st.floats(0.1, 10.0))
    def test_scale_equivariance(self, lam):
        mu = SphericalMeasure(directions=np.eye(3), weights=np.ones(3))
        scaled = SphericalMeasure(directions=np.eye(3), weights=lam * np.ones(3))
        xs = np.array([[0.3, -1.2, 0.4], [1.0, 1.0, 1.0]])
        A, _ = assemble_moment_system(L1, 1.0, xs, mu.directions)
        np.testing.assert_allclose(A @ scaled.weights, lam * (A @ mu.weights), rtol=1e-12)


class TestScan:
    def test_l4_dim2_feasible_by_256_directions(self):
        res = feasibility_scan(NormSpec.lq(4, 2), 1.0, seed=7)
        assert res.interpretation == levy.FEASIBLE
        assert res.levels[-1].direction_count == 256
        assert res.levels[-1].relative_residual <= 1e-3

    def test_l4_dim3_plateau_infeasible(self):
        res = feasibility_scan(L4, 1.0, seed=7)
        assert res.interpretation == levy.INFEASIBLE
        assert all(lv.relative_residual > levy.PLATEAU_RESIDUAL for lv in res.levels)
        assert res.levels[-1].relative_residual == pytest.approx(
            L4_P1_PLATEAU, rel=1e-6)
        assert res.plateau_probe.relative_residual == pytest.approx(
            L4_P1_PROBE, rel=1e-6)

    def test_l1_dim3_atoms_cluster_at_signed_basis(self):
        # an exact 3-atom measure exists; at desk-scale grids the residual
        # is still direction-limited (~grid spacing squared), so the verdict
        # stays Inconclusive while the recovered atoms pile up near +-e_k
        res = feasibility_scan(L1, 1.0, seed=7)
        residuals = [lv.relative_residual for lv in res.levels]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        assert res.interpretation == levy.INCONCLUSIVE
        mu = res.best_measure
        heavy = mu.weights > 0.05
        basis_dist = np.min(
            [np.abs(np.abs(mu.directions[heavy]) - e).sum(axis=1) for e in np.eye(3)],
            axis=0)
        assert np.all(basis_dist < 0.3)
        assert mu.total_mass == pytest.approx(3.0, abs=0.1)

    def test_euclidean_p2_exact_with_orthonormal_directions(self):
        rng = np.random.default_rng(11)
        xs = sample_norm_sphere(EUC, 64, rng)
        A, b = assemble_moment_system(EUC, 2.0, xs, np.eye(3))
        sol = solve_nnls(A, b)
        assert sol.relative_residual <= 1e-10
        np.testing.assert_allclose(sol.weights, np.ones(3), atol=1e-10)

    def test_monotone_refinement_nested_directions(self):
        rng = np.random.default_rng(12)
        xs = sample_norm_sphere(L2, 256, rng)
        coarse = direction_grid(3, 64)
        fine = np.vstack([coarse, direction_grid(3, 128)])
        r_coarse = solve_nnls(*assemble_moment_system(L2, 1.0, xs, coarse))
        r_fine = solve_nnls(*assemble_moment_system(L2, 1.0, xs, fine))
        assert r_fine.relative_residual <= r_coarse.relative_residual + 1e-12

    def test_deterministic_for_fixed_seed(self):
        a = feasibility_scan(NormSpec.lq(4, 2), 1.0, seed=3)
        b = feasibility_scan(NormSpec.lq(4, 2), 1.0, seed=3)
        assert feasibility_csv(a) == feasibility_csv(b)
        assert measure_csv(a.best_measure) == measure_csv(b.best_measure)

    def test_bad_level_lists_rejected(self):
        with pytest.raises(ValueError):
            feasibility_scan(L4, 1.0, levels=[])
        with pytest.raises(ValueError):
            feasibility_scan(L4, 1.0, levels=[(0, 16)])

    @pytest.mark.parametrize("levels", [
        [(8, levy.MAX_LEVEL_SIZE + 1)],                     # samples
        [(levy.MAX_LEVEL_SIZE + 1, 16), (8, 16)],           # directions
        [(8, 16), (levy.MAX_LEVEL_SIZE // 4 + 1, 16)],      # the plateau probe's 4x
    ])
    def test_oversized_levels_refused_before_any_work(self, monkeypatch, levels):
        def no_sampling(*args):
            raise AssertionError("sampled before the size check")
        monkeypatch.setattr(levy, "sample_norm_sphere", no_sampling)
        with pytest.raises(ValueError, match=f"more than {levy.MAX_LEVEL_SIZE}"):
            feasibility_scan(L4, 1.0, levels=levels)


class TestSerialization:
    def test_feasibility_csv_columns(self):
        res = feasibility_scan(NormSpec.lq(4, 2), 1.0, seed=1)
        lines = feasibility_csv(res).strip().split("\n")
        assert lines[0] == "level,directions,samples,relative_residual"
        assert len(lines) == 1 + len(res.levels) + (res.plateau_probe is not None)

    def test_report_carries_nnls_diagnostics(self):
        texts = []
        for _ in range(2):
            res = feasibility_scan(L4, 1.0, levels=[(32, 128), (128, 256)], seed=7)
            texts.append(feasibility_report_text(res))
        assert texts[0] == texts[1]
        rows = res.levels + [res.plateau_probe]
        lines = [ln for ln in texts[0].splitlines() if ln.startswith(("level ", "probe:"))]
        assert len(lines) == len(rows) == 3
        for lv, line in zip(rows, lines):
            assert lv.converged
            assert 0 < lv.active <= lv.direction_count
            assert lv.iterations >= lv.active
            assert line.endswith(f" iterations={lv.iterations} active={lv.active} "
                                 "converged=True")
        assert feasibility_csv(res).splitlines()[0] == \
            "level,directions,samples,relative_residual"

    def test_measure_csv_round_numbers(self):
        mu = SphericalMeasure(directions=np.eye(3), weights=np.array([1.0, 0.5, 2.0]))
        text = measure_csv(mu)
        assert text.splitlines()[0] == "xi_1,xi_2,xi_3,weight"
        assert len(text.splitlines()) == 4
