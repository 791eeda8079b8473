import tracemalloc

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
from levylab.norms import NormSpec, g17, parse_spec

L1 = NormSpec.lq(1, 3)
L2 = NormSpec.lq(2, 3)
L4 = NormSpec.lq(4, 3)
EUC = NormSpec.euclidean(3)

# regression baseline from the first verified run (seed 7, default levels)
L4_P1_PLATEAU = 0.029208427881332277
L4_P1_PROBE = 0.0290388612220332

solve_priced = levy._solve_priced


def assert_matches_reference(A, b):
    mine = solve_nnls(A, b)
    w_ref, r_ref = scipy_nnls(A, b)
    assert mine.relative_residual == pytest.approx(r_ref / np.linalg.norm(b), abs=1e-12)
    np.testing.assert_allclose(mine.weights, w_ref, atol=1e-9)
    return mine


def moment_inputs(seed, rows, cols):
    """Seeded Gaussian samples and unit directions for a moment system."""
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((rows, 3))
    directions = rng.standard_normal((cols, 3))
    return samples, directions / np.linalg.norm(directions, axis=1)[:, None]


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


def finest_level(spec, p):
    """The seed-0 system of 1024 directions by 2048 samples, and its solution."""
    xs = sample_norm_sphere(spec, 2048, np.random.default_rng(0))
    A, b = assemble_moment_system(spec, p, xs, direction_grid(3, 1024))
    return A, b, solve_nnls(A, b)


def check_passive_solution_at_rounding_floor(A, b, sol):
    """The passive solution solves the final normal equations, checked
    against a Gram block formed here from A; returns (iterations, active)."""
    passive = sol.weights > 0.0
    A_p = A[:, passive]
    rhs = A_p.T @ b
    resid = (A_p.T @ A_p) @ sol.weights[passive] - rhs
    assert np.linalg.norm(resid) <= 1e-13 * np.linalg.norm(rhs)
    return sol.iterations, int(np.count_nonzero(passive))


@pytest.fixture(scope="module")
def euclidean_level():
    return finest_level(EUC, 1.0)


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
        # more columns than rows: the Gram matrix is larger than A
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
        # each passive solution is one step from the feasible x along its
        # dual (the entering column's alone when a column enters, the full
        # step after one leaves); the last one is at the rounding floor
        assert check_passive_solution_at_rounding_floor(*euclidean_level) == (1048, 952)

    @pytest.mark.parametrize("label, p, counts", [
        ("lq:q=4:dim=3", 0.5, (370, 312)),
        ("orlicz:terms=0.5*t^3+0.5*t^5:dim=3", 1.0, (103, 55)),
        ("lq:q=2.5:dim=3", 0.5, (990, 876)),
    ])
    def test_finest_level_counts_at_rounding_floor(self, label, p, counts):
        # (iterations, active) frozen from the solver that refined a carried
        # passive solution; the fresh-dual step reaches the same active sets
        assert check_passive_solution_at_rounding_floor(
            *finest_level(parse_spec(label), p)) == counts

    @pytest.mark.parametrize("seed", range(4))
    def test_carried_passive_solution_without_refinement(self, seed):
        # no solve is refined: each passive solution is the single step
        # from the feasible x along the dual there, through columns that
        # enter and columns that leave
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


def scan_solves(monkeypatch, label, p, **kwargs):
    """Run feasibility_scan and record every (A, b, start, solution) it solves."""
    calls = []

    def recording(A, b, start=None):
        calls.append((A, b, start, solve_nnls(A, b, start=start)))
        return calls[-1][3]

    monkeypatch.setattr(levy, "solve_nnls", recording)
    res = feasibility_scan(parse_spec(label), p, **kwargs)
    return res, calls


def assert_cold_result(A, b, start):
    """A start that pivoting hands over gives the cold solve, bit for bit."""
    cold, started = solve_nnls(A, b), solve_nnls(A, b, start=start)
    assert started.handover > 0 and started.pivoting == 0
    assert started.weights.tobytes() == cold.weights.tobytes()
    assert started.iterations == cold.iterations
    assert started.relative_residual == cold.relative_residual


class TestPivoting:
    @pytest.mark.parametrize("label, p", [
        ("euclidean:dim=3", 1.0),
        ("lq:q=2.5:dim=3", 0.5),
        ("lq:q=4:dim=3", 0.5),
    ])
    def test_finest_level_reaches_the_lawson_hanson_optimum(self, monkeypatch, label, p):
        # the scan starts its finest level from the directions nearest the
        # coarser level's atoms; pivoting from there ends on the support
        # Lawson-Hanson reaches from an empty set
        _, calls = scan_solves(monkeypatch, label, p, seed=0)
        A, b, start, pivoted = calls[-1]
        cold = solve_nnls(A, b)
        assert start is not None and pivoted.pivoting > 0 and pivoted.handover == 0
        assert pivoted.converged
        np.testing.assert_array_equal(pivoted.weights > 0.0, cold.weights > 0.0)
        assert pivoted.relative_residual == pytest.approx(
            cold.relative_residual, rel=1e-12, abs=0.0)
        # iterations count passive-set changes: the start plus every flip
        iterations, active = check_passive_solution_at_rounding_floor(A, b, pivoted)
        assert iterations >= max(active, len(start))

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("start", ["empty", "full", "random"])
    def test_pivoting_returns_the_reference_optimum_or_hands_over(self, seed, start):
        rng = np.random.default_rng(seed)
        A, b = rng.standard_normal((40, 15)), rng.standard_normal(40)
        columns = {"empty": [], "full": np.arange(15),
                   "random": np.flatnonzero(rng.random(15) < 0.5)}[start]
        sol = solve_nnls(A, b, start=columns)
        if sol.handover:
            assert_cold_result(A, b, columns)
        else:
            w_ref, r_ref = scipy_nnls(A, b)
            assert sol.pivoting > 0 and sol.converged
            assert sol.relative_residual == pytest.approx(
                r_ref / np.linalg.norm(b), abs=1e-12)
            np.testing.assert_allclose(sol.weights, w_ref, atol=1e-9)

    def test_random_tall_systems_mostly_pivot(self):
        # the test above is not vacuous: from an empty start most of its
        # systems are solved by pivoting
        pivoted = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            pivoted += solve_nnls(rng.standard_normal((40, 15)), rng.standard_normal(40),
                                  start=[]).pivoting > 0
        assert pivoted >= 9

    @pytest.mark.parametrize("extra", ["duplicate", "zero"])
    def test_dependent_columns_hand_over(self, extra):
        # the systems of check_rank_deficient: a start that holds column 3
        # and its exact twin (or the zero column) makes a singular solve
        rng = np.random.default_rng(13)
        A = rng.random((50, 12))
        M = np.column_stack([A, A[:, 3] if extra == "duplicate" else np.zeros(50)])
        for b in (2.0 * A[:, 3] + 0.3 * rng.random(50), rng.standard_normal(50),
                  A @ rng.random(12)):
            assert_cold_result(M, b, [3, 12])
            # from every column, pivoting may end on another optimum of the
            # duplicate system, but never with both twins passive
            sol = solve_nnls(M, b, start=np.arange(13))
            _, r_ref = scipy_nnls(M, b)
            assert sol.relative_residual == pytest.approx(
                r_ref / np.linalg.norm(b), abs=1e-12)
            assert sol.weights[3] == 0.0 or sol.weights[12] == 0.0

    def test_nearly_dependent_pair_fails_the_dependence_test(self):
        # b = c + (c + 1e-7 d): the pair solves with both weights near 1 and
        # no sign to flip, but its second Cholesky pivot is about 1e-14 of
        # its diagonal entry, which Lawson-Hanson would not factor
        rng = np.random.default_rng(17)
        c, d = rng.random(30), rng.random(30)
        A = np.column_stack([c, c + 1e-7 * d])
        assert_cold_result(A, A.sum(axis=1), [0, 1])

    @pytest.mark.parametrize("seed", range(4))
    def test_wide_system_hands_over(self, seed):
        # 40 columns in 15 rows: a start of every column has a singular Gram
        rng = np.random.default_rng(seed)
        assert_cold_result(rng.standard_normal((15, 40)), rng.standard_normal(15),
                           np.arange(40))

    def test_cycling_exchanges_hand_over_after_three_misses(self, monkeypatch):
        # from every column, the full exchanges of this system leave the
        # infeasible set no smaller three times in a row after 12 solves;
        # without that rule they cycle, so every Cholesky is counted and
        # the test fails past 100 instead of looping
        cholesky, factored = np.linalg.cholesky, []

        def counted(a):
            factored.append(len(a))
            assert len(factored) <= 100, "block pivoting did not hand over"
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        rng = np.random.default_rng(0)
        X, D = rng.standard_normal((24, 3)), rng.standard_normal((20, 3))
        A, b = np.abs(X @ D.T), np.abs(rng.standard_normal(24))
        assert solve_nnls(A, b, start=np.arange(20)).handover == 12
        assert_cold_result(A, b, np.arange(20))
        assert len(factored) == 2 * 12

    @pytest.mark.parametrize("eps", [2e-6, 1e-5, 1e-4])
    def test_inexact_normal_equations_hand_over(self, eps):
        # three nearly dependent columns whose weights near 1 / eps leave
        # no sign to flip: G passes the dependence test, but the normal
        # equations of the first solve hold to no better than 1e-13
        rng = np.random.default_rng(3)
        c1, c2, d = (rng.standard_normal(30) for _ in range(3))
        A = np.column_stack([c1, c2, eps * d - (c1 + c2)])
        gram = A.T @ A
        pivots = np.diagonal(np.linalg.cholesky(gram)) ** 2
        assert np.all(pivots > levy.NNLS_DEPENDENT_TOL * np.diagonal(gram))
        sol = solve_nnls(A, d, start=[0, 1, 2])
        assert sol.handover == 1 and np.all(sol.weights > 0.2 / eps)
        assert_cold_result(A, d, [0, 1, 2])

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("k", [0, 1, 127, 128, 129, 300, 1000])
    def test_substitution_matches_solve(self, k, lower):
        # blocks of SUBSTITUTION_BLOCK rows, with a partial last block
        rng = np.random.default_rng(k)
        M = rng.standard_normal((k, k))
        factor = np.linalg.cholesky(np.eye(k) + M @ M.T / max(k, 1))
        tri = factor if lower else factor.T
        rhs = rng.standard_normal(k)
        y = levy._substitute(tri, rhs, lower=lower)
        assert np.linalg.norm(tri @ y - rhs) <= 1e-13 * np.linalg.norm(rhs)
        np.testing.assert_allclose(y, np.linalg.solve(tri, rhs), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("pairs", [1, 7, 60])
    def test_exchange_matches_gather_and_restores_exactly(self, pairs):
        n = 500
        rng = np.random.default_rng(pairs)
        M = rng.standard_normal((n, n))
        original = np.asfortranarray(M + M.T)
        gram = original.copy(order="F")
        perm, exchanges = np.arange(n), []
        for _ in range(2):               # a second exchange moves slots already moved
            slots = rng.permutation(n)
            a, b = np.sort(slots[:pairs]), np.sort(slots[pairs:2 * pairs])
            levy._exchange(gram, a, b)
            exchanges.append((a, b))
            perm[a], perm[b] = perm[b], perm[a]
            assert gram.tobytes() == original[np.ix_(perm, perm)].tobytes()
        for a, b in reversed(exchanges):  # the restore _block_pivoting makes
            levy._exchange(gram, a, b)
        assert gram.flags.f_contiguous and gram.tobytes() == original.tobytes()

    @pytest.mark.parametrize("system", ["dependent twin", "l2 plane"])
    def test_handover_leaves_the_gram_as_formed(self, monkeypatch, system):
        # neither start is the leading columns, so the first round
        # exchanges before pivoting hands the system over
        if system == "dependent twin":
            rng = np.random.default_rng(13)
            A = rng.random((50, 12))
            A, b, start = np.column_stack([A, A[:, 3]]), rng.standard_normal(50), [3, 12]
        else:
            monkeypatch.setattr(levy, "PIVOTING_MIN_ATOMS", 0)
            _, calls = scan_solves(monkeypatch, "lq:q=2:dim=2", 1.5, seed=0)
            A, b, start, _ = calls[-1]
        assert np.any(np.asarray(start) >= len(start))
        formed = np.empty((A.shape[1],) * 2, order="F")
        np.matmul(A.T, A, out=formed.T)
        gram = formed.copy(order="F")
        x, solves, _ = levy._block_pivoting(gram, A.T @ b, start)
        assert x is None and solves > 0
        assert gram.flags.f_contiguous and gram.tobytes() == formed.tobytes()

    def test_handover_after_exchanges_gives_the_cold_result(self, monkeypatch):
        # the setup of test_report_shows_a_handover: the finest start is not
        # the leading columns, so the first round exchanges before the
        # system goes to Lawson-Hanson on the restored Gram
        monkeypatch.setattr(levy, "PIVOTING_MIN_ATOMS", 0)
        _, calls = scan_solves(monkeypatch, "lq:q=2:dim=2", 1.5, seed=0)
        A, b, start, sol = calls[-1]
        assert np.any(start >= len(start)) and sol.handover > 0
        assert_cold_result(A, b, start)

    def test_wide_level_hands_over_at_its_first_solve(self, monkeypatch):
        # 1024 directions over 512 samples: the start's G_FF is singular, so
        # the first factor fails the dependence test
        _, calls = scan_solves(monkeypatch, "euclidean:dim=3", 1.0, seed=0,
                               levels=[(64, 128), (256, 512), (1024, 512)])
        A, b, start, sol = calls[-1]
        assert start is not None and sol.handover == 1
        assert_cold_result(A, b, start)

    def test_orlicz_scan_solves_every_level_by_lawson_hanson(self, monkeypatch):
        # its finest level predicts 148 atoms, below PIVOTING_MIN_ATOMS
        res, calls = scan_solves(monkeypatch, "orlicz:terms=0.5*t^3+0.5*t^5:dim=3", 1.0,
                                 seed=0)
        assert [start for _, _, start, _ in calls] == [None] * len(calls)
        assert all(lv.pivoting == lv.handover == 0 for lv in res.levels)

    def test_euclidean_scan_pivots_on_its_finest_level_only(self, monkeypatch):
        # level 1 predicts 61 / 64 * 256 = 244 atoms, level 2 far more
        res, calls = scan_solves(monkeypatch, "euclidean:dim=3", 1.0)
        assert [start is None for _, _, start, _ in calls] == [True, True, False]
        assert [lv.pivoting > 0 for lv in res.levels] == [False, False, True]
        assert all(lv.handover == 0 for lv in res.levels)
        lines = [ln for ln in feasibility_report_text(res).splitlines()
                 if ln.startswith("level ")]
        assert [f"pivoting={lv.pivoting} iterations={lv.iterations} " in line
                for lv, line in zip(res.levels, lines)] == [True] * 3
        assert "pivoting=0 " in lines[0] and "pivoting=0 " not in lines[2]

    def test_report_shows_a_handover(self, monkeypatch):
        # with every start forced on, the l2 plane at p = 1.5 hands its
        # finest level over to Lawson-Hanson at its first solve, whose
        # G_FF fails the dependence test
        monkeypatch.setattr(levy, "PIVOTING_MIN_ATOMS", 0)
        res = feasibility_scan(NormSpec.lq(2, 2), 1.5, seed=0)
        last = res.levels[-1]
        assert last.pivoting == 0 and last.handover > 0
        assert (f"pivoting=0 handover={last.handover} iterations={last.iterations} "
                in feasibility_report_text(res).splitlines()[-1])


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

    @pytest.mark.parametrize("spec, p, levels, probe_size", [
        (L4, 1.0, [(32, 128), (128, 256)], 512),
        (NormSpec.lq(4, 2), 1.5, None, 1024),
    ])
    def test_priced_probe_matches_whole_grid(self, monkeypatch, spec, p, levels,
                                             probe_size):
        # pricing from the last level's atoms stops on the dual test a
        # solve over every probe direction applies, so it reaches the same
        # optimum while solve_nnls sees only part of the grid
        calls = []

        def recording(samples, directions, p, b, columns):
            calls.append((samples, directions, b,
                          solve_priced(samples, directions, p, b, columns)))
            return calls[-1][3]

        monkeypatch.setattr(levy, "_solve_priced", recording)
        res = feasibility_scan(spec, p, levels=levels, seed=7)
        (samples, directions, b, (priced, (rounds, columns))), = calls
        A, whole_b = assemble_moment_system(spec, p, samples, directions)
        np.testing.assert_array_equal(b, whole_b)
        whole = solve_nnls(A, b)
        assert A.shape[1] == probe_size
        assert priced.converged and whole.converged
        assert priced.relative_residual == pytest.approx(
            whole.relative_residual, rel=1e-12, abs=0.0)
        np.testing.assert_array_equal(priced.weights > 0.0, whole.weights > 0.0)
        assert columns < probe_size
        assert res.plateau_probe.relative_residual == priced.relative_residual
        assert res.plateau_probe.iterations == priced.iterations
        assert res.probe_pricing == (rounds, columns)
        assert f"probe_pricing: rounds={rounds} columns={columns}" in \
            feasibility_report_text(res).splitlines()

    def test_pricing_from_an_empty_start(self):
        # b = |x_1| + |x_2| - ||x||_2 is negative near e_3, so the columns
        # near e_3 price below zero and never join
        samples, directions = moment_inputs(4, 90, 30)
        b = np.abs(samples[:, :2]).sum(axis=1) - np.linalg.norm(samples, axis=1)
        priced, (rounds, columns) = solve_priced(samples, directions, 1.0, b,
                                                 np.zeros(0, dtype=np.intp))
        whole = solve_nnls(levy._moment_matrix(samples, directions, 1.0), b)
        assert rounds > 1 and 0 < columns < 30
        assert priced.relative_residual == pytest.approx(
            whole.relative_residual, rel=1e-12, abs=0.0)
        np.testing.assert_array_equal(priced.weights > 0.0, whole.weights > 0.0)

    def test_pricing_stops_at_a_restricted_solve_that_did_not_converge(self, monkeypatch):
        monkeypatch.setattr(levy, "NNLS_ITER_FACTOR", 0.1)
        samples, directions = moment_inputs(5, 30, 90)
        b = np.linalg.norm(samples, axis=1)
        priced, (rounds, columns) = solve_priced(samples, directions, 1.0, b, np.arange(10))
        assert not priced.converged
        assert (rounds, columns) == (1, 10)
        assert np.all(priced.weights[10:] == 0.0)

    def test_probe_never_holds_its_whole_matrix(self):
        # the probe prices its 4096 columns in blocks of the last level's
        # 1024, so the traced peak stays below the probe's own A
        spec = parse_spec("orlicz:terms=0.5*t^3+0.5*t^5:dim=3")
        probe_bytes = 2048 * levy.PROBE_REFINEMENT * 1024 * 8
        tracemalloc.start()
        try:
            res = feasibility_scan(spec, 1.0, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.probe_pricing is not None
        assert peak < probe_bytes

    def test_pivoting_never_holds_a_third_square_block(self, monkeypatch):
        # the finest Euclidean level (n = 1024, about 950 passive columns)
        # holds the n x n Gram and one k x k Cholesky factor at a time
        # (LAPACK's copy of G_FF is not traced); a gathered G_FF beside
        # its factor would exceed 2 n^2 doubles
        _, calls = scan_solves(monkeypatch, "euclidean:dim=3", 1.0, seed=0)
        A, b, start, _ = calls[-1]
        n = A.shape[1]
        tracemalloc.start()
        try:
            held, _ = tracemalloc.get_traced_memory()
            sol = solve_nnls(A, b, start=start)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.pivoting > 0
        assert peak - held < 2 * n * n * 8

    def test_no_pricing_line_without_probe(self):
        res = feasibility_scan(NormSpec.lq(4, 2), 1.0, seed=7)
        assert res.plateau_probe is None and res.probe_pricing is None
        assert "probe_pricing" not in feasibility_report_text(res)

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

    @pytest.mark.parametrize("label, p, grade", [
        ("euclidean:dim=2", 2.0, levy.FEASIBLE),
        ("euclidean:dim=3", 2.0, levy.FEASIBLE),
        ("lq:q=2:dim=3", 2.0, levy.FEASIBLE),
        ("lq:q=4:dim=3", 2.0, levy.INFEASIBLE),
        ("euclidean:dim=3", 1.0, levy.FEASIBLE),
    ])
    def test_grade_with_residuals_at_rounding_floor(self, label, p, grade):
        # the exact p = 2 representations end at residuals of a few 1e-16
        # that may rise level to level; below RESIDUAL_FLOOR they compare equal
        res = feasibility_scan(parse_spec(label), p)
        assert res.interpretation == grade
        if p == 2.0 and grade == levy.FEASIBLE:
            assert all(lv.relative_residual < levy.RESIDUAL_FLOOR for lv in res.levels)

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
        assert f"residual_floor: {g17(levy.RESIDUAL_FLOOR)}" in texts[0].splitlines()
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

    def test_levels_are_the_records_the_solves_returned(self, monkeypatch):
        res, calls = scan_solves(monkeypatch, "lq:q=4:dim=3", 1.0,
                                 levels=[(32, 128), (128, 256)], seed=7)
        assert len(res.levels) == 2
        for lv, (A, _, _, sol) in zip(res.levels, calls):
            assert lv is sol
            assert (lv.sample_count, lv.direction_count) == A.shape
            assert lv.active == np.count_nonzero(lv.weights > 0.0) > 0
        probe = res.plateau_probe
        assert (probe.sample_count, probe.direction_count) == (256, levy.PROBE_REFINEMENT * 128)
        assert probe.active == np.count_nonzero(probe.weights > 0.0) > 0

    def test_measure_csv_round_numbers(self):
        mu = SphericalMeasure(directions=np.eye(3), weights=np.array([1.0, 0.5, 2.0]))
        text = measure_csv(mu)
        assert text.splitlines()[0] == "xi_1,xi_2,xi_3,weight"
        assert len(text.splitlines()) == 4
        # an empty measure keeps the header of its dimension
        empty = SphericalMeasure(directions=np.empty((0, 2)), weights=np.empty(0))
        assert measure_csv(empty) == "xi_1,xi_2,weight\n"
