"""Discretized moment problem for the spherical representation of a norm.

A norm embeds isometrically in L_p (p > 0) exactly when there is a finite
nonnegative Borel measure mu on the Euclidean unit sphere with

    ||x||^p = integral |<x, xi>|^p dmu(xi)   for every x.

Discretizing mu over a fixed direction grid turns the identity into a
nonnegative least-squares system A w = b with A[i, j] = |<x_i, xi_j>|^p and
b[i] = ||x_i||^p. The relative residual across refinement levels is graded
evidence for or against the existence of mu: it can never prove
non-embeddability (that is the criterion module's job), but a residual that
plateaus under direction refinement is the numerical signature of an
infeasible moment problem.

Directions use a deterministic Fibonacci lattice (dim 3) or uniform
half-circle angles (dim 2), folded into a fixed hemisphere: the integrand
|<x, xi>|^p is even in xi, so antipodal directions are identified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import NormSpec, check_p, g17, norm_batch

FEASIBLE_RESIDUAL = 1e-3       # final residual below this (and decreasing) = feasible evidence
PLATEAU_RESIDUAL = 1e-2        # residual above this at every level is plateau territory
PLATEAU_REL_CHANGE = 0.10      # <10% residual change under 4x directions = plateau
LEVEL_DECREASE_SLACK = 1.05    # per-level residual may wiggle up by at most 5%
NNLS_DUAL_TOL = 1e-10
NNLS_ITER_FACTOR = 10          # iteration cap = 10 * columns
NNLS_REFINE_STEPS = 1          # iterative-refinement steps per passive-set solve
NNLS_DEPENDENT_TOL = 1e-12     # Schur complement / squared column norm below this = dependent
# Largest level: directions (a plateau probe's 4x included) and samples.
# solve_nnls holds two n x n arrays for n directions, and A is samples x n;
# the dim-3 default's probe has 4096 directions.
MAX_LEVEL_SIZE = 8192

FEASIBLE = "FeasibleEvidence"
INFEASIBLE = "InfeasibleEvidence"
INCONCLUSIVE = "Inconclusive"

DEFAULT_LEVELS = {
    2: ((16, 32), (64, 128), (256, 512)),
    3: ((64, 128), (256, 512), (1024, 2048)),
}


@dataclass
class SphericalMeasure:
    """Discrete nonnegative measure on the Euclidean unit sphere.

    Directions are unit vectors folded into the canonical hemisphere (last
    nonzero component positive); weights are nonnegative.
    """

    directions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.directions = np.atleast_2d(np.asarray(self.directions, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.directions.size == 0:
            self.directions = self.directions.reshape(0, max(1, self.directions.shape[-1] or 3))
        if len(self.weights) != len(self.directions):
            raise ValueError("directions and weights must have matching lengths")
        if self.size:
            lengths = np.sqrt((self.directions ** 2).sum(axis=1))
            if np.any(np.abs(lengths - 1.0) > 1e-12):
                raise ValueError("directions must be Euclidean unit vectors (within 1e-12)")
            if np.any(self.weights < 0.0):
                raise ValueError("weights must be nonnegative")
            self.directions = to_hemisphere(self.directions)

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class FeasibilityLevel:
    """One solved level: its size, residual and NNLS diagnostics (``active``
    counts the atoms with positive weight)."""

    direction_count: int
    sample_count: int
    relative_residual: float
    iterations: int
    active: int
    converged: bool

    @classmethod
    def from_solution(cls, direction_count: int, sample_count: int,
                      sol: NnlsSolution) -> FeasibilityLevel:
        return cls(direction_count, sample_count, sol.relative_residual,
                   sol.iterations, int(np.count_nonzero(sol.weights > 0.0)),
                   sol.converged)


@dataclass
class NnlsSolution:
    weights: np.ndarray
    relative_residual: float
    converged: bool
    iterations: int


@dataclass
class FeasibilityResult:
    spec_label: str
    p: float
    seed: int
    levels: list[FeasibilityLevel]
    interpretation: str
    best_measure: SphericalMeasure
    plateau_probe: FeasibilityLevel | None = None
    converged: bool = True


def to_hemisphere(directions: np.ndarray) -> np.ndarray:
    """Flip directions so the last nonzero component is positive."""
    dirs = np.array(directions, dtype=float)
    flip = np.zeros(len(dirs), dtype=bool)
    undecided = np.ones(len(dirs), dtype=bool)
    for axis in range(dirs.shape[1] - 1, -1, -1):
        col = dirs[:, axis]
        flip |= undecided & (col < 0.0)
        undecided &= col == 0.0
    dirs[flip] *= -1.0
    return dirs


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic near-uniform lattice on S^2, golden-angle construction."""
    if count < 1:
        raise ValueError("count must be positive")
    i = np.arange(count) + 0.5
    polar = np.arccos(1.0 - 2.0 * i / count)
    azimuth = 2.0 * math.pi * i / ((1.0 + math.sqrt(5.0)) / 2.0)
    return np.column_stack([
        np.cos(azimuth) * np.sin(polar),
        np.sin(azimuth) * np.sin(polar),
        np.cos(polar),
    ])


def circle_directions(count: int) -> np.ndarray:
    """Uniform angles over the open upper half-circle."""
    if count < 1:
        raise ValueError("count must be positive")
    angles = math.pi * (np.arange(count) + 0.5) / count
    return np.column_stack([np.cos(angles), np.sin(angles)])


def direction_grid(dim: int, count: int) -> np.ndarray:
    """Hemisphere-folded direction set for the given dimension."""
    if dim == 2:
        return to_hemisphere(circle_directions(count))
    if dim == 3:
        return to_hemisphere(fibonacci_sphere(count))
    raise ValueError(f"direction grids are implemented for dim 2 and 3, got {dim}")


def sample_norm_sphere(spec: NormSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded points on the unit sphere of ``spec`` (Gaussian directions)."""
    xs = rng.standard_normal((count, spec.dim))
    # a zero row has probability zero; regenerate defensively anyway
    bad = ~np.any(xs, axis=1)
    while np.any(bad):
        xs[bad] = rng.standard_normal((int(bad.sum()), spec.dim))
        bad = ~np.any(xs, axis=1)
    return xs / norm_batch(spec, xs)[:, None]


def assemble_moment_system(spec: NormSpec, p: float, samples, directions):
    """Matrix A[i, j] = |<x_i, xi_j>|^p and right-hand side b[i] = ||x_i||^p."""
    check_p(p)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = norm_batch(spec, samples)
    if np.any(norms == 0.0):
        raise ValueError("samples must be nonzero")
    A = np.abs(samples @ directions.T) ** p
    b = norms ** p
    return A, b


def solve_nnls(A, b) -> NnlsSolution:
    """Minimize ||A w - b||_2 subject to w >= 0, Lawson-Hanson active set.

    Each passive-set subproblem G_PP z = (A^T b)_P, with G = A^T A, is solved
    through a factor W of the inverse, W W^T = G_PP^{-1} (the columns of W
    are G_PP-orthonormal), which is updated as the passive set changes
    instead of being rebuilt: an entering column appends one Gram-Schmidt
    column to W (two matvecs), and a leaving column is swapped to the last
    row and eliminated by one Householder reflection of W's columns. Both
    updates cost O(k^2) for k passive columns, and no k x k block is copied
    or refactorized. The unconstrained passive solution zeta = W W^T (A^T b)_P
    is carried along: an entering column c of W adds c (c^T (A^T b)_P) to it
    at O(k) cost, and after a column leaves the next solve recomputes it. Each
    solve is followed by NNLS_REFINE_STEPS step of iterative refinement
    against G_PP itself, accumulated into zeta, which brings the
    normal-equation residual to the rounding floor. An entering column whose
    Schur complement is not above NNLS_DEPENDENT_TOL of its squared norm lies
    numerically in the span of the passive columns; it is passed over and the
    next-largest dual enters instead.

    Gram columns are kept column-major in entry order. A tall system
    (columns <= rows), whose Gram is no larger than A, forms all of A^T A in
    one symmetric BLAS-3 product, and a column that enters is moved into
    place by a column swap. A wide system computes a Gram column lazily, one
    matvec when the column first enters, so an active set that stays small
    never touches most of A^T A. The reported residual is evaluated directly
    from A x - b, so it is not limited by the squared conditioning of the
    normal equations.

    Deterministic for fixed input: the entering column is always the first
    index attaining the largest dual value above NNLS_DUAL_TOL. Hitting the
    iteration cap (NNLS_ITER_FACTOR * columns) returns ``converged = False``
    rather than raising, so callers can surface an inconclusive verdict.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or A.shape[0] != len(b):
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries in the system")
    m, n = A.shape
    max_iter = NNLS_ITER_FACTOR * n
    b_norm = float(np.linalg.norm(b))

    atb = A.T @ b
    gram = np.empty((n, n), order="F")   # gram[:, s] = G[:, stored[s]]
    tall = n <= m
    if tall:
        np.matmul(A.T, A, out=gram.T)    # symmetric, so gram holds G as well
    stored = np.arange(n)
    slot = np.arange(n)                  # stored[slot[j]] == j
    basis = np.empty((n, n))             # W = basis[:k, :k], W W^T = inverse of G_PP
    order = np.empty(n, dtype=np.intp)   # order[:k] = P in factor order
    zeta = np.empty(n)                   # zeta[:k] = W W^T (A^T b)_P, refined
    k = n_stored = 0
    zeta_current = True

    def gram_col(j: int) -> np.ndarray:
        nonlocal n_stored
        s = slot[j]
        if s >= n_stored:
            # j takes slot n_stored; the column there moves to j's old slot
            i = stored[n_stored]
            if tall:
                gram[:, [n_stored, s]] = gram[:, [s, n_stored]]
            else:
                gram[:, n_stored] = A.T @ A[:, j]
            stored[s], slot[i] = i, s
            stored[n_stored], slot[j] = j, n_stored
            n_stored += 1
        return gram[:, slot[j]]

    def gram_times(v: np.ndarray) -> np.ndarray:
        """G v for v supported on stored columns."""
        return gram[:, :n_stored] @ v[stored[:n_stored]]

    def enter(j: int) -> bool:
        nonlocal k
        g = gram_col(j)
        w_k = basis[:k, :k]
        t = g[order[:k]] @ w_k
        schur = g[j] - t @ t
        if not schur > NNLS_DEPENDENT_TOL * g[j]:
            return False
        # Gram-Schmidt in the G_PP inner product: new column (e_j - W t) / rho
        rho = math.sqrt(schur)
        basis[:k, k] = (w_k @ t) / -rho
        basis[k, :k] = 0.0
        basis[k, k] = 1.0 / rho
        order[k] = j
        k += 1
        c = basis[:k, k - 1]
        zeta[k - 1] = 0.0
        zeta[:k] += c * (c @ atb[order[:k]])
        return True

    def leave(r: int) -> None:
        nonlocal k, zeta_current
        last = k - 1
        order[[r, last]] = order[[last, r]]
        basis[[r, last], :k] = basis[[last, r], :k]
        # reflect W's columns so that its last row becomes a multiple of
        # e_last; W W^T is unchanged, and dropping that row and column
        # leaves the factor for the remaining columns
        v = basis[last, :k].copy()
        v[last] += math.copysign(float(np.linalg.norm(v)), v[last])
        w_k = basis[:last, :k]
        basis[:last, :last] -= np.multiply.outer(w_k @ v, v[:last] * (2.0 / (v @ v)))
        k = last
        zeta_current = False

    def solve_passive() -> np.ndarray:
        nonlocal zeta_current
        idx = order[:k]
        w_k = basis[:k, :k]
        rhs = atb[idx]
        z = zeta[:k]
        if not zeta_current:
            z[:] = w_k @ (rhs @ w_k)
            zeta_current = True
        z_full = np.zeros(n)
        for _ in range(NNLS_REFINE_STEPS):
            z_full[idx] = z
            z += w_k @ ((rhs - gram_times(z_full)[idx]) @ w_k)
        return z.copy()

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = atb.copy()
    iterations = 0
    converged = True

    while True:
        candidates = ~passive & (w > NNLS_DUAL_TOL)
        while np.any(candidates):
            j = int(np.argmax(np.where(candidates, w, -np.inf)))
            if enter(j):
                break
            candidates[j] = False
        else:
            break
        passive[j] = True
        while True:
            iterations += 1
            if iterations > max_iter:
                converged = False
                break
            idx = order[:k]
            z = solve_passive()
            if np.all(z > 0.0):
                x[:] = 0.0
                x[idx] = z
                break
            xp = x[idx]
            neg = z <= 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(neg, xp / (xp - z), np.inf)
            alpha = float(np.min(ratios))
            xp = xp + alpha * (z - xp)
            x[:] = 0.0
            x[idx] = xp
            drop = xp <= 1e-14 * max(1.0, float(np.max(np.abs(xp))))
            for r in np.flatnonzero(drop)[::-1]:
                passive[order[r]] = False
                leave(int(r))
            x[~passive] = 0.0
            if k == 0:
                break
        if not converged:
            break
        w = atb - gram_times(x)
    resid = b - A @ x
    rel = float(np.linalg.norm(resid) / b_norm) if b_norm > 0.0 else 0.0
    return NnlsSolution(weights=x, relative_residual=rel,
                        converged=converged, iterations=iterations)


def uniform_calibrated_measure(p: float) -> SphericalMeasure:
    """Uniform weights on the 2048-point Fibonacci lattice, calibrated so the
    Euclidean representation is exact at x = e1 (hence, by near-uniformity,
    accurate everywhere). This is the discrete stand-in for the
    rotation-invariant measure representing the Euclidean norm."""
    check_p(p)
    dirs = direction_grid(3, 2048)
    mass = float((np.abs(dirs[:, 0]) ** p).sum())
    weights = np.full(len(dirs), 1.0 / mass)
    return SphericalMeasure(directions=dirs, weights=weights)


def _measure_from_solution(directions: np.ndarray, weights: np.ndarray) -> SphericalMeasure:
    keep = weights > 0.0
    return SphericalMeasure(directions=directions[keep], weights=weights[keep])


def feasibility_scan(spec: NormSpec, p: float, levels=None, seed: int = 0) -> FeasibilityResult:
    """Solve the moment problem across refinement levels and grade the outcome.

    FeasibleEvidence: final residual < 1e-3 and residuals decrease with
    refinement. InfeasibleEvidence: residual > 1e-2 at every level and the
    final residual moves by < 10% when directions are quadrupled at fixed
    samples. Anything else (including a solver that hit its iteration cap)
    is Inconclusive. Thresholds are calibration constants and are printed
    in the report.
    """
    check_p(p)
    if spec.dim not in DEFAULT_LEVELS:
        raise ValueError(f"the moment problem supports dim {sorted(DEFAULT_LEVELS)}, "
                         f"got dim = {spec.dim}")
    if levels is None:
        levels = DEFAULT_LEVELS[spec.dim]
    levels = [(int(d), int(s)) for d, s in levels]
    if not levels or any(d < 1 or s < 1 for d, s in levels):
        raise ValueError("levels must be a nonempty list of positive (directions, samples)")
    largest = max(4 * levels[-1][0], *(max(d, s) for d, s in levels))
    if largest > MAX_LEVEL_SIZE:
        raise ValueError(f"levels need {largest} directions or samples (the plateau probe "
                         f"takes 4x the last level's directions), more than {MAX_LEVEL_SIZE}")
    rng = np.random.default_rng(seed)
    sample_sets = [sample_norm_sphere(spec, s, rng) for _, s in levels]
    direction_sets = [direction_grid(spec.dim, d) for d, _ in levels]

    def solve_level(dirs, samples):
        A, b = assemble_moment_system(spec, p, samples, dirs)
        return solve_nnls(A, b)

    solutions = [solve_level(d, s) for d, s in zip(direction_sets, sample_sets)]
    level_rows = [FeasibilityLevel.from_solution(len(d), len(s), sol)
                  for d, s, sol in zip(direction_sets, sample_sets, solutions)]
    residuals = np.array([row.relative_residual for row in level_rows])
    converged = all(sol.converged for sol in solutions)

    best_idx = int(np.argmin(residuals))
    best_measure = _measure_from_solution(direction_sets[best_idx],
                                          solutions[best_idx].weights)

    probe_row = None
    interpretation = INCONCLUSIVE
    if converged:
        decreasing = bool(np.all(residuals[1:] <= residuals[:-1] * LEVEL_DECREASE_SLACK)
                          and residuals[-1] <= residuals[0])
        if residuals[-1] < FEASIBLE_RESIDUAL and decreasing:
            interpretation = FEASIBLE
        elif np.all(residuals > PLATEAU_RESIDUAL):
            probe_dirs = direction_grid(spec.dim, 4 * levels[-1][0])
            probe_sol = solve_level(probe_dirs, sample_sets[-1])
            probe_row = FeasibilityLevel.from_solution(len(probe_dirs), levels[-1][1],
                                                       probe_sol)
            if probe_sol.converged:
                change = abs(probe_sol.relative_residual - residuals[-1]) / residuals[-1]
                if change < PLATEAU_REL_CHANGE:
                    interpretation = INFEASIBLE
            else:
                converged = False

    return FeasibilityResult(
        spec_label=spec.label, p=p, seed=seed, levels=level_rows,
        interpretation=interpretation, best_measure=best_measure,
        plateau_probe=probe_row, converged=converged,
    )


def feasibility_csv(result: FeasibilityResult) -> str:
    """CSV of (level, directions, samples, residual); the plateau probe, when
    present, is the last row with level tag 'probe'."""
    rows = ["level,directions,samples,relative_residual"]
    for i, lv in enumerate(result.levels):
        rows.append(f"{i},{lv.direction_count},{lv.sample_count},{g17(lv.relative_residual)}")
    if result.plateau_probe is not None:
        lv = result.plateau_probe
        rows.append(f"probe,{lv.direction_count},{lv.sample_count},{g17(lv.relative_residual)}")
    return "\n".join(rows) + "\n"


def measure_csv(measure: SphericalMeasure) -> str:
    """CSV of atom coordinates and weights."""
    dim = measure.directions.shape[1] if measure.size else 3
    header = ",".join(f"xi_{k + 1}" for k in range(dim)) + ",weight"
    rows = [header]
    for d, w in zip(measure.directions, measure.weights):
        rows.append(",".join(g17(c) for c in d) + f",{g17(w)}")
    return "\n".join(rows) + "\n"


def feasibility_report_text(result: FeasibilityResult) -> str:
    lines = [
        f"spec: {result.spec_label}",
        f"p: {g17(result.p)}",
        f"seed: {result.seed}",
        f"interpretation: {result.interpretation}",
        f"converged: {result.converged}",
        f"feasible_threshold: {g17(FEASIBLE_RESIDUAL)}",
        f"plateau_threshold: {g17(PLATEAU_RESIDUAL)}",
        f"plateau_rel_change: {g17(PLATEAU_REL_CHANGE)}",
        f"best_measure_atoms: {result.best_measure.size}",
        f"best_measure_mass: {g17(result.best_measure.total_mass)}",
    ]
    rows = [(f"level {i}", lv) for i, lv in enumerate(result.levels)]
    if result.plateau_probe is not None:
        rows.append(("probe", result.plateau_probe))
    for tag, lv in rows:
        lines.append(f"{tag}: directions={lv.direction_count} samples={lv.sample_count} "
                     f"residual={g17(lv.relative_residual)} iterations={lv.iterations} "
                     f"active={lv.active} converged={lv.converged}")
    return "\n".join(lines) + "\n"
