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
RESIDUAL_FLOOR = 1e-12         # residuals below this are rounding noise and compare equal
NNLS_DUAL_TOL = 1e-10
NNLS_ITER_FACTOR = 10          # iteration cap = 10 * columns
NNLS_DEPENDENT_TOL = 1e-12     # Schur complement / squared column norm below this = dependent
SUBSTITUTION_BLOCK = 128       # rows per diagonal block of a pivoting round's triangular solves
PROBE_REFINEMENT = 4           # the plateau probe has 4x the last level's directions
# A level after the first is solved by block pivoting, started from the
# directions nearest the coarser level's atoms, when the coarser level
# predicts more atoms than this (its atom fraction times this level's
# directions); other levels, and systems solved directly, use Lawson-Hanson.
PIVOTING_MIN_ATOMS = 256
# Largest level: directions (a plateau probe's 4x included) and samples.
# solve_nnls holds the n x n Gram for the n directions of each scan level,
# plus the n x n factor W of Lawson-Hanson or, when it pivots, LAPACK's copy
# of the k x k passive block (a view of the permuted Gram) and its Cholesky
# factor; A is samples x n.
# The probe never forms its whole A: solve_nnls
# receives only the priced columns, and pricing forms the probe's columns in
# PROBE_REFINEMENT blocks, each the size of the last level's A.
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


@dataclass
class NnlsSolution:
    """One solve of a samples x directions system A w = b, w >= 0, with its
    diagnostics; ``active`` counts the atoms with positive weight."""

    weights: np.ndarray
    relative_residual: float
    converged: bool
    iterations: int
    sample_count: int
    pivoting: int = 0                    # solves of a block-pivoting result
    handover: int = 0                    # pivoting solves before a Lawson-Hanson handover

    @property
    def direction_count(self) -> int:
        return len(self.weights)

    @property
    def active(self) -> int:
        return int(np.count_nonzero(self.weights > 0.0))


@dataclass
class FeasibilityResult:
    """A graded scan; ``levels`` and ``plateau_probe`` are the records that
    solve_nnls and _solve_priced returned."""

    spec_label: str
    p: float
    seed: int
    levels: list[NnlsSolution]
    interpretation: str
    best_measure: SphericalMeasure
    plateau_probe: NnlsSolution | None = None
    converged: bool = True
    probe_pricing: tuple[int, int] | None = None   # (rounds, final restricted columns)


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
    return _moment_matrix(samples, directions, p), norms ** p


def _moment_matrix(samples: np.ndarray, directions: np.ndarray, p: float) -> np.ndarray:
    """A[i, j] = |<x_i, xi_j>|^p, built in place."""
    A = samples @ directions.T
    np.abs(A, out=A)
    A **= p
    return A


def solve_nnls(A, b, start=None) -> NnlsSolution:
    """Minimize ||A w - b||_2 subject to w >= 0.

    All of G = A^T A is formed in one symmetric BLAS-3 product, wide systems
    included, and the system is solved by Lawson-Hanson (``_lawson_hanson``)
    or, given ``start``, column indices expected to be passive at the
    optimum, by block principal pivoting from them (``_block_pivoting``),
    which factors each round's passive block by Cholesky inside the Gram.
    When pivoting fails, Lawson-Hanson solves the system as if no start had
    been given, and ``handover`` records the pivoting solves spent. A
    pivoting result has ``pivoting`` solves (0 for Lawson-Hanson) and counts
    passive-set changes as ``iterations``. The reported residual is
    evaluated directly from A x - b, so it is not limited by the squared
    conditioning of the normal equations.

    Deterministic for fixed input. Hitting the Lawson-Hanson iteration cap
    (NNLS_ITER_FACTOR * columns) returns ``converged = False`` rather than
    raising, so callers can surface an inconclusive verdict.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or A.shape[0] != len(b):
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries in the system")
    n = A.shape[1]
    b_norm = float(np.linalg.norm(b))

    atb = A.T @ b
    gram = np.empty((n, n), order="F")
    np.matmul(A.T, A, out=gram.T)        # symmetric, so gram holds G as well
    x, pivoting, handover, converged = None, 0, 0, True
    if start is not None:
        x, solves, iterations = _block_pivoting(gram, atb, start)
        if x is None:
            handover = solves
        else:
            pivoting = solves
    if x is None:
        x, iterations, converged = _lawson_hanson(gram, atb)
    resid = b - A @ x
    rel = float(np.linalg.norm(resid) / b_norm) if b_norm > 0.0 else 0.0
    return NnlsSolution(weights=x, relative_residual=rel, converged=converged,
                        iterations=iterations, sample_count=len(b), pivoting=pivoting,
                        handover=handover)


def _block_pivoting(gram: np.ndarray, atb: np.ndarray, start):
    """Block principal pivoting for min ||A w - b||, w >= 0, on G = A^T A
    and A^T b (Portugal, Judice & Vicente 1994; Kim & Park 2011).

    From the passive set F = ``start``, each round solves G_FF x_F =
    (A^T b)_F (x = 0 outside F), forms the dual w = A^T b - G x over all
    columns and flips every infeasible index: those in F with x <= 0 leave,
    those outside F with w > NNLS_DUAL_TOL enter. The rounds end when no
    index is infeasible, which is the Lawson-Hanson optimality test.

    ``gram`` is kept symmetrically permuted so that F fills its leading k
    rows and columns (``perm`` records the order): a round exchanges only
    the slots that changed (``_exchange``), factors the view G_FF by
    Cholesky, solves by block substitution (``_substitute``) and takes the
    dual from the leading k columns. LAPACK's copy of G_FF and the factor
    are the only k x k arrays a round holds.

    Returns (x, solves, changes), where changes counts the start's columns
    plus every flipped column. x is None, and the system belongs to
    Lawson-Hanson, when a round's G_FF fails Lawson-Hanson's dependence test
    (its Cholesky fails, or a squared pivot is not above NNLS_DEPENDENT_TOL
    times its diagonal entry), when three exchanges in a row leave the
    infeasible set no smaller than its smallest size so far, or when the
    final normal equations hold to no better than 1e-13 relative. The
    three-miss rule stops exchanges that cycle, as they do without it from
    all 20 columns of |X D^T| (X, D Gaussian 24 x 3 and 20 x 3, seed 0).
    On a handover ``gram`` is restored exactly by replaying the rounds'
    exchanges in reverse (each is its own inverse), else left permuted.
    """
    n = len(atb)
    passive = np.zeros(n, dtype=bool)
    passive[start] = True
    changes = int(np.count_nonzero(passive))
    perm = np.arange(n)                  # gram[i, j] = G[perm[i], perm[j]]
    exchanges = []                       # (leaving, entering) slots of each round
    solves = misses = 0
    fewest = n + 1                       # smallest infeasible set so far
    while True:
        k = int(np.count_nonzero(passive))
        inside = passive[perm]
        leaving = np.flatnonzero(~inside[:k])
        if leaving.size:
            entering = k + np.flatnonzero(inside[k:])
            _exchange(gram, leaving, entering)
            exchanges.append((leaving, entering))
            perm[leaving], perm[entering] = perm[entering], perm[leaving]
        solves += 1
        try:
            factor = np.linalg.cholesky(gram[:k, :k])
        except np.linalg.LinAlgError:
            break
        if not np.all(np.diagonal(factor) ** 2 > NNLS_DEPENDENT_TOL * np.diagonal(gram)[:k]):
            break
        x_f = _substitute(factor.T, _substitute(factor, atb[perm[:k]], lower=True), lower=False)
        del factor                       # released before the next round's exchanges
        x = np.zeros(n)
        x[perm[:k]] = x_f
        w = np.empty(n)
        w[perm] = atb[perm] - gram[:, :k] @ x_f
        flip = np.where(passive, x <= 0.0, w > NNLS_DUAL_TOL)
        count = int(np.count_nonzero(flip))
        if not count:
            if np.linalg.norm(w[passive]) <= 1e-13 * np.linalg.norm(atb[passive]):
                return x, solves, changes
            break
        if count < fewest:
            fewest, misses = count, 0
        else:
            misses += 1
            if misses == 3:
                break
        passive ^= flip
        changes += count
    for leaving, entering in reversed(exchanges):
        _exchange(gram, leaving, entering)       # G restored exactly for Lawson-Hanson
    return None, solves, changes


def _substitute(tri: np.ndarray, rhs: np.ndarray, lower: bool) -> np.ndarray:
    """y with tri y = rhs for a lower or upper triangular ``tri``, by block
    forward or back substitution: one np.linalg.solve per diagonal block of
    SUBSTITUTION_BLOCK rows, after one matrix-vector product with the part
    of y already solved."""
    k = len(rhs)
    y = np.empty(k)
    blocks = range(0, k, SUBSTITUTION_BLOCK)
    for lo in (blocks if lower else reversed(blocks)):
        hi = min(lo + SUBSTITUTION_BLOCK, k)
        solved = tri[lo:hi, :lo] @ y[:lo] if lower else tri[lo:hi, hi:] @ y[hi:]
        y[lo:hi] = np.linalg.solve(tri[lo:hi, lo:hi], rhs[lo:hi] - solved)
    return y


def _exchange(gram: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Swap rows and columns a[i] <-> b[i] of ``gram`` in place (all slots
    distinct): rows in column strips and columns in row strips, each strip
    of about 2^14 entries."""
    n = len(gram)
    step = max(1, (1 << 14) // (2 * len(a)))
    for lo in range(0, n, step):
        strip = slice(lo, lo + step)
        gram[a, strip], gram[b, strip] = gram[b, strip], gram[a, strip]
    for lo in range(0, n, step):
        strip = slice(lo, lo + step)
        gram[strip, a], gram[strip, b] = gram[strip, b], gram[strip, a]


def _lawson_hanson(gram: np.ndarray, atb: np.ndarray):
    """Lawson-Hanson active set on G = A^T A (F-ordered) and A^T b; returns
    (x, iterations, converged).

    Each passive-set subproblem G_PP z = (A^T b)_P is solved through a factor
    W of the inverse, W W^T = G_PP^{-1} (the columns of W are
    G_PP-orthonormal), which is updated as the passive set changes instead
    of being rebuilt: an entering column appends one Gram-Schmidt column to
    W (two matvecs), and a leaving column is swapped to the last row and
    eliminated by one Householder reflection of W's columns. Both updates
    cost O(k^2) for k passive columns, and no k x k block is copied or
    refactorized. Every passive solution is one step from the current
    feasible x along the dual w = A^T b - G x at x: z = x_P + W W^T w_P.
    When column j enters, w is the outer dual, already computed over all
    columns to choose j, and w_P is at the rounding floor, so only the new
    column c of W contributes: z = [x_P; 0] + c (c^T w_P), at O(k) cost.
    After a column leaves, w is recomputed at the new feasible x (one Gram
    product) and the full step taken. Because each step starts from the true
    residual of the current x, the normal-equation residual stays at the
    rounding floor without a separate refinement. An entering column whose
    Schur complement is not above NNLS_DEPENDENT_TOL of its squared norm lies
    numerically in the span of the passive columns; it is passed over and the
    next-largest dual enters instead.

    G's columns are kept column-major in entry order, and a column that
    enters is moved into place by a column swap. The entering column is
    always the first index attaining the largest dual value above
    NNLS_DUAL_TOL. The iteration cap is NNLS_ITER_FACTOR * columns.
    """
    n = len(atb)
    max_iter = NNLS_ITER_FACTOR * n
    stored = np.arange(n)                # gram[:, s] = G[:, stored[s]]
    slot = np.arange(n)                  # stored[slot[j]] == j
    basis = np.empty((n, n))             # W = basis[:k, :k], W W^T = inverse of G_PP
    order = np.empty(n, dtype=np.intp)   # order[:k] = P in factor order
    k = n_stored = 0

    def gram_col(j: int) -> np.ndarray:
        nonlocal n_stored
        s = slot[j]
        if s >= n_stored:
            # j takes slot n_stored; the column there moves to j's old slot
            i = stored[n_stored]
            gram[:, [n_stored, s]] = gram[:, [s, n_stored]]
            stored[s], slot[i] = i, s
            stored[n_stored], slot[j] = j, n_stored
            n_stored += 1
        return gram[:, slot[j]]

    def dual(x: np.ndarray) -> np.ndarray:
        """A^T b - G x for x supported on stored columns."""
        return atb - gram[:, :n_stored] @ x[stored[:n_stored]]

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
        return True

    def leave(r: int) -> None:
        nonlocal k
        last = k - 1
        order[[r, last]] = order[[last, r]]
        basis[[r, last], :k] = basis[[last, r], :k]
        # reflect W's columns so that its last row becomes a multiple of
        # e_last; W W^T is unchanged, and dropping that row and column
        # leaves the factor for the remaining columns
        v = basis[last, :k].copy()
        v[last] += math.copysign(float(np.linalg.norm(v)), v[last])
        u = basis[:last, :k] @ v
        s = v[:last] * (2.0 / (v @ v))
        # subtract the rank-1 term u s^T in place, in row blocks of about
        # 2^15 entries, so no last x last temporary is allocated
        step = max(1, (1 << 15) // max(last, 1))
        for lo in range(0, last, step):
            hi = min(lo + step, last)
            basis[lo:hi, :last] -= u[lo:hi, None] * s
        k = last

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
        first = k - 1                    # w_P is at the rounding floor: step along c alone
        while True:
            iterations += 1
            if iterations > max_iter:
                converged = False
                break
            idx = order[:k]
            xp = x[idx]
            cols = basis[:k, first:k]    # the columns of W the step runs along
            z = xp + cols @ (w[idx] @ cols)
            if np.all(z > 0.0):
                x[idx] = z
                break
            neg = z <= 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(neg, xp / (xp - z), np.inf)
            alpha = float(np.min(ratios))
            xp = xp + alpha * (z - xp)
            x[idx] = xp
            drop = xp <= 1e-14 * max(1.0, float(np.max(np.abs(xp))))
            for r in np.flatnonzero(drop)[::-1]:
                passive[order[r]] = False
                leave(int(r))
            x[~passive] = 0.0
            if k == 0:
                break
            w = dual(x)
            first = 0
        if not converged:
            break
        w = dual(x)
    return x, iterations, converged


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


def _nearest_columns(atoms: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Sorted indices of the PROBE_REFINEMENT directions nearest each atom,
    by largest |<atom, xi>| (antipodes are identified). It starts both the
    plateau probe's pricing and the pivoting of a refinement level."""
    closeness = np.abs(atoms @ directions.T)
    nearest = np.argpartition(closeness, -PROBE_REFINEMENT, axis=1)
    return np.unique(nearest[:, -PROBE_REFINEMENT:])


def _solve_priced(samples: np.ndarray, directions: np.ndarray, p: float, b: np.ndarray,
                  columns: np.ndarray):
    """solve_nnls on the moment system A[i, j] = |<x_i, xi_j>|^p, A w = b, by
    column generation from ``columns``, sorted column indices without repeats.

    Each round solves the restricted system, whose columns |<x, xi_S>|^p it
    forms directly, and prices every column with w = A^T (b - A_S x_S),
    forming A in PROBE_REFINEMENT blocks of directions, so no array larger
    than one block is held; the columns outside S with w > NNLS_DUAL_TOL
    join S. The rounds end when none joins, which is the dual test
    solve_nnls applies to all of A, or when a restricted solve did not
    converge. Returns the solution (zero outside S, iterations summed over
    the rounds) and the pair (rounds, final size of S).
    """
    x = np.zeros(len(directions))
    iterations = rounds = 0
    while True:
        restricted = _moment_matrix(samples, directions[columns], p)
        sol = solve_nnls(restricted, b)
        iterations += sol.iterations
        rounds += 1
        if not sol.converged:
            break
        resid = b - restricted @ sol.weights
        del restricted                   # freed before the blocks allocate
        w = np.concatenate([_moment_matrix(samples, block, p).T @ resid
                            for block in np.array_split(directions, PROBE_REFINEMENT)])
        w[columns] = -np.inf
        entering = np.flatnonzero(w > NNLS_DUAL_TOL)
        if not entering.size:
            break
        columns = np.union1d(columns, entering)
    x[columns] = sol.weights
    return (NnlsSolution(weights=x, relative_residual=sol.relative_residual,
                         converged=sol.converged, iterations=iterations, sample_count=len(b)),
            (rounds, len(columns)))


def check_level_sizes(levels) -> None:
    """Refuse (directions, samples) levels whose directions, the plateau
    probe's PROBE_REFINEMENT x the last level's included, or samples exceed
    MAX_LEVEL_SIZE."""
    largest = max(PROBE_REFINEMENT * levels[-1][0], *(max(d, s) for d, s in levels))
    if largest > MAX_LEVEL_SIZE:
        raise ValueError(f"levels need {largest} directions or samples (the plateau probe "
                         f"takes {PROBE_REFINEMENT}x the last level's directions), "
                         f"more than {MAX_LEVEL_SIZE}")


def feasibility_scan(spec: NormSpec, p: float, levels=None, seed: int = 0) -> FeasibilityResult:
    """Solve the moment problem across refinement levels and grade the outcome.

    FeasibleEvidence: final residual < 1e-3 and residuals decrease with
    refinement, residuals below 1e-12 (rounding noise) comparing equal.
    InfeasibleEvidence: residual > 1e-2 at every level and the final
    residual moves by < 10% when directions are quadrupled at fixed
    samples. Anything else (including a solver that hit its iteration cap)
    is Inconclusive. Thresholds are calibration constants and are printed
    in the report.

    A level after the first whose coarser level predicts more than
    PIVOTING_MIN_ATOMS atoms (the coarser level's atoms per direction times
    this level's directions) is solved by block pivoting from the
    PROBE_REFINEMENT directions nearest each of the coarser level's atoms;
    every other level by Lawson-Hanson. Both end on the same dual test.

    The plateau probe is solved by pricing (``_solve_priced``) from the
    PROBE_REFINEMENT probe directions nearest each atom of the last level's
    solution (largest |<atom, xi>|): the same optimum as one solve over all
    probe directions, while solve_nnls sees only a few of them and no probe
    array is larger than the last level's A.
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
    check_level_sizes(levels)
    rng = np.random.default_rng(seed)
    sample_sets = [sample_norm_sphere(spec, s, rng) for _, s in levels]
    direction_sets = [direction_grid(spec.dim, d) for d, _ in levels]

    solutions = []
    for i, (d, s) in enumerate(zip(direction_sets, sample_sets)):
        A, b = assemble_moment_system(spec, p, s, d)
        start = None
        if i:
            coarse = direction_sets[i - 1]
            atoms = coarse[solutions[-1].weights > 0.0]
            if len(atoms) * len(d) > PIVOTING_MIN_ATOMS * len(coarse):
                start = _nearest_columns(atoms, d)
        solutions.append(solve_nnls(A, b, start=start))
    del A                                # the probe reuses only the last level's b
    residuals = np.array([sol.relative_residual for sol in solutions])
    converged = all(sol.converged for sol in solutions)

    best_idx = int(np.argmin(residuals))
    keep = solutions[best_idx].weights > 0.0
    best_measure = SphericalMeasure(directions=direction_sets[best_idx][keep],
                                    weights=solutions[best_idx].weights[keep])

    probe_sol = pricing = None
    interpretation = INCONCLUSIVE
    if converged:
        floored = np.maximum(residuals, RESIDUAL_FLOOR)
        decreasing = bool(np.all(floored[1:] <= floored[:-1] * LEVEL_DECREASE_SLACK)
                          and floored[-1] <= floored[0])
        if residuals[-1] < FEASIBLE_RESIDUAL and decreasing:
            interpretation = FEASIBLE
        elif np.all(residuals > PLATEAU_RESIDUAL):
            probe_dirs = direction_grid(spec.dim, PROBE_REFINEMENT * levels[-1][0])
            atoms = direction_sets[-1][solutions[-1].weights > 0.0]
            probe_sol, pricing = _solve_priced(sample_sets[-1], probe_dirs, p, b,
                                               _nearest_columns(atoms, probe_dirs))
            if probe_sol.converged:
                change = abs(probe_sol.relative_residual - residuals[-1]) / residuals[-1]
                if change < PLATEAU_REL_CHANGE:
                    interpretation = INFEASIBLE
            else:
                converged = False

    return FeasibilityResult(
        spec_label=spec.label, p=p, seed=seed, levels=solutions,
        interpretation=interpretation, best_measure=best_measure,
        plateau_probe=probe_sol, converged=converged,
        probe_pricing=pricing,
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
    header = ",".join(f"xi_{k + 1}" for k in range(measure.directions.shape[1])) + ",weight"
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
        f"residual_floor: {g17(RESIDUAL_FLOOR)}",
        f"best_measure_atoms: {result.best_measure.size}",
        f"best_measure_mass: {g17(result.best_measure.total_mass)}",
    ]
    rows = [(f"level {i}", lv) for i, lv in enumerate(result.levels)]
    if result.plateau_probe is not None:
        rows.append(("probe", result.plateau_probe))
    for tag, lv in rows:
        lines.append(f"{tag}: directions={lv.direction_count} samples={lv.sample_count} "
                     f"residual={g17(lv.relative_residual)} pivoting={lv.pivoting} "
                     + (f"handover={lv.handover} " if lv.handover else "")
                     + f"iterations={lv.iterations} active={lv.active} "
                     f"converged={lv.converged}")
    if result.probe_pricing is not None:
        rounds, columns = result.probe_pricing
        lines.append(f"probe_pricing: rounds={rounds} columns={columns}")
    return "\n".join(lines) + "\n"
