"""Positive-definiteness cross-check for exp(-||x||^p).

For 0 < p <= 2, a norm embeds isometrically in L_p exactly when
exp(-||x||^p) is a positive definite function, i.e. the kernel matrix
G[i, j] = exp(-||x_i - x_j||^p) is positive semidefinite for every finite
point set. A point set whose kernel has a negative eigenvalue is therefore
a certificate of non-embeddability; this module hunts for such witnesses
with a seeded random search plus coordinate-descent refinement.

Positive definiteness can fail only at particular scales relative to the
fixed kernel width, so each random cloud is tested over a sweep of scale
factors (a single pairwise-distance evaluation serves all scales, the norm
being homogeneous). Each pair norm is evaluated once: ``pairwise_norms``
takes the upper-triangle differences x_i - x_j (i < j) and mirrors them,
which is exact because ||x_j - x_i|| = ||-(x_i - x_j)||. The search draws
clouds in blocks of at most ``SEARCH_BLOCK_ROWS`` pair rows, so each block
costs one ``norm_batch`` call and one stacked ``eigvalsh`` over the
(cloud, scale) kernels that stacked Cholesky tests (``cannot_beat``, applied
by bisection in ``unscreened``) cannot clear against the running best; a
refinement step moves one point and recomputes only that point's row of
distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import NormSpec, check_p, g17, norm_batch

DEFAULT_TRIALS = 2000          # random clouds drawn by the search
SCALE_SWEEP = (0.25, 0.5, 1.0, 2.0, 4.0)   # powers of two: scaling is exact
REFINE_STEPS = 200
REFINE_STEP_FRACTION = 0.1
WITNESS_EIG_FACTOR = -1e-8     # threshold: min_eig < factor * trace(G)/size
SEARCH_CHUNKS = 16             # fixed seeded streams; changing it changes every witness
SEARCH_BLOCK_ROWS = 1 << 14    # pair rows per search block; caps memory and n_points
# A Cholesky of K - t I that succeeds in floating point proves lambda_min(K) >=
# t - n (n + 1) eps ||K - t I|| (Higham, "Accuracy and Stability of Numerical
# Algorithms", ch. 10), and eigvalsh is accurate to O(n eps ||K||), where ||K|| <= n
# (unit diagonal, entries in (0, 1]) and t <= 1. Both stay below 7e-10 at n = 181,
# so a screened block holds no kernel whose computed eigenvalue is below the best.
SCREEN_MARGIN = 1e-8


@dataclass
class PsdWitness:
    """Best point set found. ``min_eigenvalue`` is the eigenvalue the search
    computed for it, and rebuilding exp(-||x_i - x_j||^p) from ``points``
    reproduces it bit for bit: the scales are powers of two, so scaling a
    cloud scales its norms exactly, and the norm is even, so both triangles
    of the kernel agree."""

    points: np.ndarray
    p: float
    min_eigenvalue: float
    seed: int
    spec_label: str = ""
    trials: int = 0
    eigenproblems: int = 0     # kernel eigenvalue problems the search solved
    screened: int = 0          # search kernels the Cholesky screen cleared unsolved

    @property
    def found(self) -> bool:
        """True when the eigenvalue is decisively negative (below the
        roundoff guard -1e-8 * trace(G)/size, which is -1e-8 here since the
        kernel has unit diagonal)."""
        return self.min_eigenvalue < WITNESS_EIG_FACTOR


def pairwise_norms(spec: NormSpec, points: np.ndarray) -> np.ndarray:
    """Symmetric matrices of ||x_i - x_j|| under ``spec`` for a (..., m, dim)
    stack of point sets: one ``norm_batch`` call over the pairs i < j,
    mirrored, with an exactly zero diagonal."""
    points = np.asarray(points, dtype=float)
    m = points.shape[-2]
    upper, lower = np.triu_indices(m, 1)
    diffs = points[..., upper, :] - points[..., lower, :]
    pair = norm_batch(spec, diffs.reshape(-1, spec.dim)).reshape(diffs.shape[:-1])
    dist = np.zeros(points.shape[:-1] + (m,))
    dist[..., upper, lower] = pair
    dist[..., lower, upper] = pair
    return dist


def cannot_beat(kernels: np.ndarray, best: float) -> bool:
    """True when one stacked Cholesky factorization of every kernel minus
    (best + SCREEN_MARGIN) I succeeds, which proves that no kernel in the
    stack has a computed smallest eigenvalue below ``best``."""
    shifted = kernels - (best + SCREEN_MARGIN) * np.eye(kernels.shape[-1])
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def unscreened(kernels: np.ndarray, best: float) -> list[int]:
    """Indices, in stack order, of the kernels in a (count, n, n) stack that
    ``cannot_beat`` does not clear against ``best`` on their own: the stack
    is screened whole, and a stack that fails is halved and each half
    screened again, down to single kernels."""
    if cannot_beat(kernels, best):
        return []
    if len(kernels) == 1:
        return [0]
    half = len(kernels) // 2
    return unscreened(kernels[:half], best) + [
        half + i for i in unscreened(kernels[half:], best)]


def check_search_size(n_points: int, trials: int) -> None:
    """Refuse clouds of fewer than 3 points or too many pairs for one search
    block, and fewer than 1 trial."""
    if n_points < 3:
        raise ValueError("n_points must be at least 3")
    pairs = n_points * (n_points - 1) // 2
    if pairs > SEARCH_BLOCK_ROWS:
        largest = (1 + math.isqrt(1 + 8 * SEARCH_BLOCK_ROWS)) // 2
        raise ValueError(f"n_points must be at most {largest}: {n_points} points make "
                         f"{pairs} pairs, more than one search block of "
                         f"{SEARCH_BLOCK_ROWS} rows")
    if trials < 1:
        raise ValueError("trials must be at least 1")


def witness_search(spec: NormSpec, p: float, n_points: int = 20,
                   trials: int = DEFAULT_TRIALS, seed: int = 0) -> PsdWitness:
    """Search seeded Gaussian clouds (over the scale sweep) for the most
    negative kernel eigenvalue, then refine the best candidate by
    coordinate descent: perturb one point at a time, keep improvements.

    Each of the ``SEARCH_CHUNKS`` seeded streams draws its clouds in blocks
    of at most ``SEARCH_BLOCK_ROWS`` pair rows; a block evaluates each pair
    norm once and solves, in one stacked eigenproblem call, the (cloud,
    scale) kernels that ``unscreened`` cannot clear against the running
    best (every kernel of the first block). A cleared kernel counts as +inf.
    A cloud must fit in one block, which caps ``n_points`` at 181. The
    first strict minimum in draw order wins, so neither the block size nor
    the screen changes the result. A refinement step recomputes only
    the moved point's row of the distance matrix. The reported eigenvalue
    is the last one kept, so no kernel is rebuilt at the end.

    A nonnegative best eigenvalue is a valid outcome (no witness found).
    Identical inputs reproduce the identical witness.
    """
    check_p(p)
    check_search_size(n_points, trials)
    pairs = n_points * (n_points - 1) // 2
    chunks = min(SEARCH_CHUNKS, trials)
    sizes = [trials // chunks + (1 if c < trials % chunks else 0) for c in range(chunks)]
    block = SEARCH_BLOCK_ROWS // pairs
    scales = np.array(SCALE_SWEEP)[:, None, None]

    best_lam, best_points, best_scale = np.inf, None, None
    screened = 0
    for chunk_idx, size in enumerate(sizes):
        rng = np.random.default_rng([seed, chunk_idx])
        for start in range(0, size, block):
            clouds = rng.standard_normal((min(block, size - start), n_points, spec.dim))
            dist = pairwise_norms(spec, clouds)[:, None]
            kernels = np.exp(-(scales * dist) ** p).reshape(-1, n_points, n_points)
            solve = (np.arange(len(kernels)) if best_points is None
                     else unscreened(kernels, best_lam))
            screened += len(kernels) - len(solve)
            lams = np.full(len(kernels), np.inf)
            lams[solve] = np.linalg.eigvalsh(kernels[solve])[:, 0]
            lowest = int(np.argmin(lams))
            if lams[lowest] < best_lam:
                cloud, k = divmod(lowest, len(SCALE_SWEEP))
                best_lam, best_scale = float(lams[lowest]), SCALE_SWEEP[k]
                best_points = clouds[cloud] * best_scale

    # coordinate-descent refinement on the winning (already scaled) cloud
    rng = np.random.default_rng([seed, 0x5EED])
    points = best_points
    dist = pairwise_norms(spec, points)
    lam = best_lam
    step = REFINE_STEP_FRACTION * best_scale
    for it in range(REFINE_STEPS):
        idx = it % n_points
        proposal = points.copy()
        proposal[idx] = proposal[idx] + step * rng.standard_normal(spec.dim)
        row = norm_batch(spec, proposal - proposal[idx])
        row[idx] = 0.0
        cand_dist = dist.copy()
        cand_dist[idx] = row
        cand_dist[:, idx] = row
        cand = float(np.linalg.eigvalsh(np.exp(-cand_dist ** p))[0])
        if cand < lam:
            lam, points, dist = cand, proposal, cand_dist

    return PsdWitness(points=points, p=p, min_eigenvalue=lam, seed=seed,
                      spec_label=spec.label, trials=trials,
                      eigenproblems=trials * len(SCALE_SWEEP) + REFINE_STEPS - screened,
                      screened=screened)


def witness_csv(witness: PsdWitness) -> str:
    """Point coordinates with a header carrying (spec, p, min_eigenvalue, seed)."""
    lines = [
        f"# spec={witness.spec_label} p={g17(witness.p)} "
        f"min_eigenvalue={g17(witness.min_eigenvalue)} seed={witness.seed}",
        ",".join(f"x_{k + 1}" for k in range(witness.points.shape[1])),
    ]
    for row in witness.points:
        lines.append(",".join(g17(c) for c in row))
    return "\n".join(lines) + "\n"


def witness_report_text(witness: PsdWitness) -> str:
    lines = [
        f"spec: {witness.spec_label}",
        f"p: {g17(witness.p)}",
        f"seed: {witness.seed}",
        f"trials: {witness.trials}",
        f"eigenproblems: {witness.eigenproblems}",
        f"screened: {witness.screened}",
        f"n_points: {len(witness.points)}",
        f"min_eigenvalue: {g17(witness.min_eigenvalue)}",
        f"witness_found: {witness.found}",
        f"threshold: {g17(WITNESS_EIG_FACTOR)} * trace(G)/size",
    ]
    return "\n".join(lines) + "\n"
