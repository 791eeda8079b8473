"""First and second x1-partials of smooth norms on R^3.

Every finite norm is the Luxemburg norm of M(t) = sum_i a_i t^{q_i}, held
as ``NormSpec.terms`` (l_q, 2 <= q < inf, and the Euclidean norm are single
terms). Implicit differentiation of the defining equation
sum_k M(|x_k| / s) = 1 gives closed forms at points with nonnegative
coordinates:

    d1 = ||x|| M'(x1/||x||) / sum_k x_k M'(x_k/||x||)
    d2 = [ (||x|| - x1 d1)^2 M''(x1/||x||)
           + x2^2 d1^2 M''(x2/||x||) + x3^2 d1^2 M''(x3/||x||) ]
         / [ ||x||^2 sum_k x_k M'(x_k/||x||) ]

M' and M'' are summed here from the spec's terms; an exponent above
MAX_EXPONENT is refused, since past it their powers lose double precision.

The norm is even in each coordinate, so general points reduce to the
nonnegative orthant: d1 picks up the sign of x1 and d2 is even in x1.
d1 is homogeneous of degree 0 and d2 of degree -1; inputs are prescaled by
an exact power of two so the formulas stay in a well-conditioned range.
"""

from __future__ import annotations

import numpy as np

from .norms import NormSpec, check_exponent, norm_batch


class DerivativeError(RuntimeError):
    """Internal inconsistency: the implicit-differentiation denominator
    vanished at a point with (x2, x3) != 0, which a valid convex power
    combination cannot produce (M'(t) > 0 for t > 0)."""


def _pow2_scale(ax: np.ndarray) -> np.ndarray:
    """Per-row exact power-of-two scale near max|x_k| of an (m, 3) array
    (1 for zero rows). The maximum is taken column against column: a
    reduction over each 3-long row is far slower."""
    m = np.maximum(np.maximum(ax[:, 0], ax[:, 1]), ax[:, 2])
    safe = np.where(m > 0.0, m, 1.0)
    return np.exp2(np.round(np.log2(safe)))


def _power_derivatives(terms, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M'(u) = sum a q u^{q-1} and M''(u) = sum a q (q-1) u^{q-2} for the
    (a, q) ``terms`` of M; M'' is +inf at 0 when an exponent lies in (1, 2).

    The powers are taken against the array of exponents on a trailing term
    axis even for a single term: a scalar exponent of 2 or 0.5 takes numpy's
    fast paths, which can round differently by half an ulp.
    """
    coefs = np.array([c for c, _ in terms])
    exps = np.array([e for _, e in terms])
    mp = (coefs * exps * u[..., None] ** (exps - 1.0)).sum(axis=-1)
    c2 = coefs * exps * (exps - 1.0)
    keep = c2 != 0.0  # exponent-1 terms vanish; avoid 0 * inf at u = 0
    with np.errstate(divide="ignore"):
        powers = u[..., None] ** (exps[keep] - 2.0)
    return mp, (c2[keep] * powers).sum(axis=-1)


def d1_d2_norm_batch(spec: NormSpec, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise (d1, d2, ||x||) for an (m, 3) array of points, (x2, x3) != 0.

    Every step acts on each row alone, so a row's values do not depend on
    the rest of the batch.
    """
    for _, exp in spec.terms:
        check_exponent(exp)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != 3:
        raise ValueError(f"expected an (m, 3) array, got shape {xs.shape}")
    sign1 = np.sign(xs[:, 0])
    ax = np.abs(xs)
    if np.any((ax[:, 1] == 0.0) & (ax[:, 2] == 0.0)):
        raise ValueError("points with (x2, x3) = (0, 0) are outside the smooth region")
    scale = _pow2_scale(ax)
    ax = ax / scale[:, None]
    nrm = norm_batch(spec, ax)
    mp, mpp = _power_derivatives(spec.terms, ax / nrm[:, None])
    # the coordinate columns added left to right, as a sum over each row would
    denom_lin = ax[:, 0] * mp[:, 0] + ax[:, 1] * mp[:, 1] + ax[:, 2] * mp[:, 2]
    if np.any(denom_lin <= 0.0) or np.any(~np.isfinite(denom_lin)):
        raise DerivativeError("denominator sum x_k M'(x_k/||x||) vanished off the x1-axis")
    d1 = nrm * mp[:, 0] / denom_lin
    num = ((nrm - ax[:, 0] * d1) ** 2 * mpp[:, 0]
           + ax[:, 1] ** 2 * d1 ** 2 * mpp[:, 1]
           + ax[:, 2] ** 2 * d1 ** 2 * mpp[:, 2])
    d2 = num / (nrm ** 2 * denom_lin)
    return sign1 * d1, d2 / scale, nrm * scale
