"""Adaptive Gauss-Kronrod quadrature with batched, vector-valued integrands.

The integrand receives one flat array of abscissae per refinement round and
returns an (N,) or (N, k) array, so the expensive evaluations stay inside
numpy. The error estimate per panel is the difference between the embedded
7-point Gauss and 15-point Kronrod rules, summed over components; it is a
deliberate overestimate of the Kronrod error, which keeps the reported
a-posteriori bound conservative.

``integrate_batch`` advances many independent integrals in the same rounds:
one integrand call serves the new panels of every integral still open, and
each integral keeps its own panels, decisions and sums, so it comes out
bit-identical to running it alone (a count of 1 is the one-integral case).
The mollified pairing batches its theta-integrals across the phi of one
refinement level this way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# classic (G7, K15) pair
_K15_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_K15_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_G7_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_G7_SLICE = slice(1, 15, 2)

PANEL_NODES = len(_K15_NODES)
MAX_ROUNDS = 40


class QuadratureError(RuntimeError):
    """The requested tolerance was not reached; the partial value and the
    achieved error estimate are carried in the message."""


@dataclass
class QuadResult:
    value: np.ndarray          # (k,) component values
    error: float               # summed |K15 - G7| over surviving panels
    panels: int
    converged: bool


def panel_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronrod abscissae for a batch of panels: shape (len(a), 15)."""
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    return mid + half * _K15_NODES


def panel_sums(values: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Per-panel Kronrod values and Gauss-Kronrod error gaps.

    ``values`` has shape (n_panels, 15, k).
    Returns (kron (n_panels, k), err (n_panels,)).
    """
    half = 0.5 * (b - a)[:, None]
    kron = (values * _K15_WEIGHTS[None, :, None]).sum(axis=1) * half
    gauss = (values[:, _G7_SLICE, :] * _G7_WEIGHTS[None, :, None]).sum(axis=1) * half
    err = np.abs(kron - gauss).sum(axis=1)
    return kron, err


def integrate_batch(f, count: int, a: float, b: float, rel_tol: float = 1e-8,
                    breakpoints=None, max_panels: int = 4096) -> list[QuadResult]:
    """``count`` independent adaptive integrals over [a, b], advanced together.

    ``f(x, owner)`` maps the flat abscissae of every panel being evaluated,
    (N,), and the index of the integral each belongs to, (N,) ints, to (N,)
    or (N, k) values. Each integral keeps its own panels and makes its own
    decisions: it stops once its summed error estimate is within ``rel_tol``
    times the summed |component totals|, or at ``max_panels`` panels, or
    after MAX_ROUNDS refinements; otherwise the worst quarter of its panels
    (ignoring those already at noise level) is bisected. Every round
    evaluates the new panels of all integrals still open in one call of
    ``f``. Each integral's sums run over its own panels in its own order, so
    as long as ``f`` treats rows independently, every result is bit-identical
    to running that integral alone. ``breakpoints`` seed the initial
    subdivision (endpoint singularities, known feature scales).
    """
    if not b > a:
        raise ValueError(f"bad interval [{a}, {b}]")
    pts = [a, b] if breakpoints is None else sorted({a, b, *[
        float(t) for t in breakpoints if a < float(t) < b]})
    seed_lo = np.array(pts[:-1])
    seed_hi = np.array(pts[1:])

    def evaluate(owners, counts, lo_arr, hi_arr):
        """(kron, err) slices per owner, in ``owners`` order."""
        xs = panel_nodes(lo_arr, hi_arr)
        vals = np.asarray(f(xs.ravel(), np.repeat(owners, np.multiply(counts, PANEL_NODES))),
                          dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        vals = vals.reshape(len(lo_arr), PANEL_NODES, -1)
        kron, err = panel_sums(vals, lo_arr, hi_arr)
        ends = np.cumsum(counts).tolist()
        return [(kron[e - c:e], err[e - c:e]) for c, e in zip(counts, ends)]

    lo = [seed_lo] * count
    hi = [seed_hi] * count
    seeded = evaluate(range(count), [len(seed_lo)] * count,
                      np.tile(seed_lo, count), np.tile(seed_hi, count))
    kron = [k for k, _ in seeded]
    err = [e for _, e in seeded]
    active = list(range(count))
    for _ in range(MAX_ROUNDS):
        refined, new_lo, new_hi = [], [], []
        for i in active:
            total = kron[i].sum(axis=0)
            target = rel_tol * float(np.abs(total).sum())
            total_err = float(err[i].sum())
            if total_err <= target or len(lo[i]) >= max_panels:
                continue
            n_split = max(1, len(lo[i]) // 4)
            order = np.argsort(-err[i], kind="stable")
            split = np.zeros(len(lo[i]), dtype=bool)
            split[order[:n_split]] = True
            # leave panels already at noise level alone
            split &= err[i] > 1e-3 * target / max(1, len(lo[i]))
            if not np.any(split):
                continue
            mid = 0.5 * (lo[i][split] + hi[i][split])
            new_lo.append(np.concatenate([lo[i][split], mid]))
            new_hi.append(np.concatenate([mid, hi[i][split]]))
            lo[i] = np.concatenate([lo[i][~split], new_lo[-1]])
            hi[i] = np.concatenate([hi[i][~split], new_hi[-1]])
            kron[i], err[i] = kron[i][~split], err[i][~split]
            refined.append(i)
        if not refined:
            break
        added = evaluate(refined, [len(x) for x in new_lo],
                         np.concatenate(new_lo), np.concatenate(new_hi))
        for i, (add_kron, add_err) in zip(refined, added):
            kron[i] = np.concatenate([kron[i], add_kron])
            err[i] = np.concatenate([err[i], add_err])
        active = refined

    results = []
    for i in range(count):
        total = kron[i].sum(axis=0)
        total_err = float(err[i].sum())
        target = rel_tol * float(np.abs(total).sum())
        results.append(QuadResult(value=total, error=total_err, panels=len(lo[i]),
                                  converged=total_err <= target))
    return results
