"""Adaptive Gauss-Kronrod quadrature with batched, vector-valued integrands.

The integrand receives one flat array of abscissae per refinement round and
returns an (N,) or (N, k) array, so the expensive evaluations stay inside
numpy. The error estimate per panel is the difference between the embedded
7-point Gauss and 15-point Kronrod rules, summed over components; it is a
deliberate overestimate of the Kronrod error, which keeps the reported
a-posteriori bound conservative.

``integrate_batch`` advances many independent integrals in the same rounds
(a count of 1 is the one-integral case). All their panels live in one table
of flat arrays tagged by owner, and each round's decisions are array
operations over owners. A round keeps the unsplit panels in table order and
appends the left halves, then the right halves, of the split ones, so an
integral's rows, in table order, are its survivors, then its left halves,
then its right halves: its decisions and sums read only those rows in that
order, and it comes out bit-identical to running it alone. The mollified
pairing batches its theta-integrals across the phi of one refinement level.
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
    or (N, k) values; one call per round serves the new panels of every
    integral still open. An integral stops once its summed error estimate is
    within ``rel_tol`` times the summed |component totals|, or at
    ``max_panels`` panels, or after MAX_ROUNDS refinements, or once a round
    bisects none of its panels; otherwise the worst quarter of its panels
    (ignoring those already at noise level) is bisected. The panel table
    (``owner``, ``lo``, ``hi``, ``kron``, ``err``) keeps each integral's rows
    in the order described in the module docstring, so as long as ``f``
    treats rows independently, every result is bit-identical to running that
    integral alone. ``breakpoints`` seed the initial subdivision (endpoint
    singularities, known feature scales).
    """
    if not b > a:
        raise ValueError(f"bad interval [{a}, {b}]")
    pts = [a, b] if breakpoints is None else sorted({a, b, *[
        float(t) for t in breakpoints if a < float(t) < b]})

    def evaluate(owner, lo, hi):
        """Per-panel (kron, err) of the panels (lo, hi) of integrals ``owner``."""
        vals = np.asarray(f(panel_nodes(lo, hi).ravel(), np.repeat(owner, PANEL_NODES)),
                          dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        return panel_sums(vals.reshape(len(lo), PANEL_NODES, -1), lo, hi)

    owner = np.repeat(np.arange(count), len(pts) - 1)
    lo = np.tile(pts[:-1], count)
    hi = np.tile(pts[1:], count)
    kron, err = evaluate(owner, lo, hi)
    is_open = np.ones(count, dtype=bool)
    for _ in range(MAX_ROUNDS):
        panels = np.bincount(owner, minlength=count)
        total = np.zeros((count, kron.shape[1]))
        np.add.at(total, owner, kron)
        target = rel_tol * np.abs(total).sum(axis=1)
        # written so that a NaN error sum never counts as converged
        is_open &= ~(np.bincount(owner, err, count) <= target) & (panels < max_panels)
        # rank of each panel's error within its integral, worst first
        order = np.lexsort((-err, owner))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        rank -= (np.cumsum(panels) - panels)[owner]
        # leave panels already at noise level alone
        split = (is_open[owner] & (rank < np.maximum(1, panels // 4)[owner])
                 & (err > (1e-3 * target / panels)[owner]))
        is_open &= np.bincount(owner[split], minlength=count) > 0
        if not is_open.any():
            break
        mid = 0.5 * (lo[split] + hi[split])
        halves = (np.tile(owner[split], 2), np.concatenate([lo[split], mid]),
                  np.concatenate([mid, hi[split]]))
        owner, lo, hi, kron, err = (np.concatenate([rows[~split], added]) for rows, added in
                                    zip((owner, lo, hi, kron, err), halves + evaluate(*halves)))

    # each integral's rows, still in table order
    by_owner = np.argsort(owner, kind="stable")
    ends = np.cumsum(np.bincount(owner, minlength=count))[:-1]
    results = []
    for kron_i, err_i in zip(np.split(kron[by_owner], ends), np.split(err[by_owner], ends)):
        total = kron_i.sum(axis=0)
        total_err = float(err_i.sum())
        target = rel_tol * float(np.abs(total).sum())
        results.append(QuadResult(value=total, error=total_err, panels=len(err_i),
                                  converged=total_err <= target))
    return results
