"""Independent reference computations used as test oracles.

Everything here reaches the target quantities by a route the library does
not take: the Gaussian bump h_n itself (the library's reduced pairing never
evaluates it), scipy adaptive quadrature on an analytically reduced form of
the mollified pairing, the full 3D tensor quadrature of the same pairing (no
reduction at all), the continuum (non-discretized) Fourier-side moment for
the Euclidean norm, scipy's own special functions and NNLS, scipy's
brentq on the Luxemburg equation of an Orlicz norm, the Orlicz Newton solve
on a broadcast (rows, coordinates, terms) layout, the witness search as a
plain serial loop (full m x m distance matrices, one eigenproblem per
scale, a full recompute per refinement step), one adaptive Gauss-Kronrod
integral refined on its own panel arrays, central differences of the
norm for its x1-partials (they see only ``norm_batch``, never the analytic
formulas), and M(t) summed term by term from its (coefficient, exponent)
terms.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize
from scipy.special import gamma as _gamma

from levylab.derivatives import d1_d2_norm_batch
from levylab.norms import ORLICZ_MAX_ITER, norm_batch
from levylab.posdef import (DEFAULT_TRIALS, REFINE_STEP_FRACTION, REFINE_STEPS,
                            SCALE_SWEEP, SEARCH_CHUNKS, PsdWitness)
from levylab.quadrature import (MAX_ROUNDS, PANEL_NODES, QuadResult, integrate_batch,
                                panel_nodes, panel_sums)


def fourier_constant_reference(p: float) -> float:
    return 2.0 ** (p + 1) * math.sqrt(math.pi) * _gamma((p + 1) / 2) / _gamma(-p / 2)


@dataclass(frozen=True)
class Mollifier:
    """Gaussian bump h_n(t) = (n / sqrt(2 pi)) exp(-t^2 n^2 / 2) concentrating
    at 0 with unit mass."""

    n: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")

    def h(self, x1):
        x1 = np.asarray(x1, dtype=float)
        out = (self.n / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * (x1 * self.n) ** 2)
        return float(out) if out.ndim == 0 else out

    def mass(self) -> float:
        """Quadrature of h_n over |x1| <= 12/n (missed tails < 1e-31)."""
        top = 12.0 / self.n
        res = integrate_batch(lambda x, _o: self.h(x), 1, 0.0, top, rel_tol=1e-12,
                              breakpoints=[top * 2.0 ** -k for k in range(1, 8)])[0]
        return 2.0 * float(res.value.sum())

    def tail_mass(self, delta: float) -> float:
        """Quadrature of h_n over |x1| > delta."""
        if delta <= 0.0:
            raise ValueError("delta must be positive")
        top = delta + 12.0 / self.n
        res = integrate_batch(lambda x, _o: self.h(x), 1, delta, top, rel_tol=1e-12,
                              breakpoints=[delta + (top - delta) * k / 8
                                           for k in range(1, 8)])[0]
        return 2.0 * float(res.value.sum())


def lone_adaptive_integral(f, a: float, b: float, rel_tol: float, breakpoints=(),
                           max_panels: int = 4096) -> QuadResult:
    """``integrate_batch`` for one integral ``f(x)``, its decisions taken on
    its own panel arrays: the same stop test, the worst quarter by a stable
    argsort, the same noise filter, and survivors, then left halves, then
    right halves in panel order."""
    pts = sorted({a, b, *[t for t in breakpoints if a < t < b]})
    lo, hi = np.array(pts[:-1]), np.array(pts[1:])

    def sums(lo, hi):
        vals = np.asarray(f(panel_nodes(lo, hi).ravel()), dtype=float)
        return panel_sums(vals.reshape(len(lo), PANEL_NODES, -1), lo, hi)

    kron, err = sums(lo, hi)
    for _ in range(MAX_ROUNDS):
        target = rel_tol * float(np.abs(kron.sum(axis=0)).sum())
        if float(err.sum()) <= target or len(lo) >= max_panels:
            break
        split = np.zeros(len(lo), dtype=bool)
        split[np.argsort(-err, kind="stable")[:max(1, len(lo) // 4)]] = True
        split &= err > 1e-3 * target / len(lo)
        if not split.any():
            break
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        new_kron, new_err = sums(new_lo, new_hi)
        lo, hi = np.concatenate([lo[~split], new_lo]), np.concatenate([hi[~split], new_hi])
        kron = np.concatenate([kron[~split], new_kron])
        err = np.concatenate([err[~split], new_err])
    total, total_err = kron.sum(axis=0), float(err.sum())
    return QuadResult(value=total, error=total_err, panels=len(lo),
                      converged=total_err <= rel_tol * float(np.abs(total).sum()))


def _lq_slice(q: float, s, cphi: float, sphi: float):
    """f(s) = ||(s, cos phi, sin phi)||_q and its first two s-derivatives."""
    c = abs(cphi) ** q + abs(sphi) ** q
    f = (abs(s) ** q + c) ** (1.0 / q)
    f1 = np.sign(s) * abs(s) ** (q - 1) / f ** (q - 1)
    f2 = (q - 1) * abs(s) ** (q - 2) * c / f ** (2 * q - 1)
    return f, f1, f2


def reduced_lhs_lq(q: float, p: float, n: int) -> float:
    """The mollified pairing for the l_q norm via the analytically reduced
    2D form: polar coordinates, homogeneity, and the closed-form radial
    Gaussian moment collapse the triple integral to

        n * 2^{(p-1)/2} Gamma((p+1)/2) / (2 pi)^{3/2}
        * int dphi int ds gamma(s, phi) (1 + s^2 n^2)^{-(p+1)/2},

    gamma(s, phi) = (d^2/ds^2) ||(s, cos phi, sin phi)||^p.
    """
    c0 = n * 2.0 ** ((p - 1) / 2) * _gamma((p + 1) / 2) / (2 * math.pi) ** 1.5

    def gamma_slice(s, cphi, sphi):
        f, f1, f2 = _lq_slice(q, s, cphi, sphi)
        return p * (p - 1) * f ** (p - 2) * f1 ** 2 + p * f ** (p - 1) * f2

    def s_integral(phi):
        val, _ = integrate.quad(
            lambda s: gamma_slice(s, math.cos(phi), math.sin(phi))
            * (1.0 + s * s * n * n) ** (-(p + 1) / 2),
            -np.inf, np.inf, limit=400)
        return val

    # coordinate symmetry of l_q: integrate a quarter period
    val, _ = integrate.quad(s_integral, 0.0, math.pi / 2, limit=80)
    return c0 * 4.0 * val


def _x1_breakpoints(r: np.ndarray, cut: float) -> np.ndarray:
    """Per-row sorted breakpoints of the composite x1 rule on [0, cut]:
    geometric points at the feature scale r of the degree-(p-2) homogeneous
    integrand, plus fixed fractions of the cut that resolve h_n itself."""
    geo = r[:, None] * (4.0 ** np.arange(-1.0, 9.0))[None, :]
    fixed = cut * np.array([0.125, 0.25, 0.5, 0.75])
    bp = np.concatenate([geo, np.broadcast_to(fixed, (len(r), 4))], axis=1)
    bp = np.sort(np.clip(bp, 0.0, cut), axis=1)
    return np.concatenate([np.zeros((len(r), 1)), bp, np.full((len(r), 1), cut)], axis=1)


def tensor_lhs(spec, p: float, n: int, rel_tol: float = 1e-5) -> float:
    """The mollified pairing <G, phi_n> by direct quadrature of the triple
    integral: composite Gauss-Kronrod in x1 on |x1| <= 10/n (missed h_n
    mass < 1e-20), adaptive in r on [0, 12] (missed plane-bump mass
    < 1e-30), and the periodic trapezoid rule in phi, doubled until two
    levels agree within rel_tol. Uses neither homogeneity nor the radial
    Gaussian moment."""
    moll = Mollifier(n)
    cut, r_cut = 10.0 / n, 12.0

    def plane_integrand(r, cphi, sphi):
        bp = _x1_breakpoints(r, cut)
        lo, hi = bp[:, :-1].ravel(), bp[:, 1:].ravel()
        xs1 = panel_nodes(lo, hi).ravel()
        r_rep = np.repeat(r, (bp.shape[1] - 1) * PANEL_NODES)
        d1, d2, nrm = d1_d2_norm_batch(spec, np.column_stack([xs1, r_rep * cphi,
                                                              r_rep * sphi]))
        g = (p * (p - 1) * nrm ** (p - 2) * d1 * d1 + p * nrm ** (p - 1) * d2) * moll.h(xs1)
        kron, _ = panel_sums(g.reshape(-1, PANEL_NODES, 1), lo, hi)
        x1_integral = kron.reshape(len(r), -1).sum(axis=1)
        # 2: evenness in x1; u(x2, x3) r: the plane bump times the polar Jacobian
        return 2.0 * x1_integral * np.exp(-0.5 * r * r) / (2.0 * math.pi) * r

    def phi_slice(phi):
        res = integrate_batch(lambda r, _o: plane_integrand(r, math.cos(phi), math.sin(phi)),
                              1, 0.0, r_cut, rel_tol=1e-7, max_panels=512,
                              breakpoints=[r_cut * 2.0 ** -k for k in range(1, 49)])[0]
        return float(res.value.sum())

    m = 16
    vals = [phi_slice(2.0 * math.pi * k / m) for k in range(m)]
    total = 2.0 * math.pi * float(np.mean(vals))
    while m < 256:
        m *= 2
        vals += [phi_slice(2.0 * math.pi * k / m) for k in range(1, m, 2)]
        prev, total = total, 2.0 * math.pi * float(np.mean(vals))
        if abs(total - prev) <= rel_tol * abs(total):
            return total
    raise RuntimeError(f"phi rule did not settle within {rel_tol:g} by {m} points")


def continuum_rhs_euclidean(p: float, n: int) -> float:
    """Fourier-side pairing for the Euclidean norm with its exact
    rotation-invariant representing measure (density p+1 against the
    normalized surface measure)."""
    prefactor = (-(2.0 ** (1.0 - p / 2.0)) * _gamma(1.0 - p / 2.0)
                 * fourier_constant_reference(p) / (2.0 * math.pi))
    moment, _ = integrate.quad(
        lambda t: t * t * (t * t / n ** 2 + 1.0 - t * t) ** ((p - 2.0) / 2.0),
        -1.0, 1.0, limit=400)
    return prefactor * (p + 1.0) * 0.5 * moment


def euclidean_pairing_limit(p: float) -> float:
    """The n -> infinity limit of the Euclidean pairing: the Beta-function
    moment int t^2 (1 - t^2)^{(p-2)/2} dt in closed form."""
    prefactor = (-(2.0 ** (1.0 - p / 2.0)) * _gamma(1.0 - p / 2.0)
                 * fourier_constant_reference(p) / (2.0 * math.pi))
    moment = _gamma(1.5) * _gamma(p / 2.0) / _gamma((p + 3.0) / 2.0)
    return prefactor * (p + 1.0) * 0.5 * moment


def norm_at(spec, x) -> float:
    """||x|| of the single vector x: one row of ``norm_batch``."""
    return float(norm_batch(spec, np.asarray(x, dtype=float)[None, :])[0])


FD_STEP_FLOOR = 1e-5


def _fd_step(spec, x, h):
    return max(FD_STEP_FLOOR, FD_STEP_FLOOR * norm_at(spec, x)) if h is None else h


def fd_d1(spec, x, h: float | None = None) -> float:
    """Central difference (||x + h e1|| - ||x - h e1||) / 2h; by default
    h = 1e-5 max(1, ||x||)."""
    x = np.asarray(x, dtype=float)
    h = _fd_step(spec, x, h)
    shift = np.zeros(spec.dim)
    shift[0] = h
    plus, minus = norm_batch(spec, np.stack([x + shift, x - shift]))
    return float((plus - minus) / (2.0 * h))


def fd_d2(spec, x, h: float | None = None) -> float:
    """Central second difference (||x + h e1|| - 2||x|| + ||x - h e1||) / h^2,
    with the step of ``fd_d1``."""
    x = np.asarray(x, dtype=float)
    h = _fd_step(spec, x, h)
    shift = np.zeros(spec.dim)
    shift[0] = h
    plus, mid, minus = norm_batch(spec, np.stack([x + shift, x, x - shift]))
    return float((plus - 2.0 * mid + minus) / (h * h))


def orlicz_value(spec, t):
    """M(t) = sum_i a_i t^{q_i} for nonnegative t (scalar or array), summed
    term by term from ``spec.terms``."""
    t = np.asarray(t, dtype=float)
    out = sum(coef * t ** exp for coef, exp in spec.terms)
    return float(out) if out.ndim == 0 else out


def luxemburg_norm(terms, x) -> float:
    """The Orlicz norm of x for M(t) = sum a t^q (raw terms, normalized here
    to M(1) = 1): scipy's brentq on sum_k M(|x_k| / (m s)) = 1 over the
    bracket [1, sum_k |x_k| / m], m = max_k |x_k|, and ||x|| = m s."""
    total = math.fsum(a for a, _ in terms)
    terms = [(a / total, q) for a, q in terms]
    ax = [abs(float(v)) for v in x]
    m = max(ax)
    if m == 0.0:
        return 0.0
    ratios = [v / m for v in ax if v > 0.0]

    def residual(s):
        return math.fsum(a * (r / s) ** q for r in ratios for a, q in terms) - 1.0

    lo, hi = 1.0, math.fsum(ratios)
    if residual(lo) <= 0.0:
        return m
    if residual(hi) >= 0.0:     # one ratio with M(1) rounded above 1, or M linear
        return m * hi
    root = optimize.brentq(residual, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps,
                           maxiter=500)
    return m * root


def broadcast_luxemburg(terms, ax) -> np.ndarray:
    """The Newton solve of ``norms._luxemburg_batch`` written on a broadcast
    (rows, coordinates, terms) power array, reduced over the coordinate
    axis, with (rows, terms) steps reduced over the term axis: the same
    power sums c_i, start, step in tau = log(s / max|x_k|) and stopping rule
    on a different array layout, for M given by its (a_i, q_i) ``terms``.
    ``ax`` holds |x| row-wise."""
    out = np.zeros(len(ax))
    coefs = np.array([c for c, _ in terms])
    exps = np.array([e for _, e in terms])
    coefs, exps = coefs[coefs > 0.0], exps[coefs > 0.0]
    peak = ax.max(axis=1)
    rows = np.flatnonzero(peak > 0.0)
    ys = ax[rows] / peak[rows, None]
    c = coefs * (ys[..., None] ** exps).sum(axis=1)
    tau = np.maximum((np.log(c) / exps).max(axis=1), 0.0)
    active = np.arange(len(rows))
    for _ in range(ORLICZ_MAX_ITER):
        if len(active) == 0:
            break
        parts = c[active] * np.exp(-exps * tau[active, None])
        f = parts.sum(axis=1)
        slope = (exps * parts).sum(axis=1)      # -dF/dtau
        tau_new = tau[active] + np.log(f) * f / slope
        rising = tau_new > tau[active]
        active = active[rising]
        tau[active] = tau_new[rising]
    out[rows] = peak[rows] * np.exp(tau)
    return out


def full_pairwise_norms(spec, points) -> np.ndarray:
    """All m^2 norms ||x_i - x_j||, both triangles and the diagonal."""
    m = len(points)
    diffs = (points[:, None, :] - points[None, :, :]).reshape(m * m, -1)
    return norm_batch(spec, diffs).reshape(m, m)


def _scaled_kernel_eig(dist, p: float, scale: float) -> float:
    return float(np.linalg.eigvalsh(np.exp(-(scale * dist) ** p))[0])


def serial_witness_search(spec, p: float, n_points: int = 20,
                          trials: int = DEFAULT_TRIALS, seed: int = 0) -> PsdWitness:
    """``posdef.witness_search`` one cloud and one scale at a time: the same
    seeded streams, the first strict minimum in draw order, and the same
    refinement with every distance recomputed at each step."""
    chunks = min(SEARCH_CHUNKS, trials)
    sizes = [trials // chunks + (1 if c < trials % chunks else 0) for c in range(chunks)]
    best_lam, best_points, best_scale = np.inf, None, None
    for chunk_idx, size in enumerate(sizes):
        rng = np.random.default_rng([seed, chunk_idx])
        for _ in range(size):
            cloud = rng.standard_normal((n_points, spec.dim))
            dist = full_pairwise_norms(spec, cloud)
            for scale in SCALE_SWEEP:
                lam = _scaled_kernel_eig(dist, p, scale)
                if lam < best_lam:
                    best_lam, best_points, best_scale = lam, cloud * scale, scale

    rng = np.random.default_rng([seed, 0x5EED])
    points = np.array(best_points)
    lam = best_lam
    step = REFINE_STEP_FRACTION * best_scale
    for it in range(REFINE_STEPS):
        idx = it % n_points
        proposal = points.copy()
        proposal[idx] = proposal[idx] + step * rng.standard_normal(spec.dim)
        cand = _scaled_kernel_eig(full_pairwise_norms(spec, proposal), p, 1.0)
        if cand < lam:
            lam = cand
            points = proposal

    return PsdWitness(points=points, p=p, min_eigenvalue=lam, seed=seed,
                      spec_label=spec.label, trials=trials,
                      eigenproblems=trials * len(SCALE_SWEEP) + REFINE_STEPS)
