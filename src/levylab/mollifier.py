"""Mollified second-derivative pairings and their Fourier-side counterpart.

For a smooth 3D norm and 0 < p < 1, pair the pointwise second x1-derivative
of ||x||^p,

    G(x) = p(p-1) ||x||^{p-2} d1(x)^2 + p ||x||^{p-1} d2(x),

against the separable bump phi_n(x) = h_n(x1) u(x2, x3), where

    h_n(t) = (n / sqrt(2 pi)) exp(-t^2 n^2 / 2),
    u(x2, x3) = (1 / 2 pi) exp(-(x2^2 + x3^2) / 2).

``lhs_integral`` evaluates <G, phi_n> as an exact 2D integral. G is
homogeneous of degree p - 2, so in polar coordinates (r, phi) on the
(x2, x3)-plane with x1 = r s the radial integral is the Gaussian moment

    int_0^inf r^p exp(-(1 + s^2 n^2) r^2 / 2) dr
        = 2^{(p-1)/2} Gamma((p+1)/2) (1 + s^2 n^2)^{-(p+1)/2},

which leaves

    <G, phi_n> = c0 int_0^{2 pi} dphi int_R ds G(s, cos phi, sin phi)
                 (1 + s^2 n^2)^{-(p+1)/2},
    c0 = n 2^{(p-1)/2} Gamma((p+1)/2) / (2 pi)^{3/2},

for every norm. G is even in s; the substitution n s = tan(theta) maps
s >= 0 onto [0, pi/2) with weight cos(theta)^{p-1} and cancels the n in
c0. The theta integral is adaptive Gauss-Kronrod seeded at
theta = arctan(n 4^k), the feature scales of the integrand; the phi
integral is the periodic trapezoid rule, doubled until the change between
levels plus the inner error estimates falls below the tolerance. The
theta integrals of one level (the 16 starting phi, then the odd phi of
each doubling) run as one batched quadrature, so each level costs one
derivative evaluation per refinement round. A non-finite total or error
estimate raises QuadratureError at once.

``rhs_value`` evaluates the same pairing through the Fourier transform when
the norm has a spherical representation ||x||^p = int |<x, xi>|^p dmu(xi):

    <G, phi_n> = C(p) * sum_j w_j xi_{j,1}^2
                 (xi_{j,1}^2 / n^2 + xi_{j,2}^2 + xi_{j,3}^2)^{(p-2)/2},
    C(p) = -2^{1 - p/2} Gamma(1 - p/2) c_p / (2 pi),

with c_p = 2^{p+1} sqrt(pi) Gamma((p+1)/2) / Gamma(-p/2) the Fourier
constant of |z|^p, negative on (0, 2), so C(p) > 0. Dropping the 1/n^2
term gives the n-independent lower bound C(p) * sum_j w_j xi_{j,1}^2.
``demo_run`` sweeps n over DEMO_N and, for l_2 in any spelling, evaluates
the Fourier side against the calibrated uniform measure alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .derivatives import d1_d2_norm_batch
from .levy import SphericalMeasure, uniform_calibrated_measure
from .norms import NormSpec, g17
from .quadrature import QuadratureError, integrate_batch

PHI_START = 16
PHI_MAX = 256
LHS_REL_TOL = 1e-4
DEMO_N = (2, 4, 8, 16, 32)     # bump indices of the demo sweep


def fourier_constant(p: float) -> float:
    """c_p = 2^{p+1} sqrt(pi) Gamma((p+1)/2) / Gamma(-p/2).

    Negative for every p in (0, 2). Poles at even integers p >= 0.
    """
    if not p > -1.0:
        raise ValueError(f"p must exceed -1, got {p}")
    if p >= 0.0 and p == 2.0 * round(p / 2.0):
        raise ValueError(f"p = {p} is an even integer (pole of the constant)")
    return (2.0 ** (p + 1.0) * math.sqrt(math.pi) * math.gamma((p + 1.0) / 2.0)
            / math.gamma(-p / 2.0))


def _check_bump_index(n) -> None:
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")


@dataclass
class LhsResult:
    value: float
    error: float
    term_first: float         # p(p-1) ||x||^{p-2} d1^2 part, nonpositive for p < 1
    term_second: float        # p ||x||^{p-1} d2 part, nonnegative
    phi_count: int
    panels: int               # inner theta panels, summed over every phi evaluated


def lhs_integral(spec: NormSpec, p: float, n: int) -> LhsResult:
    """<G, phi_n> by the reduced 2D quadrature; raises QuadratureError if
    the a-posteriori error estimate cannot be brought below LHS_REL_TOL."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1) for the mollified pairing, got {p}")
    if spec.dim != 3:
        raise ValueError(f"requires dim = 3, got {spec.dim}")
    if not spec.smooth_in_x1:
        raise ValueError("the x1-sections must be C^2 off the plane x1 = 0")
    _check_bump_index(n)
    # c0 / n, doubled for the evenness of G in s
    scale = 2.0 ** ((p + 1.0) / 2.0) * math.gamma((p + 1.0) / 2.0) / (2.0 * math.pi) ** 1.5
    theta_breaks = [math.atan(n * 4.0 ** k) for k in range(-10, 11)]

    def theta_integrals(phis: list[float]) -> np.ndarray:
        """One row (term_first, term_second, error, panels) per phi."""
        cphi = np.array([math.cos(phi) for phi in phis])
        sphi = np.array([math.sin(phi) for phi in phis])

        def integrand(theta: np.ndarray, owner: np.ndarray) -> np.ndarray:
            pts = np.column_stack([np.tan(theta) / n, cphi[owner], sphi[owner]])
            d1, d2, nrm = d1_d2_norm_batch(spec, pts)
            weight = scale * np.cos(theta) ** (p - 1.0)
            return np.column_stack([p * (p - 1.0) * nrm ** (p - 2.0) * d1 * d1 * weight,
                                    p * nrm ** (p - 1.0) * d2 * weight])

        results = integrate_batch(integrand, len(phis), 0.0, 0.5 * math.pi, rel_tol=1e-7,
                                  breakpoints=theta_breaks)
        return np.array([[res.value[0], res.value[1], res.error, res.panels]
                         for res in results])

    m = PHI_START
    # one row per phi = 2 pi k / m, in k order
    vals = theta_integrals((2.0 * math.pi * np.arange(m) / m).tolist())
    prev = None
    while True:
        total = vals[:, :3].mean(axis=0) * 2.0 * math.pi
        if not np.isfinite(total).all():
            raise QuadratureError(f"non-finite pairing estimate {total[0] + total[1]:.6e} "
                                  f"(error {total[2]:.3e}) at phi_count = {m}")
        if prev is not None:
            phi_err = float(np.abs(total[:2] - prev[:2]).sum())
            value = float(total[0] + total[1])
            full_err = phi_err + float(total[2])
            if full_err <= LHS_REL_TOL * max(abs(value), 1e-300) or m >= PHI_MAX:
                if not full_err <= LHS_REL_TOL * abs(value):
                    raise QuadratureError(
                        f"error estimate {full_err:.3e} exceeds {LHS_REL_TOL:g} * |{value:.6e}| "
                        f"at phi_count = {m}")
                return LhsResult(value=value, error=full_err,
                                 term_first=float(total[0]), term_second=float(total[1]),
                                 phi_count=m, panels=int(vals[:, 3].sum()))
        prev = total
        m *= 2
        odd = theta_integrals([2.0 * math.pi * k / m for k in range(1, m, 2)])
        vals = np.stack([vals, odd], axis=1).reshape(m, -1)   # interleaved, still in k order


def rhs_value(p: float, n: int, measure: SphericalMeasure) -> tuple[float, float]:
    """Fourier-side pairing value and its n-independent lower bound.

    Both are nonnegative: the prefactor C(p) = -2^{1-p/2} Gamma(1-p/2) c_p
    / (2 pi) is positive because c_p < 0 on (0, 2).
    """
    if not 0.0 < p < 2.0:
        raise ValueError(f"p must lie in (0, 2), got {p}")
    _check_bump_index(n)
    if measure.size and measure.directions.shape[1] != 3:
        raise ValueError("the Fourier-side pairing is defined for dim 3 measures")
    prefactor = (-(2.0 ** (1.0 - p / 2.0)) * math.gamma(1.0 - p / 2.0)
                 * fourier_constant(p) / (2.0 * math.pi))
    if measure.size == 0:
        return 0.0, 0.0
    xi = measure.directions
    if np.any(~xi.any(axis=1)):
        raise ValueError("a direction with all-zero components is not a direction")
    xi1_sq = xi[:, 0] ** 2
    rest = xi[:, 1] ** 2 + xi[:, 2] ** 2
    value = prefactor * float(np.sum(
        measure.weights * xi1_sq * (xi1_sq / n ** 2 + rest) ** ((p - 2.0) / 2.0)))
    lower = prefactor * float(np.sum(measure.weights * xi1_sq))
    return value, lower


@dataclass
class DemoRow:
    n: int
    pairing: LhsResult
    rhs: float | None = None
    lower_bound: float | None = None

    @property
    def rel_gap(self) -> float | None:
        if self.rhs is None or self.rhs == 0.0:
            return None
        return abs(self.pairing.value - self.rhs) / abs(self.rhs)


@dataclass
class DemoReport:
    spec_label: str
    p: float
    rows: list[DemoRow]
    measure_atoms: int = 0


def demo_run(spec: NormSpec, p: float) -> DemoReport:
    """Mollified-pairing sweep over DEMO_N; for l_2 (M(t) = t^2, in any
    spelling) the Fourier side is evaluated against the calibrated uniform
    measure as well."""
    measure = uniform_calibrated_measure(p) if spec.terms == ((1.0, 2.0),) else None
    rows = []
    for n in DEMO_N:
        row = DemoRow(n=n, pairing=lhs_integral(spec, p, n))
        if measure is not None:
            row.rhs, row.lower_bound = rhs_value(p, n, measure)
        rows.append(row)
    return DemoReport(spec_label=spec.label, p=p, rows=rows,
                      measure_atoms=measure.size if measure is not None else 0)


@dataclass
class ContradictionReport:
    """The incompatibility certificate for a candidate measure.

    If the measure represented the norm, the mollified pairing would be
    bounded below by ``rhs_lower_bound`` for every bump index n; a pairing
    value falling below that floor excludes the candidate. The plane-mass
    fraction records how much of the candidate sits within Euclidean
    distance 0.05 of the plane xi_1 = 0: only measures with essentially all
    mass there escape the floor, and such measures cannot represent a
    three-dimensional norm.
    """

    spec_label: str
    p: float
    n: int
    pairing_value: float
    pairing_error: float
    rhs_lower_bound: float
    plane_mass_fraction: float
    floor_exceeds_pairing: bool


def contradiction_report(spec: NormSpec, p: float, measure: SphericalMeasure,
                         n: int = 128) -> ContradictionReport:
    """Confront a candidate measure with the pairing decay at bump index n."""
    lhs = lhs_integral(spec, p, n)
    _, lower = rhs_value(p, n, measure)
    if measure.size:
        near_plane = np.abs(measure.directions[:, 0]) <= 0.05
        mass = measure.total_mass
        fraction = float(measure.weights[near_plane].sum() / mass) if mass > 0 else 0.0
    else:
        fraction = 0.0
    return ContradictionReport(
        spec_label=spec.label, p=p, n=n,
        pairing_value=lhs.value, pairing_error=lhs.error,
        rhs_lower_bound=lower, plane_mass_fraction=fraction,
        floor_exceeds_pairing=lower > lhs.value + lhs.error,
    )


def demo_csv(report: DemoReport) -> str:
    """CSV rows (n, lhs, lhs_err, rhs, lower_bound); Fourier-side columns are
    empty when no representing measure is in play."""
    rows = ["n,lhs,lhs_err,rhs,lower_bound"]
    for row in report.rows:
        rows.append(f"{row.n},{g17(row.pairing.value)},{g17(row.pairing.error)},"
                    f"{g17(row.rhs)},{g17(row.lower_bound)}")
    return "\n".join(rows) + "\n"


def demo_report_text(report: DemoReport) -> str:
    lines = [
        f"spec: {report.spec_label}",
        f"p: {g17(report.p)}",
        f"measure_atoms: {report.measure_atoms}",
    ]
    for row in report.rows:
        extra = ""
        if row.rhs is not None:
            extra = (f" rhs={g17(row.rhs)} lower_bound={g17(row.lower_bound)}"
                     f" rel_gap={g17(row.rel_gap)}")
        lhs = row.pairing
        lines.append(f"n={row.n}: lhs={g17(lhs.value)} lhs_err={g17(lhs.error)}"
                     f" phi_count={lhs.phi_count} panels={lhs.panels}{extra}")
    return "\n".join(lines) + "\n"
