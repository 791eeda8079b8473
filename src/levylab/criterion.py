"""Quantitative second-derivative embedding test for three-dimensional norms.

A 3D normed space with normalized basis cannot embed isometrically in any
L_p, 0 < p <= 2, when its x1-sections satisfy three conditions:

  I.   d1 and d2 both vanish at x1 = 0 for every (x2, x3) != 0;
  II.  d2 is bounded by a constant K on the tube ||x2 e2 + x3 e3|| = 1;
  III. d2(x1, x2, x3) -> 0 as x1 -> 0, uniformly over that tube.

This module checks the three conditions on grids and produces a
machine-readable verdict. The grid scan is numerical evidence, not proof;
the analytic fast path :func:`check_orlicz_flatness` decides Orlicz specs
exactly from their terms (conditions I-III all follow from M'(0) = M''(0)
= 0, i.e. every exponent above 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .derivatives import d1_d2_norm_batch
from .norms import NormSpec, g17, subsphere_batch

APPLIES = "Applies"
FAILS_I = "FailsConditionI"
FAILS_II = "FailsConditionII"
FAILS_III = "FailsConditionIII"
NOT_APPLICABLE = "NotApplicable"

THETA_COUNT = 720         # points of the tube ||x2 e2 + x3 e3|| = 1
# Upper end of the x1 scan. A power of two, so the dyadic tail beyond it
# lands on exactly the rows the scan would (d1_d2_norm_batch prescales by
# powers of two).
X1_MAX = 64.0
TOL_I = 1e-8              # condition I: |d1|, d2 at x1 = 0 below this
TOL_III = 1e-3            # condition III: the decay profile ends below this
SCAN_X1_POINTS = 128
DECAY_LADDER = 26         # dyadic ladder x1 = 2^-k, k = 0..25
DECAY_MIN_STEPS = 10      # required monotone steps below the ladder's peak
TAIL_SHRINKS = 24

# the grids of the scan, as report_text names them (a NotApplicable report ran none)
X1_GRID = (f"logspace(1e-06, {X1_MAX:g}, {SCAN_X1_POINTS}) for the bound scan; "
           f"2^-k, k = 0..{DECAY_LADDER - 1} for the decay ladder, "
           "profile reported from its maximum")
ASSUMPTIONS = (
    "second-derivative continuity is sampled on finite grids, not certified between nodes",
    "condition III is certified as numerical evidence by a finite dyadic decay profile",
)


@dataclass
class CriterionReport:
    spec_label: str
    verdict: str
    reason: str = ""
    cond_i_max_d1: float | None = None
    cond_i_max_d2: float | None = None
    k_hat: float | None = None
    k_hat_at_x1: float | None = None
    decay_profile: tuple[tuple[float, float], ...] = ()
    analytic_flatness: FlatnessResult | None = None    # Orlicz specs only

    @property
    def disagreement(self) -> str:
        """How the analytic Orlicz check contradicts a grid verdict ("" when
        it does not, or when the grid test did not apply)."""
        flat = self.analytic_flatness
        if (flat is None or self.verdict == NOT_APPLICABLE
                or flat.eligible == (self.verdict == APPLIES)):
            return ""
        if flat.eligible:
            return ("the analytic check proves conditions I-III for this power "
                    f"family, but the grid verdict is {self.verdict}")
        return (f"the analytic check finds {'; '.join(flat.reasons)}, so condition I "
                f"fails, but the grid verdict is {self.verdict}")


@dataclass(frozen=True)
class FlatnessResult:
    eligible: bool
    reasons: tuple[str, ...]
    note: str


def check_orlicz_flatness(spec: NormSpec) -> FlatnessResult:
    """Analytic shortcut for the M of ``spec.terms``: M'(0) = M''(0) = 0 iff
    every exponent exceeds 2.

    For power combinations this is exact, so a True result is proved for the
    family rather than sampled.
    """
    reasons = []
    # M'(0) = a of a t term; M''(0) diverges for q in (1, 2), else is 2a of a t^2 term
    d1z = math.fsum(c for c, e in spec.terms if e == 1.0)
    if d1z != 0.0:
        reasons.append(f"M'(0) = {d1z:g}")
    bad = [f"{c:g}*t^{e:g}" for c, e in spec.terms if 1.0 < e < 2.0]
    d2z = math.fsum(2.0 * c for c, e in spec.terms if e == 2.0)
    if bad:
        reasons.append("M''(0) diverges (" + ", ".join(bad) + ")")
    elif d2z != 0.0:
        reasons.append(f"M''(0) = {d2z:g}")
    eligible = not reasons
    note = ("proved for power families" if eligible
            else "first or second derivative of M does not vanish at 0")
    return FlatnessResult(eligible=eligible, reasons=tuple(reasons), note=note)


def _not_applicable(spec: NormSpec, reason: str) -> CriterionReport:
    return CriterionReport(spec_label=spec.label, verdict=NOT_APPLICABLE, reason=reason)


def second_derivative_test(spec: NormSpec) -> CriterionReport:
    """Check conditions I-III on grids and return a verdict report.

    The supremum behind condition II is reduced to a compact scan plus a tail
    estimate: d2 is homogeneous of degree -1, so beyond X1_MAX the scan is
    continued on the dyadic grid x1 = X1_MAX 2^k, which by homogeneity
    samples d2(1, y/x1) / x1 over shrinking arguments.
    For Orlicz specs the report also carries :func:`check_orlicz_flatness`,
    and ``report.disagreement`` says when it contradicts the grid verdict.
    """
    report = _grid_test(spec)
    if spec.kind == "orlicz":
        report.analytic_flatness = check_orlicz_flatness(spec)
    return report


def _grid_test(spec: NormSpec) -> CriterionReport:
    if spec.dim != 3:
        why = ("the test is vacuous in dim 2, where every normed plane embeds "
               "isometrically in L_p for p <= 1" if spec.dim == 2
               else "the theorem is stated for 3-dimensional spaces")
        return _not_applicable(
            spec, f"requires dim = 3 (got dim = {spec.dim}); {why}")
    q = spec.terms[0][1]                            # the least exponent of M
    if q == math.inf:
        return _not_applicable(spec, "q = inf: max-norm sections are not twice differentiable")
    if not spec.smooth_in_x1:
        detail = (f"q = {q:g} < 2" if spec.kind == "lq"
                  else f"minimum Orlicz exponent {q:g} < 2")
        return _not_applicable(
            spec, f"x1-sections are not C^2 off the plane x1 = 0 ({detail})")

    thetas = 2.0 * math.pi * np.arange(THETA_COUNT) / THETA_COUNT
    tube = subsphere_batch(spec, thetas)            # ||x2 e2 + x3 e3|| = 1

    def grid(x1_values, tube_pts) -> tuple[np.ndarray, np.ndarray]:
        """(d1, d2) at every (x1, tube point) pair: rows = x1 values,
        columns = tube points."""
        x1_values = np.asarray(x1_values, dtype=float)
        d1s, d2s = [], []
        # at most 16 * THETA_COUNT rows per batch bounds peak memory
        per_batch = 16 * THETA_COUNT // len(tube_pts)
        for block in np.array_split(x1_values, -(-len(x1_values) // per_batch)):
            pts = np.column_stack([np.repeat(block, len(tube_pts)),
                                   np.tile(tube_pts, (len(block), 1))])
            d1, d2, _ = d1_d2_norm_batch(spec, pts)
            d1s.append(d1.reshape(len(block), len(tube_pts)))
            d2s.append(d2.reshape(len(block), len(tube_pts)))
        return np.concatenate(d1s), np.concatenate(d2s)

    # condition I: derivatives at x1 = 0 over the theta grid
    d1_zero, d2_zero = grid([0.0], tube)
    cond_i_max_d1 = float(np.max(np.abs(d1_zero)))
    cond_i_max_d2 = float(np.max(d2_zero))

    # condition II: scan x1 in logspace, continued past X1_MAX on a dyadic tail
    x1_scan = np.logspace(-6.0, math.log10(X1_MAX), SCAN_X1_POINTS)
    scan = grid(x1_scan, tube)[1]
    scan_sup = scan.max(axis=1)
    k_scan_idx = int(np.argmax(scan_sup))
    k_scan = float(scan_sup[k_scan_idx])
    # the coarse grid can sit ~1% below the true peak; zoom in on it,
    # alternating x1 and theta refinements
    peak_x1 = float(x1_scan[k_scan_idx])
    peak_theta = float(thetas[int(np.argmax(scan[k_scan_idx]))])
    dx1 = float(x1_scan[min(k_scan_idx + 1, SCAN_X1_POINTS - 1)]
                - x1_scan[max(k_scan_idx - 1, 0)]) / 2.0 or peak_x1
    dtheta = 2.0 * math.pi / THETA_COUNT
    for _ in range(4):
        x1_local = np.linspace(max(peak_x1 - dx1, 1e-9), peak_x1 + dx1, 33)
        vals = grid(x1_local, subsphere_batch(spec, np.array([peak_theta])))[1][:, 0]
        peak_x1 = float(x1_local[int(np.argmax(vals))])
        theta_local = np.linspace(peak_theta - dtheta, peak_theta + dtheta, 33)
        vals = grid([peak_x1], subsphere_batch(spec, theta_local))[1][0]
        peak_theta = float(theta_local[int(np.argmax(vals))])
        k_scan = max(k_scan, float(vals.max()))
        dx1 /= 8.0
        dtheta /= 8.0
    tail_est = float(grid(X1_MAX * 2.0 ** np.arange(TAIL_SHRINKS), tube)[1].max())
    k_hat = max(k_scan, tail_est, cond_i_max_d2)
    cond_ii_ok = (k_scan_idx < SCAN_X1_POINTS - 1) and (tail_est <= k_scan)

    # condition III: dyadic decay profile of sup_theta d2 as x1 -> 0. The
    # ladder may rise toward the d2 peak first (the peak sits below x1 = 1
    # for flatter norms); only the stretch from the peak downward is evidence
    # about the limit, so the profile is reported from its maximum.
    dyadic = 2.0 ** -np.arange(DECAY_LADDER)
    ladder_sup = grid(dyadic, tube)[1].max(axis=1)
    peak = int(np.argmax(ladder_sup))
    decay_sup = ladder_sup[peak:]
    profile = tuple((float(x1), float(v)) for x1, v in zip(dyadic[peak:], decay_sup))
    monotone = bool(np.all(decay_sup[1:] <= decay_sup[:-1] * (1.0 + 1e-9)))
    cond_iii_ok = (monotone and len(decay_sup) - 1 >= DECAY_MIN_STEPS
                   and decay_sup[-1] <= TOL_III)

    if cond_i_max_d1 > TOL_I or cond_i_max_d2 > TOL_I:
        verdict, reason = FAILS_I, (
            f"derivatives at x1 = 0 do not vanish: max |d1| = {cond_i_max_d1:.3e}, "
            f"max d2 = {cond_i_max_d2:.3e} (tol {TOL_I:g})")
    elif not cond_ii_ok:
        verdict, reason = FAILS_II, (
            "no finite bound certified: the scan supremum sits at the edge of the "
            f"x1 range (x1 = {x1_scan[k_scan_idx]:.3e}) or the tail estimate exceeds it")
    elif not cond_iii_ok:
        verdict, reason = FAILS_III, (
            f"sup_theta d2 does not decay monotonically below {TOL_III:g} along "
            f"x1 = 2^-k (final value {decay_sup[-1]:.3e})")
    else:
        verdict, reason = APPLIES, (
            "conditions I-III hold on the sampled grids: no isometric embedding "
            "into any L_p, 0 < p <= 2")

    return CriterionReport(
        spec_label=spec.label,
        verdict=verdict,
        reason=reason,
        cond_i_max_d1=cond_i_max_d1,
        cond_i_max_d2=cond_i_max_d2,
        k_hat=k_hat,
        k_hat_at_x1=peak_x1,
        decay_profile=profile,
    )


def report_text(report: CriterionReport) -> str:
    """Structured text serialization, field names matching the report."""
    lines = [
        f"spec: {report.spec_label}",
        f"verdict: {report.verdict}",
        f"reason: {report.reason}",
        f"cond_i_max_d1: {g17(report.cond_i_max_d1)}",
        f"cond_i_max_d2: {g17(report.cond_i_max_d2)}",
        f"K_hat: {g17(report.k_hat)}",
        f"K_hat_at_x1: {g17(report.k_hat_at_x1)}",
        f"theta_count: {THETA_COUNT}",
        f"x1_grid: {'' if report.verdict == NOT_APPLICABLE else X1_GRID}",
        f"tol_i: {g17(TOL_I)}",
        f"tol_iii: {g17(TOL_III)}",
        f"decay_steps: {len(report.decay_profile)}",
    ]
    flat = report.analytic_flatness
    if flat is not None:
        detail = ": " + "; ".join(flat.reasons) if flat.reasons else ""
        lines.append(f"analytic_flatness: {flat.eligible} ({flat.note}{detail})")
    if report.disagreement:
        lines.append(f"disagreement: {report.disagreement}")
    lines += [f"assumption: {a}" for a in ASSUMPTIONS]
    return "\n".join(lines) + "\n"


def decay_profile_csv(report: CriterionReport) -> str:
    """CSV rows (x1, sup_theta d2) of the condition-III decay profile."""
    rows = ["x1,sup_d2"]
    rows += [f"{g17(x1)},{g17(v)}" for x1, v in report.decay_profile]
    return "\n".join(rows) + "\n"
