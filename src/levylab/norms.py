"""Norm oracles for finite-dimensional l_q and Orlicz spaces.

An Orlicz norm here is the Luxemburg-type functional: the unique s > 0 with
sum_k M(|x_k| / s) = 1, where M is a convex power combination
M(t) = sum_i a_i t^{q_i} with a_i >= 0 and 1 <= q_i <= MAX_EXPONENT,
normalized so M(1) = 1 (which makes the standard basis vectors have unit
norm). Every spec stores its M as ``NormSpec.terms``: the l_q norm is the
case M(t) = t^q (q = inf for the max-norm), and the Euclidean norm is l_2.
``norm_batch`` computes every finite norm by one route: it sums each
term's powers of |x_k| / max_k |x_k| once, takes the q-th root of that sum
for a single term, and otherwise finds tau = log(s / max_k |x_k|) by
monotone Newton steps on the log of a sum of exponentials. The max-norm is
the row maximum. Restricting M to power combinations keeps M' and M''
exact analytic expressions, which the derivatives module sums from the
terms. ``check_exponent`` refuses an exponent above MAX_EXPONENT: an
Orlicz spec's when it is built, any spec's when its derivatives are taken
(an l_q norm takes any q >= 1).

Spec strings use the grammar (also documented in the cli module):

    lq:q=<number|inf>:dim=<int>
    orlicz:terms=<coef>*t^<exp>(+<coef>*t^<exp>)*:dim=<int>
    euclidean:dim=<int>
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_DIM = 2
MAX_DIM = 8
ORLICZ_MAX_ITER = 200       # cap on the Newton steps of one row
# Largest exponent of M: one ulp of u moves u^q by a factor of at most
# e^(q eps) ~ e^0.22, so the powers in M'(u) and M''(u) of the derivative
# formulas stay accurate, and M' and M'' stay finite on [0, 1]. (The Newton
# solve of the norm needs no such bound.)
MAX_EXPONENT = 1e15


class SpecError(ValueError):
    """Semantically invalid norm specification (bad q, dim, coefficients)."""


class SpecParseError(SpecError):
    """Spec string rejected by the grammar. Carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def check_exponent(exp: float) -> None:
    """Refuse an exponent of M above MAX_EXPONENT."""
    if exp > MAX_EXPONENT:
        raise SpecError(f"exponent {exp:g} exceeds {MAX_EXPONENT:g}, "
                        "beyond double-precision powers")


def _check_term(coef: float, exp: float) -> None:
    if not (math.isfinite(coef) and math.isfinite(exp)):
        raise SpecError("coefficients and exponents must be finite")
    if coef < 0:
        raise SpecError(f"negative coefficient {coef}")
    if exp < 1:
        raise SpecError(f"exponent {exp} < 1 breaks convexity on [0, 1]")
    check_exponent(exp)


@dataclass(frozen=True)
class NormSpec:
    """A norm on R^dim: the Luxemburg norm of M(t) = sum_i a_i t^{q_i}.

    ``terms`` holds the (a_i, q_i) pairs of M sorted by exponent: ((1, q),)
    for l_q, with q = inf for the max-norm, and ((1, 2),) for the Euclidean
    norm. ``kind`` ("lq", "orlicz" or "euclidean") only picks the label.
    """

    kind: str
    dim: int
    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        """An Orlicz spec's invariants: finite nonnegative coefficients,
        exponents in [1, MAX_EXPONENT] (convex on [0, 1], exact in double
        precision), and M(1) = 1. An l_q spec takes any q >= 1."""
        if self.kind != "orlicz":
            return
        if not self.terms:
            raise SpecError("at least one term with a positive coefficient is required")
        for coef, exp in self.terms:
            _check_term(coef, exp)
        total = math.fsum(coef for coef, _ in self.terms)
        if not abs(total - 1.0) <= 1e-12:
            raise SpecError(f"M(1) = {total!r} != 1; construct via NormSpec.orlicz_norm")

    @classmethod
    def lq(cls, q: float, dim: int) -> "NormSpec":
        q = float(q)
        _check_dim(dim)
        if math.isnan(q) or q < 1.0:
            raise SpecError(f"q must be >= 1 (or inf), got {q}")
        return cls(kind="lq", dim=int(dim), terms=((1.0, q),))

    @classmethod
    def orlicz_norm(cls, terms, dim: int) -> "NormSpec":
        """Merge duplicate exponents, drop zero coefficients, sort, and
        normalize M(1) = 1; the constructor checks the result."""
        merged: dict[float, float] = {}
        for coef, exp in terms:
            coef = float(coef)
            exp = float(exp)
            _check_term(coef, exp)      # before merging, which could hide a bad term
            if coef == 0:
                continue
            merged[exp] = merged.get(exp, 0.0) + coef
        try:
            total = math.fsum(merged.values())
        except OverflowError:
            raise SpecError("the coefficients sum to more than the largest float") from None
        if abs(total - 1.0) > 4 * np.finfo(float).eps:
            merged = {exp: coef / total for exp, coef in merged.items()}
        ordered = tuple(sorted(((coef, exp) for exp, coef in merged.items()),
                               key=lambda item: item[1]))
        _check_dim(dim)
        return cls(kind="orlicz", dim=int(dim), terms=ordered)

    @classmethod
    def euclidean(cls, dim: int) -> "NormSpec":
        """l_2 under its own label."""
        _check_dim(dim)
        return cls(kind="euclidean", dim=int(dim), terms=((1.0, 2.0),))

    @property
    def label(self) -> str:
        return format_spec(self)

    @property
    def smooth_in_x1(self) -> bool:
        """True when x1-sections are C^2 off the plane x1 = 0."""
        return 2.0 <= self.terms[0][1] < math.inf


def _check_dim(dim) -> None:
    if int(dim) != dim or not (MIN_DIM <= int(dim) <= MAX_DIM):
        raise SpecError(f"dim must be an integer in [{MIN_DIM}, {MAX_DIM}], got {dim}")


def norm_batch(spec: NormSpec, xs) -> np.ndarray:
    """Row-wise norms of an (m, dim) array. Vectorized for every norm kind.

    The max-norm is the row maximum of |x_k|; every other norm, Euclidean,
    l_q and Orlicz alike, is the Luxemburg norm of its power terms
    (``_luxemburg_batch``).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != spec.dim:
        raise ValueError(f"expected an (m, {spec.dim}) array, got shape {xs.shape}")
    cols = np.abs(xs.T, order="C")          # (dim, rows): reduce over long rows
    peak = cols.max(axis=0)
    if not np.all(np.isfinite(peak)):
        raise ValueError("non-finite input vector")
    if spec.terms[0][1] == math.inf:
        return peak
    return _luxemburg_batch(spec.terms, cols, peak)


def _luxemburg_batch(terms, cols: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """Solve sum_k M(|x_k| / s) = 1 row-wise for M(t) = sum_i a_i t^{q_i}
    given by its (a_i, q_i) ``terms``, from the (dim, rows) array ``cols``
    of |x_k| and its column maxima ``peak`` = m.

    With y_k = |x_k| / m in [0, 1] and c_i = a_i sum_k y_k^{q_i}, the left
    side in tau = log(s / m) is F(tau) = sum_i c_i e^{-q_i tau}, so each row
    raises its coordinates to each exponent once. A single term has the
    root s = m c^{1/q}: the l_q closed form. With several terms, g = ln F
    is convex (a log-sum-exp of linear functions) and decreasing, so
    Newton's method on g started where g >= 0 rises to the root without
    overshooting; the step is
    tau <- tau + ln(F) F / D with D = sum_i q_i c_i e^{-q_i tau}. The start
    tau = max(0, max_i ln(c_i) / q_i) is such a point: F(tau) >= c_i e^{-q_i tau}
    for each i, and g(0) = ln sum_i c_i >= 0 because each power sum is at
    least 1 and M(1) = 1. A row stops at its first step that does not
    increase tau, once the step is below half an ulp of tau; since
    |g'| = D / F >= 1, a rounding error in ln F moves tau by no more than
    its own size. A rounding of y_k acts like an ulp's change to x_k, so no
    exponent bound is needed here. Each row iterates alone, so its value
    does not depend on the rest of the batch; zero rows are exact zeros.

    The power sums add the coordinate rows of ``cols`` left to right, term
    by term in exponent order, and the steps run on tau and the c_i
    compacted to the still-rising rows.
    """
    out = np.zeros(len(peak))
    rows = np.flatnonzero(peak > 0.0)
    if len(rows) < len(peak):
        cols, peak = cols[:, rows], peak[rows]
    ys = cols / peak
    terms = [(coef, exp) for coef, exp in terms if coef > 0.0]      # ln(0) warns
    c = np.array([coef * sum(ys ** exp) for coef, exp in terms])
    if len(terms) == 1:
        out[rows] = peak * c[0] ** (1.0 / terms[0][1])
        return out
    exps = np.array([exp for _, exp in terms])[:, None]
    tau = np.maximum((np.log(c) / exps).max(axis=0), 0.0)
    final = np.empty_like(tau)
    active = np.arange(len(tau))
    for _ in range(ORLICZ_MAX_ITER):
        if len(active) == 0:
            break
        parts = c * np.exp(-exps * tau)     # c_i e^{-q_i tau}, one row per term
        f = sum(parts)
        slope = sum(exps * parts)
        tau_new = tau + np.log(f) * f / slope
        rising = tau_new > tau
        if rising.all():
            tau = tau_new
            continue
        final[active.compress(~rising)] = tau.compress(~rising)
        tau, c, active = (tau_new.compress(rising), c.compress(rising, axis=1),
                          active.compress(rising))
    final[active] = tau
    out[rows] = peak * np.exp(final)
    return out


def subsphere_batch(spec: NormSpec, thetas) -> np.ndarray:
    """The points (cos t, sin t) rescaled so ||x2 e2 + x3 e3|| = 1 (dim 3
    only): an (m, 2) array."""
    if spec.dim != 3:
        raise SpecError(f"subsphere_batch requires dim = 3, got dim = {spec.dim}")
    thetas = np.asarray(thetas, dtype=float)
    cs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    pts = np.column_stack([np.zeros(len(cs)), cs])
    nrm = norm_batch(spec, pts)
    return cs / nrm[:, None]


def g17(x) -> str:
    """Artifact text of a number: 17 significant digits; None gives ""."""
    return "" if x is None else format(float(x), ".17g")


def check_p(p: float) -> None:
    """Refuse exponents outside the embedding range 0 < p <= 2."""
    if not 0.0 < p <= 2.0:
        raise ValueError(f"p must lie in (0, 2], got {p}")


def _fmt_number(x: float) -> str:
    if x == math.inf:
        return "inf"
    if float(x).is_integer() and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def format_spec(spec: NormSpec) -> str:
    """Canonical text form; ``parse_spec(format_spec(s)) == s``."""
    if spec.kind == "euclidean":
        return f"euclidean:dim={spec.dim}"
    if spec.kind == "lq":
        return f"lq:q={_fmt_number(spec.terms[0][1])}:dim={spec.dim}"
    terms = "+".join(f"{_fmt_number(c)}*t^{_fmt_number(e)}" for c, e in spec.terms)
    return f"orlicz:terms={terms}:dim={spec.dim}"


def parse_spec(text: str) -> NormSpec:
    """Parse the documented spec grammar.

    Syntax errors raise :class:`SpecParseError` with a character position;
    semantic errors (q < 1, negative coefficients, bad dim) raise
    :class:`SpecError` with a reason.
    """
    if not isinstance(text, str) or not text:
        raise SpecParseError("empty spec string", 0)
    segments = []
    offset = 0
    for seg in text.split(":"):
        segments.append((seg, offset))
        offset += len(seg) + 1
    kind, _ = segments[0]

    def expect_field(index: int, name: str) -> tuple[str, int]:
        if index >= len(segments):
            raise SpecParseError(f"missing field '{name}='", len(text))
        seg, off = segments[index]
        prefix = name + "="
        if not seg.startswith(prefix):
            raise SpecParseError(f"expected '{name}=', got {seg!r}", off)
        return seg[len(prefix):], off + len(prefix)

    def parse_float(raw: str, off: int) -> float:
        if raw == "inf":
            return math.inf
        try:
            return float(raw)
        except ValueError:
            raise SpecParseError(f"not a number: {raw!r}", off) from None

    def parse_dim(raw: str, off: int) -> int:
        try:
            return int(raw)
        except ValueError:
            raise SpecParseError(f"not an integer: {raw!r}", off) from None

    def check_trailing(index: int) -> None:
        if index < len(segments):
            seg, off = segments[index]
            raise SpecParseError(f"unexpected trailing segment {seg!r}", off)

    if kind == "euclidean":
        raw_dim, off_dim = expect_field(1, "dim")
        check_trailing(2)
        return NormSpec.euclidean(parse_dim(raw_dim, off_dim))
    if kind == "lq":
        raw_q, off_q = expect_field(1, "q")
        raw_dim, off_dim = expect_field(2, "dim")
        check_trailing(3)
        return NormSpec.lq(parse_float(raw_q, off_q), parse_dim(raw_dim, off_dim))
    if kind == "orlicz":
        raw_terms, off_terms = expect_field(1, "terms")
        raw_dim, off_dim = expect_field(2, "dim")
        check_trailing(3)
        terms = []
        cursor = off_terms
        for piece in raw_terms.split("+"):
            if "*t^" not in piece:
                raise SpecParseError(f"term {piece!r} is not of the form <coef>*t^<exp>", cursor)
            raw_coef, raw_exp = piece.split("*t^", 1)
            coef = parse_float(raw_coef, cursor)
            exp = parse_float(raw_exp, cursor + len(raw_coef) + 3)
            terms.append((coef, exp))
            cursor += len(piece) + 1
        return NormSpec.orlicz_norm(terms, parse_dim(raw_dim, off_dim))
    raise SpecParseError(f"unknown norm kind {kind!r} (expected lq, orlicz, or euclidean)", 0)
