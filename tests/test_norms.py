import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import broadcast_luxemburg, luxemburg_norm, norm_at, orlicz_value
from levylab import norms
from levylab.criterion import check_orlicz_flatness
from levylab.derivatives import _power_derivatives
from levylab.norms import (NormSpec, SpecError, SpecParseError,
                           format_spec, norm_batch, parse_spec, subsphere_batch)

L2 = NormSpec.lq(2, 3)
L4 = NormSpec.lq(4, 3)
EUC = NormSpec.euclidean(3)
MIX = NormSpec.orlicz_norm([(0.5, 3.0), (0.5, 5.0)], 3)
ALL_SPECS = [L2, L4, EUC, MIX, NormSpec.lq(1, 3), NormSpec.lq(math.inf, 3)]


class TestEvalNorm:
    def test_euclidean_closed_form(self):
        assert norm_at(L2, (1, 1, 1)) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_single_term_orlicz_matches_l4_closed_form(self):
        spec = NormSpec.orlicz_norm([(1.0, 4.0)], 3)
        assert norm_at(spec, (1, 2, 2)) == pytest.approx(33 ** 0.25, abs=1e-10)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_basis_vectors_are_normalized(self, spec):
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1.0
            assert norm_at(spec, e) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_zero_iff_origin(self, spec):
        assert norm_at(spec, (0, 0, 0)) == 0.0
        assert norm_at(spec, (0, 1e-9, 0)) > 0.0

    def test_lq2_equals_euclidean(self):
        # euclidean, lq:q=2 and M(t) = t^2 are three spellings of one norm
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((200, 3))
        ref = norm_batch(EUC, xs)
        for spec in (L2, NormSpec.orlicz_norm([(1.0, 2.0)], 3)):
            assert np.array_equal(norm_batch(spec, xs), ref)

    def test_max_norm(self):
        assert norm_at(NormSpec.lq(math.inf, 3), (1, -5, 2)) == 5.0

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError):
            norm_at(L4, (1.0, math.nan, 0.0))
        with pytest.raises(ValueError):
            norm_at(L4, (math.inf, 0.0, 0.0))

    def test_invalid_orlicz_rejected_at_eval(self):
        with pytest.raises(SpecError, match="negative coefficient"):
            broken = NormSpec(kind="orlicz", dim=3, terms=((-0.5, 3.0), (1.5, 5.0)))
            norm_at(broken, (1, 1, 1))

    def test_orlicz_defining_equation_residual(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((500, 3))
        s = norm_batch(MIX, xs)
        residual = np.abs(orlicz_value(MIX, np.abs(xs) / s[:, None]).sum(axis=1) - 1.0)
        assert residual.max() <= 1e-12


class TestOrliczVsClosedForm:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 6])
    def test_power_orlicz_equals_lq(self, q):
        rng = np.random.default_rng(q)
        xs = rng.standard_normal((1000, 3))
        a = norm_batch(NormSpec.lq(q, 3), xs)
        b = norm_batch(NormSpec.orlicz_norm([(1.0, float(q))], 3), xs)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.0, 8.0])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_lq_matches_brentq_reference(self, q, dim):
        # the oracle shares no code with the library: math.hypot for q = 2,
        # brentq on the defining equation otherwise (itself within 4 eps);
        # the largest error measured over these rows was 1.97 eps
        gauss = np.random.default_rng(200 + dim).standard_normal((100, dim))
        xs = np.vstack([TestOrliczSolveOracle.rows(dim), gauss, gauss * 1e200, gauss * 1e-200])
        ref = np.array([math.hypot(*x) if q == 2.0 else luxemburg_norm([(1.0, q)], x)
                        for x in xs])
        zero = ~np.any(xs != 0.0, axis=1)
        spellings = [NormSpec.lq(q, dim), NormSpec.orlicz_norm([(1.0, q)], dim)]
        if q == 2.0:
            spellings.append(NormSpec.euclidean(dim))
        for spec in spellings:
            got = norm_batch(spec, xs)
            assert np.all(got[zero] == 0.0)
            rel = np.abs(got[~zero] - ref[~zero]) / ref[~zero]
            assert rel.max() <= 3 * np.finfo(float).eps, spec.label


class TestOrliczSolveOracle:
    TERMS = [
        [(0.3, 1.0), (0.7, 4.0)],                   # linear term: M'(0) > 0
        [(0.5, 1.5), (0.5, 3.0)],                   # exponent in (1, 2)
        [(0.9, 2.0000001), (0.1, 8.0)],
        [(0.5, 2.5), (0.5, 1000.0)],
        [(0.2, 1.0), (0.3, 1.3), (0.5, 1000.0)],
        [(0.5, 2.0), (0.5, 1e15)],                  # largest accepted exponent
        [(1.0, 8.0)],                               # single term: l_8 closed form
    ]

    @staticmethod
    def rows(dim: int) -> np.ndarray:
        rng = np.random.default_rng(dim)
        base = rng.standard_normal((12, dim))
        single = np.zeros((dim, dim))
        single[np.arange(dim), np.arange(dim)] = rng.uniform(0.5, 2.0, dim)
        equal = np.full((2, dim), 0.7)
        equal[1] *= -3.0
        sparse = base[:4] * (np.arange(dim) % 2 == 0)
        xs = np.vstack([np.zeros((2, dim)), base, single, equal, sparse])
        return np.vstack([xs, xs[2:] * 1e200, xs[2:] * 1e-200])

    @pytest.mark.parametrize("terms", TERMS, ids=lambda t: "+".join(f"t^{q:.8g}" for _, q in t))
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_matches_brentq_reference(self, terms, dim):
        spec = NormSpec.orlicz_norm(terms, dim)
        xs = self.rows(dim)
        got = norm_batch(spec, xs)
        ref = np.array([luxemburg_norm(terms, x) for x in xs])
        zero = ~np.any(xs != 0.0, axis=1)
        assert np.all(got[zero] == 0.0) and np.all(got[~zero] > 0.0)
        assert np.max(np.abs(got[~zero] - ref[~zero]) / ref[~zero]) <= 1e-14
        # a row's value does not depend on the rest of its batch
        alone = np.array([norm_batch(spec, x[None, :])[0] for x in xs])
        assert np.array_equal(alone, got)

    ELEVEN = [(1.0 / 11.0, q) for q in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0, 20.0)]
    MIX_TERMS = [(0.5, 3.0), (0.5, 5.0)]

    @pytest.mark.parametrize("terms", TERMS + [ELEVEN, MIX_TERMS],
                             ids=lambda t: "+".join(f"t^{q:.8g}" for _, q in t))
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_matches_broadcast_newton_solve(self, terms, dim):
        # the same Newton solve on a (rows, coordinates, terms) layout
        spec = NormSpec.orlicz_norm(terms, dim)
        gauss = np.random.default_rng(100 + dim).standard_normal((20_000, dim))
        xs = np.vstack([self.rows(dim), gauss])
        got = norm_batch(spec, xs)
        ref = broadcast_luxemburg(spec.terms, np.abs(xs))
        zero = ~np.any(xs != 0.0, axis=1)
        assert np.all(got[zero] == 0.0) and np.all(ref[~zero] > 0.0)
        if terms == self.MIX_TERMS and dim <= 5:
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got[~zero] - ref[~zero]) / ref[~zero]) <= 1e-15

    @pytest.mark.parametrize("terms", [MIX_TERMS, TERMS[0], ELEVEN],
                             ids=lambda t: "+".join(f"t^{q:.8g}" for _, q in t))
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_eight_steps_reach_the_uncapped_value(self, monkeypatch, terms, dim):
        spec = NormSpec.orlicz_norm(terms, dim)
        gauss = np.random.default_rng(100 + dim).standard_normal((20_000, dim))
        xs = np.vstack([self.rows(dim), gauss])
        full = norm_batch(spec, xs)
        monkeypatch.setattr(norms, "ORLICZ_MAX_ITER", 8)
        assert np.array_equal(norm_batch(spec, xs), full)

    def test_zero_coefficient_matches_l4(self):
        spec = NormSpec(kind="orlicz", dim=3, terms=((0.0, 2.0), (1.0, 4.0)))
        xs = np.vstack([self.rows(3), np.random.default_rng(4).standard_normal((1000, 3))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = norm_batch(spec, xs)
        ref = norm_batch(NormSpec.lq(4, 3), xs)
        zero = ~np.any(xs != 0.0, axis=1)
        assert np.all(got[zero] == 0.0)
        assert np.max(np.abs(got[~zero] - ref[~zero]) / ref[~zero]) <= 1e-15

    @pytest.mark.parametrize("terms", [[(1.0, 2.0), (1.0, 1e300)],
                                       [(0.5, 2.0), (0.5, 1e20)],
                                       [(0.5, 2.0), (0.5, 1.0000001e15)]])
    def test_exponents_beyond_double_precision_refused(self, terms):
        # past 1e15 one ulp of u moves u^q, and with it M'(u) and M''(u) of
        # the derivative formulas, by more than a factor e^0.22
        with pytest.raises(SpecError, match="exceeds"):
            NormSpec.orlicz_norm(terms, 3)
        total = sum(a for a, _ in terms)
        with pytest.raises(SpecError, match="exceeds"):
            built = NormSpec(kind="orlicz", dim=3, terms=tuple((a / total, q) for a, q in terms))
            norm_at(built, (1.0, 1.0, 1.0))


class TestNormAxioms:
    @pytest.mark.parametrize("spec", [L4, MIX, NormSpec.lq(1, 3)])
    def test_homogeneity_1000_pairs(self, spec):
        rng = np.random.default_rng(11)
        xs = rng.standard_normal((1000, 3))
        lams = rng.uniform(-8.0, 8.0, size=1000)
        base = norm_batch(spec, xs)
        scaled = norm_batch(spec, xs * lams[:, None])
        assert np.max(np.abs(scaled - np.abs(lams) * base)) <= 1e-9 * base.max()

    @pytest.mark.parametrize("spec", [L4, MIX, NormSpec.lq(1, 3)])
    def test_triangle_inequality_1000_pairs(self, spec):
        rng = np.random.default_rng(12)
        xs = rng.standard_normal((1000, 3))
        ys = rng.standard_normal((1000, 3))
        lhs = norm_batch(spec, xs + ys)
        rhs = norm_batch(spec, xs) + norm_batch(spec, ys)
        assert np.all(lhs <= rhs + 1e-9)

    @pytest.mark.parametrize("spec", [L2, L4, MIX, NormSpec.lq(6, 3)])
    def test_monotone_section_bound(self, spec):
        # ||x|| >= ||x2 e2 + x3 e3||: the x1-section is convex with a
        # critical point at x1 = 0 for these norms
        rng = np.random.default_rng(13)
        xs = rng.standard_normal((500, 3))
        sections = xs.copy()
        sections[:, 0] = 0.0
        assert np.all(norm_batch(spec, xs) >= norm_batch(spec, sections) - 1e-9)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.label)
    @pytest.mark.parametrize("k", [-600, 600])
    def test_homogeneity_exact_at_extreme_scales(self, spec, k):
        # every norm factors out the row maximum, so a power-of-two scale
        # passes through exactly, far beyond where x_k^2 overflows or underflows
        xs = np.random.default_rng(14).standard_normal((1000, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = norm_batch(spec, 2.0 ** k * xs)
        assert np.array_equal(scaled, 2.0 ** k * norm_batch(spec, xs))

    @settings(max_examples=60)
    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=3),
           st.floats(-100, 100))
    def test_homogeneity_property(self, coords, lam):
        base = norm_at(L4, coords)
        scaled = norm_at(L4, [lam * c for c in coords])
        assert scaled == pytest.approx(abs(lam) * base, rel=1e-9, abs=1e-9)


class TestSubsphere:
    def test_basis_direction(self):
        assert subsphere_batch(L4, [0.0])[0] == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_diagonal_l4(self):
        # solve ||(t, t)||_4 = 1: t = 2^(-1/4)
        x2, x3 = subsphere_batch(L4, [math.pi / 4])[0]
        assert x2 == pytest.approx(2.0 ** -0.25, abs=1e-12)
        assert x3 == pytest.approx(2.0 ** -0.25, abs=1e-12)

    def test_euclidean_identity(self):
        thetas = np.array([0.3, 1.2, 4.0])
        np.testing.assert_allclose(subsphere_batch(EUC, thetas),
                                   np.column_stack([np.cos(thetas), np.sin(thetas)]),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("spec", [L2, L4, MIX])
    def test_unit_section_norm(self, spec):
        pts = subsphere_batch(spec, np.linspace(0.0, 2 * math.pi, 37))
        sections = np.column_stack([np.zeros(len(pts)), pts])
        np.testing.assert_allclose(norm_batch(spec, sections), 1.0, rtol=0.0, atol=1e-12)

    def test_requires_dim_3(self):
        with pytest.raises(SpecError):
            subsphere_batch(NormSpec.lq(4, 2), [0.0])


class TestValidateOrlicz:
    """The constructor checks the invariants (M(0) = 0 and convexity hold
    for every accepted power combination, and M(1) = 1 is enforced);
    flatness at 0 is check_orlicz_flatness's decision."""

    def test_t4_all_pass(self):
        spec = NormSpec.orlicz_norm([(1.0, 4.0)], 3)
        assert orlicz_value(spec, 0.0) == 0.0 and orlicz_value(spec, 1.0) == 1.0
        assert check_orlicz_flatness(spec).eligible

    def test_t2_not_flat(self):
        spec = NormSpec.orlicz_norm([(1.0, 2.0)], 3)
        assert np.all(_power_derivatives(spec.terms, np.linspace(0.0, 4.0, 1024))[1] >= 0.0)
        res = check_orlicz_flatness(spec)
        assert not res.eligible
        assert res.reasons == ("M''(0) = 2",)   # the t^2 term: M''(0) = 2 * coefficient

    def test_mix_flat(self):
        # M'(0) = M''(0) = 0 by direct differentiation: exponents 3 and 5
        res = check_orlicz_flatness(MIX)
        assert res.eligible and res.reasons == ()

    def test_unnormalized_flagged(self):
        with pytest.raises(SpecError, match=r"M\(1\) = 0.5 != 1"):
            NormSpec(kind="orlicz", dim=3, terms=((0.5, 3.0),))  # bypasses orlicz_norm

    def test_constructor_rejects_bad_terms(self):
        with pytest.raises(SpecError):
            NormSpec.orlicz_norm([(-1.0, 3.0)], 3)
        with pytest.raises(SpecError):
            NormSpec.orlicz_norm([(1.0, 0.5)], 3)
        with pytest.raises(SpecError):
            NormSpec.orlicz_norm([], 3)

    def test_normalization_rescales_and_records(self):
        eps = np.finfo(float).eps
        # coefficients summing to within 4 eps of 1 are kept bit for bit
        # (dividing by the sums 1 + eps and 1 + 2 eps would move them)
        for terms in ([(0.5, 3.0), (0.5 + eps, 5.0)],
                      [(0.25, 2.0), (0.25, 3.0), (0.5 + 2 * eps, 5.0)]):
            assert NormSpec.orlicz_norm(terms, 3).terms == tuple(terms)
        # any other sum is divided out
        spec = NormSpec.orlicz_norm([(2.0, 3.0), (2.0, 5.0)], 3)
        assert spec.terms == ((0.5, 3.0), (0.5, 5.0))
        assert orlicz_value(spec, 1.0) == pytest.approx(1.0, abs=1e-15)
        # duplicate exponents merge before the sum is taken
        for terms in ([(1.0, 3.0), (2.0, 5.0), (1.0, 3.0)],
                      [(0.25, 3.0), (0.5, 5.0), (0.25, 3.0)]):
            assert NormSpec.orlicz_norm(terms, 3).terms == ((0.5, 3.0), (0.5, 5.0))


class TestSpecGrammar:
    @pytest.mark.parametrize("text", [
        "lq:q=4:dim=3",
        "lq:q=2.5:dim=2",
        "lq:q=inf:dim=3",
        "euclidean:dim=3",
        "orlicz:terms=0.5*t^3+0.5*t^5:dim=3",
        "orlicz:terms=0.9*t^3+0.1*t^2.5:dim=4",
    ])
    def test_round_trip(self, text):
        spec = parse_spec(text)
        assert parse_spec(format_spec(spec)) == spec

    def test_canonical_form(self):
        assert format_spec(parse_spec("lq:q=4:dim=3")) == "lq:q=4:dim=3"
        assert format_spec(parse_spec("orlicz:terms=0.5*t^3+0.5*t^5:dim=3")) == \
            "orlicz:terms=0.5*t^3+0.5*t^5:dim=3"

    def test_syntax_error_carries_position(self):
        with pytest.raises(SpecParseError) as exc:
            parse_spec("lq:qq=4:dim=3")
        assert exc.value.position == 3
        with pytest.raises(SpecParseError):
            parse_spec("lq:q=abc:dim=3")
        with pytest.raises(SpecParseError):
            parse_spec("banana:dim=3")
        with pytest.raises(SpecParseError):
            parse_spec("orlicz:terms=0.5t^3:dim=3")

    def test_semantic_errors_carry_reasons(self):
        with pytest.raises(SpecError, match="q must be"):
            parse_spec("lq:q=0.5:dim=3")
        with pytest.raises(SpecError, match="negative coefficient"):
            parse_spec("orlicz:terms=-1*t^3:dim=3")
        with pytest.raises(SpecError, match="dim"):
            parse_spec("lq:q=4:dim=9")
        with pytest.raises(SpecError, match="dim"):
            parse_spec("lq:q=4:dim=1")

    @settings(max_examples=50)
    @given(q=st.one_of(st.integers(1, 20).map(float),
                       st.floats(1.0, 20.0, allow_nan=False)),
           dim=st.integers(2, 8))
    def test_lq_round_trip_property(self, q, dim):
        spec = NormSpec.lq(q, dim)
        assert parse_spec(format_spec(spec)) == spec

    @settings(max_examples=50)
    @given(st.lists(
        st.tuples(st.floats(0.05, 4.0, allow_nan=False),
                  st.floats(1.0, 8.0, allow_nan=False)),
        min_size=1, max_size=4))
    def test_orlicz_round_trip_property(self, terms):
        spec = NormSpec.orlicz_norm(terms, 3)
        assert parse_spec(format_spec(spec)) == spec
