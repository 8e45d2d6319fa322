"""Tests for the special-function layer.

Closed forms are the primary oracles: the Cauchy CDF arctan form, the
df=2 Student-t CDF 1/2 + x/(2*sqrt(2+x^2)), and exact inverse pairs.
scipy.special / scipy.stats serve as an independent implementation to
cross-check against on grids; scipy is a test-only dependency.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy import stats as sps

from tailcluster import distributions
from tailcluster.core import ValidationError
from tailcluster.distributions import (
    NonConvergenceError,
    _beta_cf,
    cauchy_cdf,
    frechet_quantile,
    reg_inc_beta,
    student_t_cdf,
    student_t_quantile,
)


def t2_cdf_closed_form(x):
    """Independent oracle: Student-t CDF with df 2, 1/2 + x/(2*sqrt(2+x^2))."""
    x = np.asarray(x, dtype=float)
    return 0.5 + x / (2.0 * np.sqrt(2.0 + x * x))


def frechet_cdf(x, gamma):
    """Independent oracle: exp(-x^(-1/gamma)) for x > 0."""
    return math.exp(-float(x) ** (-1.0 / gamma))


probs = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
dofs = st.floats(min_value=0.1, max_value=50.0)
gammas = st.floats(min_value=0.05, max_value=5.0)


class TestRegIncBeta:
    def test_boundaries(self):
        assert reg_inc_beta(0.0, 2.3, 0.7) == 0.0
        assert reg_inc_beta(1.0, 2.3, 0.7) == 1.0

    def test_uniform_case(self):
        assert reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_symmetric_parameters(self):
        assert reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-14)

    def test_against_scipy_grid(self):
        x = np.linspace(0.0, 1.0, 1001)
        for a, b in [(0.5, 0.5), (2.0, 3.0), (0.35, 0.5), (5.0, 0.5), (0.05, 7.0)]:
            got = reg_inc_beta(x, a, b)
            want = special.betainc(a, b, x)
            assert np.max(np.abs(got - want)) <= 1e-12

    @given(
        x=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        a=st.floats(min_value=0.05, max_value=20.0),
        b=st.floats(min_value=0.05, max_value=20.0),
    )
    # 1 - 1e-6 rounds by ~3e-17; with dI/dx ~ 4e4 there, evaluating the
    # identity at the unsnapped x misses 1 by 1e-12 (scipy.special.betainc
    # gives the same sum), so this point guards the snapping below
    @example(x=1e-6, a=0.09375, b=16.0)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_identity(self, x, a, b):
        # snap x so that x and 1 - x are both exact doubles (Sterbenz:
        # 1 - y is exact for y in [0.5, 1]); otherwise the two sides are
        # evaluated at different points and the identity is unmeasurable
        x = 1.0 - (1.0 - x)
        assert 1.0 - (1.0 - x) == x
        total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
        assert abs(total - 1.0) <= 1e-12

    @given(a=st.floats(min_value=0.1, max_value=10.0), b=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_x(self, a, b):
        x = np.linspace(0.0, 1.0, 201)
        vals = reg_inc_beta(x, a, b)
        assert np.all(np.diff(vals) >= -1e-14)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValidationError):
            reg_inc_beta(0.5, 1.0, -2.0)
        with pytest.raises(ValidationError):
            reg_inc_beta(1.5, 1.0, 1.0)

    def test_nonconvergence_reports_parameters(self, monkeypatch):
        # The public entry always evaluates on the fast side of the
        # crossover; drive the raw continued fraction on the slow side
        # with a 50-iteration budget to exercise the guard.
        monkeypatch.setattr(distributions, "_CF_MAX_ITER", 50)
        x = np.array([0.999])
        with pytest.raises(NonConvergenceError) as exc:
            _beta_cf(x, 0.5, 0.5)
        assert "a=0.5" in str(exc.value) and "b=0.5" in str(exc.value)


class TestStudentTCdf:
    def test_median_is_half(self):
        for v in [0.3, 1.0, 2.0, 7.5]:
            assert student_t_cdf(0.0, v) == pytest.approx(0.5, abs=1e-14)

    def test_cauchy_value(self):
        assert student_t_cdf(1.0, 1.0) == pytest.approx(0.75, abs=1e-12)

    def test_df2_value(self):
        x = math.sqrt(2.0)
        want = 0.5 + x / (2.0 * math.sqrt(2.0 + x * x))
        assert want == pytest.approx(0.8535533905932737, abs=1e-15)
        assert student_t_cdf(x, 2.0) == pytest.approx(want, abs=1e-10)

    def test_matches_cauchy_closed_form(self):
        x = np.linspace(-100.0, 100.0, 10_001)
        got = np.asarray(student_t_cdf(x, 1.0))
        want = 0.5 + np.arctan(x) / math.pi
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_matches_df2_closed_form(self):
        x = np.linspace(-50.0, 50.0, 5001)
        got = np.asarray(student_t_cdf(x, 2.0))
        assert np.max(np.abs(got - t2_cdf_closed_form(x))) <= 1e-10

    def test_against_scipy_grid(self):
        x = np.linspace(-40.0, 40.0, 2001)
        for v in [0.1, 0.5, 1.7, 3.3, 10.0, 33.0]:
            err = np.max(np.abs(student_t_cdf(x, v) - sps.t.cdf(x, v)))
            assert err <= 1e-12

    @given(v=dofs)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, v):
        x = np.linspace(0.0, 30.0, 101)
        left = np.asarray(student_t_cdf(-x, v))
        right = np.asarray(student_t_cdf(x, v))
        assert np.max(np.abs(left + right - 1.0)) <= 1e-12

    @given(v=dofs)
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, v):
        x = np.linspace(-20.0, 20.0, 401)
        vals = np.asarray(student_t_cdf(x, v))
        assert np.all(np.diff(vals) >= -1e-14)

    def test_rejects_bad_dof(self):
        with pytest.raises(ValidationError):
            student_t_cdf(0.0, 0.0)

    def test_nan_gives_nan_as_scipy_does(self):
        x = np.array([np.nan, -3.0, 1.0])
        got = student_t_cdf(x, 3.0)
        want = sps.t.cdf(x, 3.0)
        assert np.isnan(got[0]) and np.isnan(want[0])
        assert got[1:] == pytest.approx(want[1:], abs=1e-12)


class TestStudentTQuantile:
    def test_median(self):
        for v in [0.4, 1.0, 2.0, 6.0]:
            assert student_t_quantile(0.5, v) == pytest.approx(0.0, abs=1e-12)

    def test_cauchy_quartile(self):
        assert student_t_quantile(0.75, 1.0) == pytest.approx(1.0, abs=1e-12)

    @given(u=probs, v=dofs)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, u, v):
        q = student_t_quantile(u, v)
        assert student_t_cdf(q, v) == pytest.approx(u, abs=1e-8)

    def test_probability_space_accuracy(self):
        u = np.linspace(1e-6, 1.0 - 1e-6, 2001)
        for v in [0.1, 0.5, 1.0, 1.7, 2.0, 3.3, 10.0]:
            q = student_t_quantile(u, v)
            err = np.max(np.abs(sps.t.cdf(q, v) - u))
            assert err <= 1.5e-10

    def test_extreme_levels(self):
        # bracketed inversion must survive levels far past 1 - 1/n for n = 1e4
        for u in [1e-12, 1.0 - 1e-12]:
            for v in [0.3, 1.4, 5.0]:
                q = student_t_quantile(u, v)
                assert math.isfinite(q)
                assert student_t_cdf(q, v) == pytest.approx(u, abs=1e-10)

    @given(v=dofs)
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_u(self, v):
        u = np.linspace(0.01, 0.99, 99)
        q = np.asarray(student_t_quantile(u, v))
        assert np.all(np.diff(q) > 0)

    def test_against_scipy(self):
        u = np.linspace(0.001, 0.999, 997)
        for v in [0.5, 1.0, 2.0, 4.0, 12.5]:
            got = np.asarray(student_t_quantile(u, v))
            want = sps.t.ppf(u, v)
            # compare in probability space where the tolerance is defined
            assert np.max(np.abs(sps.t.cdf(got, v) - u)) <= 1.5e-10
            assert np.allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValidationError):
            student_t_quantile(0.0, 2.0)
        for v in (0.0, -1.0):
            with pytest.raises(ValidationError, match="^degrees of freedom must be positive"):
                student_t_quantile(0.5, v)
        with pytest.raises(ValidationError):
            student_t_quantile(1.0, 2.0)
        # NaN fails the u check itself, not reg_inc_beta's check of x
        for u, v in (([np.nan], 1.0), ([0.3, np.nan], 3.0)):
            with pytest.raises(ValidationError, match=r"^u must lie strictly inside \(0, 1\)$"):
                student_t_quantile(np.array(u), v)


class TestCauchyCdf:
    def test_values(self):
        assert cauchy_cdf(0.0) == 0.5
        assert cauchy_cdf(1.0) == pytest.approx(0.75, abs=1e-15)
        assert 1.0 - 1e-11 < cauchy_cdf(1e12) < 1.0

    def test_agrees_with_student_t_df1(self):
        x = np.linspace(-200.0, 200.0, 4001)
        err = np.max(np.abs(cauchy_cdf(x) - np.asarray(student_t_cdf(x, 1.0))))
        assert err <= 1e-12


class TestFrechetQuantile:
    def test_unit_point(self):
        for g in [0.25, 1.0, 3.0]:
            assert frechet_quantile(math.exp(-1.0), g) == pytest.approx(1.0, abs=1e-12)

    def test_gamma_one_value(self):
        assert frechet_quantile(math.exp(-0.5), 1.0) == pytest.approx(2.0, abs=1e-12)

    @given(u=probs, gamma=gammas)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, u, gamma):
        q = frechet_quantile(u, gamma)
        assert frechet_cdf(q, gamma) == pytest.approx(u, abs=1e-12)

    def test_monotone_in_gamma(self):
        # q = (-log u)^(-gamma): below e^{-1} the base exceeds 1 so the
        # quantile falls as gamma grows; above e^{-1} it rises.
        gs = np.linspace(0.1, 4.0, 40)
        low = np.array([frechet_quantile(0.05, g) for g in gs])
        high = np.array([frechet_quantile(0.9, g) for g in gs])
        assert np.all(np.diff(low) < 0)
        assert np.all(np.diff(high) > 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            frechet_quantile(0.5, 0.0)
        with pytest.raises(ValidationError):
            frechet_quantile(1.0, 1.0)
        with pytest.raises(ValidationError, match=r"^u must lie strictly inside \(0, 1\)$"):
            frechet_quantile(np.array([np.nan]), 1.0)


class TestAbsStudentTQuantile:
    """|T| has its u-quantile where T has its (1+u)/2-quantile; model A's
    generator relies on this fold."""

    def test_small_u_limit(self):
        assert student_t_quantile(0.5 * (1.0 + 1e-14), 3.0) == pytest.approx(0.0, abs=1e-10)

    def test_cauchy_median(self):
        assert student_t_quantile(0.75, 1.0) == pytest.approx(1.0, abs=1e-12)

    @given(u=probs, v=dofs)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, u, v):
        q = student_t_quantile(0.5 * (1.0 + u), v)
        assert q >= 0.0
        assert 2.0 * student_t_cdf(q, v) - 1.0 == pytest.approx(u, abs=1e-8)


class TestToleranceAndShapes:
    def test_array_matches_scalar(self):
        u = np.array([0.1, 0.5, 0.93])
        vec = np.asarray(student_t_quantile(u, 3.7))
        one_at_a_time = np.array([student_t_quantile(float(x), 3.7) for x in u])
        np.testing.assert_allclose(vec, one_at_a_time, rtol=0, atol=1e-12)
