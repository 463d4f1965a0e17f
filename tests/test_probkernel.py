import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import binom

from scenopt.probkernel import (
    binomial_cdf,
    binomial_tail_leq_exact,
    log_beta,
    log_binomial_coefficient,
    regularized_incomplete_beta,
)


class TestLogBinomialCoefficient:
    def test_small_cases(self):
        assert log_binomial_coefficient(5, 2) == pytest.approx(math.log(10), rel=1e-14)
        assert log_binomial_coefficient(7, 0) == 0.0
        assert log_binomial_coefficient(7, 7) == 0.0

    def test_card_deck(self):
        # C(52, 5) = 2,598,960 by exact integer arithmetic
        assert log_binomial_coefficient(52, 5) == pytest.approx(
            math.log(math.comb(52, 5)), rel=1e-13
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_binomial_coefficient(3, 4)
        with pytest.raises(ValueError):
            log_binomial_coefficient(-1, 0)

    @given(st.integers(1, 500), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_exact_integers(self, n, data):
        k = data.draw(st.integers(0, n))
        assert log_binomial_coefficient(n, k) == pytest.approx(
            math.log(math.comb(n, k)), rel=1e-12, abs=1e-12
        )

    def test_large_n_recurrence(self):
        # ln C(n, k) = ln C(n-1, k-1) + ln n - ln k, checked at n = 1e7
        n = 10_000_000
        for k in (1, 17, 4_321, 5_000_000):
            lhs = log_binomial_coefficient(n, k)
            rhs = log_binomial_coefficient(n - 1, k - 1) + math.log(n) - math.log(k)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBinomialCdf:
    def test_boundaries(self):
        assert binomial_cdf(-1, 10, 0.3) == 0.0
        assert binomial_cdf(10, 10, 0.3) == 1.0
        assert binomial_cdf(25, 10, 0.3) == 1.0

    def test_single_term(self):
        for k, eps in [(10, 0.3), (100, 0.01), (1000, 0.13)]:
            assert binomial_cdf(0, k, eps) == pytest.approx((1 - eps) ** k, rel=1e-12)

    def test_planned_size_tail(self):
        # the planned size 1,734 at rank 2, eps 1% must push the tail to 5e-7
        assert binomial_cdf(1, 1734, 0.01) <= 5e-7
        assert binomial_cdf(1, 1733, 0.01) > 5e-7

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_cdf(1, 10, 0.0)
        with pytest.raises(ValueError):
            binomial_cdf(1, 10, 1.0)
        with pytest.raises(ValueError):
            binomial_cdf(1, 0, 0.5)

    def test_exact_fraction_oracle(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 40))
            x = int(rng.integers(0, k))
            eps = Fraction(int(rng.integers(1, 99)), 100)
            exact = sum(
                Fraction(math.comb(k, j)) * eps**j * (1 - eps) ** (k - j) for j in range(x + 1)
            )
            assert binomial_cdf(x, k, float(eps)) == pytest.approx(float(exact), abs=1e-14)

    @given(
        st.integers(1, 1000),
        st.floats(0.001, 0.999),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy(self, k, eps, data):
        x = data.draw(st.integers(0, k))
        assert binomial_cdf(x, k, eps) == pytest.approx(
            float(binom.cdf(x, k, eps)), abs=2e-13
        )

    def test_bulk_draw_regression(self):
        # a draw where the Cephes ``bdtr`` route was 2.7e-13 off the exact sum
        assert binomial_cdf(22, 466, 0.046875) == pytest.approx(0.5699501907551545, abs=2e-13)

    @given(
        st.integers(1001, 200_000),
        st.floats(0.005, 0.5),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_large(self, k, eps, data):
        # beyond the exact-anchor range both sides live at the double floor
        x = data.draw(st.integers(0, k))
        ours = binomial_cdf(x, k, eps)
        ref = float(binom.cdf(x, k, eps))
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-11)

    def test_full_pmf_sums_to_one(self, rng):
        # exercise the summation path: cdf(K-1) plus the top term
        for _ in range(25):
            k = int(rng.integers(2, 2000))
            eps = float(rng.uniform(0.01, 0.99))
            total = binomial_cdf(k - 1, k, eps) + math.exp(k * math.log(eps))
            assert total == pytest.approx(1.0, abs=1e-13)

    def test_monotone_in_eps_and_trials(self, rng):
        # randomized property over 1,000 parameter triples
        for _ in range(1000):
            k = int(rng.integers(2, 400))
            x = int(rng.integers(0, k - 1))
            eps = float(rng.uniform(0.02, 0.9))
            base = binomial_cdf(x, k, eps)
            assert binomial_cdf(x, k, min(eps + 0.05, 0.95)) <= base + 1e-14
            assert binomial_cdf(x, k + 1, eps) <= base + 1e-14

    def test_exact_predicate_brackets_threshold(self):
        assert binomial_tail_leq_exact(1, 1734, Fraction(1, 100), Fraction(1, 2_000_000))
        assert not binomial_tail_leq_exact(1, 1733, Fraction(1, 100), Fraction(1, 2_000_000))


class TestRegularizedIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(0.0, 2.5, 3.5) == 0.0
        assert regularized_incomplete_beta(1.0, 2.5, 3.5) == 1.0

    def test_against_quadrature(self):
        a, b, eps = 2.0, 3.0, 0.3
        integral, err = quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1), 0.0, eps)
        assert err < 1e-12
        expected = integral / math.exp(log_beta(a, b))
        assert regularized_incomplete_beta(eps, a, b) == pytest.approx(expected, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.5, 1.0, -2.0)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.5, 1.0, 1.0)

    @given(
        st.floats(0.001, 0.999),
        st.floats(0.1, 80.0),
        st.floats(0.1, 80.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy(self, eps, a, b):
        # the function returns scipy's betainc; the referee is mpmath
        with mpmath.workdps(30):
            ref = float(mpmath.betainc(a, b, 0, eps, regularized=True))
        assert regularized_incomplete_beta(eps, a, b) == pytest.approx(ref, abs=1e-12)

    def test_binomial_identity(self, rng):
        # B(eps; a, b) = (1/b) C(a+b-1, b)^-1 Phi(b-1; a+b-1, 1-eps) for integers
        worst = 0.0
        for _ in range(1000):
            a = int(rng.integers(1, 40))
            b = int(rng.integers(1, 40))
            eps = float(rng.uniform(0.01, 0.99))
            lhs = regularized_incomplete_beta(eps, a, b) * math.exp(log_beta(a, b))
            rhs = (
                (1.0 / b)
                * math.exp(-log_binomial_coefficient(a + b - 1, b))
                * binomial_cdf(b - 1, a + b - 1, 1.0 - eps)
            )
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-10
