"""Probability primitives: binomial tails and the regularized incomplete beta.

Everything downstream (sample-size planning, discard budgets, confidence
intervals) reduces to evaluating the binomial distribution function

    Phi(x; K, eps) = sum_{j=0}^{x} C(K, j) eps^j (1 - eps)^(K-j)

and the regularized incomplete beta function.  Both are delegated to
``scipy.special`` (``betaincc`` and ``betainc``); this module adds the domain
checks, the exact endpoint values, log-space binomial coefficients, and an
exact-rational tail predicate that the tests use as the referee.
"""

from __future__ import annotations

import math
from fractions import Fraction

from scipy.special import betainc, betaincc, gammaln

__all__ = [
    "log_binomial_coefficient",
    "binomial_cdf",
    "binomial_tail_leq_exact",
    "regularized_incomplete_beta",
    "log_beta",
]


def log_binomial_coefficient(n: int, k: int) -> float:
    """Return ln C(n, k) with relative error below 1e-12 for n up to ~1e7.

    Near the edges (min(k, n-k) small) the coefficient is formed exactly in
    integer arithmetic before taking the log, because the difference of two
    large log-gamma values cancels catastrophically there.  In the bulk the
    log-gamma route is accurate enough: the coefficient's own log magnitude
    grows past the cancellation error.

    Raises:
        ValueError: if k > n or either argument is negative.
    """
    if n < 0 or k < 0:
        raise ValueError(f"binomial coefficient needs nonnegative arguments, got ({n}, {k})")
    if k > n:
        raise ValueError(f"binomial coefficient undefined for k > n, got ({n}, {k})")
    if k == 0 or k == n:
        return 0.0
    if min(k, n - k) <= 2000:
        return math.log(math.comb(n, k))
    return float(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))


def binomial_cdf(x: int, trials: int, eps: float) -> float:
    """Probability of at most ``x`` successes in ``trials`` Bernoulli(eps) draws.

    Evaluated as the complemented regularized incomplete beta
    1 - I_eps(x + 1, trials - x) by ``scipy.special.betaincc``.  The tests
    hold it to 1e-14 absolute error against exact rationals for trials < 40,
    to 2e-13 absolute error against ``scipy.stats.binom`` for trials <= 1e3,
    and to 1e-9 relative (1e-11 absolute) error for trials up to 2e5.
    The planned sample sizes are checked separately against the exact
    integer predicate ``binomial_tail_leq_exact``.

    ``x`` may lie outside [0, trials]: the CDF is 0 below 0 and 1 at or above
    ``trials``.

    Raises:
        ValueError: if ``trials`` < 1 or eps is outside (0, 1).
    """
    if trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if x < 0:
        return 0.0
    if x >= trials:
        return 1.0
    return float(betaincc(x + 1, trials - x, eps))


def binomial_tail_leq_exact(x: int, trials: int, eps: Fraction, theta: Fraction) -> bool:
    """Exact-rational predicate Phi(x; trials, eps) <= theta.

    Evaluates the tail sum in integer arithmetic (no rounding at all), so it
    settles cases where the floating-point CDF lands within an ulp of the
    threshold.  Intended for spot checks; cost grows with ``trials`` since the
    integers involved have O(trials) digits.
    """
    if trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    eps = Fraction(eps)
    theta = Fraction(theta)
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if x < 0:
        return theta >= 0
    if x >= trials:
        return theta >= 1

    p, q = eps.numerator, eps.denominator
    r = q - p  # (1 - eps) = r / q
    # Sum of C(K, j) p^j r^(K-j) compared against theta * q^K, all integers.
    term = r**trials  # j = 0 term times q^K
    total = term
    coeff = 1
    p_pow = 1
    r_pow = term
    for j in range(1, x + 1):
        coeff = coeff * (trials - j + 1) // j
        p_pow *= p
        r_pow //= r
        total += coeff * p_pow * r_pow
    lhs = total * theta.denominator
    rhs = theta.numerator * q**trials
    return lhs <= rhs


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) through log-gamma."""
    if a <= 0 or b <= 0:
        raise ValueError(f"beta function needs positive parameters, got ({a}, {b})")
    return float(gammaln(a) + gammaln(b) - gammaln(a + b))


def regularized_incomplete_beta(eps: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_eps(a, b) = B(eps; a, b) / B(a, b).

    Evaluated by ``scipy.special.betainc``.  The tests hold it to 1e-10
    absolute error against numerical quadrature, and to 1e-10 in the identity
    linking it to ``binomial_cdf`` for integer shapes below 40.

    Raises:
        ValueError: if a <= 0, b <= 0, or eps is outside [0, 1].
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if eps == 0.0:
        return 0.0
    if eps == 1.0:
        return 1.0
    return float(betainc(a, b, eps))
