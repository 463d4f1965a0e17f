"""Sample-size and discard-budget planning from support-rank bounds.

Given a stage with support-rank bound ``zeta_bar``, violation level ``eps``
and confidence budget ``theta``, the binomial tail

    Phi(zeta_bar - 1; K, eps) <= theta

is inverted for the smallest adequate sample size K (the "implicit" bound),
or approximated by closed-form Chernoff-style formulas.  With an ex-post
discard budget R the tail becomes

    C(R + zeta_bar - 1, R) * Phi(R + zeta_bar - 1; K, eps) <= theta.

``stage_sample_size`` picks the bound for one stage from a method name and a
discard budget; ``plan_multistage`` splits a total confidence budget across
stages and calls it once per stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .probkernel import binomial_cdf, log_binomial_coefficient
from .scenario_core import support_rank_linear

__all__ = [
    "StagePlan",
    "SampleSizePlan",
    "split_confidence",
    "implicit_sample_size",
    "chernoff_sample_size",
    "refined_sample_size",
    "discard_posterior_confidence",
    "implicit_sample_size_with_discarding",
    "explicit_sample_size_with_discarding",
    "max_discardable",
    "stage_sample_size",
    "plan_multistage",
]

METHODS = ("implicit", "chernoff", "refined", "implicit-discard", "explicit-discard")


def _check_domains(zeta_bar: int, eps: float, theta: float) -> None:
    if zeta_bar < 1:
        raise ValueError(f"zeta_bar must be a positive integer, got {zeta_bar}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")


def _ceil_guarded(value: float) -> int:
    # 1e-9 relative guard band so a formula value sitting an ulp above an
    # integer does not get bumped to the next one.
    return math.ceil(value - 1e-9 * max(1.0, abs(value)))


@dataclass(frozen=True)
class StagePlan:
    """Planned sampling for one stage: sizes, budgets, and the bound used."""

    stage: int
    size: int
    discard: int
    eps: float
    theta: float
    zeta_bar: int
    method: str


@dataclass(frozen=True)
class SampleSizePlan:
    """Per-stage sample sizes with the confidence split that produced them."""

    stages: tuple[StagePlan, ...]
    theta_total: float

    def __post_init__(self) -> None:
        for entry in self.stages:
            if entry.size < entry.zeta_bar + 1:
                raise ValueError(
                    f"stage {entry.stage}: size {entry.size} below zeta_bar + 1 = {entry.zeta_bar + 1}"
                )
            if not entry.discard < entry.size - entry.zeta_bar:
                raise ValueError(
                    f"stage {entry.stage}: discard {entry.discard} must stay below "
                    f"size - zeta_bar = {entry.size - entry.zeta_bar}"
                )
            if entry.method not in METHODS:
                raise ValueError(f"unknown method {entry.method!r}")
        budget = math.fsum(entry.theta for entry in self.stages)
        if budget > self.theta_total * (1.0 + 1e-12):
            raise ValueError(
                f"per-stage confidences sum to {budget}, above the total budget {self.theta_total}"
            )

    def sizes(self) -> tuple[int, ...]:
        return tuple(entry.size for entry in self.stages)

    def discards(self) -> tuple[int, ...]:
        return tuple(entry.discard for entry in self.stages)


def split_confidence(
    theta_total: float, n_stages: int, weights: tuple[float, ...] | list[float] | None = None
) -> tuple[float, ...]:
    """Split a total confidence budget over stages (evenly by default).

    With explicit ``weights`` (which must sum to 1) stage i receives
    ``theta_total * weights[i]``.
    """
    if not 0.0 < theta_total < 1.0:
        raise ValueError(f"theta_total must lie in (0, 1), got {theta_total}")
    if n_stages < 1:
        raise ValueError(f"need at least one stage, got {n_stages}")
    if weights is None:
        return tuple(theta_total / n_stages for _ in range(n_stages))
    if len(weights) != n_stages:
        raise ValueError(f"expected {n_stages} weights, got {len(weights)}")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    total = math.fsum(weights)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {total}")
    return tuple(theta_total * w for w in weights)


def _invert_monotone_tail(predicate, floor: int) -> int:
    """Smallest K >= floor with predicate(K) true, for a predicate that is
    monotone (false ... false true ... true) in K."""
    k = floor
    if predicate(k):
        return k
    hi = k
    while not predicate(hi):
        hi *= 2
    lo = hi // 2  # predicate(lo) is False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


def implicit_sample_size(zeta_bar: int, eps: float, theta: float) -> int:
    """Smallest K with Phi(zeta_bar - 1; K, eps) <= theta.

    Found by exponential bracketing followed by integer bisection, relying on
    the tail being monotonically decreasing in K.  The result is additionally
    floored at zeta_bar + 1, the smallest size for which the guarantee is
    stated at all.
    """
    _check_domains(zeta_bar, eps, theta)
    return _invert_monotone_tail(
        lambda k: binomial_cdf(zeta_bar - 1, k, eps) <= theta, zeta_bar + 1
    )


def chernoff_sample_size(zeta_bar: int, eps: float, theta: float) -> int:
    """Closed-form Chernoff bound: ceil((2/eps) * (ln(1/theta) + zeta_bar - 1))."""
    _check_domains(zeta_bar, eps, theta)
    return _ceil_guarded((2.0 / eps) * (math.log(1.0 / theta) + zeta_bar - 1))


def refined_sample_size(zeta_bar: int, eps: float, theta: float) -> int:
    """Sharper closed-form bound:

    ceil((1/eps) * (ln(1/theta) + sqrt(2 (zeta_bar-1) ln(1/theta)) + zeta_bar - 1)).
    """
    _check_domains(zeta_bar, eps, theta)
    log_term = math.log(1.0 / theta)
    value = (1.0 / eps) * (log_term + math.sqrt(2.0 * (zeta_bar - 1) * log_term) + zeta_bar - 1)
    return _ceil_guarded(value)


def discard_posterior_confidence(zeta_bar: int, trials: int, discard: int, eps: float) -> float:
    """Tail bound C(R + zeta_bar - 1, R) * Phi(R + zeta_bar - 1; K, eps).

    Computed in log space and clamped to 1.  Reduces to the plain sampling
    tail Phi(zeta_bar - 1; K, eps) at R = 0.

    Raises:
        ValueError: if K < R + zeta_bar (the budget would exhaust the sample).
    """
    if zeta_bar < 1:
        raise ValueError(f"zeta_bar must be a positive integer, got {zeta_bar}")
    if discard < 0:
        raise ValueError(f"discard count must be nonnegative, got {discard}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if trials < discard + zeta_bar:
        raise ValueError(
            f"need trials >= discard + zeta_bar, got {trials} < {discard + zeta_bar}"
        )
    tail = binomial_cdf(discard + zeta_bar - 1, trials, eps)
    if tail == 0.0:
        return 0.0
    log_value = log_binomial_coefficient(discard + zeta_bar - 1, discard) + math.log(tail)
    return min(1.0, math.exp(log_value))


def implicit_sample_size_with_discarding(
    zeta_bar: int, eps: float, theta: float, discard: int
) -> int:
    """Smallest K whose discard-adjusted tail stays within theta."""
    _check_domains(zeta_bar, eps, theta)
    if discard < 0:
        raise ValueError(f"discard count must be nonnegative, got {discard}")
    floor = zeta_bar + discard + 1
    return _invert_monotone_tail(
        lambda k: discard_posterior_confidence(zeta_bar, k, discard, eps) <= theta, floor
    )


def explicit_sample_size_with_discarding(
    zeta_bar: int, eps: float, theta: float, discard: int
) -> int:
    """Closed-form size for sampling-and-discarding:

    ceil((2/eps) ln(1/theta) + (4/eps) (R + zeta_bar - 1)).
    """
    _check_domains(zeta_bar, eps, theta)
    if discard < 0:
        raise ValueError(f"discard count must be nonnegative, got {discard}")
    value = (2.0 / eps) * math.log(1.0 / theta) + (4.0 / eps) * (discard + zeta_bar - 1)
    return _ceil_guarded(value)


def max_discardable(zeta_bar: int, trials: int, eps: float, theta: float) -> int:
    """Largest safe discard budget for a fixed sample size:

    floor(eps K - zeta_bar + 1 - sqrt(2 eps K ln((eps K)^(zeta_bar-1) / theta)))

    clamped into [0, K - zeta_bar].
    """
    _check_domains(zeta_bar, eps, theta)
    if trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    ek = eps * trials
    log_arg = (zeta_bar - 1) * math.log(ek) - math.log(theta) if ek > 0 else float("inf")
    if log_arg < 0.0:
        log_arg = 0.0
    value = ek - zeta_bar + 1 - math.sqrt(2.0 * ek * log_arg)
    r = math.floor(value + 1e-9 * max(1.0, abs(value)))
    return max(0, min(r, trials - zeta_bar))


def stage_sample_size(
    zeta_bar: int, eps: float, theta: float, discard: int, method: str
) -> tuple[int, str]:
    """Sample size for one stage, and the bound that produced it.

    ``method`` selects the bound family ("implicit", "chernoff" or "refined");
    a positive discard budget switches to the matching discard bound
    ("implicit-discard" for implicit, "explicit-discard" otherwise).  The size
    is raised where needed to zeta_bar + discard + 1, so that the plan
    invariants K >= zeta_bar + 1 and R < K - zeta_bar hold.
    """
    if method not in ("implicit", "chernoff", "refined"):
        raise ValueError(f"method must be implicit, chernoff or refined, got {method!r}")
    if discard == 0:
        bound = {
            "implicit": implicit_sample_size,
            "chernoff": chernoff_sample_size,
            "refined": refined_sample_size,
        }[method]
        size = bound(zeta_bar, eps, theta)
        used = method
    elif method == "implicit":
        size = implicit_sample_size_with_discarding(zeta_bar, eps, theta, discard)
        used = "implicit-discard"
    else:
        size = explicit_sample_size_with_discarding(zeta_bar, eps, theta, discard)
        used = "explicit-discard"
    return max(size, zeta_bar + discard + 1), used


def plan_multistage(
    program,
    theta_total: float,
    method: str = "implicit",
    discards: tuple[int, ...] | list[int] | None = None,
    weights: tuple[float, ...] | list[float] | None = None,
) -> SampleSizePlan:
    """Build a per-stage sampling plan for a scenario program.

    Each stage gets its share of ``theta_total`` and its discard budget, and
    ``stage_sample_size`` picks its bound from ``method``.  A stage that
    declares no ``zeta_bar`` is planned with the rank of its generator's row
    directions (at least 1).
    """
    n_stages = len(program.stages)
    if n_stages == 0:
        raise ValueError("program has no stages to plan for")
    if discards is None:
        discards = (0,) * n_stages
    if len(discards) != n_stages:
        raise ValueError(f"expected {n_stages} discard counts, got {len(discards)}")
    thetas = split_confidence(theta_total, n_stages, weights)

    entries = []
    for i, stage in enumerate(program.stages):
        zeta_bar = stage.zeta_bar
        if zeta_bar is None:
            zeta_bar = max(1, support_rank_linear(stage.generator.rank_rows()))
        eps = stage.eps
        r = int(discards[i])
        size, used = stage_sample_size(zeta_bar, eps, thetas[i], r, method)
        entries.append(
            StagePlan(
                stage=i, size=size, discard=r, eps=eps,
                theta=thetas[i], zeta_bar=zeta_bar, method=used,
            )
        )
    return SampleSizePlan(stages=tuple(entries), theta_total=theta_total)
