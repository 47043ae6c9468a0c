"""Welch's unequal-variance t-test with a self-contained Student-t tail.

The two-sided p-value comes from the regularized incomplete beta function

    p = I_x(df / 2, 1 / 2),   x = df / (df + t^2),

evaluated with the standard continued-fraction expansion (modified Lentz
iteration).  Accuracy is ~1e-10 over the df/t ranges that matter here,
which is far tighter than the 1e-3 the report needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_MAX_ITER = 300
_TINY = 1e-300
_EPS = 3e-16


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta failed to converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"a and b must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the expansion on whichever side converges fast, mirror the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for T ~ Student-t with ``df`` degrees of freedom."""
    if df <= 0.0:
        raise ValueError(f"df must be positive, got {df}")
    if math.isinf(t):
        return 0.0
    if math.isnan(t):
        raise ValueError("t statistic is NaN")
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


@dataclass(frozen=True)
class WelchResult:
    t: float
    df: float
    p: float  # two-sided


def _sample_stats(values) -> tuple[int, float, float]:
    xs = [float(v) for v in values]
    n = len(xs)
    if n < 2:
        raise ValueError(f"welch test needs at least 2 samples per group, got {n}")
    mean = math.fsum(xs) / n
    var = math.fsum((v - mean) ** 2 for v in xs) / (n - 1)
    return n, mean, var


def welch_t_test(a, b) -> WelchResult:
    """Unequal-variance t-test between two samples.

    Degenerate cases: both groups constant and equal means gives
    (t=0, p=1); both constant with different means gives a signed
    infinite t and p=0.
    """
    na, mean_a, var_a = _sample_stats(a)
    nb, mean_b, var_b = _sample_stats(b)
    diff = mean_a - mean_b
    if var_a == 0.0 and var_b == 0.0:
        if diff == 0.0:
            return WelchResult(t=0.0, df=float(na + nb - 2), p=1.0)
        return WelchResult(t=math.copysign(math.inf, diff), df=float(na + nb - 2), p=0.0)
    sa = var_a / na
    sb = var_b / nb
    t = diff / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (na - 1) + sb**2 / (nb - 1))
    return WelchResult(t=t, df=df, p=student_t_two_sided_p(t, df))


def welch_one_sided_p(a, b) -> float:
    """p-value for the alternative mean(a) < mean(b)."""
    res = welch_t_test(a, b)
    if res.t < 0.0:
        return res.p / 2.0
    if res.t > 0.0:
        return 1.0 - res.p / 2.0
    return 0.5


def significance_stars(p: float) -> str:
    """'***' below 0.001, '**' below 0.01, '*' below 0.05, else '' —
    all strict, so p exactly 0.05 earns no star."""
    if math.isnan(p):
        return ""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""
