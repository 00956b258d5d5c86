"""Chi-squared test of independence.

The paper's sole statistical instrument (Tables 5-7).  Implemented from
first principles -- expected counts from the margins, the chi-squared
statistic, and a p-value via the regularized upper incomplete gamma
function -- and cross-checked against scipy in the test suite.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

SIGNIFICANCE = 0.05


@dataclass(frozen=True)
class ChiSquaredResult:
    chi2: float
    p_value: float
    dof: int

    def rejects_null(self) -> bool:
        return self.p_value < SIGNIFICANCE


def _lower_gamma_series(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x), series expansion.

    Converges quickly for x < s + 1.
    """
    if x <= 0:
        return 0.0
    term = 1.0 / s
    total = term
    k = s
    for _ in range(500):
        k += 1.0
        term *= x / k
        total += term
        if term < total * 1e-15:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _upper_gamma_cf(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x), continued fraction.

    Converges quickly for x >= s + 1 (Lentz's algorithm).
    """
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def chi2_sf(x: float, dof: int) -> float:
    """Survival function of the chi-squared distribution."""
    if x < 0:
        raise ValueError("chi-squared statistic cannot be negative")
    if dof <= 0:
        raise ValueError("degrees of freedom must be positive")
    if x == 0:
        return 1.0
    s = dof / 2.0
    half_x = x / 2.0
    if half_x < s + 1.0:
        return max(0.0, min(1.0, 1.0 - _lower_gamma_series(s, half_x)))
    return max(0.0, min(1.0, _upper_gamma_cf(s, half_x)))


def chi_squared_independence(table: Sequence[Sequence[float]]) -> ChiSquaredResult:
    """Pearson's chi-squared test of independence on an r x c table."""
    rows = len(table)
    if rows < 2:
        raise ValueError("need at least two rows")
    cols = len(table[0])
    if cols < 2 or any(len(row) != cols for row in table):
        raise ValueError("table must be rectangular with >= 2 columns")
    if any(cell < 0 for row in table for cell in row):
        raise ValueError("counts cannot be negative")
    row_totals = [sum(row) for row in table]
    col_totals = [sum(table[r][c] for r in range(rows)) for c in range(cols)]
    grand = sum(row_totals)
    if grand == 0:
        raise ValueError("empty table")
    if any(total == 0 for total in row_totals + col_totals):
        raise ValueError("table has an empty margin")
    chi2 = 0.0
    for r in range(rows):
        for c in range(cols):
            expected = row_totals[r] * col_totals[c] / grand
            chi2 += (table[r][c] - expected) ** 2 / expected
    dof = (rows - 1) * (cols - 1)
    return ChiSquaredResult(chi2=chi2, p_value=chi2_sf(chi2, dof), dof=dof)


def two_by_two(group_yes: int, group_no: int,
               baseline_yes: int, baseline_no: int) -> ChiSquaredResult:
    """The paper's group-vs-baseline 2x2 layout."""
    return chi_squared_independence([
        [group_yes, group_no],
        [baseline_yes, baseline_no],
    ])


def safe_two_by_two(group_yes: int, group_no: int,
                    baseline_yes: int, baseline_no: int) -> ChiSquaredResult:
    """Like :func:`two_by_two`, but degenerate tables (an empty row or
    column margin, under which the test is undefined) yield the null
    result chi2=0, p=1 instead of raising.  Comparison pipelines use
    this so a tiny group cannot crash a whole report."""
    try:
        return two_by_two(group_yes, group_no, baseline_yes, baseline_no)
    except ValueError:
        return ChiSquaredResult(chi2=0.0, p_value=1.0, dof=1)


def wilson_interval(successes: int, total: int,
                    confidence: float = 0.95) -> "Tuple[float, float]":
    """Wilson score interval for a binomial proportion.

    Used when reporting the group fractions of Tables 5-7: small groups
    (e.g. 27 HangMyAds apps) deserve an honest uncertainty band.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= successes <= total:
        raise ValueError("successes out of range")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence out of (0, 1)")
    # Normal quantile via inverse error function (Winitzki approximation
    # refined with one Newton step against the normal CDF).
    z = _normal_quantile(0.5 + confidence / 2.0)
    p = successes / total
    denominator = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denominator
    margin = (z * math.sqrt(p * (1 - p) / total
                            + z * z / (4 * total * total)) / denominator)
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == total else min(1.0, center + margin)
    return (low, high)


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (bisection; plenty for reporting)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p out of (0, 1)")
    low, high = -10.0, 10.0
    for _ in range(200):
        mid = (low + high) / 2.0
        if _normal_cdf(mid) < p:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def empirical_cdf(values: Sequence[float],
                  points: Sequence[float]) -> List[float]:
    """P(X <= p) for each p in ``points`` (one sort + binary searches,
    not a rescan of the sample per point)."""
    if not values:
        raise ValueError("empty sample")
    ordered = sorted(values)
    n = len(ordered)
    return [bisect.bisect_right(ordered, point) / n for point in points]
