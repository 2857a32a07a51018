"""Exact-rational helpers: certified bounds for e^-x, exact determinants.

Everything here returns Fractions (or ints) with a guaranteed direction of
error, so callers can decide strict inequalities involving transcendental
quantities without trusting floating point.  Every such comparison refines
along one policy, the e^-x brackets of exp_neg_brackets.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import ParameterError, require_int


def exp_neg_bounds(x: Fraction, terms: int = 32) -> tuple[Fraction, Fraction]:
    """Rational bounds (lo, hi) with lo <= e^-x <= hi, for rational x >= 0.

    Uses the alternating Taylor series, whose partial sums bracket the limit
    once the term magnitudes decrease; x > 1 is reduced by squaring
    e^-x = (e^-(x/2))^2.
    """
    x, terms = Fraction(x), require_int(terms, "terms", 1)
    if x < 0:
        raise ParameterError("exp_neg_bounds requires x >= 0")
    if x == 0:
        one = Fraction(1)
        return one, one
    if x > 1:
        lo, hi = exp_neg_bounds(x / 2, terms)
        return lo * lo, hi * hi
    # Terms t_i = (-x)^i / i! do not grow in magnitude for 0 < x <= 1, so the
    # partial sums alternate around the limit, starting from hi = 1.
    term = Fraction(1)
    total = Fraction(1)
    lo = hi = total
    for i in range(1, terms + 1):
        term = term * -x / i
        total += term
        if term < 0:
            lo = total
        else:
            hi = total
    return lo, hi


def exp_neg_brackets(x: Fraction):
    """exp_neg_bounds(x, t) for t = 32, 64, 128, ... without end.  For rational
    x != 0, e^-x is irrational, so some bracket settles every strict
    comparison with a rational: the one refinement policy against e^-x."""
    return (exp_neg_bounds(x, 32 << i) for i in itertools.count())


def compare_exp_neg(x: Fraction, value: Fraction) -> int:
    """Sign of (e^-x - value), decided exactly by the first bracket that
    excludes value.  Returns -1, 0 or +1; 0 only for x == 0 with value == 1."""
    x = Fraction(x)
    value = Fraction(value)
    if x == 0:
        return (1 > value) - (1 < value)
    for lo, hi in exp_neg_brackets(x):
        if lo > value:
            return 1
        if hi < value:
            return -1


def ceil_fraction(x: Fraction) -> int:
    """Exact ceiling of a rational."""
    return -((-x.numerator) // x.denominator)


def binomial_ball_size(q: int, n: int, r: int) -> int:
    """Number of words within Hamming distance r of a fixed word of length n
    over an alphabet of size q: sum_{i=0}^{r} C(n, i) (q-1)^i, exactly.

    Runs in O(r) big-integer steps via the ratio recurrence, so it stays
    usable for n far beyond what per-term math.comb calls would allow.
    Non-integer q, n or r, q < 2 and n < 0 raise ParameterError.
    """
    q, n = require_int(q, "alphabet size", 2), require_int(n, "length", 0)
    r = min(require_int(r, "radius"), n)
    if r < 0:
        return 0
    term = 1  # C(n, 0) (q-1)^0
    total = 1
    for i in range(r):
        term = term * (n - i) * (q - 1) // (i + 1)
        total += term
    return total


def simplex_volume(vertices: list[list[Fraction]]) -> Fraction:
    """Exact volume of the simplex spanned by n+1 points in R^n.

    vol = |det(v_1 - v_0, ..., v_n - v_0)| / n!, with the determinant done by
    fraction-free-enough Gaussian elimination over Fractions.
    """
    m = len(vertices) - 1
    if m < 1 or any(len(v) != m for v in vertices):
        raise ParameterError("simplex_volume needs n+1 points of dimension n")
    rows = [[Fraction(vertices[i + 1][j]) - Fraction(vertices[0][j]) for j in range(m)]
            for i in range(m)]
    det = Fraction(1)
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, m):
            factor = rows[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, m):
                rows[r][c] -= factor * rows[col][c]
    fact = 1
    for i in range(2, m + 1):
        fact *= i
    return abs(det) / fact
