"""Exception types shared across the package.

The CLI maps these onto process exit codes: parameter problems exit 2,
verification failures exit 3, blown resource budgets exit 4.
"""

from __future__ import annotations

import operator
import sys


class CrosspeaksError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(CrosspeaksError):
    """Invalid argument: out-of-range parameter, dimension mismatch, bad format."""


class VerificationError(CrosspeaksError):
    """An invariant that the construction guarantees was found violated."""


class BudgetExceededError(CrosspeaksError):
    """A computation would exceed a configured resource budget."""


def require_int(value, what: str, low: int | None = None,
                high: int | None = None) -> int:
    """value as a Python int, numpy's integers included.  A non-integer (a
    float, a Fraction) is a ParameterError, and so is a value under low or,
    when high is given (with low), one outside [low, high)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{what} must be an integer, not {value!r}") from None
    if high is not None:
        if not low <= value < high:
            raise ParameterError(f"{what} {value} out of range [{low}, {high})")
    elif low is not None and value < low:
        raise ParameterError(f"need {what} >= {low}, got {value}")
    return value


def require_addressable(count, width: int, what: str) -> int:
    """count through require_int, at least 0, refused as a BudgetExceededError
    when a (count, width) array of 8-byte items passes the sys.maxsize bytes
    numpy can address, where numpy raises a bare ValueError; smaller requests
    that do not fit raise MemoryError, mapped to the same exit."""
    count = require_int(count, f"{what} count", 0)
    if count * width * 8 > sys.maxsize:
        raise BudgetExceededError(
            f"{what}: a {count} x {width} array is too large to allocate")
    return count
