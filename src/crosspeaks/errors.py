"""Exception types shared across the package.

The CLI maps these onto process exit codes: parameter problems exit 2,
verification failures exit 3, blown resource budgets exit 4.
"""

from __future__ import annotations

import sys


class CrosspeaksError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(CrosspeaksError):
    """Invalid argument: out-of-range parameter, dimension mismatch, bad format."""


class VerificationError(CrosspeaksError):
    """An invariant that the construction guarantees was found violated."""


class BudgetExceededError(CrosspeaksError):
    """A computation would exceed a configured resource budget."""


def require_addressable(count: int, width: int, what: str) -> None:
    """Refuse a negative count as a ParameterError, and a (count, width)
    array of 8-byte items past the sys.maxsize bytes numpy can address, where
    numpy raises a bare ValueError; smaller requests that do not fit raise
    MemoryError, mapped to the same exit."""
    if count < 0:
        raise ParameterError(f"{what}: count {count} must be >= 0")
    if count * width * 8 > sys.maxsize:
        raise BudgetExceededError(
            f"{what}: a {count} x {width} array is too large to allocate")
