"""Exception types shared across the library.

Every numerical failure carries the name of the module that produced it so
front ends (CLI, services) can report the failing stage without parsing
messages.  What does not stop a computation is a coded record on its result.
"""

from __future__ import annotations


class AsianLnsError(Exception):
    """Base class for all library errors."""


class ValidationError(AsianLnsError, ValueError):
    """Invalid user input (parameter domain violations, mismatched shapes)."""

    def __init__(self, message: str, module: str = ""):
        super().__init__(message)
        self.module = module


class NumericalError(AsianLnsError, ArithmeticError):
    """A computation failed for numerical reasons (overflow, conditioning)."""

    def __init__(self, message: str, module: str = ""):
        super().__init__(message)
        self.module = module


class MomentOverflowError(NumericalError):
    """Raw moments exceeded the double-precision range.

    The scaled (relative-moment) path should be used instead for large
    degrees or high volatility.
    """

