"""Scalar arithmetic in one of two modes: exact rationals or binary floats.

A ``Mode`` is the arithmetic context of a run, and its ``parse`` is the only
place the choice is made.  Past parsing a value's own type says which
arithmetic it is in: exact-mode bumps in dimension >= 2 are floats (square
roots), so unit-mass tests and normalizations dispatch on the type.
"""

import functools
import math
import operator
import re
from fractions import Fraction

from ._immutable import immutable
from .errors import InputError

_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")  # "1e999999999" would be 10**999999999


@immutable
class Mode:
    """A run's arithmetic: exact or float, and ``is_one``'s float tolerance."""
    exact: bool
    tol: float = 1e-9

    def parse(self, text):
        """Parse ``"p/q"``, a decimal string or a number into this mode.
        InputError for anything else, such as ``"abc"``, ``"1/0"``, a list, a
        boolean, ``NaN``, ``"1e1001"`` or, in float mode, ``"1e400"``."""
        if isinstance(text, bool) or not isinstance(text, (int, float, str, Fraction)):
            raise InputError(f"cannot parse scalar from {text!r}")
        try:
            if isinstance(text, str) and (e := _EXPONENT.search(text)) and abs(int(e[1])) > 1000:
                raise ValueError("decimal exponent beyond 1000")
            value = Fraction(text)  # Fraction accepts both "3/4" and "0.75"
            return value if self.exact else float(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"cannot parse scalar from {text!r}: {exc}") from exc

    def is_one(self, value):
        """The unit-mass test: a float within ``tol`` of 1, else exactly 1."""
        if isinstance(value, float):
            return abs(value - 1) <= self.tol
        return value == 1


EXACT = Mode(exact=True)
FLOAT = Mode(exact=False)


def format_scalar(value):
    """Serialize a scalar as a JSON-friendly string."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return repr(float(value))


def _fold_sum(values):
    """``sum(values)`` left to right from 0, as Python 3.11 computes it: from
    3.12 ``sum`` compensates float rounding, and reports would differ."""
    return functools.reduce(operator.add, values, 0)


def _over_lcm(values, kinds):
    """``(nums, d)`` with ``values[i] == nums[i] / d`` and d the lcm of the
    denominators, or None unless every value is an instance of ``kinds``."""
    if all(isinstance(v, kinds) for v in values):
        d = math.lcm(*(v.denominator for v in values))
        return tuple(v.numerator * (d // v.denominator) for v in values), d
