"""Scalar arithmetic in two modes: exact rationals and binary floats.

Exact mode (the default everywhere verification matters) uses
``fractions.Fraction`` and never rounds.  Float mode exists for metric-ground
constructions whose values involve square roots; simplex-membership checks
then use a small additive tolerance ``TOL_SUM``.
"""

import math
from fractions import Fraction

from .errors import InputError

EXACT = "exact"
FLOAT = "float"

DEFAULT_TOL_SUM = 1e-9
TOL_SUM = DEFAULT_TOL_SUM  # set per run by the command line


def parse_scalar(text, mode=EXACT):
    """Parse ``"p/q"`` or a decimal string/number into the active mode.

    Raises InputError for anything that is not a finite rational or decimal,
    such as ``"abc"``, ``"1/0"``, a list, a boolean or a JSON ``NaN``.
    """
    if isinstance(text, bool) or not isinstance(text, (int, float, str, Fraction)):
        raise InputError(f"cannot parse scalar from {text!r}")
    try:
        if isinstance(text, float) and mode == FLOAT:
            value = text
        else:
            value = Fraction(text)  # Fraction accepts both "3/4" and "0.75"
        if mode == FLOAT:
            value = float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"cannot parse scalar from {text!r}: {exc}") from exc
    if mode == FLOAT and not math.isfinite(value):
        raise InputError(f"scalar {text!r} is not finite")
    return value


def format_scalar(value):
    """Serialize a scalar as a JSON-friendly string."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return repr(float(value))


def is_one(value, mode=EXACT):
    if mode == FLOAT or isinstance(value, float):
        return abs(value - 1) <= TOL_SUM
    return value == 1
