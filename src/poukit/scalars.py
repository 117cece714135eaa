"""Scalar arithmetic in two modes: exact rationals and binary floats.

Exact mode (the default everywhere verification matters) uses
``fractions.Fraction`` and never rounds.  Float mode exists for metric-ground
constructions whose values involve square roots; simplex-membership checks
then use a small additive tolerance ``TOL_SUM``.
"""

from fractions import Fraction

EXACT = "exact"
FLOAT = "float"

DEFAULT_TOL_SUM = 1e-9
TOL_SUM = DEFAULT_TOL_SUM  # set per run by the command line


def parse_scalar(text, mode=EXACT):
    """Parse ``"p/q"`` or a decimal string/number into the active mode."""
    if isinstance(text, (int, Fraction)):
        value = Fraction(text)
    elif isinstance(text, float):
        value = Fraction(text) if mode == EXACT else text
    elif isinstance(text, str):
        value = Fraction(text)  # Fraction accepts both "3/4" and "0.75"
    else:
        raise TypeError(f"cannot parse scalar from {text!r}")
    if mode == FLOAT:
        return float(value)
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
