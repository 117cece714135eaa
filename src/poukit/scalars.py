"""Scalar arithmetic in one of two modes: exact rationals or binary floats.

A ``Mode`` is the arithmetic context of a run, and its ``parse`` is the only
place the choice is made.  Past parsing a value's own type says which
arithmetic it is in: exact-mode bumps in dimension >= 2 are floats (square
roots), so the unit-mass test and normalizations dispatch on the type.
"""

import functools
import math
import operator
import re
from fractions import Fraction

from ._immutable import immutable
from .errors import InputError

_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")  # "1e999999999" would be 10**999999999
# ASCII digits only, and few enough that int() stays below every Python's
# default digit limit (4300); any other string takes Fraction's own parser
_RATIO = re.compile(r"(-?[0-9]{1,4000})(?:/([0-9]{1,4000}))?")

TOL = 1e-9  # how far from 1 the l1 mass of a float row may be


def is_one(value):
    """The unit-mass test: a float within ``TOL`` of 1, else exactly 1."""
    if isinstance(value, float):
        return abs(value - 1) <= TOL
    return value == 1


@immutable
class Mode:
    """A run's arithmetic: exact or float."""
    exact: bool

    def parse(self, text):
        """Parse ``"p/q"``, a decimal string or a number into this mode.
        InputError for anything else, such as ``"abc"``, ``"1/0"``, a list, a
        boolean, ``NaN``, ``"1e1001"`` or, in float mode, ``"1e400"``.

        A plain ``str`` of the form ``[-]digits[/digits]`` with a nonzero
        denominator, what JSON inputs mostly hold, is tried first and read
        with ``int``: ``Fraction(n, d)``, or the correctly rounded ``n / d``,
        which is ``float(Fraction(text))``; its value and its errors are
        those of the general path, which reads everything else."""
        try:
            if type(text) is str and (m := _RATIO.fullmatch(text)) and (d := int(m[2] or 1)):
                n = int(m[1])
                return Fraction(n, d) if self.exact else n / d
            if isinstance(text, bool) or not isinstance(text, (int, float, str, Fraction)):
                raise InputError(f"cannot parse scalar from {text!r}")
            if isinstance(text, str) and (e := _EXPONENT.search(text)) and abs(int(e[1])) > 1000:
                raise ValueError("decimal exponent beyond 1000")
            value = Fraction(text)  # Fraction accepts both "3/4" and "0.75"
            return value if self.exact else float(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"cannot parse scalar from {text!r}: {exc}") from exc


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
    denominators, or None unless every value is an instance of ``kinds``
    (each an int, a Fraction or a finite float: ``as_integer_ratio`` reads
    it exactly, in lowest terms)."""
    ratios = []
    for v in values:
        if not isinstance(v, kinds):
            return None
        ratios.append(v.as_integer_ratio())
    d = math.lcm(*[q for _, q in ratios])
    return tuple([n * (d // q) for n, q in ratios]), d
