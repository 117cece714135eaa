"""``Mode.parse`` and ``_over_lcm`` against the definitions they replaced.

A ``[-]digits[/digits]`` string is read with ``int``, and an exact vector
is put over its lcm in one loop; both must give exactly what the general
definitions give, errors included.
"""

import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from poukit.errors import InputError
from poukit.scalars import EXACT, FLOAT, _over_lcm

_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def oracle_parse(mode, text):
    """``Mode.parse`` on a string before ``p/q`` was read with ``int``:
    ``("ok", type, repr)`` or ``("error", message)``."""
    try:
        if (e := _EXPONENT.search(text)) and abs(int(e[1])) > 1000:
            raise ValueError("decimal exponent beyond 1000")
        value = F(text)
        value = value if mode.exact else float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return "error", f"cannot parse scalar from {text!r}: {exc}"
    return "ok", type(value), repr(value)


def parsed(mode, text):
    try:
        value = mode.parse(text)
    except InputError as exc:
        return "error", str(exc)
    return "ok", type(value), repr(value)


MODES = [EXACT, FLOAT]
HOSTILE = [
    "1" + "0" * 400,
    "1" + "0" * 400 + "/3",
    "3/1" + "0" * 400,
    "1" * 5000,
    "1/" + "1" * 5000,
    "1" * 4000 + "/7",
    "1" * 4001 + "/7",
    "1/0", "1/00", "-0/0", "0/0",
    "-0", "-0/5", "007/010", "+1/2", " 1/2", "1/2 ", "1/2\n", "1_0/3", "٣/4", "2/-3",
    "--1", "-", "/", "1/", "/2", "", "1/2/3", "0x10", "1.5/2", "1e3/2",
]


@pytest.mark.parametrize("mode", MODES, ids=["exact", "float"])
@pytest.mark.parametrize("text", HOSTILE, ids=[repr(t)[:24] for t in HOSTILE])
def test_hostile_strings_parse_as_before(mode, text):
    assert parsed(mode, text) == oracle_parse(mode, text)


class Text(str):
    """A ``str`` subclass, which skips the plain-``str`` fast path."""


@pytest.mark.parametrize("mode", MODES, ids=["exact", "float"])
@pytest.mark.parametrize("text", HOSTILE + ["3/4", "-7", "0.75"], ids=repr)
def test_a_str_subclass_parses_as_before(mode, text):
    assert parsed(mode, Text(text)) == parsed(mode, text) == oracle_parse(mode, text)


@pytest.mark.parametrize("mode", MODES, ids=["exact", "float"])
@pytest.mark.parametrize("value", [True, False])
def test_a_boolean_is_no_scalar(mode, value):
    assert parsed(mode, value) == ("error", f"cannot parse scalar from {value!r}")


def test_float_overflow_is_an_input_error():
    """Inside ``parse``'s ``try``, an int/int overflow is the parse error it
    always was, not a bare OverflowError."""
    text = "1" + "0" * 400
    with pytest.raises(InputError, match="integer division result too large for a float"):
        FLOAT.parse(text)
    assert EXACT.parse(text) == 10**400


@st.composite
def digit_runs(draw):
    """Zero-padded short runs, or long runs around 2**1024 and around the
    4000-digit bound of the fast path and the 4300-digit int limit."""
    if draw(st.integers(0, 5)):
        return "0" * draw(st.integers(0, 3)) + str(draw(st.integers(0, 10**25)))
    length = draw(st.sampled_from([308, 309, 310, 400, 3999, 4000, 4001, 4300, 4301]))
    return draw(st.sampled_from("123456789")) + draw(st.sampled_from("0123456789")) * (length - 1)


@st.composite
def ratio_strings(draw):
    text = draw(st.sampled_from(["", "-"])) + draw(digit_runs())
    if draw(st.booleans()):
        text += "/" + draw(digit_runs())
    return text


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(ratio_strings(), st.sampled_from(MODES))
def test_ratio_strings_parse_as_fraction_does(text, mode):
    assert parsed(mode, text) == oracle_parse(mode, text)


def oracle_over_lcm(values, kinds):
    """``_over_lcm`` as two generators over ``numerator`` and ``denominator``."""
    if all(isinstance(v, kinds) for v in values):
        d = math.lcm(*(v.denominator for v in values))
        return tuple(v.numerator * (d // v.denominator) for v in values), d


SCALARS = st.one_of(
    st.integers(-10**20, 10**20),
    st.builds(F, st.integers(-10**20, 10**20), st.integers(1, 10**20)),
    st.builds(F, st.integers(-60, 60), st.integers(1, 12)),
    st.floats(allow_nan=False),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(SCALARS, max_size=6),
    st.lists(st.builds(F, st.integers(-60, 60), st.integers(1, 12)), max_size=6),
    st.lists(st.integers(-9, 9), max_size=6),
), st.sampled_from([F, (int, F)]))
def test_over_lcm_equals_the_generator_form(values, kinds):
    got, want = _over_lcm(values, kinds), oracle_over_lcm(values, kinds)
    assert got == want
    if got is not None:
        assert all(type(n) is int for n in got[0]) and type(got[1]) is int
