import functools
import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from poukit import (
    ExtendedUnitVec,
    SparseVec,
    TailTooLarge,
    mather_eta,
    mather_lambda,
    mather_support_bound,
)
from poukit.scalars import TOL, _fold_sum
from poukit.sparse import is_unit_simplex_point

from generators import dirac, linear_combination, uniform


def vec(**kw):
    return SparseVec({k: F(v) for k, v in kw.items()})


class TestSparseVecInput:
    """A mapping or a SparseVec, and nothing else: a list of pairs could
    hold one index twice."""

    def test_zeros_not_stored(self):
        v = SparseVec({"a": F(1), "b": F(0)})
        assert "b" not in v.entries
        assert not SparseVec({"a": 0}).entries

    def test_default_is_the_zero_vector(self):
        assert SparseVec() == SparseVec({}) and not SparseVec().entries

    def test_copies_a_sparse_vec_or_its_entries(self):
        v = vec(a="1/2", b="1/2")
        assert SparseVec(v) == SparseVec(v.entries) == v

    @pytest.mark.parametrize("entries", [
        [("a", 1)], [("a", 1), ("a", -1)], iter(()), (), None, "ab",
    ], ids=["pairs", "duplicate-pairs", "empty-iterator", "empty-tuple", "none", "string"])
    def test_anything_else_is_a_type_error(self, entries):
        with pytest.raises(TypeError, match="SparseVec takes a mapping"):
            SparseVec(entries)


class TestMatherLambda:
    def test_three_coordinates(self):
        y = vec(a="2/5", b="7/20", c="1/4")
        assert mather_lambda(y) == vec(a="1/5", b="3/20", c="1/20")

    def test_tie_at_threshold_dies(self):
        y = vec(a="3/5", b="3/10", c="1/10")
        assert mather_lambda(y) == vec(a="3/10")

    def test_dirac(self):
        assert mather_lambda(dirac("a")) == vec(a="1/2")

    def test_tail_too_large(self):
        y = ExtendedUnitVec({"a": F(1, 2)}, F(1, 2), F(1, 4))
        with pytest.raises(TailTooLarge):
            mather_lambda(y)


class TestMatherEta:
    def test_three_coordinates(self):
        y = vec(a="2/5", b="7/20", c="1/4")
        assert mather_eta(y) == vec(a="1/2", b="3/8", c="1/8")

    def test_collapse_to_dirac(self):
        assert mather_eta(vec(a="3/5", b="3/10", c="1/10")) == dirac("a")

    def test_uniform_fixed_point(self):
        u = uniform("abcd")
        assert mather_eta(u) == u

    def test_dirac_fixed_point(self):
        assert mather_eta(dirac("a")) == dirac("a")


class TestSupportBound:
    def test_three_coordinates(self):
        bound, radius = mather_support_bound(vec(a="2/5", b="7/20", c="1/4"))
        assert bound == {"a", "b", "c"}
        assert radius == F(2, 5) / 6

    def test_dirac(self):
        assert mather_support_bound(dirac("a")) == ({"a"}, F(1, 6))

    def test_with_tail(self):
        y = ExtendedUnitVec({"a": F(1, 2), "b": F(3, 10)}, F(1, 5), F(1, 20))
        bound, radius = mather_support_bound(y)
        assert bound == {"a", "b"}
        assert radius == (F(1, 2) - F(2, 5)) / 6

    def test_heavy_tail_rejected(self):
        y = ExtendedUnitVec({"a": F(2, 5)}, F(3, 5), F(1, 10))
        with pytest.raises(TailTooLarge):
            mather_support_bound(y)


simplex_points = st.integers(1, 8).flatmap(
    lambda k: st.lists(st.integers(1, 50), min_size=k, max_size=k).map(
        lambda ws: SparseVec(
            {f"i{n}": F(w, sum(ws)) for n, w in enumerate(ws)}
        )
    )
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(simplex_points)
def test_eta_lands_on_simplex(y):
    eta = mather_eta(y)
    assert is_unit_simplex_point(eta)
    assert eta.carrier() <= y.carrier()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(simplex_points)
def test_survivors_strictly_exceed_half_sup(y):
    half = y.sup_norm() / 2
    lam = mather_lambda(y)
    assert lam.carrier()
    for a in lam.carrier():
        assert y[a] > half


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(simplex_points)
def test_survivor_count_bound(y):
    lam = mather_lambda(y)
    assert len(lam.carrier()) * y.sup_norm() <= 2


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(simplex_points)
def test_exact_mode_determinism(y):
    assert mather_eta(y) == mather_eta(SparseVec(dict(y.entries)))


# The pure-Fraction reference: norm1, mather_lambda and mather_eta as they
# were computed before exact vectors went on one integer denominator.
def fold(values):
    return functools.reduce(operator.add, values, 0)


def oracle_norm1(v):
    return fold(abs(x) for x in v.entries.values())


def oracle_lambda(y):
    sup = max(max((abs(v) for v in y.explicit.entries.values()), default=0), y.tail_sup)
    half = sup / 2
    if y.tail_sup >= half:
        raise TailTooLarge(f"tail_sup={y.tail_sup} >= sup/2={half}; unlisted survivors possible")
    return {k: v - half for k, v in y.explicit.entries.items() if v > half}


def oracle_eta(y):
    lam = oracle_lambda(y)
    total = fold(lam.values())
    inv = 1 / total if isinstance(total, float) else F(1) / total
    return {k: v * inv for k, v in lam.items()}


def typed(entries):
    return {k: (type(v), v) for k, v in entries.items()}


# coprime denominators near 2**61, whose lcm outgrows any machine word
NEAR_2_61 = st.sampled_from([2**61 - 1, 2**61 + 1, 2**61 - 3])
WEIGHTS = st.one_of(
    st.integers(1, 50),
    st.builds(F, st.integers(1, 10**20), NEAR_2_61),
    st.builds(F, st.integers(1, 60), st.integers(1, 12)),
)


@st.composite
def extended_vectors(draw):
    """Exact unit vectors of 1-6 listed entries, sometimes with an entry at
    exactly half the sup and sometimes with a tail; or the int Dirac."""
    if draw(st.integers(0, 9)) == 0:
        return ExtendedUnitVec({"i0": 1})
    ws = [F(w) for w in draw(st.lists(WEIGHTS, min_size=1, max_size=6))]
    if draw(st.booleans()):
        ws.append(max(ws) / 2)  # a tie at sup/2, dropped by the clip
    tail = F(draw(st.sampled_from([0, 0, 1, 3]))) * max(ws)
    total = sum(ws) + tail
    tail_sup = tail / total * F(draw(st.integers(0, 4)), 4)
    return ExtendedUnitVec({f"i{n}": w / total for n, w in enumerate(ws)}, tail / total, tail_sup)


class TestIntegerPathsAgainstFractions:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.one_of(WEIGHTS, WEIGHTS.map(operator.neg), st.floats(-9, 9)), max_size=6))
    def test_norm1(self, values):
        v = SparseVec({f"i{n}": x for n, x in enumerate(values)})
        norm = v.norm1()
        assert (type(norm), norm) == (type(oracle_norm1(v)), oracle_norm1(v))

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(extended_vectors())
    def test_lambda_and_eta(self, y):
        try:
            lam, eta = oracle_lambda(y), oracle_eta(y)
        except TailTooLarge as exc:
            for shrink in (mather_lambda, mather_eta):
                with pytest.raises(TailTooLarge) as raised:
                    shrink(y)
                assert str(raised.value) == str(exc)
            return
        assert typed(mather_lambda(y).entries) == typed(lam)
        assert typed(mather_eta(y).entries) == typed(eta)
        if y.tail_mass == 0:
            assert typed(mather_eta(y.explicit).entries) == typed(eta)

    def test_ints_keep_their_float_result(self):
        assert typed(mather_eta(SparseVec({"a": 1})).entries) == {"a": (float, 1.0)}
        assert typed(SparseVec({"a": 2, "b": -1}).entries) == {"a": (int, 2), "b": (int, -1)}
        assert type(SparseVec({"a": 2, "b": -1}).norm1()) is int

    def test_tie_at_half_sup_is_dropped(self):
        y = vec(a=F(1, 2), b=F(1, 4), c=F(1, 4))
        assert mather_eta(y) == SparseVec({"a": F(1)})

    def test_fold_is_left_to_right(self):
        # Python 3.12's compensated sum() gives 1.0
        assert _fold_sum([0.1] * 10) == 0.9999999999999999
        assert SparseVec({f"i{n}": 0.1 for n in range(10)}).norm1() == 0.9999999999999999


def oracle_is_unit_simplex_point(v):
    """``is_unit_simplex_point`` as positivity and a left-to-right l1 mass
    within ``TOL`` of 1 when it is a float, else equal to 1."""
    if not v.entries or any(x <= 0 for x in v.entries.values()):
        return False
    mass = oracle_norm1(v)
    return abs(mass - 1) <= TOL if isinstance(mass, float) else mass == 1


@st.composite
def rows(draw):
    """Rows of Fraction, int, float or mixed entries: near the simplex
    (exact, or one numerator over the lcm off by one, or a float within and
    beyond the tolerance), or arbitrary, with zero and negative entries."""
    kind = draw(st.sampled_from(["fractions", "off", "floats", "mixed", "any"]))
    if kind == "any":
        entries = draw(st.lists(st.one_of(
            st.integers(-2, 2), st.builds(F, st.integers(-6, 6), st.integers(1, 6)),
            st.floats(-2, 2)), max_size=5))
    else:
        ws = draw(st.lists(st.integers(1, 50), min_size=1, max_size=6))
        entries = [F(w, sum(ws)) for w in ws]
        if kind == "off":
            d = sum(ws)
            entries[0] += F(draw(st.sampled_from([-1, 1])), d)
        elif kind == "floats":
            entries = [float(w) for w in entries]
            entries[0] += draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-6, -1e-6]))
        elif kind == "mixed":
            entries[0] = float(entries[0])
    # zeros are not stored by SparseVec; _of_nonzero stores them anyway
    build = SparseVec._of_nonzero if draw(st.booleans()) else SparseVec
    return build({f"i{n}": x for n, x in enumerate(entries)})


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(rows())
def test_is_unit_simplex_point_equals_the_mass_definition(v):
    assert is_unit_simplex_point(v) is oracle_is_unit_simplex_point(v)


def test_int_dirac_and_empty_rows():
    assert is_unit_simplex_point(SparseVec({"a": 1}))
    assert not is_unit_simplex_point(SparseVec())
    assert not is_unit_simplex_point(SparseVec._of_nonzero({"a": F(1), "b": F(0)}))
    assert not is_unit_simplex_point(SparseVec({"a": F(3, 2), "b": F(-1, 2)}))


def unchecked(explicit, tail_mass, tail_sup):
    """An ``ExtendedUnitVec`` of any mass, which the transforms do not read."""
    y = ExtendedUnitVec._of_checked(explicit)
    object.__setattr__(y, "tail_mass", tail_mass)
    object.__setattr__(y, "tail_sup", tail_sup)
    return y


def old_float_eta(y):
    """The float branch of ``mather_eta`` as ``mather_lambda``, its l1 norm
    and a scaling."""
    lam = mather_lambda(y)
    total = lam.norm1()
    return linear_combination((1 / total if isinstance(total, float) else F(1) / total, lam))


def entry_reprs(v):
    return [(k, type(x), repr(x)) for k, x in v.entries.items()]


# a Fraction clip of 10**-400 that meets a float total becomes 0.0
TINY = F(1, 10**400)
ETA_ENTRIES = st.one_of(
    st.floats(2**-1074, 8),
    st.integers(1, 8),
    st.builds(F, st.integers(1, 60), st.integers(1, 12)),
    st.builds(lambda q: F(1, 4) + TINY * q, st.integers(0, 2)),
)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.lists(ETA_ENTRIES, min_size=1, max_size=6), st.sampled_from([0.0, 0.0, 0.25, 1.0]),
       st.sampled_from([0, 1, 2, 4]))
def test_float_eta_equals_the_scaled_lambda(entries, tail_mass, tail_quarters):
    """The float branch, and the exact one that all-Fraction rows take,
    against the scaled ``mather_lambda``: the same values, by ``repr``, in
    the same order, with an entry whose product rounds to 0.0 dropped."""
    explicit = SparseVec({f"i{n}": x for n, x in enumerate(entries)})
    if tail_mass:
        tail_sup = tail_mass * tail_quarters / 4
        y = unchecked(explicit, tail_mass, tail_sup)
    else:
        y = ExtendedUnitVec._of_checked(explicit)
    try:
        want = old_float_eta(y)
    except TailTooLarge as exc:
        with pytest.raises(TailTooLarge) as raised:
            mather_eta(y)
        assert str(raised.value) == str(exc)
        return
    assert entry_reprs(mather_eta(y)) == entry_reprs(want)


def test_a_clip_that_rounds_to_zero_is_dropped():
    y = ExtendedUnitVec._of_checked(
        SparseVec({"a": F(1, 2), "b": F(1, 4) + TINY, "c": 0.25000000000000006}))
    eta = mather_eta(y)
    assert list(eta.entries) == ["a", "c"] and entry_reprs(eta) == entry_reprs(old_float_eta(y))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(extended_vectors(), st.lists(ETA_ENTRIES, min_size=1, max_size=6).map(
    lambda xs: ExtendedUnitVec._of_checked(SparseVec({f"i{n}": x for n, x in enumerate(xs)})))))
def test_lambda_keeps_the_clipped_entries_in_order(y):
    """``mather_lambda`` builds its dict directly: each clip ``v - sup/2``
    over the kept entries, by type and ``repr``, in the input's order."""
    try:
        want = oracle_lambda(y)
    except TailTooLarge:
        return
    assert entry_reprs(mather_lambda(y)) == [(k, type(x), repr(x)) for k, x in want.items()]
