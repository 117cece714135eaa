import functools
import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from poukit import (
    ExtendedUnitVec,
    SparseVec,
    TailTooLarge,
    carrier,
    convex_combination,
    mather_eta,
    mather_lambda,
    mather_support_bound,
    norms,
)
from poukit.scalars import _fold_sum
from poukit.sparse import dirac, is_unit_simplex_point, uniform


def vec(**kw):
    return SparseVec({k: F(v) for k, v in kw.items()})


class TestCarrierAndNorms:
    def test_dirac_carrier(self):
        assert carrier(dirac("a")) == {"a"}

    def test_two_point_carrier(self):
        assert carrier(vec(a="1/2", c="1/2")) == {"a", "c"}

    def test_empty_carrier(self):
        assert carrier(SparseVec()) == frozenset()

    def test_norms_simplex(self):
        assert norms(vec(a="1/2", b="1/4", c="1/4")) == (1, F(1, 2))

    def test_norms_dirac(self):
        assert norms(dirac("a")) == (1, 1)

    def test_norms_signed(self):
        assert norms(vec(a="-3/10", b="7/10")) == (1, F(7, 10))

    def test_zeros_not_stored(self):
        v = SparseVec({"a": F(1), "b": F(0)})
        assert "b" not in v.entries


class TestConvexCombination:
    def test_dirac_weight_is_identity(self):
        pts = {"a": vec(x="1/3", y="2/3"), "b": dirac("z")}
        assert convex_combination(dirac("a"), pts) == pts["a"]

    def test_two_diracs(self):
        w = vec(a="1/2", b="1/2")
        out = convex_combination(w, {"a": dirac("x"), "b": dirac("y")})
        assert out == vec(x="1/2", y="1/2")

    def test_cancellation(self):
        w = vec(a="1/4", b="3/4")
        out = convex_combination(w, {"a": vec(x=1), "b": vec(x=-1)})
        assert out == vec(x="-1/2")

    def test_missing_point(self):
        with pytest.raises(KeyError):
            convex_combination(dirac("a"), {})


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


@given(simplex_points)
def test_eta_lands_on_simplex(y):
    eta = mather_eta(y)
    assert is_unit_simplex_point(eta)
    assert eta.carrier() <= y.carrier()


@given(simplex_points)
def test_survivors_strictly_exceed_half_sup(y):
    half = y.sup_norm() / 2
    lam = mather_lambda(y)
    assert lam.carrier()
    for a in lam.carrier():
        assert y[a] > half


@given(simplex_points)
def test_survivor_count_bound(y):
    lam = mather_lambda(y)
    assert len(lam.carrier()) * y.sup_norm() <= 2


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
        v = SparseVec((f"i{n}", x) for n, x in enumerate(values))
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
