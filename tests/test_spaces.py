import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from poukit import (
    Ball,
    FiniteSpace,
    MetricSampleSpace,
    NotReflexive,
    NotTransitive,
    finite_interval_model,
    product_space,
    validate_space,
)
from poukit.errors import InputError
from poukit.generators import make_rng, random_space


class TestValidation:
    def test_sierpinski_valid(self):
        s = validate_space({"a", "b"}, {"a": {"a", "b"}, "b": {"b"}})
        assert s.points == {"a", "b"}

    def test_discrete_valid(self):
        s = FiniteSpace.discrete({0, 1, 2})
        assert all(s.min_open[p] == {p} for p in s.points)

    def test_indiscrete_valid(self):
        s = validate_space({"a", "b"}, {"a": {"a", "b"}, "b": {"a", "b"}})
        assert s.is_open({"a", "b"})

    def test_not_transitive(self):
        with pytest.raises(NotTransitive):
            validate_space(
                {"a", "b", "c"},
                {"a": {"a", "c"}, "c": {"c", "b"}, "b": {"b"}},
            )

    def test_not_reflexive(self):
        with pytest.raises(NotReflexive):
            validate_space({"a", "b"}, {"a": {"b"}, "b": {"b"}})


class TestOpensAndClosures:
    def setup_method(self):
        self.s = FiniteSpace.sierpinski()

    def test_open_point_open(self):
        assert self.s.is_open({"b"})

    def test_closed_point_not_open(self):
        assert not self.s.is_open({"a"})

    def test_trivial_opens(self):
        assert self.s.is_open(set()) and self.s.is_open(self.s.points)

    def test_closure_of_open_point(self):
        assert self.s.closure({"b"}) == {"a", "b"}

    def test_closure_of_closed_point(self):
        assert self.s.closure({"a"}) == {"a"}

    def test_discrete_closure_identity(self):
        d = FiniteSpace.discrete(range(4))
        assert d.closure({1, 3}) == {1, 3}

    def test_open_iff_complement_closed(self):
        rng = make_rng(7)
        for _ in range(50):
            sp = random_space(rng)
            pts = sorted(sp.points)
            sub = set(rng.sample(pts, rng.randint(0, len(pts))))
            assert sp.is_open(sub) == (sp.closure(sp.points - sub) == sp.points - sub)

    def test_kuratowski_axioms(self):
        rng = make_rng(11)
        for _ in range(50):
            sp = random_space(rng)
            pts = sorted(sp.points)
            a = set(rng.sample(pts, rng.randint(0, len(pts))))
            b = set(rng.sample(pts, rng.randint(0, len(pts))))
            ca = sp.closure(a)
            assert a <= ca
            assert sp.closure(ca) == ca
            assert sp.closure(a | b) == ca | sp.closure(b)
            assert sp.closure(set()) == frozenset()


class TestIntervalModel:
    def test_n1_minimal_opens(self):
        m = finite_interval_model(1)
        assert m.min_open["v0"] == {"v0", "e1"}
        assert m.min_open["e1"] == {"e1"}
        assert m.min_open["v1"] == {"v1", "e1"}

    def test_n2_interior_vertex(self):
        m = finite_interval_model(2)
        assert m.min_open["v1"] == {"e1", "v1", "e2"}

    def test_edge_closure_is_everything_for_n1(self):
        m = finite_interval_model(1)
        assert m.closure({"e1"}) == m.points

    def test_rejects_zero(self):
        with pytest.raises(InputError):
            finite_interval_model(0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_connected(self, n):
        m = finite_interval_model(n)
        pts = sorted(m.points)
        # brute force: no proper nonempty clopen subset
        for mask in range(1, 2 ** len(pts) - 1):
            sub = {p for i, p in enumerate(pts) if mask >> i & 1}
            assert not (m.is_open(sub) and m.is_closed(sub))


class TestProduct:
    def test_discrete_times_discrete(self):
        p = product_space(FiniteSpace.discrete({0, 1}), FiniteSpace.discrete({0, 1}))
        assert len(p.points) == 4
        assert all(p.min_open[q] == {q} for q in p.points)

    def test_sierpinski_square(self):
        s = FiniteSpace.sierpinski()
        p = product_space(s, s)
        assert p.min_open[("a", "a")] == {(x, y) for x in "ab" for y in "ab"}

    def test_identity_factor(self):
        s = FiniteSpace.sierpinski()
        p = product_space(s, FiniteSpace.discrete({0}))
        assert {x for (x, _) in p.points} == s.points
        for x in s.points:
            assert {q for (q, _) in p.min_open[(x, 0)]} == s.min_open[x]

    def test_projections_open(self):
        rng = make_rng(3)
        x, y = random_space(rng, 4), random_space(rng, 4)
        p = product_space(x, y)
        for (a, b) in p.points:
            left = {q for (q, _) in p.min_open[(a, b)]}
            assert left == x.min_open[a]


class TestMetricGround:
    def setup_method(self):
        self.m = MetricSampleSpace([(F(0),), (F(1, 2),), (F(1),)])

    def test_ball_membership(self):
        b = Ball((F(0),), F(7, 10))
        assert self.m.ball_membership(b, (F(1, 2),))
        assert self.m.dist_to_ball_complement(b, (F(1, 2),)) == F(1, 5)

    def test_center_membership(self):
        b = Ball((F(0),), F(7, 10))
        assert self.m.ball_membership(b, (F(0),))
        assert self.m.dist_to_ball_complement(b, (F(0),)) == b.radius

    def test_boundary_excluded(self):
        b = Ball((F(0),), F(1, 2))
        assert not self.m.ball_membership(b, (F(1, 2),))
        assert self.m.dist_to_ball_complement(b, (F(1, 2),)) == 0

    def test_metric_table_validated(self):
        pts = [(0,), (1,)]
        bad = {((0,), (0,)): 0, ((1,), (1,)): 0, ((0,), (1,)): 1, ((1,), (0,)): 2}
        with pytest.raises(InputError):
            MetricSampleSpace(pts, distance_table=bad)

    def test_duplicate_samples_rejected(self):
        with pytest.raises(InputError, match="duplicate sample"):
            MetricSampleSpace([(F(0),), (F(0),), (F(1),)])

    def test_nonpositive_radius(self):
        with pytest.raises(InputError):
            Ball((0,), 0)

    def test_centre_of_the_wrong_dimension_rejected(self):
        with pytest.raises(InputError, match="coordinates"):
            self.m.ball_membership(Ball((F(0), F(1)), F(1)), (F(0),))


# rationals with mixed small denominators, negative ones included; some are ints
RATIONALS = st.one_of(
    st.integers(-6, 6),
    st.builds(F, st.integers(-60, 60), st.integers(1, 12)),
)
RADII = st.builds(F, st.integers(1, 60), st.integers(1, 12))


def rational_unit(dim, a, b):
    """A rational point on the unit sphere of the given dimension, by inverse
    stereographic projection of (a, b)."""
    a, b = F(a), F(b)
    if dim == 1:
        return (F(1 if a >= 0 else -1),)
    if dim == 2:
        return (2 * a / (a * a + 1), (a * a - 1) / (a * a + 1))
    s = a * a + b * b + 1
    return (2 * a / s, 2 * b / s, (a * a + b * b - 1) / s)


@st.composite
def ball_and_point(draw):
    """A centre, a radius and a point that is random, exactly on the sphere,
    or a tiny step inside or outside it."""
    dim = draw(st.integers(1, 3))
    centre = tuple(draw(RATIONALS) for _ in range(dim))
    r = draw(RADII)
    how = draw(st.sampled_from(["random", "sphere", "inside", "outside"]))
    if how == "random":
        return centre, r, tuple(draw(RATIONALS) for _ in range(dim))
    u = rational_unit(dim, draw(RATIONALS), draw(RATIONALS))
    step = {"sphere": 0, "inside": -1, "outside": 1}[how] * F(1, 10**9)
    return centre, r, tuple(c + (r + step) * e for c, e in zip(centre, u))


def oracle_inside(x, centre, r):
    return sum((F(a) - F(b)) ** 2 for a, b in zip(x, centre)) < F(r) ** 2


class TestBallMembershipKernel:
    @settings(max_examples=400, deadline=None)
    @given(ball_and_point())
    def test_exact_equals_the_fraction_oracle(self, case):
        centre, r, x = case
        space = MetricSampleSpace([x], dim=len(x))
        assert space.ball_membership(Ball(centre, r), x) == oracle_inside(x, centre, r)

    def test_sphere_is_outside(self):
        for dim in (1, 2, 3):
            centre = tuple(F(-1, 3) for _ in range(dim))
            u = rational_unit(dim, F(2, 3), F(-5))
            x = tuple(c + F(5, 7) * e for c, e in zip(centre, u))
            space = MetricSampleSpace([x])
            assert not space.ball_membership(Ball(centre, F(5, 7)), x)
            assert space.ball_membership(Ball(centre, F(5, 7) + F(1, 10**12)), x)

    @settings(max_examples=200, deadline=None)
    @given(ball_and_point())
    def test_float_mode_compares_float_squares(self, case):
        centre, r, x = case
        centre, r, x = tuple(map(float, centre)), float(r), tuple(map(float, x))
        space = MetricSampleSpace([x])
        expected = sum((a - b) ** 2 for a, b in zip(x, centre)) < r**2
        assert space.ball_membership(Ball(centre, r), x) == expected

    @settings(max_examples=200, deadline=None)
    @given(RATIONALS, RATIONALS, RADII)
    def test_distance_table(self, c, x, r):
        # the table doubles the Euclidean metric, so it must decide, not the coordinates
        samples = [(F(c),)] if c == x else [(F(c),), (F(x),)]
        table = {(p, q): 2 * abs(p[0] - q[0]) for p in samples for q in samples}
        space = MetricSampleSpace(samples, distance_table=table)
        inside = space.ball_membership(Ball((F(c),), r), (F(x),))
        assert inside == oracle_inside((2 * x,), (2 * c,), r)

    def test_exact_mode_calls_no_dist_sq(self, monkeypatch):
        calls = []
        dist_sq = MetricSampleSpace.dist_sq

        def counted(self, p, q):
            calls.append(p)
            return dist_sq(self, p, q)

        monkeypatch.setattr(MetricSampleSpace, "dist_sq", counted)
        samples = [(F(i, 7), F(-i, 5)) for i in range(6)]
        balls = {f"U{j}": Ball((F(j, 3), F(-j, 4)), F(2, 3)) for j in range(4)}
        exact = MetricSampleSpace(samples)
        for x in samples:
            for b in balls.values():
                exact.ball_membership(b, x)
        assert calls == []
        floats = [tuple(map(float, x)) for x in samples]
        inexact = MetricSampleSpace(floats)
        for x in floats:
            for b in balls.values():
                inexact.ball_membership(Ball(tuple(map(float, b.center)), float(b.radius)), x)
        assert len(calls) == len(samples) * len(balls)


# coprime denominators near 10**12 and 2**61, where one lcm over a whole
# cover would grow with the number of balls
HUGE_DENOMINATORS = st.sampled_from([10**12 + 39, 10**12 + 61, 2**61 - 1])
HUGE = st.builds(F, st.integers(-(10**30), 10**30), HUGE_DENOMINATORS)
VALUES = st.one_of(RATIONALS, HUGE)
RADII_ANY = st.one_of(RADII, st.builds(F, st.integers(1, 10**30), HUGE_DENOMINATORS))


@st.composite
def rational_cover(draw):
    """1-4 balls in dimension 1-3 and samples that are random, on a sphere,
    or 1/10**12 inside or outside it; ints, small and huge denominators."""
    dim = draw(st.integers(1, 3))
    balls = {
        f"U{j}": Ball(tuple(draw(VALUES) for _ in range(dim)), draw(RADII_ANY))
        for j in range(draw(st.integers(1, 4)))
    }
    samples = []
    for _ in range(draw(st.integers(1, 6))):
        b = draw(st.sampled_from(list(balls.values())))
        how = draw(st.sampled_from(["random", "sphere", "inside", "outside"]))
        if how == "random":
            samples.append(tuple(draw(VALUES) for _ in range(dim)))
            continue
        u = rational_unit(dim, draw(RATIONALS), draw(RATIONALS))
        r = b.radius + {"sphere": 0, "inside": -1, "outside": 1}[how] * F(1, 10**12)
        samples.append(tuple(c + r * e for c, e in zip(b.center, u)))
    return MetricSampleSpace(list(dict.fromkeys(samples)), dim=dim), balls


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.lists(VALUES, min_size=2, max_size=2).map(tuple), min_size=1, max_size=6,
                unique=True))
def test_samples_read_as_plain_tuples(points):
    space = MetricSampleSpace(points)
    for sample, p in zip(space.samples, points):
        assert (sample == p, hash(sample), repr(sample)) == (True, hash(p), repr(p))
    assert {p: i for i, p in enumerate(points)} == {x: i for i, x in enumerate(space.samples)}
    assert repr(space.samples) == repr(points)


def oracle_bump(x, ball):
    """max(radius - d(x, centre), 0) through Fraction, as the bump was
    computed before the integer incidence."""
    if len(x) == 1:
        gap = F(ball.radius) - abs(F(x[0]) - F(ball.center[0]))
    else:
        d_sq = sum((F(a) - F(b)) ** 2 for a, b in zip(x, ball.center))
        gap = float(ball.radius) - math.sqrt(float(d_sq))
    return max(gap, 0)


def assert_incidence(space, balls, inside, bump):
    """The incidence, ``ball_membership`` and ``dist_to_ball_complement``
    agree with the oracles ``inside(x, ball)`` and ``bump(x, ball)``."""
    incidence = space.incidence(balls)
    for i, x in enumerate(space.samples):
        members = [a for a, b in balls.items() if inside(x, b)]
        assert list(incidence.rows[i]) == members
        assert incidence.bumps(i) == {a: bump(x, balls[a]) for a in members}
        for b in balls.values():
            assert space.ball_membership(b, x) == inside(x, b)
            assert space.dist_to_ball_complement(b, x) == bump(x, b)


class TestIncidence:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(rational_cover())
    def test_exact_equals_the_fraction_oracle(self, cover):
        space, balls = cover
        assert_incidence(
            space, balls, lambda x, b: oracle_inside(x, b.center, b.radius), oracle_bump)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(rational_cover())
    def test_float_covers_compare_float_squares(self, cover):
        space, balls = cover
        samples = dict.fromkeys(tuple(map(float, x)) for x in space.samples)
        space = MetricSampleSpace(list(samples), dim=space.dim)
        balls = {a: Ball(tuple(map(float, b.center)), float(b.radius)) for a, b in balls.items()}

        def bump(x, b):
            d = abs(x[0] - b.center[0]) if space.dim == 1 else math.sqrt(space.dist_sq(x, b.center))
            return max(b.radius - d, 0)

        assert_incidence(space, balls, lambda x, b: space.dist_sq(x, b.center) < b.radius**2, bump)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.lists(RATIONALS, min_size=1, max_size=6, unique=True), st.data())
    def test_distance_table_decides(self, xs, data):
        # the table doubles the Euclidean metric, so it must decide, not the coordinates
        samples = [(F(x),) for x in xs]
        table = {(p, q): 2 * abs(p[0] - q[0]) for p in samples for q in samples}
        space = MetricSampleSpace(samples, distance_table=table)
        balls = {f"U{j}": Ball(data.draw(st.sampled_from(samples)), data.draw(RADII)) for j in range(3)}
        assert_incidence(
            space, balls,
            lambda x, b: table[x, b.center] < b.radius,
            lambda x, b: max(b.radius - table[x, b.center], 0))
