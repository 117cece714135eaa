import math
import sys
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
    pou_from_incidence,
)
from poukit import spaces
from poukit.errors import InputError
from poukit.sparse import SparseVec, _normalized

from generators import float_bump, float_of, make_rng, oracle_bump, product_space, random_space


@st.composite
def reflexive_relation(draw):
    """``min_open`` of a reflexive relation on 2-7 points; about half are not
    transitive."""
    points = [f"p{i}" for i in range(draw(st.integers(2, 7)))]
    return {x: {x, *draw(st.lists(st.sampled_from(points), max_size=4))} for x in points}


def oracle_transitivity_witness(points, min_open):
    """The first (x, y, z) with y in U_x and z in U_y but z not in U_x, by the
    triple loop over each set in ``repr`` order; None when the relation is
    transitive."""
    for x in sorted(points, key=repr):
        for y in sorted(min_open[x], key=repr):
            for z in sorted(min_open[y], key=repr):
                if z not in min_open[x]:
                    return x, y, z
    return None


class TestValidation:
    def test_sierpinski_valid(self):
        s = FiniteSpace({"a", "b"}, {"a": {"a", "b"}, "b": {"b"}})
        assert s.points == {"a", "b"}

    def test_discrete_valid(self):
        s = FiniteSpace.discrete({0, 1, 2})
        assert all(s.min_open[p] == {p} for p in s.points)

    def test_indiscrete_valid(self):
        s = FiniteSpace({"a", "b"}, {"a": {"a", "b"}, "b": {"a", "b"}})
        assert s.is_open({"a", "b"})

    def test_not_transitive(self):
        with pytest.raises(NotTransitive):
            FiniteSpace(
                {"a", "b", "c"},
                {"a": {"a", "c"}, "c": {"c", "b"}, "b": {"b"}},
            )

    def test_every_point_has_one_min_open(self):
        """The library checks what the loader checked: a min_open for each
        point and for no other."""
        with pytest.raises(InputError, match=r"no min_open for \['b'\]"):
            FiniteSpace({"a", "b"}, {"a": {"a"}})
        with pytest.raises(InputError, match=r"min_open for unknown points \['c'\]"):
            FiniteSpace({"a"}, {"a": {"a"}, "c": {"c"}})
        with pytest.raises(InputError, match=r"no min_open for \['b', 'c'\]"):
            FiniteSpace({"c", "a", "b"}, {"a": {"a"}, "z": {"z"}})

    def test_not_reflexive(self):
        with pytest.raises(NotReflexive):
            FiniteSpace({"a", "b"}, {"a": {"b"}, "b": {"b"}})

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(reflexive_relation())
    def test_transitivity_witness_equals_the_triple_loop(self, min_open):
        points = set(min_open)
        witness = oracle_transitivity_witness(points, min_open)
        if witness is None:
            FiniteSpace(points, min_open)
            return
        with pytest.raises(NotTransitive) as exc:
            FiniteSpace(points, min_open)
        assert (exc.value.x, exc.value.y, exc.value.z) == witness
        assert str(exc.value) == str(NotTransitive(*witness))



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
        incidence = self.m.incidence({"U": Ball((F(0),), F(7, 10))})
        assert "U" in incidence.rows[1]  # the sample 1/2
        assert incidence.normalized(1) == (SparseVec({"U": F(1)}), 0.2)  # bump 1/5

    def test_center_membership(self):
        b = Ball((F(0),), F(7, 10))
        incidence = self.m.incidence({"U": b})
        assert "U" in incidence.rows[0]  # the sample 0
        assert incidence.normalized(0) == (SparseVec({"U": F(1)}), 0.7)  # bump the radius

    def test_boundary_excluded(self):
        incidence = self.m.incidence({"U": Ball((F(0),), F(1, 2))})
        assert incidence.rows[1] == {}  # the sample 1/2

    def test_duplicate_samples_rejected(self):
        with pytest.raises(InputError, match="duplicate sample"):
            MetricSampleSpace([(F(0),), (F(0),), (F(1),)])

    def test_nonpositive_radius(self):
        with pytest.raises(InputError):
            Ball((0,), 0)

    def test_centre_of_the_wrong_dimension_rejected(self):
        with pytest.raises(InputError, match="coordinates"):
            self.m.incidence({"U": Ball((F(0), F(1)), F(1))})


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


def decided_inside(x, ball):
    """Whether the incidence of a one-sample space puts ``x`` in ``ball``."""
    return "U" in MetricSampleSpace([x], dim=len(x)).incidence({"U": ball}).rows[0]


class TestBallMembershipKernel:
    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(ball_and_point())
    def test_exact_equals_the_fraction_oracle(self, case):
        centre, r, x = case
        assert decided_inside(x, Ball(centre, r)) == oracle_inside(x, centre, r)

    def test_sphere_is_outside(self):
        for dim in (1, 2, 3):
            centre = tuple(F(-1, 3) for _ in range(dim))
            u = rational_unit(dim, F(2, 3), F(-5))
            x = tuple(c + F(5, 7) * e for c, e in zip(centre, u))
            assert not decided_inside(x, Ball(centre, F(5, 7)))
            assert decided_inside(x, Ball(centre, F(5, 7) + F(1, 10**12)))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(ball_and_point())
    def test_float_mode_equals_the_fraction_oracle_on_the_doubles(self, case):
        centre, r, x = case
        centre, r, x = tuple(map(float, centre)), float(r), tuple(map(float, x))
        assert decided_inside(x, Ball(centre, r)) == oracle_inside(x, centre, r)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_and_radii_are_rejected(self, bad):
        match = "must be ints, Fractions or finite floats"
        with pytest.raises(InputError, match=f"sample coordinates {match}, got {bad}"):
            MetricSampleSpace([(0.0, 1.0), (2.0, bad)])
        with pytest.raises(InputError, match=f"ball centre and radius {match}, got {bad}"):
            Ball((bad, 0.0), 1.0)
        with pytest.raises(InputError, match=f"ball centre and radius {match}, got {bad}"):
            Ball((0.0, 0.0), bad)

    def test_non_numbers_are_rejected(self):
        with pytest.raises(InputError, match="got '1'"):
            MetricSampleSpace([("1",)])
        with pytest.raises(InputError, match="got None"):
            Ball((0,), None)

    def test_malformed_points_are_input_errors_naming_the_point(self):
        """Points are checked before a sample is hashed or a ball read."""
        with pytest.raises(InputError, match="sample 5 is not a list of coordinates"):
            MetricSampleSpace([5])
        with pytest.raises(InputError, match="ball centre 5 is not a list of coordinates"):
            Ball(5, 1)
        with pytest.raises(InputError, match=r"got \[1\] in \(\[1\],\)"):
            MetricSampleSpace([([1],)])
        with pytest.raises(InputError, match="ball 'V' must be a Ball, got 5"):
            MetricSampleSpace([(0,)]).incidence({"V": 5})


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


@st.composite
def float_cover(draw):
    """A ``rational_cover`` read as doubles, each sample with a copy one
    step (1 ulp) up or down, or not moved, on each coordinate, so that
    pairs a rounding from a sphere are decided."""
    space, balls = draw(rational_cover())
    samples = []
    for x in space.samples:
        x = tuple(map(float, x))
        samples += [x, tuple(draw(st.sampled_from(steps(v))) for v in x)]
    balls = {a: Ball(tuple(map(float, b.center)), float(b.radius)) for a, b in balls.items()}
    return MetricSampleSpace(list(dict.fromkeys(samples)), dim=space.dim), balls


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.lists(VALUES, min_size=2, max_size=2).map(tuple), min_size=1, max_size=6,
                unique=True))
def test_samples_read_as_plain_tuples(points):
    space = MetricSampleSpace(points)
    for sample, p in zip(space.samples, points):
        assert (sample == p, hash(sample), repr(sample)) == (True, hash(p), repr(p))
    assert {p: i for i, p in enumerate(points)} == {x: i for i, x in enumerate(space.samples)}
    assert repr(space.samples) == repr(points)


def held_bumps(incidence, i):
    """The bumps at x_i as the incidence computes them: ``Fraction`` gaps
    from ``_line_row`` on an exact line row, else ``_float_bumps``."""
    line = incidence._line_row(i)
    if line is None:
        return incidence._float_bumps(i)
    gaps, d = line
    return {a: F(g, d) for a, g in gaps.items()}


def _typed(entries):
    return {a: (type(v), v) for a, v in entries.items()}


def assert_incidence(space, balls, inside, bump):
    """The incidence rows agree with the oracle ``inside(x, ball)``, and
    every pair is decided.  Each row's bumps are ``bump(x, ball)``, and it
    normalizes them as ``_normalized`` does, values and types alike, with
    the float of their sum, or InputError when every bump is 0."""
    incidence = space.incidence(balls)
    assert len(incidence.rows) == len(space.samples)
    for i, x in enumerate(space.samples):
        members = [a for a, b in balls.items() if inside(x, b)]
        assert list(incidence.rows[i]) == members
        bumps = {a: bump(x, balls[a]) for a in members}
        assert held_bumps(incidence, i) == bumps
        if not any(bumps.values()):
            if members:
                with pytest.raises(InputError, match="rounds to 0.0"):
                    incidence.normalized(i)
            continue
        want, total = _normalized(bumps)
        row, got_total = incidence.normalized(i)
        assert (_typed(row.entries), type(got_total)) == (_typed(want.entries), float)
        assert got_total == float_of(total)


def exact_inside(x, ball):
    """The Fraction oracle on the values read, floats included."""
    return oracle_inside(x, ball.center, ball.radius)


def assert_exact_incidence(space, balls):
    assert_incidence(space, balls, exact_inside, oracle_bump)


def assert_float_incidence(space, balls):
    assert_incidence(space, balls, exact_inside, float_bump)


def steps(v):
    """v and the floats one step below and above it."""
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


class TestIncidence:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(rational_cover())
    def test_exact_equals_the_fraction_oracle(self, cover):
        space, balls = cover
        assert_exact_incidence(space, balls)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(float_cover())
    def test_float_covers_equal_the_fraction_oracle_on_the_doubles(self, cover):
        space, balls = cover
        assert_float_incidence(space, balls)

    # (centre, radius) on the first axis, from tiny to near the float limit
    EDGES = [(0.3, 0.1), (1e-3, 7.1), (-2.5, 1 / 3), (1e20, 12345.678), (5e-324, 1e-320),
             (1e154, 3e146), (1.0000001e154, 2e147), (-1e150, 1e140)]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_float_keys_one_step_from_the_interval_ends(self, dim):
        for c, r in self.EDGES:
            ends = sorted(set(steps(c - r) + steps(c + r) + [c]))
            space = MetricSampleSpace([(x,) + (0.0,) * (dim - 1) for x in ends])
            balls = {"U": Ball((c,) + (0.0,) * (dim - 1), r)}
            assert_float_incidence(space, balls)
            exact = [tuple(map(F, x)) for x in space.samples]
            exact_balls = {"U": Ball(tuple(map(F, balls["U"].center)), F(r))}
            assert_exact_incidence(MetricSampleSpace(exact), exact_balls)

    # rational (centre, radius) whose float keys put an interval end past
    # the key of a sample just inside it, found by search: near 1 a relative
    # pad covers them, among subnormals only an absolute one
    TINY = F(1, 2**1074)
    ROUNDED = [(F(4285657, 653161), F(3333474013397, 653191045406)),
               (F(3266837, 95461), F(91121884441, 15911725863)),
               (TINY * F(-17, 2), TINY / 3), (TINY * F(29, 2), TINY * F(37, 5))]

    def test_exact_steps_past_the_interval_ends(self):
        """Samples a 10**-30 step inside and outside c +- r, whose float
        keys round onto the end's."""
        for c, r in [(F(c), F(r)) for c, r in self.EDGES] + self.ROUNDED:
            tiny = F(1, 10**30) * (abs(c) + r)
            samples = [(e + k * tiny,) for e in (c - r, c + r) for k in (-1, 0, 1)]
            assert_exact_incidence(MetricSampleSpace(samples), {"U": Ball((c,), r)})

    @pytest.mark.parametrize("scale", [F(10) ** 154, F(10) ** 300])
    def test_coordinates_near_the_float_limit(self, scale):
        balls = {f"U{j}": Ball((scale * (1 + F(j, 10**6)),), scale * F(3, 10**6))
                 for j in range(-3, 4)}
        samples = [(scale * (1 + F(k, 10**7)),) for k in range(-40, 41, 3)]
        space = MetricSampleSpace(samples)
        assert_exact_incidence(space, balls)
        space = MetricSampleSpace([tuple(map(float, x)) for x in samples])
        balls = {a: Ball((float(b.center[0]),), float(b.radius)) for a, b in balls.items()}
        assert_float_incidence(space, balls)

    def test_exact_coordinates_past_the_float_range(self):
        """Keys of 10**400 are infinite, and 10**-400 rounds to 0.0; both
        balls and samples, centres and radii."""
        big, tiny = 10**400, F(1, 10**400)
        balls = {
            "far": Ball((big,), 3), "far-": Ball((-big,), F(5, 2)), "huge": Ball((0,), big),
            "tiny": Ball((0,), tiny), "tiny+": Ball((tiny,), tiny), "unit": Ball((1,), 1),
        }
        samples = [(big + k,) for k in range(-4, 5)] + [(-big + k,) for k in range(-3, 4)]
        samples += [(k * tiny / 2,) for k in range(-3, 5)] + [(F(1, 2),), (F(3, 2),), (10**399,)]
        assert_exact_incidence(MetricSampleSpace(samples), balls)

    @pytest.mark.parametrize("exact", [True, False])
    def test_dimension_2_cover_spread_along_the_second_axis(self, exact):
        num = F if exact else (lambda p, q=1: p / q)
        balls = {f"U{j}": Ball((num(j % 2, 10**9), num(j, 2)), num(7, 10)) for j in range(8)}
        samples = [(num(i % 3, 10**8), num(i, 5)) for i in range(-3, 24)]
        space = MetricSampleSpace(samples)
        (assert_exact_incidence if exact else assert_float_incidence)(space, balls)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rational_samples_and_float_balls_mix(self, dim):
        """An incidence is exact only when every sample and every ball is
        rational; a mixed one has float bumps."""
        pad = (F(0),) * (dim - 1)
        samples = [(F(k, 3),) + pad for k in range(-4, 5)]
        rational = {"U": Ball((F(0),) + pad, F(1)), "V": Ball((F(2, 3),) + pad, F(1, 2))}
        floats = {a: Ball(tuple(map(float, b.center)), float(b.radius)) for a, b in rational.items()}
        assert MetricSampleSpace(samples).incidence(rational).exact
        for space, balls in [(MetricSampleSpace(samples), floats),
                             (MetricSampleSpace([tuple(map(float, x)) for x in samples]), rational)]:
            assert not space.incidence(balls).exact
            assert_float_incidence(space, balls)

    @pytest.mark.parametrize("num", [F, float])
    def test_dimension_0_puts_the_one_sample_in_every_ball(self, num):
        space = MetricSampleSpace([()])
        balls = {"U": Ball((), num(1)), "V": Ball((), num(1) / 2)}
        assert list(space.incidence(balls).rows[0]) == ["U", "V"]
        assert_incidence(space, balls, lambda x, b: True, lambda x, b: float(b.radius))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_float_radii_past_the_root_of_the_float_limit(self, dim):
        """Squares of 1e300 leave the float range; neither the integer
        decision nor, in dimension 2 and above, the bump's root does."""
        pad = (0.0,) * (dim - 1)
        space = MetricSampleSpace([(x,) + pad for x in (0.0, 5.0, -5.0, 1e200, -1e300, 1e308)])
        balls = {"U": Ball((0.0,) + pad, 1.0), "V": Ball((0.0,) + pad, 1e300),
                 "W": Ball((1e308,) + pad, 1e308)}
        incidence = space.incidence(balls)
        assert [list(row) for row in incidence.rows] == [
            ["U", "V"], ["V", "W"], ["V"], ["V", "W"], [], ["W"]]
        assert_float_incidence(space, balls)
        assert incidence._float_bumps(3)["V"] == 1e300
        assert incidence._float_bumps(5) == {"W": 1e308}

    def test_a_line_cover_decides_a_few_pairs_per_sample(self, monkeypatch):
        """2,000 samples, 400 balls: at most 3 n of the 800,000 pairs."""
        calls = []
        measure = spaces._measure

        def counted(*args):
            calls.append(args)
            return measure(*args)

        monkeypatch.setattr(spaces, "_measure", counted)
        n, k = 2000, 400
        space = MetricSampleSpace([(F(i, n),) for i in range(n)])
        balls = {f"U{j}": Ball((F(2 * j + 1, 2 * k),), F(11, 10 * k)) for j in range(k)}
        rows = space.incidence(balls).rows
        assert len(calls) <= 3 * n
        assert all(rows)


P = sys.hash_info.modulus
ANY_COORDINATE = st.one_of(
    st.integers(-10**20, 10**20),
    st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, P, -2 * P, F(P, 3), F(-5 * P, 7),
                     F(1, P), F(-3, 2 * P), F(2, P * P), 2.0**-61]),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 3).flatmap(
    lambda dim: st.lists(st.tuples(*[ANY_COORDINATE] * dim), min_size=1, max_size=6)))
def test_samples_hash_like_plain_tuples_of_any_numbers(points):
    """A sample equals and hashes like its plain tuple, with ints, Fractions
    and floats mixed, and numerators or common denominators that are
    multiples of the hash modulus; its partition row is found by the plain
    tuple."""
    points = list(dict.fromkeys(points))  # equal values hash alike: 0, 0.0 and -0.0 are one
    space = MetricSampleSpace(points)
    for sample, p in zip(space.samples, points):
        assert (sample == p, hash(sample)) == (True, hash(p))
    balls = {i: Ball(p, 1) for i, p in enumerate(points)}
    pou = pou_from_incidence(space.incidence(balls))
    for p, x in zip(points, space.samples):
        assert pou.rows[p] is pou.rows[x]


def test_duplicate_sample_found_in_one_pass():
    """8,001 samples with one repeat; the first repeat in order is named."""
    samples = [(F(i, 7),) for i in range(8000)] + [(F(1234, 7),)]
    with pytest.raises(InputError, match=r"duplicate sample \(Fraction\(1234, 7\),\)"):
        MetricSampleSpace(samples)
    with pytest.raises(InputError, match=r"duplicate sample \(2,\)"):
        MetricSampleSpace([(1,), (2,), (2,), (1,)])
