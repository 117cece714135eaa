"""Finite Alexandrov spaces and finite metric sample spaces.

A finite Alexandrov space is given by the minimal open neighborhood of each
point (equivalently, a preorder: y in min_open(x) means x specializes to y).
Opens are exactly the unions of minimal opens, so all topological queries are
exact set computations.

A metric sample space is a finite list of coordinate points with the
Euclidean metric (or an explicit distance table); it is the desk-scale ground
for ball covers and bump constructions.  Its ``incidence`` decides which
balls contain each sample, once per pair; covers and bumps all read it.
Each sample is hashed once, and equals and hashes like its plain tuple.
"""

import math
from fractions import Fraction

from ._immutable import immutable
from .errors import InputError, NotReflexive, NotTransitive
from .scalars import _fold_sum, _over_lcm

TOL_METRIC = 1e-9
_RATIONAL = (int, Fraction)


class _Sample(tuple):
    """A tuple that hashes once: a tuple hashes its Fractions on every lookup."""

    def __new__(cls, coords):
        self = tuple.__new__(cls, coords)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


@immutable
class FiniteSpace:
    """Validated finite Alexandrov space.  Use :func:`validate_space` or the
    named constructors; direct construction skips no checks."""

    points: frozenset
    min_open: dict

    def __post_init__(self):
        object.__setattr__(self, "points", frozenset(self.points))
        object.__setattr__(self, "min_open", {p: frozenset(self.min_open[p]) for p in self.points})
        for p, nbhd in self.min_open.items():
            if not nbhd <= self.points:
                raise InputError(f"min_open({p!r}) leaves the point set")
            if p not in nbhd:
                raise NotReflexive(p)
        for x in self.points:
            for y in self.min_open[x]:
                for z in self.min_open[y]:
                    if z not in self.min_open[x]:
                        raise NotTransitive(x, y, z)

    def __hash__(self):
        return hash((self.points, frozenset(self.min_open.items())))

    def __repr__(self):
        return f"FiniteSpace({sorted(self.points, key=repr)!r})"

    def _check_subset(self, s):
        s = frozenset(s)
        if not s <= self.points:
            raise InputError(f"unknown points {sorted(s - self.points, key=repr)}")
        return s

    def is_open(self, s):
        s = self._check_subset(s)
        return all(self.min_open[x] <= s for x in s)

    def is_closed(self, s):
        return self.is_open(self.points - self._check_subset(s))

    def closure(self, s):
        """Smallest closed superset: points whose every neighborhood meets s,
        i.e. whose minimal open meets s."""
        s = self._check_subset(s)
        return frozenset(x for x in self.points if self.min_open[x] & s)

    def interior(self, s):
        s = self._check_subset(s)
        return frozenset(x for x in s if self.min_open[x] <= s)

    @classmethod
    def discrete(cls, points):
        """Every point open: nothing to check."""
        min_open = {p: frozenset((p,)) for p in points}
        space = object.__new__(cls)
        object.__setattr__(space, "points", frozenset(min_open))  # reuses the dict's hashes
        object.__setattr__(space, "min_open", min_open)
        return space

    @classmethod
    def indiscrete(cls, points):
        pts = set(points)
        return cls(pts, {p: pts for p in pts})

    @classmethod
    def sierpinski(cls, open_point="b", closed_point="a"):
        """Two points; {open_point} is open, the other is not."""
        return cls(
            {open_point, closed_point},
            {closed_point: {closed_point, open_point}, open_point: {open_point}},
        )


def validate_space(points, min_open):
    """Build a space, raising NotReflexive / NotTransitive with witnesses."""
    return FiniteSpace(points, min_open)


def finite_interval_model(n):
    """Finite weak-homotopy model of the unit interval with n edges:
    vertices v0..vn (closed points) and open edge points e1..en."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    points = [f"v{i}" for i in range(n + 1)] + [f"e{i}" for i in range(1, n + 1)]
    min_open = {f"e{i}": {f"e{i}"} for i in range(1, n + 1)}
    for i in range(n + 1):
        nbhd = {f"v{i}"}
        if i >= 1:
            nbhd.add(f"e{i}")
        if i < n:
            nbhd.add(f"e{i + 1}")
        min_open[f"v{i}"] = nbhd
    return FiniteSpace(points, min_open)


def product_space(x, y):
    """Product topology: minimal opens are boxes of minimal opens."""
    points = {(p, q) for p in x.points for q in y.points}
    min_open = {
        (p, q): {(a, b) for a in x.min_open[p] for b in y.min_open[q]}
        for (p, q) in points
    }
    return FiniteSpace(points, min_open)


@immutable(eq=False)
class Ball:
    center: tuple
    radius: object

    def __post_init__(self):
        if self.radius <= 0:
            raise InputError(f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", tuple(self.center))

    def __repr__(self):
        return f"Ball({self.center}, {self.radius})"


@immutable(init=False, eq=False)
class MetricSampleSpace:
    """Finite list of sample points with a metric.  With rational
    coordinates ball membership (d < r) is decided exactly, on integers, so
    cover combinatorics stay exact even when distances are irrational."""

    dim: int
    samples: list
    _table: dict

    def __init__(self, samples, dim=None, distance_table=None):
        samples = [_Sample(p) for p in samples]
        if not samples:
            raise InputError("need at least one sample")
        if dim is None:
            dim = len(samples[0])
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise InputError(f"dim must be an integer, got {dim!r}")
        if any(len(p) != dim for p in samples):
            raise InputError("inconsistent sample dimension")
        if len(set(samples)) != len(samples):
            dup = next(p for i, p in enumerate(samples) if p in samples[:i])
            raise InputError(f"duplicate sample {dup!r}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "_table", distance_table)
        self._check_metric()

    def _check_metric(self):
        if self._table is None:
            return
        for p in self.samples:
            if abs(self.dist(p, p)) > TOL_METRIC:
                raise InputError(f"d({p},{p}) != 0")
            for q in self.samples:
                if abs(self.dist(p, q) - self.dist(q, p)) > TOL_METRIC:
                    raise InputError(f"asymmetric distance at ({p},{q})")
                for r in self.samples:
                    if self.dist(p, r) > self.dist(p, q) + self.dist(q, r) + TOL_METRIC:
                        raise InputError(f"triangle inequality fails at ({p},{q},{r})")

    def dist_sq(self, p, q):
        if self._table is not None:
            d = self._table[(tuple(p), tuple(q))]
            return d * d
        return _fold_sum((a - b) ** 2 for a, b in zip(p, q))

    def dist(self, p, q):
        if self._table is not None:
            return self._table[(tuple(p), tuple(q))]
        if self.dim == 1:
            return abs(p[0] - q[0])  # exact on rational coordinates
        return math.sqrt(float(self.dist_sq(p, q)))

    def incidence(self, balls):
        """The balls of the cover ``balls`` (index -> Ball) that contain each
        sample, as a :class:`BallIncidence`: each pair decided once."""
        scaled = [(a, b, self._scaled_ball(b)) for a, b in balls.items()]
        rows = []
        for x in self.samples:
            sx = _over_lcm(x, _RATIONAL)
            row = {}
            for a, b, sb in scaled:
                inside, s, scale = self._measure(x, sx, b, sb)
                if inside:
                    row[a] = s, scale
            rows.append(row)
        return BallIncidence(self, dict(balls), tuple(rows))

    def _scaled_ball(self, ball):
        if len(ball.center) != self.dim:
            raise InputError(
                f"ball centre {[str(c) for c in ball.center]} has {len(ball.center)} "
                f"coordinates, the sample space has dimension {self.dim!r}"
            )
        return _over_lcm(ball.center + (ball.radius,), _RATIONAL)

    def _measure(self, x, sx, ball, sb):
        """``(d(x, centre) < radius, s, scale)``.  On a rational pair without
        a distance table, x = X / D_x and the centre and radius C / D_b and
        R / D_b, so d**2 = s / scale**2 with s = sum((X D_b - C D_x)**2) and
        scale = D_x D_b, and x is inside iff s < (R D_x)**2, all on integers.
        Other pairs compare ``dist_sq`` with r**2 and carry ``None`` twice."""
        if sx is not None and sb is not None and self._table is None:
            (xs, dx), (bs, db) = sx, sb
            s = 0
            for p, c in zip(xs, bs):  # bs ends with R, past the last coordinate
                d = p * db - c * dx
                s += d * d
            r = bs[-1] * dx
            return s < r * r, s, dx * db
        try:
            return self.dist_sq(x, ball.center) < ball.radius**2, None, None
        except OverflowError as exc:
            raise InputError(
                f"squared distance from {[str(c) for c in x]} to a ball of radius "
                f"{ball.radius} is out of float range"
            ) from exc

    def _bump(self, ball, x, s, scale):
        """max(radius - d(x, centre), 0) from ``_measure``'s s and scale; an
        int/int division rounds like ``float(Fraction)``.  InputError when the
        distance or the radius leaves the float range."""
        r = ball.radius
        try:
            if scale is None:
                gap = r - self.dist(x, ball.center)
            elif self.dim == 1:
                gap = Fraction(r.numerator * (scale // r.denominator) - math.isqrt(s), scale)
            else:
                gap = r - math.sqrt(s / (scale * scale))
        except OverflowError as exc:
            raise InputError(
                f"bump of a ball of radius {r} at {[str(c) for c in x]} is out of float range"
            ) from exc
        zero = Fraction(0) if isinstance(gap, Fraction) else 0.0
        return gap if gap > 0 else zero

    def ball_membership(self, ball, x):
        """Whether d(x, centre) < radius, decided as by :meth:`incidence`."""
        return self._measure(x, _over_lcm(x, _RATIONAL), ball, self._scaled_ball(ball))[0]

    def dist_to_ball_complement(self, ball, x):
        """max(radius - d(x, center), 0), the bump of the ball at x."""
        _, s, scale = self._measure(x, _over_lcm(x, _RATIONAL), ball, self._scaled_ball(ball))
        return self._bump(ball, x, s, scale)


@immutable(eq=False)
class BallIncidence:
    """``rows[i]`` maps each ball containing ``space.samples[i]``, in
    ``balls`` order, to ``(s, scale)``: the squared distance to its centre is
    s / scale**2 on integers for a rational pair, else ``(None, None)``."""

    space: MetricSampleSpace
    balls: dict
    rows: tuple

    def bumps(self, i):
        """``{index: max(radius - d(x, centre), 0)}`` over the members at x_i."""
        x, balls, bump = self.space.samples[i], self.balls, self.space._bump
        return {a: bump(balls[a], x, s, scale) for a, (s, scale) in self.rows[i].items()}
