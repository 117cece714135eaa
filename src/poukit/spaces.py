"""Finite Alexandrov spaces and finite metric sample spaces.

A finite Alexandrov space is given by the minimal open neighborhood of each
point (equivalently, a preorder: y in min_open(x) means x specializes to y).
Opens are exactly the unions of minimal opens, so all topological queries are
exact set computations.

A metric sample space is a finite list of coordinate points with the
Euclidean metric (or an explicit distance table); it is the desk-scale ground
for ball covers and bump constructions.
"""

import math
from fractions import Fraction

from ._immutable import immutable
from .errors import InputError, NotReflexive, NotTransitive

TOL_METRIC = 1e-9
_RATIONAL = (int, Fraction)


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
        return cls(points, {p: {p} for p in points})

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
    """Finite list of sample points with a metric.

    With rational coordinates, ball membership (d < r) is decided exactly by
    comparing squared quantities, so cover combinatorics stay exact even when
    distances themselves are irrational.
    """

    dim: int
    samples: list
    _table: dict

    def __init__(self, samples, dim=None, distance_table=None):
        samples = [tuple(p) for p in samples]
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
        return sum((a - b) ** 2 for a, b in zip(p, q))

    def dist(self, p, q):
        if self._table is not None:
            return self._table[(tuple(p), tuple(q))]
        if self.dim == 1:
            return abs(p[0] - q[0])  # exact on rational coordinates
        return math.sqrt(float(self.dist_sq(p, q)))

    def ball_membership(self, ball, x):
        """Whether d(x, centre) < radius; a point on the sphere is outside.

        With rational (``int`` or ``Fraction``) coordinates and radius and no
        distance table, the sign of r^2 - d^2 is decided on plain integers:
        each coordinate difference is cross-multiplied over its two
        denominators, the squares are summed over their common denominator,
        and the sum is compared with r^2 by cross-multiplication, so no
        ``Fraction`` is built.  Float coordinates and distance tables compare
        ``dist_sq`` with r^2; a square beyond the float range is an
        InputError.
        """
        center, r = ball.center, ball.radius
        if len(center) != self.dim:
            raise InputError(
                f"ball centre {[str(c) for c in center]} has {len(center)} coordinates, "
                f"the sample space has dimension {self.dim!r}"
            )
        if self._table is None and isinstance(r, _RATIONAL):
            num, den = 0, 1  # running sum of squared differences, num / den
            for p, q in zip(x, center):
                if not (isinstance(p, _RATIONAL) and isinstance(q, _RATIONAL)):
                    break
                pd, qd = p.denominator, q.denominator
                diff = p.numerator * qd - q.numerator * pd
                sq_den = pd * qd
                sq_den *= sq_den
                num = num * sq_den + diff * diff * den
                den *= sq_den
            else:
                rd = r.denominator
                return num * rd * rd < r.numerator**2 * den
        try:
            return self.dist_sq(x, center) < r**2
        except OverflowError as exc:
            raise InputError(
                f"squared distance from {[str(c) for c in x]} to a ball of radius {r} "
                "is out of float range"
            ) from exc

    def dist_to_ball_complement(self, ball, x):
        """max(radius - d(x, center), 0); the bump value of the ball at x.
        InputError when the distance or the radius leaves the float range."""
        try:
            gap = ball.radius - self.dist(x, ball.center)
        except OverflowError as exc:
            raise InputError(
                f"bump of a ball of radius {ball.radius} at {[str(c) for c in x]} "
                "is out of float range"
            ) from exc
        zero = Fraction(0) if isinstance(gap, Fraction) else 0.0
        return gap if gap > 0 else zero
