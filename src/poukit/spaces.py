"""Finite Alexandrov spaces and finite metric sample spaces.

A finite Alexandrov space is given by the minimal open neighborhood of each
point (equivalently, a preorder: y in min_open(x) means x specializes to y).
Opens are exactly the unions of minimal opens, so all topological queries are
exact set computations.  They run on Python ints used as bitmasks over one
point order, the ``repr`` order that witnesses use: the space's
:class:`_Index` holds, for each point x, the mask ``up`` of U_x and the mask
``down`` of its closure cl{x}.  A closure is the OR of ``down`` over a set,
and a set is open when the OR of ``up`` over it is the set itself.  One pass
over the pairs y in U_x builds both; validation then tests transitivity with
one OR of ``up`` masks per pair; a discrete space, which needs no
validation, sorts nothing and builds no masks until a query asks for them.
The queries still take and return ``frozenset``s.

A metric sample space is a finite list of coordinate points with the
Euclidean metric; it is the desk-scale ground for ball covers and bump
constructions.  Its ``incidence`` decides which balls contain each sample;
covers and bumps all read it.  Every coordinate and radius, float or
rational, is read as an integer ratio, so each (sample, ball) pair is
decided by one comparison on integers, which is exact and cannot overflow;
a member pair keeps the integers of its squared distance and its radius
over one scale, and the bumps are read off them.
The samples are sorted once by their first coordinate, and each ball
decides only the samples whose coordinate lies in its padded interval
there, so the work follows the pairs the cover holds.  Each sample is
cleared of denominators once, when the space is built; its hash is computed
then, from those integers, and it equals and hashes like its plain tuple.
"""

import bisect
import math
import sys
from dataclasses import field
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import or_

from ._immutable import immutable
from .errors import InputError, NotReflexive, NotTransitive
from .scalars import _over_lcm
from .sparse import SparseVec, _normalized

_NUMBERS = (int, float, Fraction)  # Fraction last: isinstance against it is slow for a float
_ONE = Fraction(1)
_MODULUS = sys.hash_info.modulus


class _Sample(tuple):
    """A sample point, its coordinates already checked to be numbers: a
    tuple that equals its plain tuple and hashes like it, with ``_over =
    (nums, D)``, the coordinates over their lcm, for
    :meth:`MetricSampleSpace.incidence`.

    The hash is computed once, from ``_over``: Python hashes a rational n / D,
    int, float or Fraction alike, as it hashes the int n * (D^-1 mod P) for
    P = ``sys.hash_info.modulus``, so no coordinate is hashed as a Fraction.
    ``inverses``, local to one space's construction, keeps D^-1 for each D,
    or 0 where P divides D and the tuple hashes its coordinates itself."""

    def __new__(cls, coords, inverses):
        self = tuple.__new__(cls, coords)
        self._over = nums, d = _over_lcm(self, _NUMBERS)
        inv = inverses.get(d)
        if inv is None:
            inv = inverses[d] = pow(d, -1, _MODULUS) if d % _MODULUS else 0
        self._hash = _hash_over(nums, inv) if inv else tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


def _hash_over(nums, inv):
    """The hash of the tuple of the rationals n / D over ``nums``, given
    ``inv``, the inverse of D modulo ``sys.hash_info.modulus``."""
    return hash(tuple([n * inv for n in nums]))


@immutable
class FiniteSpace:
    """Validated finite Alexandrov space: construction raises InputError,
    NotReflexive or NotTransitive with witnesses, each the first offender in
    ``repr`` point order, and only ``discrete``, which cannot fail them,
    skips the checks.  Queries take and return ``frozenset``s and run on the
    masks of :meth:`_index`."""

    points: frozenset
    min_open: dict
    _ix: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        points = frozenset(self.points)
        object.__setattr__(self, "points", points)
        missing = points - self.min_open.keys()
        if missing:
            raise InputError(f"no min_open for {sorted(missing, key=repr)}")
        unknown = self.min_open.keys() - points
        if unknown:
            raise InputError(f"min_open for unknown points {sorted(unknown, key=repr)}")
        min_open = {p: frozenset(self.min_open[p]) for p in points}
        object.__setattr__(self, "min_open", min_open)
        order = sorted(points, key=repr)
        for p in order:
            if not min_open[p] <= points:
                raise InputError(f"min_open({p!r}) leaves the point set")
            if p not in min_open[p]:
                raise NotReflexive(p)
        ix = _Index(order, min_open)
        up = dict(zip(order, ix.up))
        # transitive iff U_y <= U_x for each y in U_x: one OR of up masks per pair
        for x, ux in up.items():
            if reduce(or_, map(up.__getitem__, min_open[x])) != ux:
                y, extra = next(
                    (y, uy & ~ux) for y, uy in zip(_select(order, ux), _select(ix.up, ux))
                    if uy & ~ux
                )
                raise NotTransitive(x, y, _first(order, extra))
        object.__setattr__(self, "_ix", ix)

    def __hash__(self):
        return hash((self.points, frozenset(self.min_open.items())))

    def __repr__(self):
        return f"FiniteSpace({sorted(self.points, key=repr)!r})"

    def _index(self):
        """The space's :class:`_Index`, built by validation or, for a
        discrete space, on the first call."""
        if self._ix is None:
            order = sorted(self.points, key=repr)
            object.__setattr__(self, "_ix", _Index(order, self.min_open))
        return self._ix

    def _check_subset(self, s):
        s = frozenset(s)
        if not s <= self.points:
            raise InputError(f"unknown points {sorted(s - self.points, key=repr)}")
        return s

    def is_open(self, s):
        ix = self._index()
        return ix.is_open(ix.mask(self._check_subset(s)))

    def is_closed(self, s):
        ix = self._index()
        return ix.is_closed(ix.mask(self._check_subset(s)))

    def closure(self, s):
        """Smallest closed superset: points whose every neighborhood meets s,
        i.e. whose minimal open meets s."""
        ix = self._index()
        return ix.points(ix.closure(ix.mask(self._check_subset(s))))

    def interior(self, s):
        ix = self._index()
        return ix.points(ix.interior(ix.mask(self._check_subset(s))))

    @classmethod
    def discrete(cls, points):
        """Every point open: nothing to check, and no masks until a query
        asks for them."""
        min_open = {p: frozenset((p,)) for p in points}
        space = object.__new__(cls)
        object.__setattr__(space, "points", frozenset(min_open))  # reuses the dict's hashes
        object.__setattr__(space, "min_open", min_open)
        object.__setattr__(space, "_ix", None)
        return space

    @classmethod
    def sierpinski(cls, open_point="b", closed_point="a"):
        """Two points; {open_point} is open, the other is not."""
        return cls(
            {open_point, closed_point},
            {closed_point: {closed_point, open_point}, open_point: {open_point}},
        )


def _select(seq, m):
    """The items of ``seq`` at the set bits of the int mask ``m``, in order."""
    out = []
    while m:
        low = m & -m
        out.append(seq[low.bit_length() - 1])
        m ^= low
    return out


def _first(seq, m):
    """The item of ``seq`` at the lowest set bit of the nonzero mask ``m``."""
    return seq[(m & -m).bit_length() - 1]


class _Index:
    """A finite space's points in ``repr`` order as int masks: bit i stands
    for ``order[i]``, ``bit`` maps each point to the mask of it alone, and
    ``bits[i]``, ``up[i]`` and ``down[i]`` are the masks of ``order[i]``
    alone, of its minimal open U_x and of its closure cl{x} = {y : x in U_y};
    each pair y in U_x sets bit y of ``up[x]`` and bit x of ``down[y]``."""

    __slots__ = ("order", "bit", "bits", "up", "down")

    def __init__(self, order, min_open):
        self.order = order
        self.bits = bits = [1 << i for i in range(len(order))]
        self.bit = bit = dict(zip(order, bits))
        self.up, self.down = up, down = [], [0] * len(order)
        for x, b in zip(order, bits):
            u = 0
            for c in map(bit.__getitem__, min_open[x]):
                u |= c
                down[c.bit_length() - 1] |= b
            up.append(u)

    def masks(self, sets):
        """The mask of each set of points of the space in ``sets``."""
        bit = self.bit
        return [sum(map(bit.__getitem__, s)) for s in sets]

    def mask(self, s):
        """The mask of ``s``, a set of points of the space."""
        return sum(map(self.bit.__getitem__, s))

    def points(self, m):
        """The points of the mask ``m``."""
        return frozenset(_select(self.order, m))

    def closure(self, m):
        """The OR of cl{x} over x in m."""
        return reduce(or_, _select(self.down, m), 0)

    def is_open(self, m):
        """Whether m holds U_x for each of its x."""
        return reduce(or_, _select(self.up, m), 0) == m

    def is_closed(self, m):
        """Whether m holds cl{x} for each of its x."""
        return self.closure(m) == m

    def interior(self, m):
        """The complement of the closure of the complement."""
        full = (1 << len(self.order)) - 1
        return full ^ self.closure(full ^ m)


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


@immutable(eq=False)
class Ball:
    """An open ball; its centre and radius are ints, Fractions or finite
    floats (InputError), and the radius is positive."""

    center: tuple
    radius: object

    def __post_init__(self):
        object.__setattr__(self, "center", _coordinates(self.center, "ball centre"))
        _check_numbers(self.center + (self.radius,), "ball centre and radius")
        if self.radius <= 0:
            raise InputError(f"ball radius must be positive, got {self.radius}")

    def __repr__(self):
        return f"Ball({self.center}, {self.radius})"


@immutable(init=False, eq=False)
class MetricSampleSpace:
    """Finite list of sample points with the Euclidean metric, each
    coordinate an int, a Fraction or a finite float (InputError).  Ball
    membership (d < r) is decided exactly, on integers, so cover
    combinatorics stay exact even when distances are irrational.
    :meth:`incidence` is the one place a (sample, ball) pair is decided;
    :meth:`BallIncidence.normalized` reads the bumps off its rows."""

    dim: int
    samples: list

    def __init__(self, samples, dim=None):
        samples = [_coordinates(p, "sample") for p in samples]
        if not samples:
            raise InputError("need at least one sample")
        if dim is None:
            dim = len(samples[0])
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise InputError(f"dim must be an integer, got {dim!r}")
        if any(len(p) != dim for p in samples):
            raise InputError("inconsistent sample dimension")
        for p in samples:  # before a sample is hashed
            _check_numbers(p, "sample coordinates", p)
        inverses = {}
        samples = [_Sample(p, inverses) for p in samples]
        seen = set()
        for p in samples:
            if p in seen:
                raise InputError(f"duplicate sample {p!r}")
            seen.add(p)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "samples", samples)

    def incidence(self, balls):
        """The balls of the cover ``balls`` (index -> Ball) that contain each
        sample, as a :class:`BallIncidence`.

        Each ball is cleared of denominators once, floats included (a float
        is a dyadic rational), as each sample was when the space was built,
        and :func:`_measure` decides a pair on those integers.  A ball can
        contain only samples whose first coordinate lies within its radius
        of the centre's.  So the samples are sorted once by a float key of
        that coordinate, and each ball, in ``balls`` order, bisects its
        interval, padded past every rounding of those keys, and decides the
        samples there.  A centre or radius past the float range, or a space
        of dimension 0, widens the interval to every sample."""
        samples, dim = self.samples, self.dim
        over = [x._over for x in samples]
        keys = [_to_float(sx[0][0], sx[1]) if dim else 0.0 for sx in over]
        order = sorted(range(len(samples)), key=keys.__getitem__)
        keys = [keys[i] for i in order]
        rows = [{} for _ in samples]
        for a, b in balls.items():
            if not isinstance(b, Ball):
                raise InputError(f"ball {a!r} must be a Ball, got {b!r}")
            if len(b.center) != dim:
                raise InputError(
                    f"ball centre {[str(c) for c in b.center]} has {len(b.center)} "
                    f"coordinates, the sample space has dimension {dim!r}"
                )
            sb = _over_lcm(b.center + (b.radius,), _NUMBERS)
            lo, hi = _window(sb) if dim else (-math.inf, math.inf)
            for i in order[bisect.bisect_left(keys, lo):bisect.bisect_right(keys, hi)]:
                if pair := _measure(over[i], sb):
                    rows[i][a] = pair
        values = chain(*samples, *(b.center + (b.radius,) for b in balls.values()))
        exact = not any(issubclass(kind, float) for kind in set(map(type, values)))
        return BallIncidence(self, dict(balls), tuple(rows), exact)


def _coordinates(p, what):
    """The tuple of the coordinates of the point ``p``; InputError naming
    ``p`` when it is no iterable."""
    try:
        return tuple(p)
    except TypeError:
        raise InputError(f"{what} {p!r} is not a list of coordinates") from None


def _check_numbers(values, what, point=None):
    """InputError unless every value is an int, a Fraction or a finite
    float; it names ``point`` when one is given."""
    for v in values:
        if not isinstance(v, _NUMBERS) or isinstance(v, float) and not math.isfinite(v):
            at = "" if point is None else f" in {point!r}"
            raise InputError(f"{what} must be ints, Fractions or finite floats, got {v!r}{at}")


def _measure(sx, sb):
    """The member pair ``(s, scale, r)`` of a sample x = X / D_x inside a
    ball with centre C / D_b and radius R / D_b (their ``_over_lcm``
    forms), else None: d(x, centre)**2 = s / scale**2 with s = sum((X D_b -
    C D_x)**2) and scale = D_x D_b, the radius is r / scale with r = R D_x,
    and x is inside iff s < r**2, all on integers."""
    (xs, dx), (bs, db) = sx, sb
    s = 0
    for p, c in zip(xs, bs):  # bs ends with R, past the last coordinate
        d = p * db - c * dx
        s += d * d
    r = bs[-1] * dx
    return (s, dx * db, r) if s < r * r else None


def _to_float(num, den):
    """``num / den`` for a positive int ``den``, as a float (int / int rounds
    correctly), or past the float range an infinity of its sign."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _window(over):
    """``(lo, hi)``: every sample the ball can contain has its first
    coordinate's key in [lo, hi]; ``over`` is the ball's centre and radius
    in ``_over_lcm`` form.  A contained sample has |x0 - c0| < r, and the
    pad, 2**-40 of |c0| + r plus 2**-1000 for subnormals, exceeds the few
    roundings of the keys and of this sum; an infinite key widens the
    window to everything."""
    nums, den = over
    c, r = _to_float(nums[0], den), _to_float(nums[-1], den)
    pad = (abs(c) + r) * 2.0**-40 + 2.0**-1000
    lo, hi = c - r - pad, c + r + pad
    return (lo, hi) if lo <= hi else (-math.inf, math.inf)  # inf - inf is NaN


def _root(s, scale):
    """d = sqrt(s / scale**2), the root of the correctly rounded d**2.  Where
    d**2 leaves the float range but d does not, the root of d**2 / 2**1024,
    scaled back exactly by 2**512."""
    try:
        return math.sqrt(s / (scale * scale))
    except OverflowError:
        return math.ldexp(math.sqrt(s / (scale * scale << 1024)), 512)


@immutable(eq=False)
class BallIncidence:
    """``rows[i]`` maps each ball containing ``space.samples[i]``, in
    ``balls`` order, to ``(s, scale, r)``: the squared distance to its
    centre is s / scale**2 and its radius is r / scale, on integers, as
    :func:`_measure` decided the pair.  ``exact`` says that every sample and
    ball is rational (no float).  Only the pairs inside a ball's interval on
    the first axis were decided (:meth:`MetricSampleSpace.incidence`); the
    rows are those of a dense pass over all pairs."""

    space: MetricSampleSpace
    balls: dict
    rows: tuple
    exact: bool

    def normalized(self, i):
        """``(row, total)``: the bumps max(radius - d(x, centre), 0) at x_i
        over their sum, as a ``SparseVec``, and the float of that sum,
        ``math.inf`` past the float range; an exact line row is normalized
        on its integer gaps, with ``Fraction`` entries.  A sample inside one
        ball a gets the vertex row ``{a: 1}`` (``Fraction(1)`` on an exact
        line row, else ``1.0``) with no division.  InputError when every
        bump rounds to 0.0."""
        line = self._line_row(i)
        if line is None:
            bumps = self._float_bumps(i)
            if not any(bumps.values()):
                x = self.space.samples[i]
                raise InputError(f"every bump at {[str(c) for c in x]} rounds to 0.0 in floats")
            if len(bumps) == 1:
                return SparseVec._of_nonzero(dict.fromkeys(bumps, 1.0)), *bumps.values()
            return _normalized(bumps)
        gaps, d = line  # positive integer gaps g_a over d: g_a / sum(g)
        n = sum(gaps.values())
        if len(gaps) == 1:
            return SparseVec._of_nonzero(dict.fromkeys(gaps, _ONE)), _to_float(n, d)
        return SparseVec._of_nonzero({a: Fraction(g, n) for a, g in gaps.items()}), _to_float(n, d)

    def _float_bumps(self, i):
        """The bumps at x_i as floats: r - |x0 - c0| in dimension 1, else
        r / scale - :func:`_root` (s, scale), where r / scale is the float
        of the radius (int / int rounds correctly).  A member's d is below
        its radius, so only a radius past the float range raises, as
        InputError."""
        x, line, bumps = self.space.samples[i], self.space.dim == 1, {}
        for a, (s, scale, r) in self.rows[i].items():
            try:  # radius - float is float(radius) - float, for a Fraction radius too
                if line:
                    b = self.balls[a]
                    gap = b.radius - abs(x[0] - b.center[0])
                else:
                    gap = r / scale - _root(s, scale)
            except OverflowError as exc:
                raise InputError(f"bump of a ball of radius {self.balls[a].radius} at "
                                 f"{[str(c) for c in x]} is out of float range") from exc
            bumps[a] = gap if gap > 0 else 0.0
        return bumps

    def _line_row(self, i):
        """``(gaps, d)`` with bump ``gaps[a] / d`` at x_i for each member a,
        on integers, when the space has dimension 1 and the incidence is
        exact; else None.  A pair's gap is r - isqrt(s) over ``scale``, and
        d is the lcm of the row's scales."""
        if self.space.dim != 1 or not self.exact:
            return None
        row = self.rows[i]
        d = math.lcm(*[scale for _, scale, _ in row.values()])
        return {a: (r - math.isqrt(s)) * (d // scale) for a, (s, scale, r) in row.items()}, d
