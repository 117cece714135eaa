"""Convex-hull covers, barycentric selections, and epsilon-selections.

``conv_membership`` and ``conv_fiber_open`` are the hull map of an indexed
cover, x -> conv{e_a : a in omega(x)} inside the free vector space on the
indices.  Membership is exact: a unit simplex point lies in the hull of the
members at a point iff its carrier is contained in that member set (the
indices form a basis, so barycentric coordinates are unique).

For coordinate ambient spaces, convex targets are points, segments, axis
boxes, or V-polytopes with distance oracles in plain floats.  A target
prepares each set's floats on its first measurement (a point, a segment's
start, direction and squared length, a box's corners, a polytope's vertices
and their axis box) and measures a set against a list of points in one
pass.  Points, segments and boxes project in closed form; a polytope runs
Wolfe's min-norm-point method (:func:`dist_to_polytope`), a few small
active-set steps instead of one projection per vertex subset.  The
epsilon-selection pipeline takes the anchors to floats once, measures each
set against them in one pass, and certifies the barycentric sum of the
shrunk bump weights at each point, reusing an anchor's distance when the
value is that anchor.  An anchor q farther than eps * (1 + 2**-20) from the
axis box of a polytope's vertices gets weight 0 without running Wolfe.  On
an axis where q lies below the box, every coordinate fl(v - q) Wolfe reads
is at least fl(lo - q), as rounding is monotone, and above it likewise;
Wolfe's point weighs these vertices positively, summing to 1 up to a few
roundings of 2**-53 each, so its norm is at least the box distance up to an
error the pad far exceeds.
"""

import math
from dataclasses import field
from functools import reduce
from itertools import chain, repeat
from operator import add, mul, neg, or_, sub

from ._immutable import immutable
from .errors import CoverGap, InputError, NonPositiveEpsilon, SelfCheckFailed
from .pou import PartitionOfUnity, mather_compose
from .scalars import _fold_sum
from .sparse import _as_extended, _normalized
from .spaces import FiniteSpace, _check_numbers, _first

# Wolfe's optimality gap, relative to the largest squared vertex norm
_WOLFE_TOL = 1e-12


def _simplex_carrier(p):
    """The carrier of ``p``, which must be a unit simplex point."""
    if not p.entries:
        raise InputError("simplex vector with empty carrier")
    return _as_extended(p).explicit.carrier()


def conv_membership(omega, x, p):
    """Is the unit simplex point ``p`` in the convex hull of the members of
    the cover at ``x``?  Exact: carrier containment."""
    return _simplex_carrier(p) <= omega.values[x]


def conv_fiber_open(omega, p):
    """The fiber ``{x : p in conv(omega(x))}`` of the unit simplex point
    ``p`` under the hull map, the intersection of the cover's fibers over its
    carrier, with its openness verdict and a non-interior witness, the first
    by ``repr``."""
    car = _simplex_carrier(p)
    ix = omega.domain._index()
    fiber = 0
    if car <= omega.codomain.points:
        c = omega.codomain._index().mask(car)
        vm = omega._value_masks()
        fiber = reduce(or_, (b for b, v in zip(ix.bits, vm) if v & c == c), 0)
    is_open = ix.is_open(fiber)
    witness = None if is_open else _first(ix.order, fiber & ~ix.interior(fiber))
    return is_open, ix.points(fiber), witness


@immutable
class SelectionCertificate:
    point: object
    value: tuple
    distance_bound: object
    active_anchors: tuple


def barycentric_selection(gamma, anchors):
    """Anchor-weighted barycentric map: phi(x) = sum gamma_a(x) * anchor(a).

    Returns the pointwise values and certificates recording the active
    anchors; the value lies in their convex hull by construction.
    """
    values = {}
    certs = {}
    keys = set(anchors)
    dim = len(next(iter(anchors.values()), ()))
    for x in gamma.ground_points():
        row = gamma.rows[x]
        missing = row.carrier() - keys
        if missing:
            raise InputError(f"missing anchors {sorted(missing, key=repr)}")
        acc = (0,) * dim
        for a in row:
            acc = tuple(map(add, acc, map(mul, repeat(row[a]), anchors[a])))
        values[x] = acc
        certs[x] = SelectionCertificate(
            x, acc, None, tuple(sorted(row.carrier(), key=repr))
        )
    return values, certs


def _dot(u, v):
    return _fold_sum(map(mul, u, v))


def _floats(p):
    return [float(c) for c in p]


def _measure_segment(qs, a, d, dd):
    # t = (q - a).d / d.d, folded as _dot folds, clamped to [0, 1]
    finite, out = math.isfinite(dd), []
    for q in qs:
        along = 0
        for c, ac, dc in zip(q, a, d):
            along += (c - ac) * dc
        if not (finite and math.isfinite(along)):
            raise OverflowError("segment projection out of float range")
        t = 0.0 if dd == 0 else along / dd
        t = (t if t < 1.0 else 1.0) if t > 0.0 else 0.0
        out.append(math.dist(q, [ac + t * dc for ac, dc in zip(a, d)]))
    return out


def _measure_box(qs, lo, hi):  # on each axis the gap below lo or above hi, else 0
    return [math.hypot(*[l - c if c < l else c - h if c > h else 0.0
                         for c, l, h in zip(q, lo, hi)]) for q in qs]


def _affine_min_norm(pts):
    """Weights (summing to one) of the min-norm point of the affine hull of
    ``pts``: t minimizes |p_0 + sum_i t_i (p_i - p_0)| by modified
    Gram-Schmidt on the differences p_i - p_0 and back-substitution, and
    the weights are (1 - sum t, t).  None when a difference has an exactly
    zero norm after orthogonalization, as when the points repeat."""
    p0 = pts[0]
    basis, r = [], []  # orthonormal columns, and R column by column
    for p in pts[1:]:
        v = list(map(sub, p, p0))
        rc = []
        for u in basis:
            c = _dot(u, v)
            v = list(map(sub, v, map(mul, repeat(c), u)))
            rc.append(c)
        norm = math.hypot(*v)
        if norm == 0:
            return None
        basis.append([a / norm for a in v])
        rc.append(norm)
        r.append(rc)
    b, rhs = list(map(neg, p0)), []
    for u in basis:
        c = _dot(u, b)
        b = list(map(sub, b, map(mul, repeat(c), u)))
        rhs.append(c)
    t = []
    for i in range(len(r) - 1, -1, -1):
        s = rhs[i]
        for rc, tj in zip(r[i + 1:], t):
            s -= rc[i] * tj
        t.insert(0, s / r[i][i])
    return [1 - _fold_sum(t), *t]


def dist_to_polytope(q, vertices):
    """Distance from ``q`` to the convex hull of ``vertices`` by Wolfe's
    min-norm-point method (Math. Programming 11, 1976).

    The vertices are translated by -q and a corral of affinely independent
    vertices with barycentric weights is kept, starting from the nearest
    vertex.  Each major step adds the vertex most opposed to the current point
    x, its dot products taken column by column; minor steps move x toward the
    affine min-norm point of the corral (:func:`_affine_min_norm`) and drop
    vertices whose weights reach zero.  It stops when
    x.x - min_j x.p_j <= tol * max|p|^2, when x stops shrinking, or when the
    corral turns affinely dependent in floats.  x is always a convex
    combination of vertices, so the result never underestimates the distance
    beyond rounding.
    """
    cols = [list(map(sub, map(float, col), repeat(float(qc))))
            for col, qc in zip(zip(*vertices), q)]
    m, dim = len(vertices), len(cols)
    pts = list(zip(*cols)) if cols else [()] * m
    sq = repeat(0, m)
    for col in cols:
        sq = map(add, sq, map(mul, col, col))
    sq = list(sq)
    top = max(sq)
    if not math.isfinite(top):  # it bounds every dot product below
        raise OverflowError("squared vertex distance out of float range")
    start = sq.index(min(sq))
    corral, weights = [start], [1.0]
    x, xx = pts[start], sq[start]
    tol = _WOLFE_TOL * top
    while True:
        dots = repeat(0, m)
        for xd, col in zip(x, cols):
            dots = map(add, dots, map(mul, repeat(xd), col))
        dots = list(dots)
        low = min(dots)
        j = dots.index(low)
        if xx - low <= tol or j in corral:
            break
        cand, cw = corral + [j], weights + [0.0]
        while True:
            alpha = _affine_min_norm([pts[i] for i in cand])
            if alpha is None:
                break
            if min(alpha) > 0:
                cw = alpha
                break
            # walk from cw toward alpha until the first weight reaches zero
            theta, out = min(
                (w / (w - a) if w > a else 0.0, k)
                for k, (w, a) in enumerate(zip(cw, alpha))
                if a <= 0
            )
            cw = [w + theta * (a - w) for w, a in zip(cw, alpha)]
            keep = [k for k, w in enumerate(cw) if k != out and w > 0]
            cand, cw = [cand[k] for k in keep], [cw[k] for k in keep]
        if alpha is None:
            break
        y = repeat(0, dim)  # sum_k cw_k p_k, each coordinate folded as _dot does
        for w, i in zip(cw, cand):
            y = map(add, y, map(mul, repeat(w), pts[i]))
        y = list(y)
        yy = _dot(y, y)
        if yy >= xx:
            break
        corral, weights, x, xx = cand, cw, y, yy
    return math.hypot(*x)


def _prepare(spec):
    """The floats the set ``spec`` is measured with, the arguments of its
    measure after the query: a polytope's vertices and their axis box;
    OverflowError when a number leaves the float range."""
    kind = spec["kind"]
    if kind == "point":
        return (_floats(spec["p"]),)
    if kind == "segment":  # its start a, direction d = b - a and d.d
        a = _floats(spec["a"])
        d = [float(c) - ac for c, ac in zip(spec["b"], a)]
        return a, d, _dot(d, d)
    if kind == "box":
        return _floats(spec["lo"]), _floats(spec["hi"])
    vertices = [tuple(map(float, v)) for v in spec["vertices"]]
    cols = list(zip(*vertices))
    return vertices, list(map(min, cols)), list(map(max, cols))


_MEASURES = {
    "point": lambda qs, p: [math.dist(q, p) for q in qs],
    "segment": _measure_segment,
    "box": _measure_box,
    # the module attribute, looked up at each call
    "polytope": lambda qs, vertices, lo, hi: [dist_to_polytope(q, vertices) for q in qs],
}


@immutable(eq=False)
class ConvexTarget:
    """Per-point convex subsets of a coordinate ambient space with distance
    oracles.  ``sets`` maps ground point -> spec dict with ``kind`` in
    {point, segment, box, polytope} and the coordinate fields ``KINDS`` names
    for it; ``ambient_dim`` is an ``int`` (not a ``bool``), every point
    must have that many coordinates, each an int, a Fraction or a finite
    float, and a box has ``lo <= hi`` on each axis.  A set's floats are
    prepared on its first measurement, not here, so a number past the float
    range is reported by the measurement; :meth:`distances` measures a set
    against a whole list of points in one pass."""

    KINDS = {
        "point": ("p",),
        "segment": ("a", "b"),
        "box": ("lo", "hi"),
        "polytope": ("vertices",),
    }

    ambient_dim: int
    sets: dict
    _prep: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.ambient_dim, bool) or not isinstance(self.ambient_dim, int):
            raise InputError(f"ambient_dim must be an integer, got {self.ambient_dim!r}")
        for x, spec in self.sets.items():
            kind = spec.get("kind")
            fields = self.KINDS.get(kind) if isinstance(kind, str) else None
            if fields is None:
                raise InputError(f"unknown convex set kind at {x!r}: {spec!r}")
            missing = [f for f in fields if f not in spec]
            if missing:
                raise InputError(f"{kind} at {x!r} lacks {missing}")
            points = spec["vertices"] if kind == "polytope" else [spec[f] for f in fields]
            if not points:
                raise InputError(f"polytope at {x!r} has no vertices")
            for p in points:
                if len(p) != self.ambient_dim:
                    raise InputError(
                        f"point {p!r} of the set at {x!r} has {len(p)} "
                        f"coordinates, ambient_dim is {self.ambient_dim!r}"
                    )
            _check_numbers(chain.from_iterable(points), f"coordinates of the set at {x!r}")
            if kind == "box" and any(lo > hi for lo, hi in zip(*points)):
                raise InputError(f"empty box at {x!r}: lo {points[0]}, hi {points[1]}")
        object.__setattr__(self, "sets", dict(self.sets))

    def ground_points(self):
        return list(self.sets)

    def _prepared(self, x):
        """The prepared floats of the set at ``x``, taken on the first call;
        OverflowError on every call when a number leaves the float range."""
        args = self._prep.get(x)
        if args is None:
            args = self._prep[x] = _prepare(self.sets[x])
        return args

    def distances(self, x, points):
        """[d(q, set at x) for q in points], in one pass over the set's
        prepared floats; InputError when a point has not ``ambient_dim``
        coordinates or a distance leaves the float range."""
        for q in points:
            if len(q) != self.ambient_dim:
                raise InputError(f"point {list(q)!r} has {len(q)} coordinates, "
                                 f"ambient_dim is {self.ambient_dim!r}")
        kind = self.sets[x]["kind"]
        try:
            return _MEASURES[kind](points, *self._prepared(x))
        except OverflowError as exc:
            raise InputError(f"distance to the {kind} at {x!r} is out of float range") from exc

    def distance(self, x, q):
        """d(q, set at x): :meth:`distances` of the one point ``q``."""
        return self.distances(x, [q])[0]


def _near(target, x, points, eps):
    """The indices of the ``points`` not farther than eps * (1 + 2**-20)
    from the vertex box of the polytope at ``x``; all for other kinds, which
    cost no more than the box, or when a number leaves the float range,
    which the distance reports."""
    if target.sets[x]["kind"] == "polytope":
        try:
            _, lo, hi = target._prepared(x)
            bound = eps * (1 + 2**-20)
            return [i for i, d in enumerate(_measure_box(points, lo, hi)) if d <= bound]
        except OverflowError:
            pass
    return range(len(points))


def epsilon_selection(target, eps, anchors):
    """Certified approximate selection for a convex target.

    Anchor weights are bumps of the distance oracle, max(eps - d(a, set), 0),
    each set measured against all its anchors in one pass, normalized into a
    partition row, shrunk with the locally-finite transform, and summed
    barycentrically.  Every active anchor is strictly eps-close to the target
    set and the value is a convex combination of active anchors, so its
    distance to the (convex) set stays below eps.  The certificate reuses an
    anchor's distance when the value is that anchor; one that says otherwise
    raises SelfCheckFailed carrying it.  Rows are checked
    as ``scalars.is_one`` decides it; an anchor outside the target's ambient
    dimension raises InputError before the epsilon is checked.
    """
    anchors = [tuple(a) for a in anchors]
    for a in anchors:
        if len(a) != target.ambient_dim:
            raise InputError(f"anchor {list(a)!r} has {len(a)} coordinates, "
                             f"ambient_dim is {target.ambient_dim!r}")
    _check_numbers(chain.from_iterable(anchors), "anchor coordinates")
    _check_numbers((eps,), "epsilon")
    if eps <= 0:
        raise NonPositiveEpsilon(eps)
    anchor_ids = {f"a{i}": a for i, a in enumerate(anchors)}
    xs = target.ground_points()
    try:
        points = [tuple(map(float, a)) for a in anchors]
    except OverflowError:  # the first set's distances report it
        points = anchors
    rows, measured = {}, {}
    for x in xs:
        near = _near(target, x, points, eps)
        known = measured[x] = {}  # float point -> its distance to the set at x
        weights = {}
        for i, d in zip(near, target.distances(x, [points[i] for i in near])):
            known[points[i]] = d
            gap = eps - d
            if gap > 0:
                weights[f"a{i}"] = gap
        if not weights:
            raise CoverGap(x)
        rows[x], _ = _normalized(weights)
    pou = PartitionOfUnity(FiniteSpace.discrete(xs), set(anchor_ids), rows)
    gamma, _cert = mather_compose(pou)
    values, certs = barycentric_selection(gamma, anchor_ids)
    for x, v in values.items():
        d = measured[x].get(tuple(map(float, v)))  # an anchor's, when v is one
        cert = certs[x] = SelectionCertificate(
            x, v, target.distance(x, v) if d is None else d, certs[x].active_anchors)
        if not cert.distance_bound < eps:
            raise SelfCheckFailed(
                f"certificate violated at {x!r}: distance {cert.distance_bound} >= eps {eps}",
                cert,
            )
    return values, certs
