"""Convex-hull covers, barycentric selections, and epsilon-selections.

The convex hull of an index set inside the free vector space on the indices
has exact membership: a simplex vector lies in the hull of the members at a
point iff its carrier is contained in that member set (the indices form a
basis, so barycentric coordinates are unique).

For coordinate ambient spaces, convex targets are points, segments, axis
boxes, or V-polytopes with distance oracles in plain floats.  Points, segments
and boxes project in closed form; a polytope runs Wolfe's min-norm-point
method, a few small active-set steps instead of one projection per vertex
subset.  The epsilon-selection pipeline turns a distance oracle plus a finite
anchor set into a certified approximate selection: bump weights over the
anchors, locally-finite shrinking, then a barycentric sum of the anchors.
"""

import math
import operator

from ._immutable import immutable
from .errors import CoverGap, InputError, NonPositiveEpsilon, SelfCheckFailed
from .pou import PartitionOfUnity, mather_compose
from .scalars import FLOAT, _fold_sum
from .setmaps import carrier_fiber
from .sparse import _normalized
from .spaces import FiniteSpace

# Wolfe's optimality gap, relative to the largest squared vertex norm
_WOLFE_TOL = 1e-12


def conv_membership(omega, x, p):
    """Is the simplex vector ``p`` in the convex hull of the members of the
    cover at ``x``?  Exact: carrier containment."""
    return p.carrier() <= omega.values[x]


def conv_fiber_open(omega, p):
    """Fiber of ``p`` under the hull cover (intersection of the fibers named
    by its carrier) together with its openness verdict."""
    fiber = carrier_fiber(omega, p)
    is_open = omega.domain.is_open(fiber)
    witness = None
    if not is_open:
        missing = omega.domain.interior(fiber)
        witness = sorted(fiber - missing, key=repr)[0]
    return is_open, fiber, witness


@immutable
class SelectionCertificate:
    point: object
    value: tuple
    distance_bound: object
    active_anchors: tuple


def _vadd(p, q):
    return tuple(a + b for a, b in zip(p, q))


def _vscale(c, p):
    return tuple(c * a for a in p)


def barycentric_selection(gamma, anchors):
    """Anchor-weighted barycentric map: phi(x) = sum gamma_a(x) * anchor(a).

    Returns the pointwise values and certificates recording the active
    anchors; the value lies in their convex hull by construction.
    """
    values = {}
    certs = {}
    for x in gamma.ground_points():
        row = gamma.rows[x]
        missing = row.carrier() - set(anchors)
        if missing:
            raise InputError(f"missing anchors {sorted(missing, key=repr)}")
        dim = len(next(iter(anchors.values())))
        acc = (0,) * dim
        for a in row:
            acc = _vadd(acc, _vscale(row[a], tuple(anchors[a])))
        values[x] = acc
        certs[x] = SelectionCertificate(
            x, acc, None, tuple(sorted(row.carrier(), key=repr))
        )
    return values, certs


def _dot(u, v):
    return _fold_sum(map(operator.mul, u, v))


def dist_to_point(q, p):
    return math.dist([float(c) for c in q], [float(c) for c in p])


def dist_to_segment(q, a, b):
    q = [float(c) for c in q]
    a = [float(c) for c in a]
    d = [float(c) - ac for c, ac in zip(b, a)]
    denom, along = _dot(d, d), _dot([qc - ac for qc, ac in zip(q, a)], d)
    if not (math.isfinite(denom) and math.isfinite(along)):
        raise OverflowError("segment projection out of float range")
    t = 0.0 if denom == 0 else along / denom
    t = min(1.0, max(0.0, t))
    return math.dist(q, [ac + t * dc for ac, dc in zip(a, d)])


def dist_to_box(q, lo, hi):
    gaps = [
        max(float(l) - float(c), 0.0, float(c) - float(h))
        for c, l, h in zip(q, lo, hi)
    ]
    return math.hypot(*gaps)


def _solve(a, b):
    """Solve ``a x = b`` by Gaussian elimination with partial pivoting, in
    place; None when a pivot vanishes."""
    n = len(b)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return None
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
            b[r] -= f * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        x[r] = (b[r] - _dot(a[r][r + 1:], x[r + 1:])) / a[r][r]
    return x


def _affine_min_norm(pts):
    """Weights (summing to one) of the min-norm point of the affine hull of
    ``pts``: the KKT system [[G, 1], [1, 0]] (w, mu) = (0, 1) with G the Gram
    matrix.  None when the points are affinely dependent."""
    k = len(pts)
    kkt = [[_dot(p, r) for r in pts] + [1.0] for p in pts]
    kkt.append([1.0] * k + [0.0])
    sol = _solve(kkt, [0.0] * k + [1.0])
    return None if sol is None else sol[:k]


def dist_to_polytope(q, vertices):
    """Distance from ``q`` to the convex hull of ``vertices`` by Wolfe's
    min-norm-point method (Math. Programming 11, 1976).

    The vertices are translated by -q and a corral of affinely independent
    vertices with barycentric weights is kept, starting from the nearest
    vertex.  Each major step adds the vertex most opposed to the current point
    x; minor steps move x toward the affine min-norm point of the corral and
    drop vertices whose weights reach zero.  It stops when
    x.x - min_j x.p_j <= tol * max|p|^2, when x stops shrinking, or when the
    corral turns affinely dependent in floats.  x is always a convex
    combination of vertices, so the result never underestimates the distance
    beyond rounding.
    """
    pts = [[float(c) - float(qc) for c, qc in zip(v, q)] for v in vertices]
    sq = [_dot(p, p) for p in pts]
    if not math.isfinite(max(sq)):  # it bounds every dot product below
        raise OverflowError("squared vertex distance out of float range")
    start = min(range(len(pts)), key=sq.__getitem__)
    corral, weights = [start], [1.0]
    x, xx = pts[start], sq[start]
    tol = _WOLFE_TOL * max(sq)
    while True:
        j = min(range(len(pts)), key=lambda i: _dot(x, pts[i]))
        if xx - _dot(x, pts[j]) <= tol or j in corral:
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
        y = [_dot(cw, [pts[i][d] for i in cand]) for d in range(len(x))]
        yy = _dot(y, y)
        if yy >= xx:
            break
        corral, weights, x, xx = cand, cw, y, yy
    return math.hypot(*x)


@immutable(eq=False)
class ConvexTarget:
    """Per-point convex subsets of a coordinate ambient space with distance
    oracles.  ``sets`` maps ground point -> spec dict with ``kind`` in
    {point, segment, box, polytope} and the coordinate fields ``KINDS`` names
    for it; ``ambient_dim`` is an ``int`` (not a ``bool``), and every point
    must have that many coordinates."""

    KINDS = {
        "point": ("p",),
        "segment": ("a", "b"),
        "box": ("lo", "hi"),
        "polytope": ("vertices",),
    }

    ambient_dim: int
    sets: dict

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
        object.__setattr__(self, "sets", dict(self.sets))

    def ground_points(self):
        return list(self.sets)

    def distance(self, x, q):
        """d(q, set at x); InputError when it leaves the float range."""
        spec = self.sets[x]
        kind = spec["kind"]
        try:
            if kind == "point":
                return dist_to_point(q, spec["p"])
            if kind == "segment":
                return dist_to_segment(q, spec["a"], spec["b"])
            if kind == "box":
                return dist_to_box(q, spec["lo"], spec["hi"])
            return dist_to_polytope(q, spec["vertices"])
        except OverflowError as exc:
            raise InputError(f"distance to the {kind} at {x!r} is out of float range") from exc


def epsilon_selection(target, eps, anchors, mode=FLOAT):
    """Certified approximate selection for a convex target.

    Anchor weights are bumps of the distance oracle, max(eps - d(a, set), 0),
    normalized into a partition row, shrunk with the locally-finite transform,
    and summed barycentrically.  Every active anchor is strictly eps-close to
    the target set and the value is a convex combination of active anchors,
    so its distance to the (convex) set stays below eps; a certificate that
    says otherwise raises SelfCheckFailed carrying it.  Rows are unit
    simplex points as ``mode.is_one`` decides it.
    """
    if eps <= 0:
        raise NonPositiveEpsilon(eps)
    anchors = [tuple(a) for a in anchors]
    anchor_ids = {f"a{i}": a for i, a in enumerate(anchors)}
    ground = FiniteSpace.discrete(target.ground_points())
    rows = {}
    for x in target.ground_points():
        weights = {}
        for aid, apt in anchor_ids.items():
            gap = eps - target.distance(x, apt)
            if gap > 0:
                weights[aid] = gap
        if not weights:
            raise CoverGap(x)
        rows[x], _ = _normalized(weights)
    pou = PartitionOfUnity(ground, set(anchor_ids), rows, mode)
    gamma, _cert = mather_compose(pou)
    values, certs = barycentric_selection(gamma, anchor_ids)
    for x, v in values.items():
        cert = certs[x] = SelectionCertificate(
            x, v, target.distance(x, v), certs[x].active_anchors
        )
        if not cert.distance_bound < eps:
            raise SelfCheckFailed(
                f"certificate violated at {x!r}: distance {cert.distance_bound} >= eps {eps}",
                cert,
            )
    return values, certs
