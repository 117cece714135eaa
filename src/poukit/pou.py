"""Partitions of unity: validation, bump synthesis from metric ball covers,
subordination checks, and composition with the locally-finite shrinking
transform.

A partition of unity is stored rowwise: one unit-simplex point per ground
point.  On a finite Alexandrov ground, continuity of real-valued functions
means constancy along the specialization preorder, so validation requires
rows to agree across each minimal open neighborhood.  On a metric sample
ground the rows come from closed-form bump constructions and no continuity
check applies.
"""

import math
import sys
import types
from dataclasses import field

from ._immutable import immutable
from .errors import DiscontinuousAt, InputError, NotACover, RowNotSimplex
from .sparse import (ExtendedUnitVec, SparseVec, _is_vertex, is_unit_simplex_point,
                     mather_eta, mather_support_bound)
from .spaces import FiniteSpace, MetricSampleSpace


@immutable(eq=False)
class PartitionOfUnity:
    """Rowwise partition of unity over a finite ground, checked when it is
    built, by ``dataclasses.replace`` too: there is a row at each ground
    point and at no other, else InputError; each row is a unit-simplex point
    (as ``scalars.is_one`` decides it) over the index set, else RowNotSimplex;
    and on an Alexandrov ground rows are constant along minimal opens, else
    DiscontinuousAt.  So every star is a union of components of the
    specialization preorder, and is clopen.  ``rows`` is a read-only view of
    a copy; ``l1_lipschitz``, keyword-only, is an l1 Lipschitz constant of
    the rows in the ground metric, when one is known."""

    ground: object
    index_set: frozenset
    rows: dict
    l1_lipschitz: float | None = field(default=None, kw_only=True)

    def __post_init__(self):
        index_set, rows = frozenset(self.index_set), dict(self.rows)
        points = _ground_points(self.ground)
        unknown = rows.keys() - points
        if unknown:
            raise InputError(f"rows at unknown points {sorted(unknown, key=repr)}")
        for x in points:
            try:
                r = rows[x]
            except KeyError:
                raise InputError(f"no row at ground point {x!r}") from None
            if not isinstance(r, SparseVec) or not is_unit_simplex_point(r):
                raise RowNotSimplex(x, f"{r!r}")
            if not r.entries.keys() <= index_set:
                raise RowNotSimplex(x, "carrier leaves the index set")
        if isinstance(self.ground, FiniteSpace):
            for x in points:
                for y in sorted(self.ground.min_open[x], key=repr):
                    if rows[y] != rows[x]:
                        raise DiscontinuousAt(x, y)
        object.__setattr__(self, "index_set", index_set)
        object.__setattr__(self, "rows", types.MappingProxyType(rows))

    def ground_points(self):
        return _ground_points(self.ground)

    def carrier_at(self, x):
        """The indices where the row at x is nonzero, as a set view."""
        return self.rows[x].entries.keys()


def _ground_points(ground):
    """Samples in list order, or the points of a finite space by ``repr``."""
    if isinstance(ground, MetricSampleSpace):
        return list(ground.samples)
    if isinstance(ground, FiniteSpace):
        return sorted(ground.points, key=repr)
    raise InputError("ground must be a FiniteSpace or MetricSampleSpace")


def pou_from_incidence(incidence):
    """Normalized bump partition subordinated to the ball cover behind
    ``incidence = space.incidence(balls)``, with its ``l1_lipschitz``.

    Bump of ball a at x is max(radius_a - d(x, center_a), 0), over the
    members the incidence decided by the exact comparison d^2 < r^2 on the
    values read, floats included, so carriers and stars are exact in either
    mode even though the bump values involve square roots.  On an exact
    line row the bumps are integers over one denominator, normalized as
    such.  Rows are checked as ``scalars.is_one`` decides it.  A sample
    outside every ball raises NotACover; one whose bumps all round to 0.0,
    InputError.  The least bump total is found on the floats of the totals.
    """
    space, balls = incidence.space, incidence.balls
    rows, totals = {}, []
    for i, x in enumerate(space.samples):
        if not incidence.rows[i]:
            raise NotACover(x)
        rows[x], total = incidence.normalized(i)
        totals.append(total)
    # l1 Lipschitz bound for the normalized family: each bump is 1-Lipschitz
    # in the ground metric, and on samples the total is at least min(totals).
    # float is monotone: the least float is the float of the least total
    lip = _float_ratio_bound(2 * len(balls), min(totals))
    return PartitionOfUnity(space, set(balls), rows, l1_lipschitz=lip)


def _float_ratio_bound(num, total):
    """``num / total`` for the float ``total`` of a positive sum, or, where
    that float is 0.0 or ``math.inf``, a float upper bound of the exact
    quotient."""
    if total == math.inf:  # the sum exceeds the largest float, so this bounds it
        return math.nextafter(num / sys.float_info.max, math.inf)
    return num / total if total else math.inf  # math.inf when the quotient overflows


def subordination_check(pou, omega):
    """Index subordination (rowwise carrier containment) and strong
    subordination (closure of each star inside the fiber).

    On an Alexandrov ground each star is clopen, and on a metric ground the
    closure of a star is approximated by the star's sample set itself, which
    the report flags as approximate.  Either way ``star(a) <= fiber(a)`` for
    every index a says the same as ``carrier(x) <= values(x)`` for every
    point x, so strong subordination is index subordination.
    """
    if frozenset(omega.codomain.points) != pou.index_set:
        raise InputError("index sets differ")
    witness = next((("carrier", x) for x in pou.ground_points()
                    if not pou.carrier_at(x) <= omega.values[x]), None)
    return {"index_subordinated": witness is None, "strongly_subordinated": witness is None,
            "approximate_closure": isinstance(pou.ground, MetricSampleSpace),
            "witness": witness}


@immutable(eq=False)
class LocalFinitenessCertificate:
    """Local finiteness of the shrunk partition of ``pou``, derived on
    demand: every point of ``neighborhood(x)`` has its shrunk carrier inside
    ``index_bound(x)``, the carrier of ``pou`` at x.

    On an Alexandrov ground the neighborhood is the minimal open of x (rows
    are constant there).  On a metric ground it is the l1 stability radius
    of ``mather_support_bound`` at x over ``pou.l1_lipschitz``, as a metric
    radius; without that constant there is no sound radius, and InputError
    says so.
    """

    pou: PartitionOfUnity

    def neighborhood(self, x):
        pou = self.pou
        if isinstance(pou.ground, FiniteSpace):
            return ("min_open", frozenset(pou.ground.min_open[x]))
        if pou.l1_lipschitz is None:
            raise InputError("a metric radius needs the partition's l1_lipschitz constant")
        _, radius = mather_support_bound(ExtendedUnitVec._of_checked(pou.rows[x]))
        return ("metric_radius", float(radius) / pou.l1_lipschitz)

    def index_bound(self, x):
        return self.pou.carrier_at(x)


def mather_compose(pou):
    """Apply the shrinking transform rowwise, with the certificate of its
    local finiteness.

    The rows of ``pou`` were checked when it was built, so they are not
    checked again, and neither is the output: each shrunk row is a unit
    simplex point whose carrier lies inside that of its input, and rows
    equal along a minimal open shrink to equal rows, so every output star is
    clopen and inside the input star.  A vertex row e_a, one entry equal to
    1, is its own shrink (sup 1, clipped at 1/2, renormalized to 1) and is
    taken as it is.  The certificate computes nothing until it is read.
    """
    rows = {}
    for x in pou.ground_points():
        r = pou.rows[x]
        rows[x] = r if _is_vertex(r) else mather_eta(ExtendedUnitVec._of_checked(r))
    gamma = object.__new__(PartitionOfUnity)
    for name, value in (("ground", pou.ground), ("index_set", pou.index_set),
                        ("rows", types.MappingProxyType(rows)), ("l1_lipschitz", None)):
        object.__setattr__(gamma, name, value)
    return gamma, LocalFinitenessCertificate(pou)

