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

import types
from dataclasses import field

from ._immutable import immutable
from .errors import (
    DiscontinuousAt,
    InputError,
    NotACover,
    RowNotSimplex,
    SelfCheckFailed,
)
from .scalars import EXACT, Mode, format_scalar
from .sparse import (ExtendedUnitVec, SparseVec, _normalized, is_unit_simplex_point,
                     mather_eta, mather_support_bound)
from .spaces import FiniteSpace, MetricSampleSpace


@immutable(eq=False)
class PartitionOfUnity:
    """Rowwise partition of unity over a finite ground.  Use
    :func:`validate_pou` to build one with all invariants checked; only it
    sets ``_rows_checked``.  ``rows`` is a read-only view of a copy."""

    ground: object
    index_set: frozenset
    rows: dict
    mode: Mode = EXACT
    l1_lipschitz: float | None = None
    _rows_checked: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "index_set", frozenset(self.index_set))
        object.__setattr__(self, "rows", types.MappingProxyType(dict(self.rows)))

    def ground_points(self):
        return _ground_points(self.ground)

    def open_star(self, alpha):
        """Ground points where the alpha-th coordinate function is nonzero."""
        if alpha not in self.index_set:
            raise InputError(f"unknown index {alpha!r}")
        return [x for x in self.ground_points() if self.rows[x][alpha] != 0]

    def carrier_at(self, x):
        return self.rows[x].carrier()


def _ground_points(ground):
    """Samples in list order, or the points of a finite space by ``repr``."""
    if isinstance(ground, MetricSampleSpace):
        return list(ground.samples)
    if isinstance(ground, FiniteSpace):
        return sorted(ground.points, key=repr)
    raise InputError("ground must be a FiniteSpace or MetricSampleSpace")


def validate_pou(ground, index_set, rows, mode=EXACT):
    """Check rows are unit-simplex points over the index set and, on an
    Alexandrov ground, that rows are constant along minimal opens."""
    index_set = frozenset(index_set)
    points = _ground_points(ground)
    for x in points:
        if x not in rows:
            raise InputError(f"no row at ground point {x!r}")
        r = rows[x]
        if not isinstance(r, SparseVec) or not is_unit_simplex_point(r, mode):
            raise RowNotSimplex(x, f"{r!r}")
        if not r.carrier() <= index_set:
            raise RowNotSimplex(x, "carrier leaves the index set")
    if isinstance(ground, FiniteSpace):
        for x in points:
            for y in sorted(ground.min_open[x], key=repr):
                if rows[y] != rows[x]:
                    raise DiscontinuousAt(x, y)
    pou = PartitionOfUnity(ground, index_set, rows, mode)
    object.__setattr__(pou, "_rows_checked", True)
    return pou


def pou_from_metric_cover(space, balls, mode=EXACT):
    """Normalized bump partition subordinated to a ball cover.

    Bump of ball a at x is max(radius_a - d(x, center_a), 0), over the
    members ``space.incidence(balls)`` decided by the exact comparison
    d^2 < r^2 when coordinates are rational, so carriers and stars are exact
    in either mode even though the bump values involve square roots.
    """
    if not isinstance(space, MetricSampleSpace):
        raise InputError("bump construction needs a MetricSampleSpace ground")
    return pou_from_incidence(space.incidence(balls), mode)


def pou_from_incidence(incidence, mode=EXACT):
    """:func:`pou_from_metric_cover` from ``space.incidence(balls)``."""
    space, balls = incidence.space, incidence.balls
    rows, totals = {}, []
    for i, x in enumerate(space.samples):
        bumps = incidence.bumps(i)
        if not bumps:
            raise NotACover(x)
        rows[x], total = _normalized(bumps)
        totals.append(total)
    min_total = min(totals)
    checked = validate_pou(space, set(balls), rows, mode=mode)
    # l1 Lipschitz bound for the normalized family: each bump is 1-Lipschitz
    # in the ground metric, and the total is at least min_total on samples.
    try:
        lip = 2 * len(balls) / float(min_total)
    except (OverflowError, ZeroDivisionError) as exc:
        raise InputError(f"bump total {format_scalar(min_total)} is out of float range") from exc
    object.__setattr__(checked, "l1_lipschitz", lip)  # keeps the checked flag
    return checked


def subordination_check(pou, omega):
    """Index subordination (rowwise carrier containment) and strong
    subordination (closure of each star inside the fiber).

    On a metric ground the closure of a star is approximated by the star's
    sample set itself; the report flags this as approximate.  There
    ``star(a) <= fiber(a)`` for every index a says the same as
    ``carrier(x) <= values(x)`` for every point x, so strong subordination
    is index subordination and the per-index loop is skipped.
    """
    if frozenset(omega.codomain.points) != pou.index_set:
        raise InputError("index sets differ")
    metric = isinstance(pou.ground, MetricSampleSpace)
    result = {"index_subordinated": True, "strongly_subordinated": True,
              "approximate_closure": metric, "witness": None}
    for x in pou.ground_points():
        if not pou.carrier_at(x) <= omega.values[x]:
            result["index_subordinated"] = False
            result["witness"] = ("carrier", x)
            break
    if metric:
        result["strongly_subordinated"] = result["index_subordinated"]
        return result
    for a in sorted(pou.index_set, key=repr):
        star = pou.ground.closure(set(pou.open_star(a)))
        if not star <= omega.fiber(a):
            result["strongly_subordinated"] = False
            if result["witness"] is None:
                result["witness"] = ("support", a)
            break
    return result


@immutable(eq=False)
class LocalFinitenessCertificate:
    """Local finiteness of the shrunk partition of ``pou``, derived on
    demand: every point of ``neighborhood(x)`` has its shrunk carrier inside
    ``index_bound(x)``, the carrier of ``pou`` at x.

    On an Alexandrov ground the neighborhood is the minimal open of x (rows
    are constant there).  On a metric ground it is the l1 stability radius
    of ``mather_support_bound`` at x over a conservative Lipschitz constant
    for the bump family, as a metric radius.
    """

    pou: PartitionOfUnity

    def neighborhood(self, x):
        pou = self.pou
        if isinstance(pou.ground, FiniteSpace):
            return ("min_open", frozenset(pou.ground.min_open[x]))
        _, radius = mather_support_bound(pou.rows[x], pou.mode)
        return ("metric_radius", float(radius) / (pou.l1_lipschitz or 2 * len(pou.index_set)))

    def index_bound(self, x):
        return self.pou.carrier_at(x)


def mather_compose(pou):
    """Apply the shrinking transform rowwise, with the certificate of its
    local finiteness.

    Each row is checked to be a unit simplex point as it is shrunk, unless
    ``pou`` comes from :func:`validate_pou`, which checked every row.  On an
    Alexandrov ground strong carrier containment, cl(star of the output)
    inside the star of the input, is checked exactly.  The certificate
    computes nothing until it is read.
    """
    wrap = ExtendedUnitVec._of_checked if pou._rows_checked else (lambda row: row)
    gamma_rows = {x: mather_eta(wrap(pou.rows[x]), pou.mode) for x in pou.ground_points()}
    gamma = PartitionOfUnity(pou.ground, pou.index_set, gamma_rows, pou.mode)
    if isinstance(pou.ground, FiniteSpace):
        for a in sorted(pou.index_set, key=repr):
            closed_star = pou.ground.closure(set(gamma.open_star(a)))
            if not closed_star <= set(pou.open_star(a)):
                raise SelfCheckFailed(
                    f"closed star of {a!r} escapes the input star after shrinking"
                )
    return gamma, LocalFinitenessCertificate(pou)
