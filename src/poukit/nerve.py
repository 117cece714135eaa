"""Simplicial complexes, nerves of covers, and canonical maps.

Nerve nonemptiness is decided by witness points: a simplex enters the nerve
iff some witness lies in every member of it, so the distinct
inclusion-maximal member sets of the witnesses (the facets) determine the
nerve.  On a finite space with all points as witnesses this is the exact
nerve; on a metric sample ground it is a conservative sub-nerve, and emitted
complexes carry ``witnessed=True`` to record that.  ``max_dimension`` bounds
only the complexes built for dumps; canonical verdicts are never truncated.
"""

from .errors import InputError
from .setmaps import SetValuedMap, ball_cover

MAX_DIMENSION = 8


class SimplicialComplex:
    """Downward-closed family of nonempty finite vertex sets."""

    __slots__ = ("vertices", "simplices", "witnessed")

    def __init__(self, vertices, simplices, witnessed=False):
        simplices = frozenset(frozenset(s) for s in simplices)
        vertices = frozenset(vertices)
        for s in simplices:
            if not s:
                raise InputError("empty simplex")
            if not s <= vertices:
                raise InputError(f"simplex {sorted(s, key=repr)} has foreign vertices")
            for v in s:
                if s - {v} and (s - {v}) not in simplices:
                    raise InputError(
                        f"not downward closed: face of {sorted(s, key=repr)} missing"
                    )
        used = frozenset(v for s in simplices for v in s)
        if used != vertices:
            raise InputError(f"isolated vertices {sorted(vertices - used, key=repr)}")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "simplices", simplices)
        object.__setattr__(self, "witnessed", witnessed)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.vertices == other.vertices
            and self.simplices == other.simplices
        )

    def __contains__(self, simplex):
        return frozenset(simplex) in self.simplices

    def dimension(self):
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def realization_membership(self, p):
        """A simplex vector lies in the geometric realization iff its carrier
        is a simplex of the complex."""
        car = p.carrier()
        if not car <= self.vertices:
            raise InputError(f"foreign vertices {sorted(car - self.vertices, key=repr)}")
        return car in self.simplices


def _facets(index_sets):
    """The distinct inclusion-maximal sets among ``index_sets``."""
    facets = []
    for s in sorted(set(index_sets), key=len, reverse=True):
        if not any(s <= f for f in facets):
            facets.append(s)
    return facets


def _downward_closed(index_sets, max_dimension):
    """All nonempty subsets (up to max_dimension + 1 vertices) of the given
    index sets."""
    simplices = set()
    for top in index_sets:
        top = sorted(top, key=repr)
        frontier = [frozenset()]
        for v in top:
            frontier += [
                s | {v} for s in frontier if len(s) <= max_dimension
            ]
        simplices.update(s for s in frontier if s)
    return simplices


def nerve_from_cover(cover, witnesses=None, max_dimension=MAX_DIMENSION):
    """Nerve of an indexed cover up to ``max_dimension``, enumerated from
    the facets of the witnesses (by default every ground point).

    ``cover`` is either a SetValuedMap with discrete codomain, or a pair
    ``(space, balls)`` with ``balls`` a map index -> Ball, which
    :func:`poukit.setmaps.ball_cover` converts.
    """
    if not isinstance(cover, SetValuedMap):
        cover = ball_cover(*cover)
    if witnesses is None:
        witnesses = cover.domain.points
    facets = _facets(cover.values[w] for w in witnesses)
    vertices = {a for f in facets for a in f}
    simplices = _downward_closed(facets, max_dimension)
    return SimplicialComplex(vertices, simplices, witnessed=True)


class CanonicalReport:
    """Outcome of checking a partition of unity against a cover: realization
    membership of every row and the star condition coz(xi_U) inside U."""

    __slots__ = ("membership_violations", "star_violations")

    def __init__(self, membership_violations, star_violations):
        object.__setattr__(self, "membership_violations", list(membership_violations))
        object.__setattr__(self, "star_violations", list(star_violations))

    def __setattr__(self, name, value):
        raise AttributeError("CanonicalReport is immutable")

    @property
    def canonical(self):
        return not self.membership_violations and not self.star_violations

    def to_dict(self):
        return {
            "canonical": self.canonical,
            "membership_violations": [repr(x) for x in self.membership_violations],
            "star_violations": [repr(x) for x in self.star_violations],
        }


def canonical_map_check(pou, cover):
    """Check that a partition of unity is a canonical map for the cover,
    given as for :func:`nerve_from_cover`.

    A row lies in the realization of the nerve iff its carrier is inside
    some facet.  No complex is built, so the verdict is never truncated.
    """
    if not isinstance(cover, SetValuedMap):
        cover = ball_cover(*cover)
    if cover.codomain.points != pou.index_set:
        raise InputError("cover and partition use different index sets")
    if cover.domain.points != frozenset(pou.ground_points()):
        raise InputError("cover and partition use different ground points")
    facets = _facets(cover.values.values())
    membership_violations = []
    star_violations = []
    for x in pou.ground_points():
        car = pou.carrier_at(x)
        if not any(car <= f for f in facets):
            membership_violations.append(x)
        star_violations += [(a, x) for a in car if a not in cover.values[x]]
    return CanonicalReport(membership_violations, star_violations)


class CoverSimplexMapping:
    """Queryable mapping sending each point to the realized subcomplex spanned
    by the cover members containing it.

    ``membership(p, x)`` holds iff the carrier of ``p`` is contained in the
    set of members containing ``x``; the fiber of ``p`` is the intersection
    of the members named by its carrier, an open set when the cover is open.
    """

    __slots__ = ("cover",)

    def __init__(self, cover):
        if not isinstance(cover, SetValuedMap):
            raise InputError("expected an indexed cover over a finite space")
        for a in cover.codomain.points:
            if not cover.domain.is_open(cover.fiber(a)):
                raise InputError(f"cover member {a!r} is not open")
        object.__setattr__(self, "cover", cover)

    def __setattr__(self, name, value):
        raise AttributeError("mapping is immutable")

    def members_at(self, x):
        return self.cover.values[x]

    def membership(self, p, x):
        car = p.carrier()
        if not car:
            raise InputError("point with empty carrier")
        return car <= self.cover.values[x]

    def fiber(self, p):
        car = p.carrier()
        if not car:
            raise InputError("point with empty carrier")
        out = frozenset(self.cover.domain.points)
        for a in car:
            out &= self.cover.fiber(a)
        return out

    def fiber_is_open(self, p):
        return self.cover.domain.is_open(self.fiber(p))


def cover_simplex_mapping(cover):
    return CoverSimplexMapping(cover)
