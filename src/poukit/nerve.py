"""Simplicial complexes, nerves of covers, and canonical maps.

Nerve nonemptiness is decided by witness points: a simplex enters the nerve
iff some witness lies in every member of it, so the distinct
inclusion-maximal member sets of the witnesses (the facets) determine the
nerve.  On a finite space with all points as witnesses this is the exact
nerve; on a metric sample ground it is a conservative sub-nerve, and emitted
complexes carry ``witnessed=True`` to record that.

A nerve is held as its facets and a dimension bound, as in the simplex tree
of Boissonnat and Maria (Algorithmica, 2014): membership of a simplex is a
subset test against the facets, and the full face set is enumerated only
when a caller reads ``simplices`` or a dump lists the faces.
``max_dimension`` bounds only the complexes built for dumps; canonical
verdicts are never truncated.

The hull map x -> conv{e_a : a in cover(x)}, which sends each point to a
simplex of the nerve, is :func:`poukit.selection.conv_membership` with
:func:`poukit.selection.conv_fiber_open`.
"""

from itertools import combinations

from ._immutable import immutable
from .errors import InputError

MAX_DIMENSION = 8


@immutable(init=False, eq=False)
class SimplicialComplex:
    """Downward-closed family of nonempty finite vertex sets.

    It is held as ``facets``, inclusion-maximal vertex sets, and
    ``max_dimension``: a simplex is a member iff it is nonempty, lies inside
    some facet and has at most ``max_dimension + 1`` vertices.  The
    constructor takes the simplices themselves and checks that they form a
    complex on ``vertices``; :func:`nerve_from_cover` builds its complexes
    from facets, closed by construction.  ``simplices``, the frozenset of
    all members, is built on first access.  Complexes with the same vertices
    and simplices are equal; a complex is no dict key.
    """

    vertices: frozenset
    facets: tuple
    max_dimension: int
    witnessed: bool
    _simplices: frozenset

    def __init__(self, vertices, simplices, witnessed=False):
        simplices = frozenset(frozenset(s) for s in simplices)
        vertices = frozenset(vertices)
        faces = set()  # codimension-1 faces; in a closed family, the non-facets
        for s in simplices:
            if not s:
                raise InputError("empty simplex")
            if not s <= vertices:
                raise InputError(f"simplex {sorted(s, key=repr)} has foreign vertices")
            for v in s:
                face = s - {v}
                if face and face not in simplices:
                    raise InputError(
                        f"not downward closed: face of {sorted(s, key=repr)} missing"
                    )
                faces.add(face)
        used = frozenset(v for s in simplices for v in s)
        if used != vertices:
            raise InputError(f"isolated vertices {sorted(vertices - used, key=repr)}")
        top = max(map(len, simplices), default=0) - 1
        self._fill(vertices, simplices - faces, top, witnessed, simplices)

    @classmethod
    def _from_facets(cls, facets, max_dimension, witnessed):
        """The complex of all faces of ``facets`` with at most
        ``max_dimension + 1`` vertices; nothing to check."""
        cx = object.__new__(cls)
        cx._fill(frozenset().union(*facets), facets, max_dimension, witnessed, None)
        return cx

    def _fill(self, vertices, facets, max_dimension, witnessed, simplices):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "facets", tuple(facets))
        object.__setattr__(self, "max_dimension", max_dimension)
        object.__setattr__(self, "witnessed", witnessed)
        object.__setattr__(self, "_simplices", simplices)

    @property
    def simplices(self):
        if self._simplices is None:
            object.__setattr__(self, "_simplices", frozenset(
                frozenset(s) for level in self.faces_by_size() for s in level
            ))
        return self._simplices

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.vertices == other.vertices
            and self.simplices == other.simplices
        )

    def __contains__(self, simplex):
        s = frozenset(simplex)
        return 0 < len(s) <= self.max_dimension + 1 and any(s <= f for f in self.facets)

    def dimension(self):
        return min(self.max_dimension, max(map(len, self.facets), default=0) - 1)

    def faces_by_size(self, label=None):
        """The simplices with 1, 2, ... vertices, one dict per size that maps
        each simplex, the tuple of its vertices in ``repr`` order, to the
        tuple of their labels: ``label(v)``, or ``v`` itself by default.
        Faces come from the facets, largest first, each kept at its first
        arrival, so a level is already nearly in lexicographic order."""
        ordered = sorted((sorted(f, key=repr) for f in self.facets), key=len, reverse=True)
        labelled = [(f, f if label is None else list(map(label, f))) for f in ordered]
        return [
            {s: t for f, ls in labelled for s, t in zip(combinations(f, k), combinations(ls, k))}
            for k in range(1, self.dimension() + 2)
        ]

    def realization_membership(self, p):
        """A simplex vector lies in the geometric realization iff its carrier
        is a simplex of the complex."""
        car = p.carrier()
        if not car <= self.vertices:
            raise InputError(f"foreign vertices {sorted(car - self.vertices, key=repr)}")
        return car in self


def _facets(index_sets):
    """The distinct inclusion-maximal sets among ``index_sets``."""
    facets = []
    for s in sorted(set(index_sets), key=len, reverse=True):
        if not any(s <= f for f in facets):
            facets.append(s)
    return facets


def nerve_from_cover(cover, witnesses=None, max_dimension=MAX_DIMENSION):
    """Nerve of an indexed cover (a SetValuedMap with discrete codomain) up
    to ``max_dimension``, held as the facets of the witnesses (by default
    every ground point).  A ball cover enters as
    ``incidence_cover(space.incidence(balls))``.  A negative
    ``max_dimension`` would leave the vertices without simplices and is an
    InputError.
    """
    if max_dimension < 0:
        raise InputError(f"max_dimension must be at least 0, got {max_dimension}")
    if witnesses is None:
        witnesses = cover.domain.points
    facets = _facets(cover.values[w] for w in witnesses)
    return SimplicialComplex._from_facets(facets, max_dimension, witnessed=True)


@immutable(eq=False)
class CanonicalReport:
    """Outcome of checking a partition of unity against a cover: realization
    membership of every row and the star condition coz(xi_U) inside U."""

    membership_violations: list
    star_violations: list

    def __post_init__(self):
        object.__setattr__(self, "membership_violations", list(self.membership_violations))
        object.__setattr__(self, "star_violations", list(self.star_violations))

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
    """Check that a partition of unity is a canonical map for the indexed
    cover, given as for :func:`nerve_from_cover`.

    A row lies in the realization of the nerve iff its carrier is inside
    some facet.  No complex is built, so the verdict is never truncated.
    """
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
