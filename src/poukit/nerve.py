"""Simplicial complexes, nerves of covers, and canonical maps.

Nerve nonemptiness is decided by witness points: a simplex enters the nerve
iff some witness lies in every member of it, so the distinct
inclusion-maximal member sets of the witnesses (the facets) determine the
nerve.  On a finite space with all points as witnesses this is the exact
nerve; on a metric sample ground it is a conservative sub-nerve, and emitted
complexes carry ``witnessed=True`` to record that.

A complex is held as its facets, as in the simplex tree of Boissonnat and
Maria (Algorithmica, 2014): membership of a simplex is a subset test
against the facets, and the face set is enumerated only when a caller
reads ``simplices`` or a dump lists the faces.  A dimension bound such as
``--max-dim`` bounds only what a dump lists; membership, dimension and
canonical verdicts are never truncated.

The hull map x -> conv{e_a : a in cover(x)}, which sends each point to a
simplex of the nerve, is :func:`poukit.selection.conv_membership` with
:func:`poukit.selection.conv_fiber_open`.
"""

from itertools import combinations

from ._immutable import immutable
from .errors import InputError

MAX_DIMENSION = 8  # the default bound on the faces a dump lists


@immutable(init=False, eq=False)
class SimplicialComplex:
    """The complex generated by a family of nonempty vertex sets: every
    nonempty subset of a member is a simplex.

    It is held as ``facets``, the distinct inclusion-maximal members, and
    ``vertices``, their union; an empty member is an InputError.  A complex
    is downward closed by construction.  Complexes with the same facets are
    equal; a complex is no dict key.
    """

    vertices: frozenset
    facets: tuple
    witnessed: bool

    def __init__(self, sets, witnessed=False):
        facets, at = [], {}  # at[v]: the facets so far that hold vertex v
        for s in sorted(set(map(frozenset, sets)), key=len, reverse=True):
            if not s:
                raise InputError("empty simplex")
            # a facet holding s holds each of its vertices: test the fewest
            v = min(s, key=lambda u: len(at.get(u, ())))
            if not any(s <= f for f in at.get(v, ())):
                for u in s:
                    at.setdefault(u, []).append(s)
                facets.append(s)
        object.__setattr__(self, "vertices", frozenset().union(*facets))
        object.__setattr__(self, "facets", tuple(facets))
        object.__setattr__(self, "witnessed", witnessed)

    @property
    def simplices(self):
        """Every simplex, as a frozenset, enumerated on each read."""
        return frozenset(frozenset(s) for level in self.faces_by_size() for s in level)

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and set(self.facets) == set(other.facets)

    def __contains__(self, simplex):
        s = frozenset(simplex)
        return bool(s) and any(s <= f for f in self.facets)

    def dimension(self):
        return max(map(len, self.facets), default=0) - 1

    def faces_by_size(self, label=None, max_dimension=None):
        """The simplices with 1, 2, ... vertices, up to ``max_dimension + 1``
        when a bound is given, one dict per size that maps each simplex, the
        tuple of its vertices in ``repr`` order, to the tuple of their
        labels: ``label(v)``, or ``v`` itself by default.  Faces come from
        the facets, largest first, each kept at its first arrival, so a level
        is already nearly in lexicographic order.  A negative bound would
        leave the vertices without simplices and is an InputError."""
        top = self.dimension()
        if max_dimension is not None:
            if max_dimension < 0:
                raise InputError(f"max_dimension must be at least 0, got {max_dimension}")
            top = min(top, max_dimension)
        ordered = sorted((sorted(f, key=repr) for f in self.facets), key=len, reverse=True)
        labelled = [(f, f if label is None else list(map(label, f))) for f in ordered]
        return [
            {s: t for f, ls in labelled for s, t in zip(combinations(f, k), combinations(ls, k))}
            for k in range(1, top + 2)
        ]


def nerve_from_cover(cover, witnesses=None):
    """Nerve of an indexed cover (a SetValuedMap with discrete codomain),
    generated by the member sets of the witnesses (by default every ground
    point).  A ball cover enters as
    ``incidence_cover(space.incidence(balls))``.
    """
    if witnesses is None:
        witnesses = cover.domain.points
    return SimplicialComplex((cover.values[w] for w in witnesses), witnessed=True)


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

    A row lies in the realization of the nerve iff its carrier is a simplex
    of it.  A carrier inside ``cover(x)`` is one, so membership is tested,
    and the nerve built, only at points with a star violation.
    """
    if cover.codomain.points != pou.index_set:
        raise InputError("cover and partition use different index sets")
    if cover.domain.points != frozenset(pou.ground_points()):
        raise InputError("cover and partition use different ground points")
    nerve = None
    membership_violations = []
    star_violations = []
    for x in pou.ground_points():
        car = pou.carrier_at(x)
        stray = [(a, x) for a in car if a not in cover.values[x]]
        if stray:
            if nerve is None:
                nerve = nerve_from_cover(cover)
            if car not in nerve:
                membership_violations.append(x)
            star_violations += stray
    return CanonicalReport(membership_violations, star_violations)
