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
reads ``simplices`` or a dump lists the faces.  Both go through one
generator, :meth:`SimplicialComplex.faces_by_size`, which also owns the
order a dump lists them in (strings first), from the facets'
combinations.  The command line writes a nerve's faces from combinations
of the facets' vertex texts only when it writes the report, and keeps no
object per face but its text.  A dimension bound such as ``--max-dim``
bounds only what a dump lists; membership, dimension and canonical
verdicts are never truncated.

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
        when a bound is given: one iterable per size of the tuples of their
        vertices in ``repr`` order, or with ``label`` of their labels
        ``label(v)``, listed as the lists of their vertices' :func:`_list_key`
        compare.  A level sorts on its vertex tuples when all names are
        strings, and else on the tuples of the vertices' ranks in that list
        order.  A level that one facet alone reaches is that facet's
        combinations, each face once and, when the facet's sort keys ascend
        in ``repr`` order, already in order; any other level keeps each face
        once in a dict keyed by what it sorts on, and sorts the keys.  A
        negative bound would leave the vertices without simplices and is an
        InputError."""
        top = self.dimension()
        if _dump_bound(max_dimension) is not None:
            top = min(top, max_dimension)
        rank = None  # None when all names are strings, whose list order is str order
        if not all(type(v) is str for v in self.vertices):
            rank = {v: r for r, v in enumerate(sorted(self.vertices, key=_list_key))}
        repr_rank = {v: r for r, v in enumerate(sorted(self.vertices, key=repr))}
        facets = []  # each facet's sort keys and what it lists, in repr order
        for f in sorted(self.facets, key=len, reverse=True):
            f = sorted(f, key=repr_rank.__getitem__)
            facets.append((f if rank is None else list(map(rank.__getitem__, f)),
                           f if label is None else list(map(label, f))))
        ascends = bool(facets) and facets[0][0] == sorted(facets[0][0])

        def levels():
            for k in range(1, top + 2):
                reach = [f for f in facets if len(f[0]) >= k]
                if len(reach) == 1 and ascends:
                    yield combinations(reach[0][1], k)
                else:  # each face once, keyed by the tuple it sorts on
                    rows = {}
                    for keys, values in reach:
                        rows.update(zip(combinations(keys, k), combinations(values, k)))
                    yield list(map(rows.__getitem__, sorted(rows)))

        return levels()


def _dump_bound(max_dimension):
    """``max_dimension``, or None; a negative dump bound is an InputError."""
    if max_dimension is not None and max_dimension < 0:
        raise InputError(f"max_dimension must be at least 0, got {max_dimension}")
    return max_dimension


def _list_key(v):
    """The list order of vertex names: strings first, then other names by
    type name and value; total on JSON names."""
    return type(v) is not str, type(v).__name__, v


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


def canonical_map_check(pou, cover):
    """Check that a partition of unity is a canonical map for the indexed
    cover, given as for :func:`nerve_from_cover`.

    A row lies in the realization of the nerve iff its carrier lies inside
    some point's cover value, so no complex is built; it is tested only at
    points with a star violation.  Each point's row and cover value are read
    once: as many ground points as the cover's domain has, each with a cover
    value, are that domain.
    """
    if cover.codomain.points != pou.index_set:
        raise InputError("cover and partition use different index sets")
    points, rows, values = pou.ground_points(), pou.rows, cover.values
    if len(points) != len(cover.domain.points):
        raise InputError("cover and partition use different ground points")
    membership_violations = []
    star_violations = []
    for x in points:
        car, value = rows[x].entries.keys(), values.get(x)
        if value is None:
            raise InputError("cover and partition use different ground points")
        if not car <= value:
            if not any(car <= v for v in values.values()):
                membership_violations.append(x)
            star_violations += [(a, x) for a in car if a not in value]
    return CanonicalReport(membership_violations, star_violations)
