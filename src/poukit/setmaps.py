"""Set-valued mappings and indexed covers over finite spaces.

A mapping assigns a nonempty subset of the codomain to each point of the
domain.  When the codomain is a bare index set it is treated as discrete and
the mapping doubles as an indexed cover, with fibers
``fiber(a) = {x : a in values(x)}``.

``classify`` decides the whole semicontinuity hierarchy exactly:
lower semicontinuity, total lower semicontinuity (every fiber open),
open graph, lower local constancy, upper semicontinuity, and usco.
On finite spaces these are finite set computations, so each verdict comes
with a concrete witness when negative.  Lower local constancy asks that
``{x : K <= values(x)}`` be open for every finite K; that set is the
intersection of the fibers over K, and finite intersections of opens are
open, so lower local constancy is total lower semicontinuity here.
"""

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import and_, or_

from ._immutable import immutable
from .errors import InputError, NotACover, SelfCheckFailed
from .spaces import FiniteSpace, _first, _select


@immutable(init=False)
class SetValuedMap:
    """Nonempty-valued map from a finite space to a finite space or to a
    discrete index set.  It compares by value and is no dict key.  A bad
    value raises InputError at the first offending point in ``repr``
    order."""

    domain: FiniteSpace
    codomain: FiniteSpace
    values: dict
    _vm: list = field(default=None, repr=False, compare=False)
    __hash__ = None

    def __init__(self, domain, codomain, values):
        if not isinstance(domain, FiniteSpace):
            raise InputError("domain must be a FiniteSpace")
        if not isinstance(codomain, FiniteSpace):
            codomain = FiniteSpace.discrete(codomain)
        unknown = values.keys() - domain.points
        if unknown:
            raise InputError(f"values for unknown points {sorted(unknown, key=repr)}")
        vals = {p: frozenset(v) for p, v in values.items()}  # each p a domain point
        cod = codomain.points
        if len(vals) < len(domain.points) or not all(v and v <= cod for v in vals.values()):
            for p in sorted(domain.points, key=repr):
                if p not in vals:
                    raise InputError(f"no value at point {p!r}")
                if not vals[p]:
                    raise InputError(f"empty value at point {p!r}")
                if not vals[p] <= cod:
                    raise InputError(f"value at {p!r} leaves the codomain")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_vm", None)

    def __call__(self, x):
        return self.values[x]

    def _value_masks(self):
        """Each value as a mask over the codomain's index, in the order of
        the domain's, built on the first call."""
        if self._vm is None:
            order = self.domain._index().order
            vm = self.codomain._index().masks(map(self.values.__getitem__, order))
            object.__setattr__(self, "_vm", vm)
        return self._vm

    def _image_mask(self, m):
        """The codomain mask of the union of values(x) over the domain mask m."""
        return reduce(or_, _select(self._value_masks(), m), 0)

    def fiber(self, y):
        """Preimage of a single codomain element."""
        return self.preimage((y,))

    def preimage(self, ys):
        """{x : values(x) meets ys}."""
        ix, iy = self.domain._index(), self.codomain._index()
        m = iy.mask(frozenset(ys) & self.codomain.points)
        return ix.points(_preimage(ix.bits, self._value_masks(), m))

    def image(self, s):
        s = frozenset(s)
        if not s <= self.domain.points:
            raise InputError("image over unknown points")
        m = self._image_mask(self.domain._index().mask(s))
        return self.codomain._index().points(m)

    def is_discrete_codomain(self):
        return all(
            self.codomain.min_open[y] == frozenset({y}) for y in self.codomain.points
        )


def _preimage(bits, vm, m):
    """The OR of ``bits[i]`` over the i with ``vm[i]`` meeting the mask m."""
    return reduce(or_, compress(bits, map(m.__and__, vm)), 0)


def indexed_cover(domain, index_set, values):
    """A cover of the domain indexed by a discrete set."""
    return SetValuedMap(domain, FiniteSpace.discrete(index_set), values)


def incidence_cover(incidence):
    """The ball cover behind ``incidence = space.incidence(balls)`` as an
    indexed cover of the discrete space on the samples: each sample maps to
    the balls that contain it, as the incidence decided them.  A sample
    outside every ball raises NotACover."""
    samples, values = incidence.space.samples, {}
    for x, row in zip(samples, incidence.rows):
        if not row:
            raise NotACover(x)
        values[x] = row.keys()
    return indexed_cover(FiniteSpace.discrete(samples), set(incidence.balls), values)


@dataclass
class PropertyReport:
    """Classification flags with a witness for each negative verdict."""

    is_cover: bool = True
    lsc: bool = True
    totally_lsc: bool = True
    open_graph: bool = True
    lower_locally_constant: bool = True
    usc: bool = True
    usco: bool = True
    witnesses: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "is_cover": self.is_cover,
            "lsc": self.lsc,
            "totally_lsc": self.totally_lsc,
            "open_graph": self.open_graph,
            "lower_locally_constant": self.lower_locally_constant,
            "usc": self.usc,
            "usco": self.usco,
            "witnesses": {
                k: sorted(map(repr, v)) if isinstance(v, (set, frozenset)) else repr(v)
                for k, v in self.witnesses.items()
            },
        }


def classify(phi):
    """Exact semicontinuity classification of a set-valued mapping.

    Polynomial in |X| and |Y|, on masks: at most |Y| openness tests and |Y|
    closedness tests on X, and one intersection of values and one union of
    minimal opens per point of X; no subset of Y and no product space is
    built.  Each witness is the first failure in ``repr`` order.
    """
    ix, iy = phi.domain._index(), phi.codomain._index()
    bits, vm = ix.bits, phi._value_masks()
    rep = PropertyReport()

    # values nonempty by construction; is_cover records that fact
    rep.is_cover = all(vm)

    # l.s.c. on the minimal-open basis (preimages commute with unions)
    for q, uq in zip(iy.order, iy.up):
        if not ix.is_open(_preimage(bits, vm, uq)):
            rep.lsc = False
            rep.witnesses["lsc"] = ("basic open at", q)
            break

    # common[p]: the intersection of values(a) over a in U_p.  The fiber of
    # q is open iff q in values(p) implies q in common[p] for each p
    common = [reduce(and_, _select(vm, u)) for u in ix.up]
    bad = reduce(or_, [v & ~c for v, c in zip(vm, common)], 0)

    # totally l.s.c. = every fiber open = lower locally constant, since
    # {x : K <= values(x)} is the intersection of the fibers over K; the
    # first K that fails is the singleton of the first non-open fiber
    if bad:
        q = _first(iy.order, bad)
        rep.totally_lsc = rep.lower_locally_constant = False
        rep.witnesses["totally_lsc"] = ("fiber not open", q)
        rep.witnesses["lower_locally_constant"] = ("set not open for", frozenset({q}))

    # open graph: the basic product box U_p x U_q lies inside the graph iff
    # U_q lies in common[p]; the witness is the first failing p by repr and
    # its first failing q, which is the first failing graph point by repr
    for p, v, c in zip(ix.order, vm, common):
        if reduce(or_, _select(iy.up, v)) & ~c:
            q = next(q for q, uq in zip(_select(iy.order, v), _select(iy.up, v)) if uq & ~c)
            rep.open_graph = False
            rep.witnesses["open_graph"] = ("no open box inside the graph at", (p, q))
            break

    # u.s.c. on point closures (closed sets are unions of these)
    for q, dq in zip(iy.order, iy.down):
        if not ix.is_closed(_preimage(bits, vm, dq)):
            rep.usc = False
            rep.witnesses["usc"] = ("preimage of point closure not closed", q)
            break

    # finite values are compact, so usco collapses to usc
    rep.usco = rep.usc
    return rep


def closure_cover(omega):
    """Cover whose fibers are the closures of the original fibers.

    A fiber's closure is the union of the closures cl{y} of its points y, so
    values(y) is scattered over cl{y}; the values are then re-derived
    pointwise from the defining neighborhood-image intersection, the image
    of the minimal open U_p, as p in U_q implies U_p <= U_q.  On an indexed
    cover (a discrete codomain) the two must agree: that is the closed-cover
    identity, and a disagreement at the first point by repr raises
    SelfCheckFailed.  Values are masks until the result is built.
    """
    ix, iy = omega.domain._index(), omega.codomain._index()
    values = dict(zip(ix.order, map(iy.points, _closed_value_masks(omega))))
    return SetValuedMap(omega.domain, omega.codomain, values)


def _closed_value_masks(omega):
    """``closure_cover``'s value masks in domain order, scattered over the
    ``down`` masks, after their cross-check with the images of the ``up``
    masks; a disagreement lists both sides' points in ``repr`` order."""
    ix, iy = omega.domain._index(), omega.codomain._index()
    closed = [0] * len(ix.order)
    for v, d in zip(omega._value_masks(), ix.down):
        while d:
            low = d & -d
            closed[low.bit_length() - 1] |= v
            d ^= low
    for p, u, cv in zip(ix.order, ix.up, closed):
        acc = omega._image_mask(u)
        if acc != cv:
            raise SelfCheckFailed(
                f"closure-cover formulas disagree at {p!r}: "
                f"{_select(iy.order, acc)} vs {_select(iy.order, cv)}"
            )
    return closed
