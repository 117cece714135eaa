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

from ._immutable import immutable
from .errors import InputError, NotACover, SelfCheckFailed
from .spaces import FiniteSpace


@immutable(init=False)
class SetValuedMap:
    """Nonempty-valued map from a finite space to a finite space or to a
    discrete index set.  It compares by value and is no dict key."""

    domain: FiniteSpace
    codomain: FiniteSpace
    values: dict
    __hash__ = None

    def __init__(self, domain, codomain, values):
        if not isinstance(domain, FiniteSpace):
            raise InputError("domain must be a FiniteSpace")
        if not isinstance(codomain, FiniteSpace):
            codomain = FiniteSpace.discrete(codomain)
        unknown = values.keys() - domain.points
        if unknown:
            raise InputError(f"values for unknown points {sorted(unknown, key=repr)}")
        vals = {}
        for p in domain.points:
            if p not in values:
                raise InputError(f"no value at point {p!r}")
            v = frozenset(values[p])
            if not v:
                raise InputError(f"empty value at point {p!r}")
            if not v <= codomain.points:
                raise InputError(f"value at {p!r} leaves the codomain")
            vals[p] = v
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "values", vals)

    def __call__(self, x):
        return self.values[x]

    def fiber(self, y):
        """Preimage of a single codomain element."""
        return frozenset(x for x in self.domain.points if y in self.values[x])

    def preimage(self, ys):
        """{x : values(x) meets ys}."""
        ys = frozenset(ys)
        return frozenset(x for x in self.domain.points if self.values[x] & ys)

    def image(self, s):
        s = frozenset(s)
        if not s <= self.domain.points:
            raise InputError("image over unknown points")
        out = set()
        for x in s:
            out |= self.values[x]
        return frozenset(out)

    def is_discrete_codomain(self):
        return all(
            self.codomain.min_open[y] == frozenset({y}) for y in self.codomain.points
        )


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

    Polynomial in |X| and |Y|: at most 3|Y| openness tests and one basic
    box per graph point; no subset of Y and no product space is built.
    """
    x, y = phi.domain, phi.codomain
    rep = PropertyReport()

    # values nonempty by construction; is_cover records that fact
    rep.is_cover = all(phi.values[p] for p in x.points)

    # l.s.c. on the minimal-open basis (preimages commute with unions)
    for q in sorted(y.points, key=repr):
        pre = phi.preimage(y.min_open[q])
        if not x.is_open(pre):
            rep.lsc = False
            rep.witnesses["lsc"] = ("basic open at", q)
            break

    # totally l.s.c. = every fiber open = lower locally constant, since
    # {x : K <= values(x)} is the intersection of the fibers over K; the
    # first K that fails is the singleton of the first non-open fiber
    for q in sorted(y.points, key=repr):
        if not x.is_open(phi.fiber(q)):
            rep.totally_lsc = rep.lower_locally_constant = False
            rep.witnesses["totally_lsc"] = ("fiber not open", q)
            rep.witnesses["lower_locally_constant"] = ("set not open for", frozenset({q}))
            break

    # open graph: the basic product box at (p, q) lies inside the graph
    graph = {(p, q) for p in x.points for q in phi.values[p]}
    for p, q in sorted(graph, key=repr):
        if not all(y.min_open[q] <= phi.values[a] for a in x.min_open[p]):
            rep.open_graph = False
            rep.witnesses["open_graph"] = ("no open box inside the graph at", (p, q))
            break

    # u.s.c. on point closures (closed sets are unions of these)
    for q in sorted(y.points, key=repr):
        pre = phi.preimage(y.closure({q}))
        if not x.is_closed(pre):
            rep.usc = False
            rep.witnesses["usc"] = ("preimage of point closure not closed", q)
            break

    # finite values are compact, so usco collapses to usc
    rep.usco = rep.usc
    return rep


def closure_cover(omega):
    """Cover whose fibers are the closures of the original fibers.

    Each fiber is closed once; the values are then re-derived pointwise from
    the defining neighborhood-image intersection, which is the image of the
    minimal open U_p, as p in U_q implies U_p <= U_q.  On an indexed cover (a
    discrete codomain) the two must agree: that is the closed-cover
    identity, and a disagreement raises SelfCheckFailed.
    """
    x = omega.domain
    closed_fibers = {a: x.closure(omega.fiber(a)) for a in omega.codomain.points}
    closed_values = {
        p: frozenset(a for a, cl in closed_fibers.items() if p in cl) for p in x.points
    }
    for p in x.points:
        acc = set(omega.image(x.min_open[p]))
        if acc != closed_values[p]:
            raise SelfCheckFailed(
                f"closure-cover formulas disagree at {p!r}: {acc} vs {closed_values[p]}"
            )
    return SetValuedMap(x, omega.codomain, closed_values)

