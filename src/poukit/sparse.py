"""Finitely supported vectors, the l1 unit simplex, and the locally-finite
shrinking transform.

A ``SparseVec`` is a finitely supported real function on an index universe,
stored as a map from index to nonzero value.  ``UnitSimplexPoint`` restricts
to strictly positive entries summing to one.  ``ExtendedUnitVec`` models unit
vectors whose support may extend beyond the explicitly listed part: the
remainder is described by a certified tail bound (total unlisted mass and a
per-coordinate cap), never by data.

The shrinking transform drops every coordinate that does not exceed half the
sup-norm and renormalizes; it maps unit vectors to finitely supported simplex
points with carriers contained in the original carrier.

Vectors of ``Fraction`` entries are summed, normalized and shrunk on integers
over the lcm of their denominators.  Rows checked by ``validate_pou`` are not
checked again when they are shrunk.
"""

from fractions import Fraction

from ._immutable import immutable
from .errors import NotAUnitVector, TailTooLarge
from .scalars import EXACT, _fold_sum, _over_lcm


@immutable(init=False)
class SparseVec:
    """Immutable finitely supported vector: index -> nonzero scalar."""

    entries: dict

    def __init__(self, entries=()):
        if isinstance(entries, SparseVec):
            data = dict(entries.entries)
        elif isinstance(entries, dict):
            data = {k: v for k, v in entries.items() if v != 0}
        else:
            data = {}
            for k, v in entries:
                if v != 0:
                    data[k] = data.get(k, 0) + v
                    if data[k] == 0:
                        del data[k]
        object.__setattr__(self, "entries", data)

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def __iter__(self):
        return iter(sorted(self.entries, key=repr))

    def __len__(self):
        return len(self.entries)

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __repr__(self):
        inner = ", ".join(f"{k!r}: {self.entries[k]}" for k in self)
        return "SparseVec({%s})" % inner

    def carrier(self):
        """Index set where the vector is nonzero."""
        return frozenset(self.entries)

    def norm1(self):
        over = self.entries and _over_lcm(self.entries.values(), Fraction)  # empty: int 0
        if over:
            return Fraction(sum(map(abs, over[0])), over[1])
        return _fold_sum(map(abs, self.entries.values()))

    def sup_norm(self):
        return max((abs(v) for v in self.entries.values()), default=0)

    def scale(self, c):
        return SparseVec((k, c * v) for k, v in self.entries.items())

    def add(self, other):
        return SparseVec(
            list(self.entries.items()) + list(other.entries.items())
        )

    def sub(self, other):
        return self.add(other.scale(-1))


def carrier(v):
    return v.carrier()


def norms(v):
    """(l1, sup) norm pair; (0, 0) for the zero vector."""
    return v.norm1(), v.sup_norm()


def dirac(index):
    return SparseVec({index: Fraction(1)})


def is_unit_simplex_point(v, mode=EXACT):
    """All entries strictly positive and l1 mass one, as ``mode.is_one``
    decides it."""
    if not v.entries or any(x <= 0 for x in v.entries.values()):
        return False
    return mode.is_one(v.norm1())


def as_unit_simplex_point(v, mode=EXACT):
    if not is_unit_simplex_point(v, mode):
        raise NotAUnitVector(f"not a unit simplex point: {v!r}")
    return v


def uniform(indices):
    indices = list(indices)
    w = Fraction(1, len(indices))
    return SparseVec({i: w for i in indices})


def convex_combination(weights, points):
    """Weighted sum of sparse vectors; ``weights`` is a unit simplex point and
    every carried index must have a point."""
    missing = weights.carrier() - set(points)
    if missing:
        raise KeyError(f"no point supplied for weighted indices {sorted(missing, key=repr)}")
    acc = []
    for k in weights:
        acc.extend(points[k].scale(weights[k]).entries.items())
    return SparseVec(acc)


@immutable(init=False, eq=False)
class ExtendedUnitVec:
    """Unit-mass vector given by an explicit positive finite part plus a tail
    certificate: the unlisted coordinates carry total mass ``tail_mass`` and
    each is at most ``tail_sup``."""

    explicit: SparseVec
    tail_mass: object
    tail_sup: object

    def __init__(self, explicit, tail_mass=0, tail_sup=0, mode=EXACT):
        explicit = SparseVec(explicit)
        if any(x <= 0 for x in explicit.entries.values()):
            raise NotAUnitVector("explicit part must be strictly positive")
        if tail_mass < 0 or tail_sup < 0 or tail_sup > tail_mass:
            raise NotAUnitVector("need 0 <= tail_sup <= tail_mass")
        total = explicit.norm1() + tail_mass
        if not mode.is_one(total):
            raise NotAUnitVector(f"total mass {total} != 1")
        object.__setattr__(self, "explicit", explicit)
        object.__setattr__(self, "tail_mass", tail_mass)
        object.__setattr__(self, "tail_sup", tail_sup)

    def __repr__(self):
        return (
            f"ExtendedUnitVec({self.explicit!r}, tail_mass={self.tail_mass}, "
            f"tail_sup={self.tail_sup})"
        )

    def sup_norm(self):
        # The tail cap participates: an unlisted coordinate may reach tail_sup.
        return max(self.explicit.sup_norm(), self.tail_sup)

    @classmethod
    def from_simplex_point(cls, p, mode=EXACT):
        """``p`` with an empty tail, checked once by ``as_unit_simplex_point``."""
        return cls._of_checked(as_unit_simplex_point(p, mode))

    @classmethod
    def _of_checked(cls, p):
        """``p``, already known to be a unit simplex point, with an empty tail."""
        y = object.__new__(cls)
        object.__setattr__(y, "explicit", p)
        object.__setattr__(y, "tail_mass", 0)
        object.__setattr__(y, "tail_sup", 0)
        return y


def _as_extended(y, mode=EXACT):
    if isinstance(y, ExtendedUnitVec):
        return y
    return ExtendedUnitVec.from_simplex_point(y, mode)


def _half_sup(y):
    sup = y.sup_norm()
    half = sup / 2
    if y.tail_sup >= half:
        raise TailTooLarge(
            f"tail_sup={y.tail_sup} >= sup/2={half}; unlisted survivors possible"
        )
    return half


def mather_lambda(y, mode=EXACT):
    """Coordinatewise ``max(y(a) - sup/2, 0)``.

    Only explicitly listed coordinates can survive (guaranteed by the tail
    precondition), and ties at exactly half the sup-norm are dropped.  The
    result is nonzero: the argmax coordinate keeps half the sup-norm.
    """
    y = _as_extended(y, mode)
    half = _half_sup(y)
    return SparseVec(
        (k, v - half) for k, v in y.explicit.entries.items() if v > half
    )


def mather_eta(y, mode=EXACT):
    """l1-normalized shrinking transform; lands in the finite unit simplex.
    With ``Fraction`` entries n_a / d over their lcm d and M = max n, the clip
    is (2 n_a - M) / 2d, so eta(a) = (2 n_a - M) / sum(2 n - M) over 2 n > M."""
    y = _as_extended(y, mode)
    over = y.explicit.entries and _over_lcm(y.explicit.entries.values(), Fraction)
    if not over:
        lam = mather_lambda(y, mode)
        total = lam.norm1()
        return lam.scale(1 / total if isinstance(total, float) else Fraction(1) / total)
    if y.tail_sup:  # a zero tail_sup is below the positive half sup
        _half_sup(y)
    top = max(over[0])
    kept = {a: 2 * n - top for a, n in zip(y.explicit.entries, over[0]) if 2 * n > top}
    total = sum(kept.values())
    return SparseVec({a: Fraction(n, total) for a, n in kept.items()})


def _normalized(weights):
    """``(weights / total, total)`` for a nonempty dict of positive weights;
    ``Fraction`` weights n_a / d over one denominator give n_a / sum(n)."""
    over = _over_lcm(weights.values(), Fraction)
    if not over:
        total = _fold_sum(weights.values())
        return SparseVec({a: g / total for a, g in weights.items()}), total
    n = sum(over[0])
    return SparseVec({a: Fraction(g, n) for a, g in zip(weights, over[0])}), Fraction(n, over[1])


def mather_support_bound(y, mode=EXACT):
    """Support stability certificate: a finite index set B and a radius d > 0
    such that every unit vector within l1-distance d of ``y`` shrinks into B.

    Uses d = (sup - 2 * tail_mass) / 6, strictly inside the sound range
    (anything below (sup - 2 * tail_mass) / 3 works: a perturbed vector y'
    has sup' >= sup - d, while an unlisted coordinate is at most
    tail_sup + d <= tail_mass + d < sup'/2).
    """
    y = _as_extended(y, mode)
    _half_sup(y)
    sup = y.sup_norm()
    margin = sup - 2 * y.tail_mass
    if margin <= 0:
        raise TailTooLarge(
            f"tail_mass={y.tail_mass} >= sup/2={sup / 2}; no positive radius"
        )
    radius = margin / 6 if isinstance(margin, float) else Fraction(margin, 6)
    return y.explicit.carrier(), radius
