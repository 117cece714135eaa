"""Finitely supported vectors, the l1 unit simplex, and the locally-finite
shrinking transform.

A ``SparseVec`` is a finitely supported real function on an index universe,
stored as a map from index to nonzero value.  A unit simplex point restricts
to strictly positive entries summing to one.  ``ExtendedUnitVec`` models unit
vectors whose support may extend beyond the explicitly listed part: the
remainder is described by a certified tail bound (total unlisted mass and a
per-coordinate cap), never by data.

The shrinking transform drops every coordinate that does not exceed half the
sup-norm and renormalizes; it maps unit vectors to finitely supported simplex
points with carriers contained in the original carrier.

Vectors of ``Fraction`` entries are summed, checked and shrunk on integers
over the lcm of their denominators, and a vector whose entries are nonzero
by construction is not tested for zeros again.  A vector builds that
integer form once, from its own entries, on the first call that needs it,
and its unit-simplex check, l1 norm and shrink share it; no constructor
supplies it.  The rows of a ``PartitionOfUnity``, checked when it was
built, are not checked again when they are shrunk.
"""

from collections.abc import Mapping
from dataclasses import field
from fractions import Fraction
from types import MappingProxyType

from ._immutable import immutable
from .errors import NotAUnitVector, TailTooLarge
from .scalars import _fold_sum, _over_lcm, is_one


@immutable(init=False)
class SparseVec:
    """Immutable finitely supported vector: index -> nonzero scalar, built
    from a mapping or a SparseVec, else TypeError; ``entries`` is read-only."""

    entries: MappingProxyType
    _ov: object = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, entries=MappingProxyType({})):
        if isinstance(entries, SparseVec):
            entries = entries.entries
        if not isinstance(entries, Mapping):
            raise TypeError(f"SparseVec takes a mapping, not {type(entries).__name__}")
        object.__setattr__(self, "entries", MappingProxyType(
            {k: v for k, v in entries.items() if v != 0}))
        object.__setattr__(self, "_ov", None)

    @classmethod
    def _of_nonzero(cls, data):
        """The vector ``data``, a dict whose values are known to be nonzero."""
        v = object.__new__(cls)
        object.__setattr__(v, "entries", MappingProxyType(data))
        object.__setattr__(v, "_ov", None)
        return v

    def _over(self):
        """``(nums, d)``, the entries over their lcm d, when every entry is a
        ``Fraction``, else False; read from ``entries`` on the first call
        and kept."""
        if self._ov is None:
            ov = bool(self.entries) and _over_lcm(self.entries.values(), Fraction) or False
            object.__setattr__(self, "_ov", ov)
        return self._ov

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
        over = self._over()  # empty: int 0
        if over:
            return Fraction(sum(map(abs, over[0])), over[1])
        return _fold_sum(map(abs, self.entries.values()))

    def sup_norm(self):
        return max((abs(v) for v in self.entries.values()), default=0)


def is_unit_simplex_point(v):
    """All entries strictly positive and l1 mass one, as ``is_one`` decides
    it.  A vertex e_a, one entry equal to 1, passes as it is.  ``Fraction``
    entries n_a / d over their lcm d are decided on integers: every n_a > 0
    and sum(n) == d."""
    if _is_vertex(v):
        return True
    over = v._over()
    if over:
        nums, d = over
        return all(n > 0 for n in nums) and sum(nums) == d
    values = v.entries.values()
    if not values or any(x <= 0 for x in values):
        return False
    return is_one(v.norm1())


def _is_vertex(v):
    """Whether ``v`` is a vertex e_a of the simplex: one entry, equal to 1."""
    return len(v.entries) == 1 and 1 in v.entries.values()


@immutable(init=False, eq=False)
class ExtendedUnitVec:
    """Unit-mass vector given by an explicit positive finite part plus a tail
    certificate: the unlisted coordinates carry total mass ``tail_mass`` and
    each is at most ``tail_sup``; ``is_one`` decides the total mass."""

    explicit: SparseVec
    tail_mass: object
    tail_sup: object

    def __init__(self, explicit, tail_mass=0, tail_sup=0):
        explicit = SparseVec(explicit)
        if any(x <= 0 for x in explicit.entries.values()):
            raise NotAUnitVector("explicit part must be strictly positive")
        if tail_mass < 0 or tail_sup < 0 or tail_sup > tail_mass:
            raise NotAUnitVector("need 0 <= tail_sup <= tail_mass")
        total = explicit.norm1() + tail_mass
        if not is_one(total):
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
    def _of_checked(cls, p):
        """``p``, already known to be a unit simplex point, with an empty tail."""
        y = object.__new__(cls)
        object.__setattr__(y, "explicit", p)
        object.__setattr__(y, "tail_mass", 0)
        object.__setattr__(y, "tail_sup", 0)
        return y


def _as_extended(y):
    """``y`` as an ``ExtendedUnitVec``; NotAUnitVector if it is not one."""
    if isinstance(y, ExtendedUnitVec):
        return y
    if not is_unit_simplex_point(y):
        raise NotAUnitVector(f"not a unit simplex point: {y!r}")
    return ExtendedUnitVec._of_checked(y)


def _half_sup(y):
    sup = y.sup_norm()
    half = sup / 2
    if y.tail_sup >= half:
        raise TailTooLarge(
            f"tail_sup={y.tail_sup} >= sup/2={half}; unlisted survivors possible"
        )
    return half


def mather_lambda(y):
    """Coordinatewise ``max(y(a) - sup/2, 0)`` of an ``ExtendedUnitVec``, or
    of a unit simplex point checked as ``is_one`` decides it.

    Only explicitly listed coordinates can survive (guaranteed by the tail
    precondition), and ties at exactly half the sup-norm are dropped.  The
    result is nonzero: the argmax coordinate keeps half the sup-norm.
    """
    y = _as_extended(y)
    half = _half_sup(y)
    return SparseVec({k: v - half for k, v in y.explicit.entries.items() if v > half})


def mather_eta(y):
    """l1-normalized shrinking transform of ``y`` as ``mather_lambda`` takes
    it; lands in the finite unit simplex.  With ``Fraction`` entries n_a / d
    over their lcm d and M = max n, the clip is (2 n_a - M) / 2d, so
    eta(a) = (2 n_a - M) / sum(2 n - M) over 2 n > M."""
    y = _as_extended(y)
    entries, over = y.explicit.entries, y.explicit._over()
    if not over:  # mather_lambda, its l1 norm and its scaling, on one dict
        half = _half_sup(y)
        lam = {k: w for k, v in entries.items() if v > half and (w := v - half) != 0}
        total = _fold_sum(lam.values())
        c = 1 / total if isinstance(total, float) else Fraction(1) / total
        return SparseVec._of_nonzero({k: p for k, w in lam.items() if (p := c * w) != 0})
    if y.tail_sup:  # a zero tail_sup is below the positive half sup
        _half_sup(y)
    top = max(over[0])
    kept = {a: 2 * n - top for a, n in zip(entries, over[0]) if 2 * n > top}
    total = sum(kept.values())
    return SparseVec._of_nonzero({a: Fraction(n, total) for a, n in kept.items()})


def _normalized(weights):
    """``(weights / total, total)`` for a nonempty dict of positive weights,
    summed left to right."""
    total = _fold_sum(weights.values())
    return SparseVec({a: g / total for a, g in weights.items()}), total


def mather_support_bound(y):
    """Support stability certificate: a finite index set B and a radius d > 0
    such that every unit vector within l1-distance d of ``y`` (as
    ``mather_lambda`` takes it) shrinks into B.

    Uses d = (sup - 2 * tail_mass) / 6, strictly inside the sound range
    (anything below (sup - 2 * tail_mass) / 3 works: a perturbed vector y'
    has sup' >= sup - d, while an unlisted coordinate is at most
    tail_sup + d <= tail_mass + d < sup'/2).
    """
    y = _as_extended(y)
    _half_sup(y)
    sup = y.sup_norm()
    margin = sup - 2 * y.tail_mass
    if margin <= 0:
        raise TailTooLarge(
            f"tail_mass={y.tail_mass} >= sup/2={sup / 2}; no positive radius"
        )
    radius = margin / 6 if isinstance(margin, float) else Fraction(margin, 6)
    return y.explicit.carrier(), radius
