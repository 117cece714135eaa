"""Exception types shared across the library."""


class PoukitError(Exception):
    """Base class for all library errors."""


class SelfCheckFailed(PoukitError):
    """A construction's internal cross-check failed: two formulas that must
    agree did not, or a certificate it guarantees does not hold; then
    ``certificate`` is that certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class InputError(PoukitError):
    """Malformed or inconsistent input data (bad JSON, unknown point, ...)."""


class NotAUnitVector(InputError, ValueError):
    """A vector given as a unit vector is not one: an entry is not positive,
    a tail bound is out of range, or the mass is not one.  It is also a
    ValueError, so callers that catch ValueError keep working."""


class TailTooLarge(PoukitError):
    """The tail certificate of an extended unit vector is too weak for the
    locally-finite transform: tail_sup >= sup_norm / 2, so survival of an
    unlisted coordinate cannot be ruled out."""


class NotReflexive(InputError):
    def __init__(self, point):
        self.point = point
        super().__init__(f"minimal open set of {point!r} does not contain it")


class NotTransitive(InputError):
    def __init__(self, x, y, z):
        self.x, self.y, self.z = x, y, z
        super().__init__(
            f"{z!r} in min_open({y!r}) and {y!r} in min_open({x!r}) "
            f"but {z!r} not in min_open({x!r})"
        )


class RowNotSimplex(InputError):
    def __init__(self, point, reason):
        self.point = point
        super().__init__(f"row at {point!r} is not a unit-simplex point: {reason}")


class DiscontinuousAt(InputError):
    def __init__(self, x, y):
        self.x, self.y = x, y
        super().__init__(
            f"rows at {x!r} and {y!r} differ although {y!r} lies in min_open({x!r})"
        )


class NotACover(InputError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"point {witness!r} is not covered")


class CoverGap(InputError):
    def __init__(self, point):
        self.point = point
        super().__init__(f"no anchor is epsilon-close to the target set at {point!r}")


class NonPositiveEpsilon(InputError):
    def __init__(self, value):
        super().__init__(f"epsilon must be positive, got {value}")
