"""Desk-scale toolkit for partitions of unity, indexed covers, nerves, and
certified approximate selections on finite grounds."""

from .errors import (
    CoverGap,
    DiscontinuousAt,
    InputError,
    NonPositiveEpsilon,
    NotACover,
    NotAUnitVector,
    NotReflexive,
    NotTransitive,
    PoukitError,
    RowNotSimplex,
    SelfCheckFailed,
    TailTooLarge,
)
from .nerve import (
    SimplicialComplex,
    canonical_map_check,
    nerve_from_cover,
)
from .pou import (
    LocalFinitenessCertificate,
    PartitionOfUnity,
    mather_compose,
    pou_from_incidence,
    subordination_check,
)
from .selection import (
    ConvexTarget,
    SelectionCertificate,
    barycentric_selection,
    conv_fiber_open,
    conv_membership,
    epsilon_selection,
)
from .setmaps import (
    PropertyReport,
    SetValuedMap,
    classify,
    closure_cover,
    incidence_cover,
    indexed_cover,
)
from .spaces import (
    Ball,
    FiniteSpace,
    MetricSampleSpace,
    finite_interval_model,
)
from .sparse import (
    ExtendedUnitVec,
    SparseVec,
    mather_eta,
    mather_lambda,
    mather_support_bound,
)

__version__ = "0.1.0"
