"""The names ``poukit`` exports.  A change to the public API shows up as a
diff of this list."""

import types

import poukit

PUBLIC_NAMES = [
    "Ball",
    "ConvexTarget",
    "CoverGap",
    "DiscontinuousAt",
    "ExtendedUnitVec",
    "FiniteSpace",
    "InputError",
    "LocalFinitenessCertificate",
    "MetricSampleSpace",
    "NonPositiveEpsilon",
    "NotACover",
    "NotAUnitVector",
    "NotReflexive",
    "NotTransitive",
    "PartitionOfUnity",
    "PoukitError",
    "PropertyReport",
    "RowNotSimplex",
    "SelectionCertificate",
    "SelfCheckFailed",
    "SetValuedMap",
    "SimplicialComplex",
    "SparseVec",
    "TailTooLarge",
    "barycentric_selection",
    "canonical_map_check",
    "carrier",
    "classify",
    "closure_cover",
    "conv_fiber_open",
    "conv_membership",
    "convex_combination",
    "dirac",
    "epsilon_selection",
    "finite_interval_model",
    "incidence_cover",
    "indexed_cover",
    "mather_compose",
    "mather_eta",
    "mather_lambda",
    "mather_support_bound",
    "nerve_from_cover",
    "norms",
    "pou_from_incidence",
    "product_space",
    "subordination_check",
    "uniform",
    "validate_pou",
    "validate_space",
]


def test_public_names():
    # submodules become package attributes once anything imports them, so
    # they are left out
    exported = sorted(
        name for name, value in vars(poukit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES
