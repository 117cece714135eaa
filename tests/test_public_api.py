"""The names ``poukit`` exports.  A change to the public API shows up as a
diff of this list."""

import inspect
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
    "classify",
    "closure_cover",
    "conv_fiber_open",
    "conv_membership",
    "epsilon_selection",
    "finite_interval_model",
    "incidence_cover",
    "indexed_cover",
    "mather_compose",
    "mather_eta",
    "mather_lambda",
    "mather_support_bound",
    "nerve_from_cover",
    "pou_from_incidence",
    "subordination_check",
]


def test_public_names():
    # submodules become package attributes once anything imports them, so
    # they are left out
    exported = sorted(
        name for name, value in vars(poukit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


# a run's Mode reaches only the parsers and the checks on vectors read from
# input; these constructions and transforms read none
NO_MODE_SIGNATURES = {
    "pou_from_incidence": "(incidence)",
    "epsilon_selection": "(target, eps, anchors)",
    "mather_lambda": "(y)",
    "mather_eta": "(y)",
    "mather_support_bound": "(y)",
}


def test_constructions_and_transforms_take_no_mode():
    signatures = {name: str(inspect.signature(getattr(poukit, name)))
                  for name in NO_MODE_SIGNATURES}
    assert signatures == NO_MODE_SIGNATURES
