"""The names ``poukit`` exports.  A change to the public API shows up as a
diff of this list."""

import dataclasses
import importlib
import inspect
import pkgutil
import types

import pytest

import poukit
from poukit import cli, jsonio, scalars

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


def signatures(module):
    """``(name, signature)`` of each function and class method ``module``
    defines, constructors included."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
        for attr, fn in members:
            fn = getattr(fn, "__func__", fn)  # a classmethod or staticmethod
            if inspect.isfunction(fn):
                yield name if attr is None else f"{name}.{attr}", inspect.signature(fn)


def test_a_mode_reaches_only_the_parsers():
    """A run's ``scalars.Mode`` reaches ``jsonio``'s parsers through the
    commands and the ``cli._load*`` helpers that read their input, and
    nothing else takes one: no construction, check or transform, and no
    field."""
    modules = [importlib.import_module(f"poukit.{m.name}")
               for m in pkgutil.iter_modules(poukit.__path__)]
    scanned = {f"{m.__name__}.{name}": sig for m in modules if m is not jsonio
               for name, sig in signatures(m)}
    assert {"poukit.pou.PartitionOfUnity.__init__", "poukit.sparse._as_extended",
            "poukit.cli._verify_unit_vector"} <= scanned.keys()
    loaders = {f"poukit.cli.{fn.__name__}" for fn in cli.COMMANDS.values()}
    assert not {name for name, sig in scanned.items() if "mode" in sig.parameters
                and name not in loaders and not name.startswith("poukit.cli._load")}


def test_the_unit_mass_tolerance_is_a_constant():
    assert [f.name for f in dataclasses.fields(scalars.Mode)] == ["exact"]
    assert scalars.TOL == 1e-9
    g = poukit.FiniteSpace.discrete({"x"})
    rows = {"x": poukit.SparseVec({"a": 1})}
    with pytest.raises(TypeError):  # l1_lipschitz is keyword-only
        poukit.PartitionOfUnity(g, {"a"}, rows, 2.0)
    assert poukit.PartitionOfUnity(g, {"a"}, rows, l1_lipschitz=2.0).l1_lipschitz == 2.0
