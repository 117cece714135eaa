"""Value semantics of the immutable classes: no attribute can be assigned
or deleted, and each compares and hashes either by value or by identity."""

import dataclasses
from fractions import Fraction as F

import pytest

from poukit import (
    Ball,
    ConvexTarget,
    ExtendedUnitVec,
    FiniteSpace,
    MetricSampleSpace,
    PartitionOfUnity,
    SimplicialComplex,
    SparseVec,
    indexed_cover,
    mather_compose,
)
from poukit.nerve import CanonicalReport
from poukit.spaces import BallIncidence


def _cover():
    return indexed_cover(FiniteSpace.discrete({"x", "y"}), {"a"}, {"x": {"a"}, "y": {"a"}})


def _pou():
    g = FiniteSpace.discrete({"x"})
    return PartitionOfUnity(g, {"a"}, {"x": SparseVec({"a": F(1)})})


def _incidence():
    return MetricSampleSpace([(F(0),), (F(1),)]).incidence({"U": Ball((F(0),), F(2))})


# name -> (a fresh instance, equal by value, hashable)
VALUES = {
    "FiniteSpace": (FiniteSpace.sierpinski, True, True),
    "Ball": (lambda: Ball((F(0),), F(1)), False, True),
    "MetricSampleSpace": (lambda: MetricSampleSpace([(F(0),), (F(1),)]), False, True),
    "BallIncidence": (_incidence, False, True),
    "SparseVec": (lambda: SparseVec({"a": F(1, 2), "b": F(1, 2)}), True, True),
    "ExtendedUnitVec": (lambda: ExtendedUnitVec({"a": F(3, 4)}, F(1, 4), F(1, 8)), False, True),
    "SetValuedMap": (_cover, True, False),
    "PartitionOfUnity": (_pou, False, True),
    "LocalFinitenessCertificate": (lambda: mather_compose(_pou())[1], False, True),
    "SimplicialComplex": (
        lambda: SimplicialComplex([{"a"}, {"b"}, {"a", "b"}]), True, False),
    "CanonicalReport": (lambda: CanonicalReport([], [("a", "x")]), False, True),
    "ConvexTarget": (lambda: ConvexTarget(1, {"x": {"kind": "point", "p": (0.0,)}}), False, True),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_every_attribute_assignment_raises(name):
    make, _, _ = VALUES[name]
    obj = make()
    assert type(obj).__name__ == name
    names = [n for n in dir(obj) if not n.startswith("__")] + ["extra"]
    for attr in names:
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_no_field_can_be_deleted(name):
    obj = VALUES[name][0]()
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equality_is_by_value_or_by_identity(name):
    make, by_value, _ = VALUES[name]
    obj, twin = make(), make()
    assert obj == obj
    assert (obj == twin) is by_value
    assert obj != object()


@pytest.mark.parametrize("name", sorted(VALUES))
def test_hashability(name):
    make, by_value, hashable = VALUES[name]
    obj, twin = make(), make()
    if not hashable:
        with pytest.raises(TypeError):
            hash(obj)
        return
    assert hash(obj) == hash(obj)
    if by_value:
        assert hash(obj) == hash(twin)
        assert len({obj, twin}) == 1
    else:
        assert len({obj, twin}) == 2


def test_ball_incidence_fields():
    """A member pair holds its radius term, so the incidence keeps no cache
    beside its rows."""
    assert [f.name for f in dataclasses.fields(BallIncidence)] == [
        "space", "balls", "rows", "exact"]
