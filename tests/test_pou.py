import dataclasses
import functools
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from poukit import (
    Ball,
    DiscontinuousAt,
    FiniteSpace,
    MetricSampleSpace,
    NotACover,
    NotAUnitVector,
    PartitionOfUnity,
    ball_cover,
    indexed_cover,
    mather_compose,
    pou_from_metric_cover,
    subordination_check,
    validate_pou,
)
from poukit import pou as pou_module
from poukit import sparse
from poukit.errors import InputError, RowNotSimplex, SelfCheckFailed
from poukit.sparse import SparseVec, dirac, uniform


def line_space():
    return MetricSampleSpace([(F(0),), (F(1, 2),), (F(1),)])


def line_balls():
    return {"U0": Ball((F(0),), F(7, 10)), "U1": Ball((F(1),), F(7, 10))}


class TestValidate:
    def test_discrete_ground_any_rows(self):
        g = FiniteSpace.discrete({"x", "y"})
        rows = {"x": dirac("a"), "y": uniform("ab")}
        pou = validate_pou(g, {"a", "b"}, rows)
        assert pou.carrier_at("y") == {"a", "b"}

    def test_sierpinski_mismatched_rows_rejected(self):
        s = FiniteSpace.sierpinski()
        rows = {"a": dirac("0"), "b": dirac("1")}
        with pytest.raises(DiscontinuousAt):
            validate_pou(s, {"0", "1"}, rows)

    def test_sierpinski_constant_valid(self):
        s = FiniteSpace.sierpinski()
        rows = {p: dirac("0") for p in s.points}
        pou = validate_pou(s, {"0"}, rows)
        assert pou.open_star("0") == sorted(s.points)

    def test_non_simplex_row_rejected(self):
        g = FiniteSpace.discrete({"x"})
        with pytest.raises(RowNotSimplex):
            validate_pou(g, {"a"}, {"x": SparseVec({"a": F(1, 2)})})

    def test_unknown_ground_rejected_by_validation_and_by_ground_points(self):
        rows = {"x": dirac("a")}
        with pytest.raises(InputError, match="ground must be"):
            validate_pou({"x"}, {"a"}, rows)
        with pytest.raises(InputError, match="ground must be"):
            PartitionOfUnity({"x"}, {"a"}, rows).ground_points()


class TestBumpConstruction:
    def test_line_example(self):
        pou = pou_from_metric_cover(line_space(), line_balls())
        assert pou.rows[(F(1, 2),)] == SparseVec({"U0": F(1, 2), "U1": F(1, 2)})
        assert pou.rows[(F(0),)] == dirac("U0")

    def test_single_ball(self):
        m = line_space()
        pou = pou_from_metric_cover(m, {"U": Ball((F(1, 2),), F(2),)})
        assert all(pou.rows[x] == dirac("U") for x in m.samples)

    def test_symmetric_three_balls(self):
        m = MetricSampleSpace([(F(0), F(0))])
        balls = {
            f"U{i}": Ball(c, F(2))
            for i, c in enumerate([(F(1), F(0)), (F(-1), F(0)), (F(0), F(1))])
        }
        pou = pou_from_metric_cover(m, balls)
        row = pou.rows[(F(0), F(0))]
        for a in row:
            assert float(row[a]) == pytest.approx(1 / 3)

    def test_uncovered_sample(self):
        with pytest.raises(NotACover):
            pou_from_metric_cover(line_space(), {"U": Ball((F(0),), F(1, 4))})


class TestSubordination:
    def test_bump_pou_index_subordinated(self):
        m, balls = line_space(), line_balls()
        pou = pou_from_metric_cover(m, balls)
        domain = FiniteSpace.discrete(m.samples)
        cover = indexed_cover(
            domain,
            set(balls),
            {x: {a for a, b in balls.items() if m.ball_membership(b, x)} for x in m.samples},
        )
        res = subordination_check(pou, cover)
        assert res["index_subordinated"]

    def test_constant_dirac_fails_against_small_cover(self):
        g = FiniteSpace.discrete({"x", "y"})
        pou = validate_pou(g, {"a", "b"}, {p: dirac("a") for p in g.points})
        cover = indexed_cover(g, {"a", "b"}, {"x": {"a"}, "y": {"b"}})
        res = subordination_check(pou, cover)
        assert not res["index_subordinated"]
        assert res["witness"] is not None

    def test_sierpinski_strong_subordination(self):
        s = FiniteSpace.sierpinski()
        pou = validate_pou(s, {"0", "1"}, {p: dirac("0") for p in s.points})
        cover = indexed_cover(s, {"0", "1"}, {"a": {"0"}, "b": {"0", "1"}})
        res = subordination_check(pou, cover)
        assert res["index_subordinated"] and res["strongly_subordinated"]


def star_fiber_subordination(pou, omega):
    """Index and strong subordination by the per-index loop: every star (its
    sample set, on a metric ground) inside the fiber of its index."""
    result = {"index_subordinated": True, "strongly_subordinated": True,
              "approximate_closure": True, "witness": None}
    for x in pou.ground_points():
        if not pou.carrier_at(x) <= omega.values[x]:
            result["index_subordinated"] = False
            result["witness"] = ("carrier", x)
            break
    for a in sorted(pou.index_set, key=repr):
        if not set(pou.open_star(a)) <= omega.fiber(a):
            result["strongly_subordinated"] = False
            if result["witness"] is None:
                result["witness"] = ("support", a)
            break
    return result


def random_ball_cover(rng):
    """Rational balls in dimension 1 or 2 and the samples they cover."""
    dim = rng.randint(1, 2)

    def point():
        return tuple(F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(dim))

    balls = {f"U{j}": Ball(point(), F(rng.randint(1, 40), rng.randint(1, 4)))
             for j in range(rng.randint(1, 6))}
    n, samples = rng.randint(1, 12), set()
    while len(samples) < n:
        x = point()
        if any(
            sum((p - c) ** 2 for p, c in zip(x, b.center)) < b.radius**2
            for b in balls.values()
        ):
            samples.add(x)
    return MetricSampleSpace(sorted(samples)), balls


class TestMetricSubordination:
    def test_strong_equals_index_subordination(self):
        rng = random.Random(41)
        failing = 0
        for _ in range(300):
            space, balls = random_ball_cover(rng)
            pou = pou_from_metric_cover(space, balls)
            exact = ball_cover(space, balls)
            idx = sorted(balls)
            shrunk = {
                x: set(vals) if rng.random() < 0.7 else {rng.choice(idx)}
                for x, vals in exact.values.items()
            }
            for omega in (exact, indexed_cover(exact.domain, idx, shrunk)):
                res = subordination_check(pou, omega)
                assert res == star_fiber_subordination(pou, omega)
                assert res["strongly_subordinated"] == res["index_subordinated"]
                failing += not res["index_subordinated"]
        assert failing > 50


class TestMatherCompose:
    def test_each_row_is_validated_once(self, monkeypatch):
        """``validate_pou`` checks each row's mass, and ``mather_compose``
        does not check it again."""
        calls = []
        check = sparse.is_unit_simplex_point

        def counted(v, mode):
            calls.append(v)
            return check(v, mode)

        monkeypatch.setattr(sparse, "is_unit_simplex_point", counted)
        monkeypatch.setattr(pou_module, "is_unit_simplex_point", counted)
        pou = pou_from_metric_cover(line_space(), line_balls())
        mather_compose(pou)
        assert len(calls) == len(pou.rows) == 3

    def test_unvalidated_bad_row_still_rejected(self):
        g = FiniteSpace.discrete({"x"})
        pou = PartitionOfUnity(g, {"a"}, {"x": SparseVec({"a": F(1, 2)})})
        with pytest.raises(NotAUnitVector, match="not a unit simplex point"):
            mather_compose(pou)

    def test_replaced_rows_are_checked_again(self):
        pou = validate_pou(FiniteSpace.discrete({"x"}), {"a"}, {"x": dirac("a")})
        bad = dataclasses.replace(pou, rows={"x": SparseVec({"a": F(1, 2)})})
        with pytest.raises(NotAUnitVector):
            mather_compose(bad)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(pou, _rows_checked=True)

    def test_rows_are_read_only(self):
        pou = pou_from_metric_cover(line_space(), line_balls())
        with pytest.raises(TypeError):
            pou.rows[(F(1, 2),)] = SparseVec({"U0": F(1, 2)})
        assert pou.rows == dict(pou.rows)
        gamma, _ = mather_compose(pou)
        assert gamma.rows[(F(1, 2),)] == SparseVec({"U0": F(1, 2), "U1": F(1, 2)})

    def test_symmetric_row_fixed(self):
        pou = pou_from_metric_cover(line_space(), line_balls())
        gamma, _ = mather_compose(pou)
        assert gamma.rows[(F(1, 2),)] == SparseVec({"U0": F(1, 2), "U1": F(1, 2)})

    def test_row_collapse(self):
        g = FiniteSpace.discrete({"x"})
        pou = validate_pou(
            g, {"a", "b", "c"},
            {"x": SparseVec({"a": F(3, 5), "b": F(3, 10), "c": F(1, 10)})},
        )
        gamma, _ = mather_compose(pou)
        assert gamma.rows["x"] == dirac("a")

    def test_constant_pou_certificate(self):
        s = FiniteSpace.sierpinski()
        pou = validate_pou(s, {"0"}, {p: dirac("0") for p in s.points})
        gamma, cert = mather_compose(pou)
        for p in s.points:
            assert cert.index_bound(p) == {"0"}

    def test_certificate_is_computed_only_when_read(self, monkeypatch):
        calls = []
        bound = sparse.mather_support_bound

        def counted(y, mode):
            calls.append(y)
            return bound(y, mode)

        monkeypatch.setattr("poukit.pou.mather_support_bound", counted)
        m = MetricSampleSpace([(F(i, 10),) for i in range(11)])
        balls = {"L": Ball((F(0),), F(7, 10)), "R": Ball((F(1),), F(7, 10))}
        _, cert = mather_compose(pou_from_metric_cover(m, balls))
        assert calls == []
        kind, radius = cert.neighborhood(m.samples[3])
        assert kind == "metric_radius" and radius > 0
        assert len(calls) == 1

    def test_escaping_star_raises_self_check(self, monkeypatch):
        g = FiniteSpace.discrete({"x", "y"})
        pou = validate_pou(g, {"a", "b"}, {"x": dirac("a"), "y": dirac("b")})
        monkeypatch.setattr(FiniteSpace, "closure", lambda self, s: frozenset(self.points))
        with pytest.raises(SelfCheckFailed):
            mather_compose(pou)

    def test_carrier_containment_random(self):
        rng = random.Random(5)
        g = FiniteSpace.discrete(range(4))
        idx = list("abcdef")
        for _ in range(50):
            rows = {}
            for p in g.points:
                k = rng.randint(1, 6)
                picked = rng.sample(idx, k)
                ws = [rng.randint(1, 9) for _ in picked]
                rows[p] = SparseVec(
                    {a: F(w, sum(ws)) for a, w in zip(picked, ws)}
                )
            pou = validate_pou(g, set(idx), rows)
            gamma, _ = mather_compose(pou)
            for p in g.points:
                assert gamma.carrier_at(p) <= pou.carrier_at(p)
                half = pou.rows[p].sup_norm() / 2
                for a in gamma.carrier_at(p):
                    assert pou.rows[p][a] > half
                assert len(gamma.carrier_at(p)) * pou.rows[p].sup_norm() <= 2

    def test_metric_certificate_soundness(self):
        m = MetricSampleSpace([(F(i, 10),) for i in range(11)])
        balls = {
            "L": Ball((F(0),), F(7, 10)),
            "R": Ball((F(1),), F(7, 10)),
            "M": Ball((F(1, 2),), F(2, 5)),
        }
        pou = pou_from_metric_cover(m, balls)
        gamma, cert = mather_compose(pou)
        for x in m.samples:
            kind, radius = cert.neighborhood(x)
            assert kind == "metric_radius" and radius > 0
            for y in m.samples:
                if m.dist(x, y) < radius:
                    assert gamma.carrier_at(y) <= cert.index_bound(x)


class TestOpenStar:
    def test_metric_example(self):
        pou = pou_from_metric_cover(line_space(), line_balls())
        assert pou.open_star("U0") == [(F(0),), (F(1, 2),)]

    def test_constant_dirac(self):
        g = FiniteSpace.discrete({"x", "y"})
        pou = validate_pou(g, {"a", "b"}, {p: dirac("a") for p in g.points})
        assert set(pou.open_star("a")) == set(g.points)
        assert pou.open_star("b") == []


COORDS = st.one_of(
    st.integers(-6, 6),
    st.builds(F, st.integers(-60, 60), st.integers(1, 12)),
    st.builds(F, st.integers(-(10**20), 10**20), st.sampled_from([2**61 - 1, 2**61 + 1])),
)


@st.composite
def covered_samples(draw):
    """1-4 balls in dimension 1 or 2 and up to 6 samples, each inside one."""
    dim = draw(st.integers(1, 2))
    balls = {
        f"U{j}": Ball(tuple(draw(COORDS) for _ in range(dim)), F(draw(st.integers(1, 40)), 8))
        for j in range(draw(st.integers(1, 4)))
    }
    samples = {}
    for _ in range(draw(st.integers(1, 6))):
        b = draw(st.sampled_from(list(balls.values())))
        t = [F(draw(st.integers(-99, 99)), 100 * dim) for _ in range(dim)]
        samples[tuple(c + b.radius * u for c, u in zip(b.center, t))] = None
    return MetricSampleSpace(list(samples)), balls


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(covered_samples())
def test_rows_and_shrunk_rows_equal_the_fraction_formulas(cover):
    """Rows are bumps over their left-to-right sum; shrunk rows are the
    clip at half the sup over its sum.  Exact rows stay Fractions."""
    space, balls = cover
    pou = pou_from_metric_cover(space, balls)
    gamma, _ = mather_compose(pou)
    incidence = space.incidence(balls)
    totals = []
    for i, x in enumerate(space.samples):
        bumps = incidence.bumps(i)
        total = functools.reduce(operator.add, bumps.values(), 0)
        totals.append(total)
        row = {a: g / total for a, g in bumps.items()}
        half = max(row.values()) / 2
        lam = {a: v - half for a, v in row.items() if v > half}
        lam_total = functools.reduce(operator.add, lam.values(), 0)
        inv = 1 / lam_total if isinstance(lam_total, float) else F(1) / lam_total
        for got, want in [(pou.rows[x], row), (gamma.rows[x], {a: v * inv for a, v in lam.items()})]:
            assert {a: (type(v), v) for a, v in got.entries.items()} == {
                a: (type(v), v) for a, v in want.items()}
        if space.dim == 1:
            assert all(type(v) is F for v in gamma.rows[x].entries.values())
    assert pou.l1_lipschitz == 2 * len(balls) / float(min(totals))
