from fractions import Fraction as F

import pytest

from poukit import (
    Ball,
    DiscontinuousAt,
    FiniteSpace,
    MetricSampleSpace,
    NotACover,
    indexed_cover,
    mather_compose,
    pou_from_metric_cover,
    subordination_check,
    validate_pou,
)
from poukit.errors import RowNotSimplex, SelfCheckFailed
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


class TestMatherCompose:
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

    def test_escaping_star_raises_self_check(self, monkeypatch):
        g = FiniteSpace.discrete({"x", "y"})
        pou = validate_pou(g, {"a", "b"}, {"x": dirac("a"), "y": dirac("b")})
        monkeypatch.setattr(FiniteSpace, "closure", lambda self, s: frozenset(self.points))
        with pytest.raises(SelfCheckFailed):
            mather_compose(pou)

    def test_carrier_containment_random(self):
        import random

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
