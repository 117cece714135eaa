import dataclasses
import functools
import json
import math
import operator
import pathlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from poukit import (
    Ball,
    DiscontinuousAt,
    FiniteSpace,
    MetricSampleSpace,
    NotACover,
    PartitionOfUnity,
    incidence_cover,
    indexed_cover,
    mather_compose,
    pou_from_incidence,
    subordination_check,
)
from poukit import pou as pou_module
from poukit.cli import main
from poukit import jsonio, scalars, spaces, sparse
from poukit.errors import InputError, RowNotSimplex
from poukit.spaces import BallIncidence
from poukit.sparse import SparseVec

from generators import (dirac, float_bump, float_of, open_star, oracle_bump, random_cover,
                        random_space, uniform)


def line_space():
    return MetricSampleSpace([(F(0),), (F(1, 2),), (F(1),)])


def line_balls():
    return {"U0": Ball((F(0),), F(7, 10)), "U1": Ball((F(1),), F(7, 10))}


class TestValidate:
    def test_discrete_ground_any_rows(self):
        g = FiniteSpace.discrete({"x", "y"})
        rows = {"x": dirac("a"), "y": uniform("ab")}
        pou = PartitionOfUnity(g, {"a", "b"}, rows)
        assert pou.carrier_at("y") == {"a", "b"}

    def test_sierpinski_mismatched_rows_rejected(self):
        s = FiniteSpace.sierpinski()
        rows = {"a": dirac("0"), "b": dirac("1")}
        with pytest.raises(DiscontinuousAt):
            PartitionOfUnity(s, {"0", "1"}, rows)

    def test_sierpinski_constant_valid(self):
        s = FiniteSpace.sierpinski()
        rows = {p: dirac("0") for p in s.points}
        pou = PartitionOfUnity(s, {"0"}, rows)
        assert open_star(pou, "0") == sorted(s.points)

    def test_non_simplex_row_rejected(self):
        g = FiniteSpace.discrete({"x"})
        with pytest.raises(RowNotSimplex):
            PartitionOfUnity(g, {"a"}, {"x": SparseVec({"a": F(1, 2)})})

    def test_rows_at_unknown_points_rejected(self):
        g = FiniteSpace.discrete({"x"})
        rows = {"x": dirac("a"), "zz": SparseVec({"a": F(-5)})}
        with pytest.raises(InputError, match=r"rows at unknown points \['zz'\]"):
            PartitionOfUnity(g, {"a"}, rows)
        pou = PartitionOfUnity(g, {"a"}, {"x": dirac("a")})
        with pytest.raises(InputError, match="unknown points"):
            dataclasses.replace(pou, rows=rows)
        m = line_space()
        with pytest.raises(InputError, match=r"rows at unknown points \[\(Fraction\(2, 1\),\)\]"):
            PartitionOfUnity(m, {"a"}, {**{x: dirac("a") for x in m.samples}, (F(2),): dirac("a")})

    def test_unknown_ground_rejected_by_validation_and_by_ground_points(self):
        rows = {"x": dirac("a")}
        with pytest.raises(InputError, match="ground must be"):
            PartitionOfUnity({"x"}, {"a"}, rows)
        with pytest.raises(InputError, match="ground must be"):
            PartitionOfUnity({"x"}, {"a"}, rows).ground_points()


class TestBumpConstruction:
    def test_line_example(self):
        pou = pou_from_incidence(line_space().incidence(line_balls()))
        assert pou.rows[(F(1, 2),)] == SparseVec({"U0": F(1, 2), "U1": F(1, 2)})
        assert pou.rows[(F(0),)] == dirac("U0")

    def test_single_ball(self):
        m = line_space()
        pou = pou_from_incidence(m.incidence({"U": Ball((F(1, 2),), F(2),)}))
        assert all(pou.rows[x] == dirac("U") for x in m.samples)

    def test_symmetric_three_balls(self):
        m = MetricSampleSpace([(F(0), F(0))])
        balls = {
            f"U{i}": Ball(c, F(2))
            for i, c in enumerate([(F(1), F(0)), (F(-1), F(0)), (F(0), F(1))])
        }
        pou = pou_from_incidence(m.incidence(balls))
        row = pou.rows[(F(0), F(0))]
        for a in row:
            assert float(row[a]) == pytest.approx(1 / 3)

    def test_uncovered_sample(self):
        with pytest.raises(NotACover):
            pou_from_incidence(line_space().incidence({"U": Ball((F(0),), F(1, 4))}))

    def test_line_row_with_one_numerator_off_is_rejected(self, monkeypatch):
        """A built row's unit mass is checked from its entries, not trusted
        from the incidence: an exact line row g / n with one g off by one
        has mass (n + 1) / n."""
        incidence = line_space().incidence(line_balls())
        row, _ = incidence.normalized(1)
        assert len(row) == 2 and all(type(w) is F for w in row.entries.values())
        _shift_first_entry(monkeypatch, lambda row: F(1, math.lcm(
            *(w.denominator for w in row.entries.values()))))
        with pytest.raises(RowNotSimplex):
            pou_from_incidence(incidence)

    def test_float_row_with_mass_off_by_1e_6_is_rejected(self, monkeypatch):
        m = MetricSampleSpace([(F(0), F(0))])
        balls = {f"U{i}": Ball(c, F(2)) for i, c in enumerate([(F(1), F(0)), (F(-1), F(0))])}
        incidence = m.incidence(balls)
        row, _ = incidence.normalized(0)
        assert len(row) == 2 and all(type(w) is float for w in row.entries.values())
        _shift_first_entry(monkeypatch, lambda row: 1e-6)
        with pytest.raises(RowNotSimplex):
            pou_from_incidence(incidence)


def _shift_first_entry(monkeypatch, shift):
    """Make ``BallIncidence.normalized`` add ``shift(row)`` to the first
    entry of every row it builds."""
    normalized = BallIncidence.normalized

    def shifted(self, i):
        row, total = normalized(self, i)
        (a, w), *rest = row.entries.items()
        return SparseVec({a: w + shift(row), **dict(rest)}), total

    monkeypatch.setattr(BallIncidence, "normalized", shifted)


class TestSubordination:
    def test_bump_pou_index_subordinated(self):
        m, balls = line_space(), line_balls()
        incidence = m.incidence(balls)
        pou, cover = pou_from_incidence(incidence), incidence_cover(incidence)
        res = subordination_check(pou, cover)
        assert res["index_subordinated"]

    def test_constant_dirac_fails_against_small_cover(self):
        g = FiniteSpace.discrete({"x", "y"})
        pou = PartitionOfUnity(g, {"a", "b"}, {p: dirac("a") for p in g.points})
        cover = indexed_cover(g, {"a", "b"}, {"x": {"a"}, "y": {"b"}})
        res = subordination_check(pou, cover)
        assert not res["index_subordinated"]
        assert res["witness"] is not None

    def test_sierpinski_strong_subordination(self):
        s = FiniteSpace.sierpinski()
        pou = PartitionOfUnity(s, {"0", "1"}, {p: dirac("0") for p in s.points})
        cover = indexed_cover(s, {"0", "1"}, {"a": {"0"}, "b": {"0", "1"}})
        res = subordination_check(pou, cover)
        assert res["index_subordinated"] and res["strongly_subordinated"]


def star_fiber_subordination(pou, omega):
    """Index and strong subordination by the per-index loop: every star (its
    sample set on a metric ground, its closure on an Alexandrov ground)
    inside the fiber of its index."""
    metric = isinstance(pou.ground, MetricSampleSpace)
    close = set if metric else pou.ground.closure
    result = {"index_subordinated": True, "strongly_subordinated": True,
              "approximate_closure": metric, "witness": None}
    for x in pou.ground_points():
        if not pou.carrier_at(x) <= omega.values[x]:
            result["index_subordinated"] = False
            result["witness"] = ("carrier", x)
            break
    for a in sorted(pou.index_set, key=repr):
        if not close(set(open_star(pou, a))) <= omega.fiber(a):
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
            pou = pou_from_incidence(space.incidence(balls))
            exact = incidence_cover(space.incidence(balls))
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


def component_rows(rng, space, omega):
    """A partition row per component of the specialization preorder: half
    the time uniform on a random part of the cover's intersection over the
    component, else on random indices."""
    root = {p: p for p in space.points}

    def find(p):
        while root[p] != p:
            p = root[p]
        return p

    for p, nbhd in space.min_open.items():
        for q in nbhd:
            root[find(q)] = find(p)
    components = {}
    for p in sorted(space.points, key=repr):
        components.setdefault(find(p), []).append(p)
    indices = sorted(omega.codomain.points)
    rows = {}
    for comp in components.values():
        common = sorted(set.intersection(*(set(omega.values[p]) for p in comp)))
        pool = common if common and rng.random() < 0.5 else indices
        row = uniform(rng.sample(pool, rng.randint(1, len(pool))))
        rows.update(dict.fromkeys(comp, row))
    return rows


class TestAlexandrovSubordination:
    def test_stars_are_clopen(self):
        """On random Alexandrov spaces the per-index closure loops agree with
        the carrier test: strong subordination is index subordination, and
        the closure of each shrunk star stays inside the input star."""
        rng = random.Random(14)
        verdicts = []
        for _ in range(1000):
            space = random_space(rng)
            omega = random_cover(rng, space)
            pou = PartitionOfUnity(space, omega.codomain.points, component_rows(rng, space, omega))
            res = subordination_check(pou, omega)
            assert res == star_fiber_subordination(pou, omega)
            assert res["strongly_subordinated"] == res["index_subordinated"]
            gamma, _ = mather_compose(pou)
            for a in pou.index_set:
                assert space.closure(set(open_star(gamma, a))) <= set(open_star(pou, a))
            verdicts.append(res["index_subordinated"])
        assert 300 < sum(verdicts) < 700


class TestMatherCompose:
    def test_each_row_is_validated_once(self, monkeypatch):
        """``PartitionOfUnity`` checks each row's mass, and ``mather_compose``
        does not check it again."""
        calls = []
        check = sparse.is_unit_simplex_point

        def counted(v):
            calls.append(v)
            return check(v)

        monkeypatch.setattr(sparse, "is_unit_simplex_point", counted)
        monkeypatch.setattr(pou_module, "is_unit_simplex_point", counted)
        pou = pou_from_incidence(line_space().incidence(line_balls()))
        mather_compose(pou)
        assert len(calls) == len(pou.rows) == 3

    def test_unvalidated_bad_row_still_rejected(self):
        g = FiniteSpace.discrete({"x"})
        with pytest.raises(RowNotSimplex, match="row at 'x'"):
            PartitionOfUnity(g, {"a"}, {"x": SparseVec({"a": F(1, 2)})})

    def test_replaced_rows_are_checked_again(self):
        pou = PartitionOfUnity(FiniteSpace.discrete({"x"}), {"a"}, {"x": dirac("a")})
        with pytest.raises(RowNotSimplex, match="row at 'x'"):
            dataclasses.replace(pou, rows={"x": SparseVec({"a": F(1, 2)})})

    def test_rows_are_read_only(self):
        pou = pou_from_incidence(line_space().incidence(line_balls()))
        with pytest.raises(TypeError):
            pou.rows[(F(1, 2),)] = SparseVec({"U0": F(1, 2)})
        assert pou.rows == dict(pou.rows)
        gamma, _ = mather_compose(pou)
        assert gamma.rows[(F(1, 2),)] == SparseVec({"U0": F(1, 2), "U1": F(1, 2)})

    def test_row_entries_are_read_only(self):
        """A validated row cannot be given mass 3/2 behind the check, and a
        vector built from a row's entries is the row."""
        pou = PartitionOfUnity(FiniteSpace.discrete({"x"}), {"a", "b"}, {"x": dirac("a")})
        with pytest.raises(TypeError):
            pou.rows["x"].entries["b"] = F(1, 2)
        assert mather_compose(pou)[0].rows["x"] == dirac("a")
        assert SparseVec(pou.rows["x"].entries) == SparseVec(pou.rows["x"]) == dirac("a")

    def test_symmetric_row_fixed(self):
        pou = pou_from_incidence(line_space().incidence(line_balls()))
        gamma, _ = mather_compose(pou)
        assert gamma.rows[(F(1, 2),)] == SparseVec({"U0": F(1, 2), "U1": F(1, 2)})

    def test_row_collapse(self):
        g = FiniteSpace.discrete({"x"})
        pou = PartitionOfUnity(
            g, {"a", "b", "c"},
            {"x": SparseVec({"a": F(3, 5), "b": F(3, 10), "c": F(1, 10)})},
        )
        gamma, _ = mather_compose(pou)
        assert gamma.rows["x"] == dirac("a")

    @pytest.mark.parametrize("one", [F(1), 1.0, 1])
    def test_a_vertex_row_is_its_own_shrink(self, one):
        """e_a is taken as it is, an int 1 too (the transform would write
        1.0); a float row near 1 within the tolerance is shrunk to 1.0."""
        g = FiniteSpace.discrete({"x", "y"})
        rows = {"x": SparseVec({"a": one}), "y": SparseVec({"a": 1 - 1e-12})}
        gamma, _ = mather_compose(PartitionOfUnity(g, {"a"}, rows))
        assert gamma.rows["x"] is rows["x"]
        assert type(gamma.rows["y"]["a"]) is float and gamma.rows["y"]["a"] == 1

    def test_constant_pou_certificate(self):
        s = FiniteSpace.sierpinski()
        pou = PartitionOfUnity(s, {"0"}, {p: dirac("0") for p in s.points})
        gamma, cert = mather_compose(pou)
        for p in s.points:
            assert cert.index_bound(p) == {"0"}

    def test_certificate_is_computed_only_when_read(self, monkeypatch):
        calls = []
        bound = sparse.mather_support_bound

        def counted(y):
            calls.append(y)
            return bound(y)

        monkeypatch.setattr("poukit.pou.mather_support_bound", counted)
        m = MetricSampleSpace([(F(i, 10),) for i in range(11)])
        balls = {"L": Ball((F(0),), F(7, 10)), "R": Ball((F(1),), F(7, 10))}
        _, cert = mather_compose(pou_from_incidence(m.incidence(balls)))
        assert calls == []
        checks = []
        check = sparse.is_unit_simplex_point
        monkeypatch.setattr(sparse, "is_unit_simplex_point",
                            lambda v: checks.append(v) or check(v))
        kind, radius = cert.neighborhood(m.samples[3])
        assert kind == "metric_radius" and radius > 0
        assert len(calls) == 1
        assert checks == []  # the row was checked when the partition was built

    def test_metric_radius_needs_a_lipschitz_constant(self):
        """2 |I| is no Lipschitz constant: it gave radius 1/24 at 0, which
        holds 1/100, whose carrier {b} is not inside {a}."""
        m = MetricSampleSpace([(F(0),), (F(1, 100),)])
        pou = PartitionOfUnity(m, {"a", "b"}, {(F(0),): dirac("a"), (F(1, 100),): dirac("b")})
        _, cert = mather_compose(pou)
        with pytest.raises(InputError, match="l1_lipschitz"):
            cert.neighborhood((F(0),))

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
            pou = PartitionOfUnity(g, set(idx), rows)
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
        pou = pou_from_incidence(m.incidence(balls))
        gamma, cert = mather_compose(pou)
        for x in m.samples:
            kind, radius = cert.neighborhood(x)
            assert kind == "metric_radius" and radius > 0
            for y in m.samples:
                if abs(x[0] - y[0]) < radius:  # the distance on a line
                    assert gamma.carrier_at(y) <= cert.index_bound(x)


class TestOpenStar:
    def test_metric_example(self):
        pou = pou_from_incidence(line_space().incidence(line_balls()))
        assert open_star(pou, "U0") == [(F(0),), (F(1, 2),)]

    def test_constant_dirac(self):
        g = FiniteSpace.discrete({"x", "y"})
        pou = PartitionOfUnity(g, {"a", "b"}, {p: dirac("a") for p in g.points})
        assert set(open_star(pou, "a")) == set(g.points)
        assert open_star(pou, "b") == []


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
    """Rows are the bumps of ``oracle_bump`` over their left-to-right sum;
    shrunk rows are the clip at half the sup over its sum.  Exact rows stay
    Fractions."""
    space, balls = cover
    pou = pou_from_incidence(space.incidence(balls))
    gamma, _ = mather_compose(pou)
    incidence = space.incidence(balls)
    totals = []
    for i, x in enumerate(space.samples):
        bumps = {a: oracle_bump(x, balls[a]) for a in incidence.rows[i]}
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


@pytest.mark.parametrize("radius", [F(10**400), F(1, 10**400), F(1, 2**1070)])
def test_l1_lipschitz_bounds_bump_totals_past_the_float_range(radius):
    """2 k / min_total over a total whose float is infinite, 0.0 or so small
    that the quotient overflows: a positive float at least the exact value."""
    space = MetricSampleSpace([(F(0),), (radius / 2,)])
    pou = pou_from_incidence(space.incidence({"U": Ball((F(0),), radius)}))
    assert 0 < pou.l1_lipschitz and pou.l1_lipschitz >= 2 / (radius / 2)


# the first sample's total 1/2 + 10**-30 and the second's 1/2 have one
# float; both totals 10**400 and 10**400 / 2 are past the float range
TIED_TOTALS = (MetricSampleSpace([(F(-1, 2) + F(1, 10**30),), (F(1, 2),)]),
               {"U": Ball((F(0),), F(1))})
HUGE_TOTALS = (MetricSampleSpace([(F(0),), (F(10**400, 2),)]),
               {"U": Ball((F(0),), F(10**400))})


def oracle_totals(incidence, bump):
    """The bump total at each sample, ``bump(x, ball)`` summed left to right
    over its members: a Fraction on an exact line, else a float."""
    balls = incidence.balls
    return [functools.reduce(operator.add, [bump(x, balls[a]) for a in row], 0)
            for x, row in zip(incidence.space.samples, incidence.rows)]


def assert_l1_lipschitz(lip, k, least):
    """``lip`` is 2 k / float(least), for the least exact bump total, when
    that float is finite and nonzero; else a float at least the exact
    quotient."""
    f = float_of(least)
    if 0 < f < math.inf:
        assert lip == 2 * k / f
    else:
        assert type(lip) is float and lip >= F(2 * k) / F(least)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(covered_samples())
@example(TIED_TOTALS)
@example(HUGE_TOTALS)
def test_l1_lipschitz_is_the_ratio_bound_of_the_least_total(cover):
    """The least total is found by its float, which is the float of the
    exact least total; the bound is 2 k over that float, or where it is
    infinite or 0.0 a float at least the exact quotient."""
    space, balls = cover
    incidence = space.incidence(balls)
    pou = pou_from_incidence(incidence)
    assert_l1_lipschitz(pou.l1_lipschitz, len(balls), min(oracle_totals(incidence, oracle_bump)))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_all_hashes_each_sample_at_most_16_times(tmp_path, capsys, monkeypatch, mode):
    """A check reads each row and cover value once per sample, and the
    indexed cover reads each value once; 23.2 hash calls per sample here
    when the checks looked a row up per index, 18 when the cover tested
    ``in`` before reading a value."""
    calls = []
    sample_hash = spaces._Sample.__hash__
    monkeypatch.setattr(spaces._Sample, "__hash__", lambda x: calls.append(1) or sample_hash(x))
    data = pathlib.Path(__file__).resolve().parent.parent / "data"
    doc = json.loads((data / "strip_ball_cover.json").read_text())
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"metric_covers": [{"space": doc["space"], "balls": doc["balls"]}]}))
    assert main(["verify-all", str(path), "--mode", mode]) == 0
    assert json.loads(capsys.readouterr().out)["overall"] == "pass"
    assert len(calls) <= 16 * len(doc["space"]["samples"])


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", ["line_ball_cover.json", "strip_ball_cover.json"])
def test_verify_all_clears_denominators_once(tmp_path, capsys, monkeypatch, name, mode):
    """``_over_lcm`` runs once per sample, once per ball and once per row
    that is not a vertex: the row's unit-simplex check and its shrink share
    that call.  Past the incidence no radius is converted: each member pair
    holds its radius term."""
    data = pathlib.Path(__file__).resolve().parent.parent / "data"
    doc = json.loads((data / name).read_text())
    cover = {"space": doc["space"], "balls": doc["balls"]}
    incidence = jsonio.load_metric_cover(cover, scalars.EXACT if mode == "exact" else scalars.FLOAT)
    bound = len(incidence.space.samples) + len(incidence.balls)
    bound += sum(len(row) > 1 for row in incidence.rows)
    lcm_calls, conversions, armed = [], [], []
    over_lcm = scalars._over_lcm

    def counted(values, kinds):
        lcm_calls.append(values)
        return over_lcm(values, kinds)

    class Radius(F if mode == "exact" else float):
        def as_integer_ratio(self):
            if armed:
                conversions.append(id(self))
            return super().as_integer_ratio()

        def __float__(self):
            if armed:
                conversions.append(id(self))
            return super().__float__()

    load_ball, incidence_of = jsonio.load_ball, spaces.MetricSampleSpace.incidence

    def counted_ball(obj, mode):
        b = load_ball(obj, mode)
        return spaces.Ball(b.center, Radius(b.radius))

    def armed_incidence(space, balls):
        incidence = incidence_of(space, balls)
        armed.append(True)
        return incidence

    monkeypatch.setattr(jsonio, "load_ball", counted_ball)
    monkeypatch.setattr(spaces.MetricSampleSpace, "incidence", armed_incidence)
    monkeypatch.setattr(spaces, "_over_lcm", counted)
    monkeypatch.setattr(sparse, "_over_lcm", counted)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"metric_covers": [cover]}))
    assert main(["verify-all", str(path), "--mode", mode]) == 0
    assert json.loads(capsys.readouterr().out)["overall"] == "pass"
    assert 0 < len(lcm_calls) <= bound
    assert conversions == []


@st.composite
def vertex_row_covers(draw, num):
    """1-4 balls in dimension 1, 2 or 3, their coordinates and radii of
    type ``num``, and up to 8 samples, each inside a drawn ball; balls on a
    coarse grid overlap now and then, so most rows are vertices."""
    dim = draw(st.integers(1, 3))
    balls = {
        f"U{j}": Ball(tuple(num(draw(st.integers(-8, 8)), 2) for _ in range(dim)),
                      num(draw(st.integers(1, 12)), 4))
        for j in range(draw(st.integers(1, 4)))
    }
    samples = {}
    for _ in range(draw(st.integers(1, 8))):
        b = draw(st.sampled_from(list(balls.values())))
        t = [num(draw(st.integers(-99, 99)), 100 * dim) for _ in range(dim)]
        samples[tuple(c + b.radius * u for c, u in zip(b.center, t))] = None
    return MetricSampleSpace(list(samples)), balls


def _typed(row):
    return {a: (type(v), v) for a, v in row.items()}


@pytest.mark.parametrize("num", [F, lambda n, d: n / d], ids=["exact", "float"])
@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(data=st.data())
def test_vertex_rows_equal_the_general_path(num, data):
    """Rows and their value types, and the shrunk rows, equal those of
    ``_normalized`` and ``mather_eta`` run on the oracle bumps of every row,
    vertex rows e_a included; totals are the floats of the oracle sums, and
    ``l1_lipschitz`` is the bound of the least."""
    space, balls = data.draw(vertex_row_covers(num))
    incidence = space.incidence(balls)
    pou = pou_from_incidence(incidence)
    gamma, _ = mather_compose(pou)
    bump = oracle_bump if num is F else float_bump
    totals = oracle_totals(incidence, bump)
    for i, (x, total) in enumerate(zip(space.samples, totals)):
        want, _ = sparse._normalized({a: bump(x, balls[a]) for a in incidence.rows[i]})
        row, got_total = incidence.normalized(i)
        assert (type(got_total), got_total) == (float, float_of(total))
        assert _typed(pou.rows[x].entries) == _typed(row.entries) == _typed(want.entries)
        eta = sparse.mather_eta(sparse.ExtendedUnitVec._of_checked(want))
        assert _typed(gamma.rows[x].entries) == _typed(eta.entries)
    assert_l1_lipschitz(pou.l1_lipschitz, len(balls), min(totals))


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("dim", [1, 2])
def test_vertex_rows_are_not_shrunk(tmp_path, capsys, monkeypatch, mode, dim):
    """``verify-all`` on a cover whose samples each lie in one ball passes
    without calling the shrinking transform."""
    calls = []
    eta = pou_module.mather_eta
    monkeypatch.setattr(pou_module, "mather_eta", lambda y: calls.append(y) or eta(y))
    pad = ["0"] * (dim - 1)
    cover = {
        "space": {"samples": [[str(k)] + pad for k in range(6)]},
        "balls": {f"U{j}": {"center": [str(3 * j + 1)] + pad, "radius": "3/2"} for j in range(2)},
    }
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"metric_covers": [cover]}))
    assert main(["verify-all", str(path), "--mode", mode]) == 0
    assert json.loads(capsys.readouterr().out)["overall"] == "pass"
    assert calls == []
