import json
from fractions import Fraction as F
from itertools import combinations

import pytest

from poukit import (
    Ball,
    FiniteSpace,
    MetricSampleSpace,
    SimplicialComplex,
    canonical_map_check,
    incidence_cover,
    indexed_cover,
    nerve_from_cover,
    pou_from_incidence,
    subordination_check,
    validate_pou,
)
from poukit import jsonio
from poukit.errors import InputError
from poukit.jsonio import dump_complex, report_text
from poukit.sparse import SparseVec, dirac

from generators import make_rng, random_cover


def line_cover():
    m = MetricSampleSpace([(F(i, 2),) for i in range(5)])  # 0, .5, 1, 1.5, 2
    balls = {
        "0": Ball((F(0),), F(3, 5)),
        "1": Ball((F(1),), F(3, 5)),
        "2": Ball((F(2),), F(3, 5)),
    }
    return m, balls


def ten_ball_cover():
    """Ten balls share the sample 0; nine of them also contain 1/2."""
    m = MetricSampleSpace([(F(0),), (F(1, 2),)])
    balls = {f"U{i}": Ball((F(i, 100),), F(1, 2)) for i in range(10)}
    return m, balls


def brute_force_nerve(cover, max_dimension):
    """Every face of every witness's member set, up to max_dimension."""
    simplices = set()
    for x in cover.domain.points:
        members = sorted(cover.values[x])
        for r in range(1, min(len(members), max_dimension + 1) + 1):
            simplices.update(map(frozenset, combinations(members, r)))
    return simplices


def global_sort_dump(cover, max_dimension):
    """``dump_complex`` of the brute-force nerve, written as one list of all
    faces under a single global sort by (size, repr-sorted list)."""
    return {
        "vertices": sorted({a for s in cover.values.values() for a in s}, key=repr),
        "simplices": sorted(
            (sorted(s, key=repr) for s in brute_force_nerve(cover, max_dimension)),
            key=lambda s: (len(s), s),
        ),
        "witnessed": True,
    }


# repr order and string order differ on the quoted names
INDEX_NAMES = ["U0", "U1", "U10", "U2", "a'", 'b"', "A", "\u00e9", "z\\", "0"]
MIXED_NAMES = ["U0", "a'", "\u00e9", "z\\", "0", 0, 1, 10, 2, -1]


def random_named_cover(rng, pool=INDEX_NAMES):
    domain = FiniteSpace.discrete({f"x{i}" for i in range(rng.randint(1, 8))})
    names = rng.sample(pool, rng.randint(1, len(pool)))
    values = {
        x: set(rng.sample(names, rng.randint(1, len(names))))
        for x in sorted(domain.points)
    }
    return indexed_cover(domain, {a for v in values.values() for a in v}, values)


def assert_written_as_json(dump):
    """A report holding ``dump`` is written as ``json.dumps`` writes the
    same data with the simplices as a plain list of lists."""
    doc = {"payload": {"complex": dump}}
    plain = {"payload": {"complex": {**dump, "simplices": list(map(list, dump["simplices"]))}}}
    assert report_text(doc) == json.dumps(plain, sort_keys=True, indent=2)


class TestComplexInvariants:
    def test_downward_closure_enforced(self):
        with pytest.raises(InputError):
            SimplicialComplex({"a", "b"}, [{"a", "b"}])

    def test_isolated_vertex_rejected(self):
        with pytest.raises(InputError):
            SimplicialComplex({"a", "b"}, [{"a"}])

    def test_dimension(self):
        cx = SimplicialComplex({"a", "b"}, [{"a"}, {"b"}, {"a", "b"}])
        assert cx.dimension() == 1


class TestNerveFromCover:
    def test_three_ball_line(self):
        m, balls = line_cover()
        cx = nerve_from_cover(incidence_cover(m.incidence(balls)))
        expected = {
            frozenset({"0"}), frozenset({"1"}), frozenset({"2"}),
            frozenset({"0", "1"}), frozenset({"1", "2"}),
        }
        assert cx.simplices == expected

    def test_single_set(self):
        m = MetricSampleSpace([(F(0),)])
        cx = nerve_from_cover(incidence_cover(m.incidence({"U": Ball((F(0),), F(1))})))
        assert cx.simplices == {frozenset({"U"})}

    def test_identical_sets_give_edge(self):
        s = FiniteSpace.discrete({"x"})
        om = indexed_cover(s, {"0", "1"}, {"x": {"0", "1"}})
        cx = nerve_from_cover(om)
        assert frozenset({"0", "1"}) in cx.simplices

    def test_witness_monotonicity(self):
        m, balls = line_cover()
        cover = incidence_cover(m.incidence(balls))
        small = nerve_from_cover(cover, witnesses=[(F(0),), (F(2),)])
        full = nerve_from_cover(cover)
        assert small.simplices <= full.simplices

    def test_matches_brute_force_on_random_covers(self):
        rng = make_rng(23)
        for _ in range(100):
            cover = random_cover(rng)
            d = rng.randint(0, 6)
            cx = nerve_from_cover(cover, max_dimension=d)
            assert cx.simplices == brute_force_nerve(cover, d)
            assert cx.vertices == {a for s in cover.values.values() for a in s}

    def test_matches_brute_force_on_coincident_balls(self):
        m = MetricSampleSpace([(F(i, 10),) for i in range(11)])
        same = Ball((F(3, 10),), F(1, 4))
        balls = {f"C{i}": same for i in range(5)}
        balls.update(L=Ball((F(0),), F(1, 2)), R=Ball((F(1),), F(3, 5)))
        cover = incidence_cover(m.incidence(balls))
        for d in range(7):
            cx = nerve_from_cover(cover, max_dimension=d)
            assert cx.simplices == brute_force_nerve(cover, d)
        assert nerve_from_cover(cover, max_dimension=2).dimension() == 2
        assert nerve_from_cover(cover).dimension() == 5

    def test_ball_cover_rejects_an_uncovered_sample(self):
        m = MetricSampleSpace([(F(0),), (F(2),)])
        with pytest.raises(InputError):
            incidence_cover(m.incidence({"U": Ball((F(0),), F(1))}))

    @pytest.mark.parametrize("max_dimension", [0, 1, 2, 8, len(INDEX_NAMES)])
    def test_dump_matches_global_sort(self, max_dimension):
        rng = make_rng(29 + max_dimension)
        for _ in range(60):
            cover = random_named_cover(rng)
            cx = nerve_from_cover(cover, max_dimension=max_dimension)
            assert dump_complex(cx) == global_sort_dump(cover, max_dimension)
            handed_in = SimplicialComplex(cx.vertices, cx.simplices, witnessed=True)
            assert dump_complex(handed_in) == dump_complex(cx)
            assert_written_as_json(dump_complex(cx))
        rng = make_rng(31 + max_dimension)
        for _ in range(60):
            cover = random_named_cover(rng, MIXED_NAMES)
            assert_written_as_json(dump_complex(nerve_from_cover(cover, max_dimension=max_dimension)))
        assert_written_as_json(dump_complex(SimplicialComplex(set(), [])))
        tuple_named = SimplicialComplex({("a", 1), 2}, [{("a", 1)}, {2}, {("a", 1), 2}])
        assert_written_as_json(dump_complex(tuple_named))

    def test_each_name_is_quoted_once(self, monkeypatch):
        """One 14-vertex facet has 16,383 faces and 114,688 vertex
        appearances; the dump quotes each of the 14 names once."""
        members = {f"U{i}" for i in range(14)}
        cover = indexed_cover(FiniteSpace.discrete({"x"}), members, {"x": members})
        calls = []
        quote = jsonio._quote
        monkeypatch.setattr(jsonio, "_quote", lambda s: calls.append(s) or quote(s))
        simplices = dump_complex(nerve_from_cover(cover, max_dimension=13))["simplices"]
        text = report_text(simplices)
        assert len(simplices) == 2**14 - 1 and len(calls) <= 14
        assert text == json.dumps(simplices, indent=2)

    def test_membership_is_decided_on_facets(self):
        """One witness in 40 members: the nerve has 2^40 - 1 simplices, so
        membership and dimension must not enumerate them."""
        members = {f"U{i}" for i in range(40)}
        cover = indexed_cover(FiniteSpace.discrete({"x"}), members, {"x": members})
        cx = nerve_from_cover(cover, max_dimension=40)
        assert cx.dimension() == 39
        assert members in cx and {"U0", "U7"} in cx
        assert set() not in cx and {"U0", "V"} not in cx
        assert cx.realization_membership(SparseVec({a: F(1, 40) for a in members}))
        assert members not in nerve_from_cover(cover, max_dimension=38)

    def test_downward_closed_random(self):
        rng = make_rng(17)
        for _ in range(50):
            cx = nerve_from_cover(random_cover(rng))
            for s in cx.simplices:
                for v in s:
                    assert not (s - {v}) or (s - {v}) in cx.simplices


class TestRealizationMembership:
    def setup_method(self):
        m, balls = line_cover()
        self.cx = nerve_from_cover(incidence_cover(m.incidence(balls)))

    def test_vertex_dirac(self):
        assert self.cx.realization_membership(dirac("1"))

    def test_absent_edge(self):
        p = SparseVec({"0": F(1, 2), "2": F(1, 2)})
        assert not self.cx.realization_membership(p)

    def test_present_edge(self):
        p = SparseVec({"0": F(3, 10), "1": F(7, 10)})
        assert self.cx.realization_membership(p)

    def test_foreign_vertex(self):
        with pytest.raises(InputError):
            self.cx.realization_membership(dirac("zz"))


class TestCanonicalMapCheck:
    def test_bump_pou_is_canonical(self):
        m = MetricSampleSpace([(F(0),), (F(1, 2),), (F(1),)])
        balls = {"U0": Ball((F(0),), F(7, 10)), "U1": Ball((F(1),), F(7, 10))}
        pou = pou_from_incidence(m.incidence(balls))
        rep = canonical_map_check(pou, incidence_cover(m.incidence(balls)))
        assert rep.canonical

    def test_constant_dirac_fails_star_condition(self):
        m = MetricSampleSpace([(F(0),), (F(1),)])
        balls = {"U0": Ball((F(0),), F(1, 2)), "U1": Ball((F(1),), F(1, 2))}
        rows = {x: dirac("U0") for x in m.samples}
        pou = validate_pou(m, set(balls), rows)
        rep = canonical_map_check(pou, incidence_cover(m.incidence(balls)))
        assert not rep.canonical
        assert rep.star_violations

    def test_one_set_cover_constant_dirac(self):
        m = MetricSampleSpace([(F(0),), (F(1),)])
        balls = {"U": Ball((F(1, 2),), F(2))}
        pou = pou_from_incidence(m.incidence(balls))
        rep = canonical_map_check(pou, incidence_cover(m.incidence(balls)))
        assert rep.canonical

    def test_verdict_is_not_truncated(self):
        m, balls = ten_ball_cover()
        pou = pou_from_incidence(m.incidence(balls))
        assert len(pou.carrier_at((F(0),))) == 10
        assert canonical_map_check(pou, incidence_cover(m.incidence(balls))).canonical
        assert nerve_from_cover(incidence_cover(m.incidence(balls))).dimension() == 8

    def test_different_ground_points_rejected(self):
        m, balls = line_cover()
        pou = pou_from_incidence(m.incidence(balls))
        other = MetricSampleSpace(m.samples[:-1])
        with pytest.raises(InputError):
            canonical_map_check(pou, incidence_cover(other.incidence(balls)))

    def test_canonical_implies_index_subordinated(self):
        m, balls = line_cover()
        incidence = m.incidence(balls)
        pou, cover = pou_from_incidence(incidence), incidence_cover(incidence)
        assert canonical_map_check(pou, cover).canonical
        assert subordination_check(pou, cover)["index_subordinated"]
