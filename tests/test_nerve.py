import contextlib
import io
import json
import pathlib
from fractions import Fraction as F
from itertools import combinations

import pytest

from poukit import (
    Ball,
    FiniteSpace,
    MetricSampleSpace,
    PartitionOfUnity,
    SimplicialComplex,
    canonical_map_check,
    incidence_cover,
    indexed_cover,
    nerve_from_cover,
    pou_from_incidence,
    subordination_check,
)
from poukit import jsonio
from poukit.cli import main
from poukit.errors import InputError
from poukit.jsonio import complex_payload, dump_complex, report_text
from poukit.sparse import SparseVec

from generators import dirac, make_rng, random_cover, random_simplex_point

ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def brute_force_closure(family, max_dimension=None):
    """Every nonempty subset of every member, up to max_dimension."""
    simplices = set()
    for members in family:
        members = sorted(members, key=repr)
        top = len(members) if max_dimension is None else min(len(members), max_dimension + 1)
        for r in range(1, top + 1):
            simplices.update(map(frozenset, combinations(members, r)))
    return simplices


def brute_force_nerve(cover, max_dimension=None):
    """Every face of every witness's member set, up to max_dimension."""
    return brute_force_closure(cover.values.values(), max_dimension)


def faces(cx, max_dimension=None):
    """The simplices ``faces_by_size`` lists, as a set of frozensets."""
    return {frozenset(s) for level in cx.faces_by_size(max_dimension=max_dimension) for s in level}


def count_complexes(monkeypatch):
    """A list that grows by one for each SimplicialComplex built."""
    built = []
    init = SimplicialComplex.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimplicialComplex, "__init__", counting)
    return built


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
# repr order and string order agree
PLAIN_NAMES = [f"v{i}" for i in range(10)]


def list_order(s):
    """The documented dump order of a simplex whose vertices are in repr
    order: by size, then in list order of (type is not str, type name,
    name)."""
    return len(s), [(type(v) is not str, type(v).__name__, v) for v in s]


def list_sorted_closure(family, max_dimension=None):
    """The brute-force closure, each simplex in repr order, under a single
    global sort by ``list_order``."""
    closure = brute_force_closure(family, max_dimension)
    return sorted((sorted(s, key=repr) for s in closure), key=list_order)


def equal_facets(rng, pool):
    """Two to five random facets of one size: several facets reach every
    level, so each level is merged and sorted."""
    size = rng.randint(2, len(pool) - 2)
    return [set(rng.sample(pool, size)) for _ in range(rng.randint(2, 5))]


def one_large_facet(rng, pool):
    """A facet of 7 or more vertices and up to four of at most 3: the
    levels above 3 come from the large facet alone."""
    family = [set(rng.sample(pool, rng.randint(7, len(pool))))]
    return family + [set(rng.sample(pool, rng.randint(1, 3))) for _ in range(rng.randint(0, 4))]


def random_named_cover(rng, pool=INDEX_NAMES):
    domain = FiniteSpace.discrete({f"x{i}" for i in range(rng.randint(1, 8))})
    names = rng.sample(pool, rng.randint(1, len(pool)))
    values = {
        x: set(rng.sample(names, rng.randint(1, len(names))))
        for x in sorted(domain.points)
    }
    return indexed_cover(domain, {a for v in values.values() for a in v}, values)


def assert_written_as_json(cx, max_dimension):
    """A report holding ``complex_payload`` of ``cx`` is written as
    ``json.dumps`` writes the same report holding ``dump_complex``."""
    doc = {"payload": {"complex": complex_payload(cx, max_dimension)}}
    plain = {"payload": {"complex": dump_complex(cx, max_dimension)}}
    assert report_text(doc) == json.dumps(plain, sort_keys=True, indent=2) + "\n"


class TestComplexInvariants:
    def test_downward_closure_enforced(self):
        cx = SimplicialComplex([{"a", "b"}])
        assert cx.facets == (frozenset({"a", "b"}),)
        assert cx.vertices == {"a", "b"}
        assert cx.simplices == {frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})}

    def test_empty_member_rejected(self):
        for family in ([set()], [{"a"}, set()], [{"a", "b"}, (), {"c"}]):
            with pytest.raises(InputError, match="empty simplex"):
                SimplicialComplex(family)

    def test_dimension(self):
        cx = SimplicialComplex([{"a"}, {"b"}, {"a", "b"}])
        assert cx.dimension() == 1
        assert SimplicialComplex([]).dimension() == -1

    def test_matches_brute_force_closure(self):
        """Random families with duplicates, nested members and the empty
        family: the complex is their downward closure, held as the distinct
        maximal members, and equals the complex of that closure."""
        rng = make_rng(37)
        names = ["a", "b", "c", "d", "e", 0, 1, ("t", 2)]
        for _ in range(300):
            family = [set(rng.sample(names, rng.randint(1, 5))) for _ in range(rng.randint(0, 6))]
            family += [set(rng.sample(sorted(s, key=repr), rng.randint(1, len(s))))
                       for s in family if rng.random() < 0.4]  # nested
            family += [set(s) for s in family if rng.random() < 0.3]  # duplicates
            rng.shuffle(family)
            cx = SimplicialComplex(family)
            closure = brute_force_closure(family)
            assert cx.simplices == closure == faces(cx)
            assert cx.vertices == {v for s in family for v in s}
            maximal = {frozenset(s) for s in family if not any(s < t for t in family)}
            assert len(cx.facets) == len(maximal) and set(cx.facets) == maximal
            assert all(s in cx for s in closure)
            assert cx == SimplicialComplex(closure) == SimplicialComplex(cx.facets)
            d = rng.randint(0, 4)
            assert faces(cx, d) == brute_force_closure(family, d)

    def test_negative_dump_bound_rejected(self):
        cx = SimplicialComplex([{"a", "b"}])
        with pytest.raises(InputError, match="max_dimension must be at least 0, got -1"):
            cx.faces_by_size(max_dimension=-1)
        with pytest.raises(InputError, match="max_dimension"):
            dump_complex(cx, -1)
        with pytest.raises(InputError, match="max_dimension must be at least 0, got -1"):
            complex_payload(cx, -1)
        assert faces(cx, 0) == {frozenset({"a"}), frozenset({"b"})}

    def test_equality_compares_facets(self):
        """Two complexes on 40 vertices: equality must not enumerate their
        2^40 - 1 simplices."""
        members = frozenset(f"U{i}" for i in range(40))
        big = SimplicialComplex([members])
        assert big == SimplicialComplex([{"U0"}, members, {"U1", "U2"}, members])
        assert big != SimplicialComplex([members - {"U0"}])
        assert big != SimplicialComplex([members, {"V"}])
        assert big != members


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
            cx = nerve_from_cover(cover)
            assert cx.simplices == brute_force_nerve(cover)
            assert faces(cx, d) == brute_force_nerve(cover, d)
            assert cx.vertices == {a for s in cover.values.values() for a in s}

    def test_matches_brute_force_on_coincident_balls(self):
        m = MetricSampleSpace([(F(i, 10),) for i in range(11)])
        same = Ball((F(3, 10),), F(1, 4))
        balls = {f"C{i}": same for i in range(5)}
        balls.update(L=Ball((F(0),), F(1, 2)), R=Ball((F(1),), F(3, 5)))
        cover = incidence_cover(m.incidence(balls))
        cx = nerve_from_cover(cover)
        for d in range(7):
            assert faces(cx, d) == brute_force_nerve(cover, d)
        assert cx.dimension() == 5

    def test_ball_cover_rejects_an_uncovered_sample(self):
        m = MetricSampleSpace([(F(0),), (F(2),)])
        with pytest.raises(InputError):
            incidence_cover(m.incidence({"U": Ball((F(0),), F(1))}))

    @pytest.mark.parametrize("max_dimension", [0, 1, 2, 8, len(INDEX_NAMES)])
    def test_dump_matches_global_sort(self, max_dimension):
        rng = make_rng(29 + max_dimension)
        for _ in range(60):
            cover = random_named_cover(rng)
            cx = nerve_from_cover(cover)
            dump = dump_complex(cx, max_dimension)
            assert dump == global_sort_dump(cover, max_dimension)
            handed_in = SimplicialComplex(cx.simplices, witnessed=True)
            assert dump_complex(handed_in, max_dimension) == dump
            assert json.loads(json.dumps(dump)) == dump
            assert_written_as_json(cx, max_dimension)
        rng = make_rng(31 + max_dimension)
        for _ in range(60):
            cover = random_named_cover(rng, MIXED_NAMES)
            assert_written_as_json(nerve_from_cover(cover), max_dimension)
        assert_written_as_json(SimplicialComplex([]), max_dimension)
        tuple_named = SimplicialComplex([{("a", 1)}, {2}, {("a", 1), 2}])
        assert_written_as_json(tuple_named, max_dimension)

    def test_each_name_is_quoted_once(self, monkeypatch):
        """One 14-vertex facet has 16,383 faces and 114,688 vertex
        appearances; the payload the command line dumps quotes each of the
        14 names once, and writing it quotes none."""
        members = {f"U{i}" for i in range(14)}
        cover = indexed_cover(FiniteSpace.discrete({"x"}), members, {"x": members})
        calls = []
        quote = jsonio._quote
        monkeypatch.setattr(jsonio, "_quote", lambda s: calls.append(s) or quote(s))
        cx = nerve_from_cover(cover)
        simplices = complex_payload(cx, 13)["simplices"]
        assert sorted(calls) == sorted(members)
        text = report_text(simplices)
        assert len(calls) == 14
        monkeypatch.setattr(jsonio, "_quote", quote)
        plain = dump_complex(cx)["simplices"]
        assert len(plain) == 2**14 - 1
        assert text == json.dumps(plain, indent=2) + "\n"

    def test_membership_is_decided_on_facets(self):
        """One witness in 40 members: the nerve has 2^40 - 1 simplices, so
        membership, dimension and equality must not enumerate them, and a
        dump bound lists fewer faces without shrinking the complex."""
        members = {f"U{i}" for i in range(40)}
        cover = indexed_cover(FiniteSpace.discrete({"x"}), members, {"x": members})
        cx = nerve_from_cover(cover)
        assert cx.dimension() == 39
        assert members in cx and {"U0", "U7"} in cx
        assert set() not in cx and {"U0", "V"} not in cx
        assert SparseVec({a: F(1, 40) for a in members}).carrier() in cx
        assert cx == nerve_from_cover(cover)
        assert len(dump_complex(cx, 0)["simplices"]) == 40
        assert members in cx and cx.dimension() == 39

    def test_downward_closed_random(self):
        rng = make_rng(17)
        for _ in range(50):
            cx = nerve_from_cover(random_cover(rng))
            for s in cx.simplices:
                for v in s:
                    assert not (s - {v}) or (s - {v}) in cx.simplices


class TestFaceOrder:
    """Dumps against a global sort under the documented list order, on
    covers with mixed names and on complexes built straight from facets
    that take either way through ``faces_by_size``."""

    @pytest.mark.parametrize("max_dimension", [0, 1, 2, 8, len(MIXED_NAMES)])
    def test_mixed_names_match_global_sort(self, max_dimension):
        rng = make_rng(43 + max_dimension)
        for _ in range(60):
            cover = random_named_cover(rng, MIXED_NAMES)
            dump = dump_complex(nerve_from_cover(cover), max_dimension)
            assert dump["simplices"] == list_sorted_closure(cover.values.values(), max_dimension)

    @pytest.mark.parametrize("pool", [PLAIN_NAMES, INDEX_NAMES, MIXED_NAMES],
                             ids=["plain", "index", "mixed"])
    @pytest.mark.parametrize("family", [equal_facets, one_large_facet])
    def test_facet_families_match_global_sort(self, family, pool):
        """``equal_facets`` levels are merged and sorted.  The levels above
        size 3 of ``one_large_facet`` come from one facet: as they come on
        ``PLAIN_NAMES``, and sorted on the pools where list and ``repr``
        order differ."""
        rng = make_rng(47)
        for _ in range(40):
            members = family(rng, pool)
            cx = SimplicialComplex(members)
            assert cx.simplices == brute_force_closure(members) == faces(cx)
            for d in (0, 1, 2, 3, 5, 8, None):
                assert dump_complex(cx, d)["simplices"] == list_sorted_closure(members, d)
                for level in cx.faces_by_size(max_dimension=d):
                    level = list(level)
                    assert level == sorted(level, key=list_order)
            with pytest.raises(InputError, match="max_dimension must be at least 0"):
                cx.faces_by_size(max_dimension=-1)
            with pytest.raises(InputError, match="max_dimension must be at least 0"):
                dump_complex(cx, -1)
            with pytest.raises(InputError, match="max_dimension must be at least 0"):
                complex_payload(cx, -1)

    def test_a_one_facet_level_comes_straight_from_combinations(self):
        """Where list and ``repr`` order agree, each level above size 3 of
        ``one_large_facet`` is the large facet's combinations as they come,
        neither merged nor sorted."""
        rng = make_rng(47)
        for _ in range(40):
            cx = SimplicialComplex(one_large_facet(rng, PLAIN_NAMES))
            levels = list(cx.faces_by_size(str.upper))
            assert len(levels) >= 7
            for labels, faces in zip(levels[3:], list(cx.faces_by_size())[3:]):
                assert isinstance(labels, combinations) and isinstance(faces, combinations)
                assert list(labels) == [tuple(map(str.upper, s)) for s in faces]


class TestRealizationMembership:
    def setup_method(self):
        m, balls = line_cover()
        self.cx = nerve_from_cover(incidence_cover(m.incidence(balls)))

    def test_vertex_dirac(self):
        assert dirac("1").carrier() in self.cx

    def test_absent_edge(self):
        p = SparseVec({"0": F(1, 2), "2": F(1, 2)})
        assert p.carrier() not in self.cx

    def test_present_edge(self):
        p = SparseVec({"0": F(3, 10), "1": F(7, 10)})
        assert p.carrier() in self.cx


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
        pou = PartitionOfUnity(m, set(balls), rows)
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
        cover = incidence_cover(m.incidence(balls))
        assert canonical_map_check(pou, cover).canonical
        cx = nerve_from_cover(cover)
        assert cx.dimension() == 9 and set(balls) in cx
        assert pou.rows[(F(0),)].carrier() in cx
        assert max(map(len, dump_complex(cx, 8)["simplices"])) == 9

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


def dense_canonical_check(pou, cover):
    """Every row tested against every facet of the nerve, and every carried
    index against the cover: the verdict lists, computed without shortcuts."""
    family = list(cover.values.values())
    facets = [s for s in family if not any(s < t for t in family)]
    membership, star = [], []
    for x in pou.ground_points():
        car = pou.carrier_at(x)
        if not any(car <= f for f in facets):
            membership.append(x)
        star += [(a, x) for a in car if a not in cover.values[x]]
    return membership, star


class TestCanonicalMapCheckOracle:
    def test_matches_dense_oracle(self):
        """300 random covers of discrete spaces, with rows inside the cover
        (no star violation), inside some facet, or anywhere."""
        rng = make_rng(41)
        seen = {"canonical": 0, "star only": 0, "membership": 0}
        for _ in range(300):
            domain = FiniteSpace.discrete({f"x{i}" for i in range(rng.randint(1, 8))})
            cover = random_cover(rng, domain=domain)
            indices = sorted(cover.codomain.points)
            rows = {}
            for x in sorted(domain.points):
                other = cover.values[rng.choice(sorted(domain.points))]  # not in hash order
                pool = rng.choice([cover.values[x], other, indices])
                rows[x] = random_simplex_point(rng, sorted(pool))
            pou = PartitionOfUnity(domain, set(indices), rows)
            rep = canonical_map_check(pou, cover)
            membership, star = dense_canonical_check(pou, cover)
            assert rep.membership_violations == membership
            assert rep.star_violations == star
            assert rep.canonical == (not membership and not star)
            seen["membership" if membership else "star only" if star else "canonical"] += 1
        assert min(seen.values()) >= 30, seen

    def test_subordinated_partition_builds_no_complex(self, monkeypatch):
        m, balls = line_cover()
        incidence = m.incidence(balls)
        pou, cover = pou_from_incidence(incidence), incidence_cover(incidence)
        built = count_complexes(monkeypatch)
        assert canonical_map_check(pou, cover).canonical
        assert built == []

    def test_star_violation_builds_one_complex(self, monkeypatch):
        m = MetricSampleSpace([(F(0),), (F(1),)])
        balls = {"U0": Ball((F(0),), F(1, 2)), "U1": Ball((F(1),), F(1, 2))}
        pou = PartitionOfUnity(m, set(balls), {x: dirac("U0") for x in m.samples})
        cover = incidence_cover(m.incidence(balls))
        built = count_complexes(monkeypatch)
        rep = canonical_map_check(pou, cover)
        assert rep.star_violations == [("U0", (F(1),))] and rep.membership_violations == []
        assert len(built) == 1

    @pytest.mark.parametrize("command, path, complexes", [
        ("verify-all", "data/example_bundle.json", 0),
        ("canonical-check", "data/canonical_line.json", 1),
        ("nerve-build", "data/deep_ball_cover.json", 1),
    ])
    def test_commands_build_only_the_dumped_complex(self, monkeypatch, command, path, complexes):
        """verify-all on metric covers dumps no nerve and needs none for its
        verdict; canonical-check builds only the nerve it dumps."""
        monkeypatch.chdir(ROOT)
        built = count_complexes(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, path]) == 0
        assert len(built) == complexes
