import itertools
import math
from fractions import Fraction as F
from operator import mul, sub

import pytest
from hypothesis import example, given, settings, strategies as st

from poukit import (
    ConvexTarget,
    CoverGap,
    FiniteSpace,
    InputError,
    NonPositiveEpsilon,
    NotAUnitVector,
    PartitionOfUnity,
    SelfCheckFailed,
    barycentric_selection,
    conv_fiber_open,
    conv_membership,
    epsilon_selection,
    indexed_cover,
    mather_compose,
    selection,
)
from poukit.scalars import _fold_sum
from poukit.selection import SelectionCertificate, dist_to_polytope
from poukit.sparse import SparseVec, _normalized

from generators import dirac, make_rng, random_open_cover, random_simplex_point, uniform


def sierpinski_cover():
    """Two members on the Sierpinski space, both open: U0 -> {b}, U1 -> {a, b}."""
    s = FiniteSpace.sierpinski()
    return indexed_cover(s, {"U0", "U1"}, {"a": {"U1"}, "b": {"U0", "U1"}})


def single_member_cover():
    return indexed_cover(FiniteSpace.discrete({"x"}), {"a", "b"}, {"x": {"a"}})


# vectors that are no point of conv{e_a}, with the error each must raise
NOT_SIMPLEX_POINTS = [
    pytest.param(SparseVec(), InputError, "empty carrier", id="empty"),
    pytest.param(SparseVec({"a": F(1, 2)}), NotAUnitVector, "not a unit simplex", id="half"),
    pytest.param(SparseVec({"a": F(-1)}), NotAUnitVector, "not a unit simplex", id="negative"),
]


class TestConvMembership:
    def setup_method(self):
        g = FiniteSpace.discrete({"x"})
        self.om = indexed_cover(g, {"a", "b", "c"}, {"x": {"a", "b"}})

    def test_inside(self):
        assert conv_membership(self.om, "x", SparseVec({"a": F(3, 10), "b": F(7, 10)}))

    def test_foreign_dirac(self):
        assert not conv_membership(self.om, "x", dirac("c"))

    def test_carrier_escapes(self):
        assert not conv_membership(single_member_cover(), "x", uniform("ab"))

    def test_membership_fails_outside(self):
        p = SparseVec({"U0": F(1, 2), "U1": F(1, 2)})
        assert not conv_membership(sierpinski_cover(), "a", p)
        assert conv_membership(sierpinski_cover(), "b", p)

    def test_membership_iff_in_fiber(self):
        rng = make_rng(19)
        for _ in range(50):
            cover = random_open_cover(rng)
            idx = sorted(cover.codomain.points)
            k = rng.randint(1, len(idx))
            picked = rng.sample(idx, k)
            ws = [rng.randint(1, 9) for _ in picked]
            p = SparseVec({a: F(w, sum(ws)) for a, w in zip(picked, ws)})
            is_open, fiber, _ = conv_fiber_open(cover, p)
            assert is_open
            for x in cover.domain.points:
                assert conv_membership(cover, x, p) == (x in fiber)


class TestConvFiberOpen:
    def test_totally_lsc_cover_always_open(self):
        rng = make_rng(47)
        for _ in range(30):
            om = random_open_cover(rng)
            p = random_simplex_point(rng, sorted(om.codomain.points))
            is_open, _, witness = conv_fiber_open(om, p)
            assert is_open and witness is None

    def test_non_open_fiber_detected(self):
        s = FiniteSpace.sierpinski()
        om = indexed_cover(s, {"U", "V"}, {"a": {"U"}, "b": {"V"}})
        is_open, fiber, witness = conv_fiber_open(om, dirac("U"))
        assert not is_open and fiber == {"a"} and witness == "a"

    def test_empty_carrier_rejected_by_both_hull_fibers(self):
        om = random_open_cover(make_rng(5))
        with pytest.raises(InputError, match="empty carrier"):
            conv_fiber_open(om, SparseVec())
        x = min(om.domain.points, key=repr)
        with pytest.raises(InputError, match="empty carrier"):
            conv_membership(om, x, SparseVec())

    @pytest.mark.parametrize("p, error, message", NOT_SIMPLEX_POINTS)
    def test_both_reject_a_vector_off_the_simplex(self, p, error, message):
        om = single_member_cover()
        with pytest.raises(error, match=message):
            conv_membership(om, "x", p)
        with pytest.raises(error, match=message):
            conv_fiber_open(om, p)

    def test_dirac_fiber_is_the_member(self):
        assert conv_fiber_open(sierpinski_cover(), dirac("U0"))[1] == {"b"}

    def test_edge_fiber_is_intersection(self):
        p = SparseVec({"U0": F(1, 2), "U1": F(1, 2)})
        is_open, fiber, witness = conv_fiber_open(sierpinski_cover(), p)
        assert fiber == {"b"} and is_open and witness is None

    def test_dirac_fiber_is_cover_fiber(self):
        s = FiniteSpace.sierpinski()
        om = indexed_cover(s, {"U", "V"}, {"a": {"V"}, "b": {"U", "V"}})
        _, fiber, _ = conv_fiber_open(om, dirac("U"))
        assert fiber == om.fiber("U")


class TestBarycentricSelection:
    def anchors(self):
        return {"a": (F(0), F(0)), "b": (F(1), F(0)), "c": (F(0), F(1))}

    def test_weighted_triangle(self):
        g = FiniteSpace.discrete({"x"})
        pou = PartitionOfUnity(
            g, {"a", "b", "c"},
            {"x": SparseVec({"a": F(1, 2), "b": F(1, 4), "c": F(1, 4)})},
        )
        values, certs = barycentric_selection(pou, self.anchors())
        assert values["x"] == (F(1, 4), F(1, 4))
        assert certs["x"].active_anchors == ("a", "b", "c")

    def test_dirac_returns_anchor(self):
        g = FiniteSpace.discrete({"x"})
        pou = PartitionOfUnity(g, {"a", "b", "c"}, {"x": dirac("b")})
        values, _ = barycentric_selection(pou, self.anchors())
        assert values["x"] == (F(1), F(0))

    def test_collinear_centroid(self):
        g = FiniteSpace.discrete({"x"})
        pou = PartitionOfUnity(g, {"a", "b"}, {"x": uniform("ab")})
        anchors = {"a": (F(0),), "b": (F(1),)}
        values, _ = barycentric_selection(pou, anchors)
        assert values["x"] == (F(1, 2),)

    def test_hull_containment_exact(self):
        rng = make_rng(53)
        g = FiniteSpace.discrete({"x"})
        for _ in range(50):
            p = random_simplex_point(rng, ["a", "b", "c"])
            pou = PartitionOfUnity(g, {"a", "b", "c"}, {"x": p})
            values, _ = barycentric_selection(pou, self.anchors())
            u, v = values["x"]
            assert u >= 0 and v >= 0 and u + v <= 1  # inside the triangle


def distance_to(spec, q):
    """d(q, spec) as a ``ConvexTarget`` with one set measures it."""
    return ConvexTarget(len(q), {"x": spec}).distance("x", q)


class TestDistanceOracles:
    def test_segment_interior(self):
        segment = {"kind": "segment", "a": (0, 0), "b": (1, 0)}
        assert distance_to(segment, (0.5, 0.2)) == pytest.approx(0.2)

    def test_segment_endpoint(self):
        segment = {"kind": "segment", "a": (0, 0), "b": (1, 0)}
        assert distance_to(segment, (2, 0)) == pytest.approx(1.0)

    def test_box(self):
        box = {"kind": "box", "lo": (0, 0), "hi": (1, 1)}
        assert distance_to(box, (2, 3)) == pytest.approx(5**0.5)

    def test_box_inside(self):
        box = {"kind": "box", "lo": (0, 0), "hi": (1, 1)}
        assert distance_to(box, (0.5, 0.5)) == 0

    def test_polytope_vertex(self):
        assert dist_to_polytope((2, 0), [(0, 0), (1, 0), (0, 1)]) == pytest.approx(1.0)

    def test_polytope_face(self):
        assert dist_to_polytope((1, 1), [(0, 0), (1, 0), (0, 1)]) == pytest.approx(
            (0.5) ** 0.5
        )

    def test_polytope_inside(self):
        assert dist_to_polytope((0.25, 0.25), [(0, 0), (1, 0), (0, 1)]) == pytest.approx(
            0, abs=1e-9
        )


def _exact_affine_weights(pts):
    """Barycentric weights of the min-norm point of the affine hull of
    ``pts``, solving the KKT system [[G, 1], [1, 0]] (w, mu) = (0, 1) over
    the rationals; None when the points are affinely dependent."""
    k = len(pts)
    rows = [[sum(a * b for a, b in zip(p, r)) for r in pts] + [F(1), F(0)] for p in pts]
    rows.append([F(1)] * k + [F(0), F(1)])
    n = k + 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(k)]


def exact_sq_dist_to_polytope(q, vertices):
    """Independent oracle by exhaustive face projection, in exact rationals.

    The nearest point of the hull is the projection of q onto the affine hull
    of some affinely independent vertex subset, with nonnegative barycentric
    weights.  Subsets larger than dim + 1 are affinely dependent, so every
    subset of distinct vertices up to that size is tried and the nearest such
    projection kept."""
    dim = len(q)
    pts = sorted({tuple(F(c) - F(qc) for c, qc in zip(v, q)) for v in vertices})
    best = None
    for k in range(1, min(len(pts), dim + 1) + 1):
        for subset in itertools.combinations(pts, k):
            w = _exact_affine_weights(subset)
            if w is None or min(w) < 0:
                continue
            x = [sum(wi * p[d] for wi, p in zip(w, subset)) for d in range(dim)]
            sq = sum(c * c for c in x)
            best = sq if best is None else min(best, sq)
    return best


def assert_matches_oracle(q, vertices, tol=1e-9):
    d = dist_to_polytope(q, vertices)
    assert d == pytest.approx(math.sqrt(exact_sq_dist_to_polytope(q, vertices)), abs=tol)
    return d


quarter = st.integers(-8, 8).map(lambda n: F(n, 4))


@st.composite
def polytope_queries(draw):
    point = st.tuples(*[quarter] * draw(st.integers(1, 3)))
    return draw(point), draw(st.lists(point, min_size=1, max_size=9))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(polytope_queries())
def test_polytope_distance_matches_exact_oracle(case):
    q, vertices = case
    assert_matches_oracle(q, vertices)


@st.composite
def scaled_polytope_queries(draw):
    """A query and 1-8 vertices in dimension 1-3 at a scale of 1e-6 to 1e6,
    with 1e-9-thin slivers and duplicate vertices."""
    dim = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-6, 6))
    point = st.tuples(*[st.integers(-64, 64).map(lambda n: n * scale / 16)] * dim)
    q, vertices = draw(point), draw(st.lists(point, min_size=1, max_size=8))
    if draw(st.booleans()):  # a sliver: one axis squeezed to 1e-9 of the scale
        axis = draw(st.integers(0, dim - 1))
        vertices = [v[:axis] + (v[axis] * 1e-9,) + v[axis + 1:] for v in vertices]
    return q, vertices + draw(st.lists(st.sampled_from(vertices), max_size=3))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(scaled_polytope_queries())
# a sliver that stops at a point that no longer shrinks, 6e-9 past the hull
@example(((-1.1875, -1.8125), [(-0.375, 3.4375e-9), (-1.1875, 3.5625e-9),
                               (-1.5625, -3.125e-9), (2.0, 3.0625e-9), (-3.0625, -3.9375e-9)]))
def test_polytope_distance_stays_within_its_bounds_of_the_exact_distance(case):
    """Never below the exact distance by more than 2**-50 * ref, which the
    far-anchor cull's pad covers, and never above it by more than
    1e-8 * ref, with ref the largest absolute coordinate."""
    q, vertices = case
    d, exact_sq = F(dist_to_polytope(q, vertices)), exact_sq_dist_to_polytope(q, vertices)
    ref = F(max(abs(c) for p in [q, *vertices] for c in p))
    assert (d + ref / 2**50) ** 2 >= exact_sq
    assert d - ref / 10**8 <= 0 or (d - ref / 10**8) ** 2 <= exact_sq


class TestAffineMinNorm:
    @pytest.mark.parametrize("pts", [
        [(3.0, 1.0)],
        [(3.0, 1.0), (1.0, 4.0)],
        [(1.0, 2.0, 3.0), (-2.0, 1.0, 0.5), (0.5, -1.0, 2.0)],
        [(1.0, 2.0, 3.0), (-2.0, 1.0, 0.5), (0.5, -1.0, 2.0), (4.0, 4.0, -3.0)],
        [(1e-6, 2e-6), (3e-6, -1e-6)],
        [(5e5, -1.0), (5e5, 1.0)],
    ])
    def test_weights_sum_to_one_and_give_the_min_norm_point(self, pts):
        w = selection._affine_min_norm(pts)
        exact = _exact_affine_weights([tuple(map(F, p)) for p in pts])
        assert _fold_sum(w) == pytest.approx(1, abs=1e-15)
        assert w == pytest.approx([float(e) for e in exact], rel=1e-12, abs=1e-12)
        scale = max(abs(c) for p in pts for c in p)
        for d in range(len(pts[0])):
            x = sum(e * F(p[d]) for e, p in zip(exact, pts))
            assert _fold_sum(wi * p[d] for wi, p in zip(w, pts)) == pytest.approx(
                float(x), abs=1e-12 * scale)

    @pytest.mark.parametrize("pts", [
        [(1.0, 2.0), (1.0, 2.0)],
        [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)],
        [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (2.0, 0.0, 1.0)],
    ])
    def test_a_repeated_or_collinear_point_gives_none(self, pts):
        assert selection._affine_min_norm(pts) is None


class TestPolytopeDegenerate:
    def test_duplicate_vertices(self):
        verts = [(0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (0, 1)]
        assert assert_matches_oracle((1, 1), verts) == pytest.approx(0.5**0.5)

    def test_collinear_2d(self):
        verts = [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert assert_matches_oracle((3, 0), verts) == pytest.approx(4.5**0.5)
        assert assert_matches_oracle((5, 5), verts) == pytest.approx(8**0.5)

    def test_collinear_3d(self):
        verts = [(0, 0, 0), (2, 2, 2), (1, 1, 1)]
        assert assert_matches_oracle((0, 0, 3), verts) == pytest.approx(6**0.5)

    def test_coplanar_3d(self):
        verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (F(1, 2), F(1, 2), 0)]
        assert assert_matches_oracle((F(1, 2), F(1, 4), 2), verts) == pytest.approx(2)
        assert assert_matches_oracle((2, F(1, 2), 1), verts) == pytest.approx(2**0.5)

    def test_query_at_vertex(self):
        verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert dist_to_polytope((0, 1, 0), verts) == 0

    def test_query_strictly_inside(self):
        verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        q = (F(1, 4), F(1, 4), F(1, 4))
        assert assert_matches_oracle(q, verts, tol=1e-12) == pytest.approx(0, abs=1e-12)

    def test_single_vertex_is_point_distance(self):
        for q, v in [((3, 4), (0, 0)), ((0.1, 0.2, 0.3), (1.5, -2, 7)), ((1,), (1,))]:
            assert dist_to_polytope(q, [v]) == math.dist(q, v)


KIND_SPECS = [
    ("point", {"p": (0.0, 0.0)}),
    ("segment", {"a": (0.0, 0.0), "b": (1.0, 0.0)}),
    ("box", {"lo": (0.0, 0.0), "hi": (1.0, 1.0)}),
    ("polytope", {"vertices": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]}),
]


@st.composite
def measured_sets(draw):
    """A set of each kind in dimension 1-3 and points to measure, with -0.0
    coordinates, zero-length segments, boxes flat on an axis and repeated
    polytope vertices among them."""
    dim = draw(st.integers(1, 3))
    coord = st.one_of(st.sampled_from([0.0, -0.0]), quarter.map(float),
                      st.floats(-1e3, 1e3, allow_nan=False))
    point = st.tuples(*[coord] * dim)
    a, b, c = draw(point), draw(point), draw(point)
    vertices = draw(st.lists(point, min_size=1, max_size=6))
    specs = {
        "point": {"kind": "point", "p": a},
        "segment": {"kind": "segment", "a": a, "b": draw(st.sampled_from([a, b]))},
        "zero segment": {"kind": "segment", "a": b, "b": b},
        "box": {"kind": "box", "lo": tuple(map(min, b, c)), "hi": tuple(map(max, b, c))},
        "flat box": {"kind": "box", "lo": (*a[:-1], min(b[-1], c[-1])),
                     "hi": (*a[:-1], max(b[-1], c[-1]))},
        "polytope": {"kind": "polytope",
                     "vertices": vertices + draw(st.lists(st.sampled_from(vertices), max_size=3))},
    }
    points = draw(st.lists(st.one_of(point, st.sampled_from([a, b, c, *vertices])), max_size=8))
    return ConvexTarget(dim, specs), points


def flip_zeros(q):
    return tuple(-c if c == 0 else c for c in q)


def reference_distance(spec, q):
    """d(q, spec) by the per-point formulas, each point taken to floats."""
    q, kind = [float(c) for c in q], spec["kind"]
    if kind == "point":
        return math.dist(q, [float(c) for c in spec["p"]])
    if kind == "segment":
        a = [float(c) for c in spec["a"]]
        d = [float(c) - ac for c, ac in zip(spec["b"], a)]
        dd, along = _fold_sum(map(mul, d, d)), _fold_sum(map(mul, map(sub, q, a), d))
        t = min(1.0, max(0.0, 0.0 if dd == 0 else along / dd))
        return math.dist(q, [ac + t * dc for ac, dc in zip(a, d)])
    if kind == "box":
        return math.hypot(*[max(float(l) - c, 0.0, c - float(h))
                            for c, l, h in zip(q, spec["lo"], spec["hi"])])
    return dist_to_polytope(q, spec["vertices"])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(measured_sets())
def test_distances_are_the_distances_of_each_point(case):
    """Bit for bit the per-point formulas, also for a zero of the other sign
    and for the point's coordinates as Fractions."""
    target, points = case
    for x, spec in target.sets.items():
        each = [reference_distance(spec, q) for q in points]
        assert target.distances(x, points) == each
        assert [target.distance(x, q) for q in points] == each
        assert target.distances(x, [flip_zeros(q) for q in points]) == each
        assert [target.distance(x, tuple(map(F, q))) for q in points] == each


@pytest.mark.parametrize("kind, spec", KIND_SPECS)
@pytest.mark.parametrize("q", [(5,), (0.5, 0.5, 0.5)])
def test_a_point_of_another_dimension_is_an_input_error(kind, spec, q):
    target = ConvexTarget(2, {"x": {"kind": kind, **spec}})
    msg = rf"point \[{', '.join(map(repr, q))}\] has {len(q)} coordinates, ambient_dim is 2"
    with pytest.raises(InputError, match=msg):
        target.distance("x", q)
    with pytest.raises(InputError, match=msg):
        target.distances("x", [(0.5, 0.5), q])


class TestConvexTargetValidation:
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "polytope", "vertices": []},
            {"kind": "point", "p": (0, 0, 0)},
            {"kind": "segment", "a": (0, 0), "b": (1,)},
            {"kind": "box", "lo": (0, 0), "hi": (1, 1, 1)},
            {"kind": "polytope", "vertices": [(0, 0), (1, 0, 0)]},
            {"kind": "point"},
            {"kind": "segment", "a": (0, 0)},
            {"kind": "box", "hi": (1, 1)},
            {"kind": "polytope"},
            {"kind": "ball", "c": (0, 0)},
        ],
    )
    def test_rejected(self, spec):
        with pytest.raises(InputError):
            ConvexTarget(2, {"x": spec})

    def test_an_empty_box_is_rejected_and_a_flat_one_is_not(self):
        with pytest.raises(InputError, match=r"empty box at 'x': lo \(0, 1\), hi \(1, 0.5\)"):
            ConvexTarget(2, {"x": {"kind": "box", "lo": (0, 1), "hi": (1, 0.5)}})
        flat = ConvexTarget(2, {"x": {"kind": "box", "lo": (0, 1), "hi": (1, 1)}})
        assert flat.distance("x", (0.5, 3)) == 2


def grid(step=0.25, lo=0.0, hi=1.0, jlo=-0.25, jhi=0.25):
    xs, out = lo, []
    n = int(round((hi - lo) / step))
    m = int(round((jhi - jlo) / step))
    for i in range(n + 1):
        for j in range(m + 1):
            out.append((lo + i * step, jlo + j * step))
    return out


class TestEpsilonSelection:
    def segment_target(self):
        return ConvexTarget(2, {"x": {"kind": "segment", "a": (0, 0), "b": (1, 0)}})

    def test_symmetric_segment(self):
        anchors = [(i / 4, j / 4) for i in range(5) for j in (-1, 0, 1)]
        values, certs = epsilon_selection(self.segment_target(), 0.3, anchors)
        assert abs(values["x"][0] - 0.5) < 1e-12
        assert abs(values["x"][1]) < 1e-12
        assert certs["x"].distance_bound < 0.3

    def test_point_target_snaps_to_anchor(self):
        target = ConvexTarget(2, {"x": {"kind": "point", "p": (0.5, 0.5)}})
        anchors = [(0.5, 0.5), (2, 2), (3, 3)]
        values, _ = epsilon_selection(target, 0.1, anchors)
        assert values["x"] == (0.5, 0.5)

    def test_cover_gap(self):
        target = ConvexTarget(2, {"x": {"kind": "point", "p": (10, 10)}})
        with pytest.raises(CoverGap):
            epsilon_selection(target, 0.1, [(0, 0)])

    def test_nonpositive_epsilon(self):
        with pytest.raises(NonPositiveEpsilon):
            epsilon_selection(self.segment_target(), 0, [(0, 0)])

    def test_rows_it_normalizes_pass_the_default_tolerance(self):
        # the float rows 9/24, 8/24, 7/24 sum to 1 - 2**-53, not to 1; the
        # selection reads no input, so no run's tolerance judges them
        target = ConvexTarget(1, {"x": {"kind": "point", "p": (0.0,)}})
        anchors = [(0.1,), (0.2,), (0.3,)]
        weights = [1.0 - a for (a,) in anchors]
        assert _fold_sum(w / _fold_sum(weights) for w in weights) == 1 - 2**-53
        _, certs = epsilon_selection(target, 1.0, anchors)
        assert certs["x"].distance_bound < 1.0

    @pytest.mark.parametrize("kind, spec", KIND_SPECS)
    def test_anchor_dimension_is_checked_before_epsilon(self, kind, spec):
        target = ConvexTarget(2, {"x": {"kind": kind, **spec}})
        msg = r"anchor \[0\.1, 0\.1, 5\.0\] has 3 coordinates, ambient_dim is 2"
        for eps in (0.5, 0.0):
            with pytest.raises(InputError, match=msg):
                epsilon_selection(target, eps, [(0.0, 0.0), (0.1, 0.1, 5.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_number_is_an_input_error(self, bad):
        for kind, spec in [("point", {"p": (0.0, bad)}),
                           ("segment", {"a": (0.0, 0.0), "b": (bad, 0.0)}),
                           ("box", {"lo": (bad, 0.0), "hi": (1.0, 1.0)}),
                           ("polytope", {"vertices": [(0.0, 0.0), (0.0, bad)]})]:
            with pytest.raises(InputError, match=f"coordinates of the set at 'x' .* got {bad}"):
                ConvexTarget(2, {"x": {"kind": kind, **spec}})
        target = self.segment_target()
        with pytest.raises(InputError, match=f"anchor coordinates .* got {bad}"):
            epsilon_selection(target, 0.3, [(0.0, 0.0), (bad, 0.0)])
        with pytest.raises(InputError, match=f"epsilon .* got {bad}"):
            epsilon_selection(target, bad, [(0.0, 0.0)])
        with pytest.raises(InputError, match="has 3 coordinates"):
            epsilon_selection(target, bad, [(0.0, bad, 0.0)])

    def test_violated_certificate_travels_with_the_error(self, monkeypatch):
        anchors = [(0.0, 1.0), (1.0, 1.0)]
        monkeypatch.setattr(ConvexTarget, "distances", lambda self, x, qs: [
            0.0 if tuple(q) in anchors else 1.0 for q in qs])
        target = ConvexTarget(2, {"x": {"kind": "point", "p": (0, 0)}})
        with pytest.raises(SelfCheckFailed, match="certificate violated") as info:
            epsilon_selection(target, 0.5, anchors)
        cert = info.value.certificate
        assert (cert.point, cert.distance_bound) == ("x", 1.0)
        assert cert.active_anchors == ("a0", "a1")

    def test_certified_bound_halves_under_refinement(self):
        target = self.segment_target()
        coarse_anchors = grid(step=0.25)
        fine_anchors = grid(step=0.125)
        _, coarse = epsilon_selection(target, 0.4, coarse_anchors)
        _, fine = epsilon_selection(target, 0.2, fine_anchors)
        for x in target.ground_points():
            assert fine[x].distance_bound < 0.2 <= 0.4


def ref_epsilon_selection(target, eps, anchors):
    """``epsilon_selection`` as it was written before anchors far from a
    polytope's vertex box were culled: every anchor is measured."""
    anchor_ids = {f"a{i}": tuple(a) for i, a in enumerate(anchors)}
    rows = {}
    for x in target.ground_points():
        weights = {}
        for aid, apt in anchor_ids.items():
            gap = eps - target.distance(x, apt)
            if gap > 0:
                weights[aid] = gap
        if not weights:
            raise CoverGap(x)
        rows[x], _ = _normalized(weights)
    ground = FiniteSpace.discrete(target.ground_points())
    gamma, _ = mather_compose(PartitionOfUnity(ground, set(anchor_ids), rows))
    values, certs = barycentric_selection(gamma, anchor_ids)
    for x, v in values.items():
        certs[x] = SelectionCertificate(x, v, target.distance(x, v), certs[x].active_anchors)
    return values, certs


def selection_or_gap(select, target, eps, anchors):
    try:
        return select(target, eps, anchors)
    except CoverGap as exc:
        return ("gap", exc.args)


@st.composite
def culling_cases(draw):
    """A polytope of 1-9 vertices in dimension 1-3 at a scale of 1e-6 to 1e6,
    with duplicate vertices and 1e-9-thin slivers, a segment beside it, and
    anchors around the polytope's vertex box, some at box distance
    eps * (1 +- 2**-k) on either side of the cull's pad."""
    dim = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-6, 6))
    coord = st.integers(-64, 64).map(lambda n: n * scale / 16)
    vertices = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=9))
    if draw(st.booleans()):  # a sliver: one axis squeezed to 1e-9 of the scale
        axis = draw(st.integers(0, dim - 1))
        vertices = [v[:axis] + (v[axis] * 1e-9,) + v[axis + 1:] for v in vertices]
    vertices += draw(st.lists(st.sampled_from(vertices), max_size=3))  # duplicates
    eps = scale * draw(st.integers(1, 64)) / 16
    cols = list(zip(*vertices))
    lo, hi = [min(c) for c in cols], [max(c) for c in cols]
    anchors = [vertices[0]] if draw(st.integers(0, 7)) else []  # else a gap is likely
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(1, 52))
        reach = eps * (1 + draw(st.sampled_from([1, -1])) * 2.0**-k)
        sides = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=dim, max_size=dim))
        if not any(sides):
            sides[0] = 1
        w = [draw(st.integers(1, 8)) if s else 0 for s in sides]
        norm = math.hypot(*w)
        anchors.append(tuple(
            h + reach * wi / norm if s > 0 else l - reach * wi / norm if s < 0 else (l + h) / 2
            for s, wi, l, h in zip(sides, w, lo, hi)
        ))
    anchors += draw(st.lists(st.tuples(*[coord] * dim), max_size=3))
    target = ConvexTarget(dim, {
        "p": {"kind": "polytope", "vertices": vertices},
        "s": {"kind": "segment", "a": vertices[0], "b": vertices[-1]},
    })
    return target, eps, anchors


class TestFarAnchorCull:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(culling_cases())
    def test_equals_the_selection_that_measures_every_anchor(self, case):
        target, eps, anchors = case
        assert selection_or_gap(epsilon_selection, target, eps, anchors) == selection_or_gap(
            ref_epsilon_selection, target, eps, anchors)

    def test_far_anchors_are_never_measured(self, monkeypatch):
        calls = []

        def counted(q, vertices):
            calls.append(q)
            return dist_to_polytope(q, vertices)

        monkeypatch.setattr(selection, "dist_to_polytope", counted)
        target = ConvexTarget(2, {"x": {"kind": "polytope",
                                        "vertices": [(0, 0), (1, 0), (0, 1), (1, 1)]}})
        far = [(2 + i, -3 - i) for i in range(20)] + [(-1.5, 0.5), (0.5, 2.01)]
        epsilon_selection(target, 1.0, [*far[:10], (0.5, 0.5), *far[10:]])
        # the near anchor; the certificate is that anchor and reuses its distance
        assert calls == [(0.5, 0.5)]

    def test_an_anchor_outside_the_float_range_is_still_reported(self):
        target = ConvexTarget(2, {"x": {"kind": "polytope", "vertices": [(0, 0), (1, 0)]}})
        with pytest.raises(InputError, match="polytope at 'x' is out of float range"):
            epsilon_selection(target, 1.0, [(0, 0), (10**400, 0)])

    @pytest.mark.parametrize("kind, spec", KIND_SPECS)
    def test_an_anchor_outside_the_float_range_is_reported_by_the_first_set(self, kind, spec):
        target = ConvexTarget(2, {"x": {"kind": kind, **spec}, "y": {"kind": "point", "p": (0, 0)}})
        for big in (10**400, F(10**400, 3)):
            with pytest.raises(InputError, match=f"{kind} at 'x' is out of float range"):
                epsilon_selection(target, 1.0, [(0, 0), (0, big)])
            with pytest.raises(InputError, match=f"{kind} at 'x' is out of float range"):
                target.distance("x", (big, 0))

    def test_a_vertex_outside_the_float_range_is_still_reported(self):
        target = ConvexTarget(1, {"x": {"kind": "polytope", "vertices": [(0,), (10**400,)]}})
        with pytest.raises(InputError, match="polytope at 'x' is out of float range"):
            epsilon_selection(target, 1.0, [(5,)])


class TestMeasuredOnce:
    """The target of ``data/polytope_selection.json``: x0 and x1 shrink to a
    vertex row, x2 has one anchor, x3's value lies between two anchors, and
    four anchors lie outside x3's padded vertex box."""

    def problem(self):
        target = ConvexTarget(2, {
            "x0": {"kind": "point", "p": (0, 0)},
            "x1": {"kind": "segment", "a": (2, 0), "b": (3, F(1, 2))},
            "x2": {"kind": "box", "lo": (0, 2), "hi": (1, F(5, 2))},
            "x3": {"kind": "polytope", "vertices": [(3, 3), (4, 3), (3, 4), (F(7, 2), F(7, 2))]},
        })
        anchors = [(0.05, 0.0), (-0.2, 0.1), (2.5, 0.2), (2.6, 0.1), (0.5, 2.1), (3.5, 2.9),
                   (3.6, 2.9), (5.0, 5.0), (3.1, -0.2), (4.5, 4.0), (3.9, 3.9)]
        return target, 0.3, anchors

    def test_each_pair_is_measured_once_and_a_vertex_row_certificate_runs_no_oracle(
            self, monkeypatch):
        calls, wolfe = [], []
        distances, polytope = ConvexTarget.distances, selection.dist_to_polytope

        def counted(self, x, points):
            calls.append((x, [tuple(q) for q in points]))
            return distances(self, x, points)

        monkeypatch.setattr(ConvexTarget, "distances", counted)
        monkeypatch.setattr(selection, "dist_to_polytope",
                            lambda q, vertices: wolfe.append(q) or polytope(q, vertices))
        target, eps, anchors = self.problem()
        values, certs = epsilon_selection(target, eps, anchors)
        assert [x for x, _ in calls] == ["x0", "x1", "x2", "x3", "x3"]
        for x, points in calls[:4]:  # one pass over the anchors
            assert len(set(points)) == len(points)
        assert calls[3][1] == [(3.5, 2.9), (3.6, 2.9), (3.9, 3.9)]  # the rest are culled
        assert calls[4][1] == [values["x3"]]  # the only certificate between anchors
        assert [len(certs[x].active_anchors) for x in ("x0", "x1", "x2", "x3")] == [1, 1, 1, 2]
        assert len(wolfe) == 4
        assert selection_or_gap(epsilon_selection, target, eps, anchors) == selection_or_gap(
            ref_epsilon_selection, target, eps, anchors)
