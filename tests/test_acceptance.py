"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  All randomized checks are seeded and use independent
brute-force evaluation wherever an oracle is called for."""

import json
import pathlib
import subprocess
import sys
from fractions import Fraction as F

from poukit import (
    Ball,
    ConvexTarget,
    MetricSampleSpace,
    canonical_map_check,
    classify,
    closure_cover,
    conv_fiber_open,
    conv_membership,
    epsilon_selection,
    incidence_cover,
    indexed_cover,
    mather_eta,
    mather_lambda,
    mather_support_bound,
    pou_from_incidence,
)
from poukit.setmaps import SetValuedMap
from poukit.spaces import FiniteSpace
from poukit.sparse import is_unit_simplex_point

from generators import (
    graph_closure,
    linear_combination,
    make_rng,
    random_cover,
    random_open_cover,
    random_set_valued_map,
    random_simplex_point,
    random_space,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
UNIVERSE = [f"i{n}" for n in range(25)]


def report(name, ok=True):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_mather_invariants():
    rng = make_rng(1001)
    for _ in range(10_000):
        y = random_simplex_point(rng, UNIVERSE, max_carrier=20)
        lam = mather_lambda(y)
        eta = mather_eta(y)
        assert is_unit_simplex_point(eta) and eta.norm1() == 1
        assert eta.carrier() <= y.carrier()
        half = y.sup_norm() / 2
        assert all(y[a] > half for a in lam.carrier())
        assert len(lam.carrier()) * y.sup_norm() <= 2
    report("1 mather-invariants (10000 exact cases)")


def test_criterion_2_mather_stability():
    rng = make_rng(1002)
    for _ in range(1_000):
        y = random_simplex_point(rng, UNIVERSE, max_carrier=12)
        bound, radius = mather_support_bound(y)
        # perturb toward a random simplex point over a wider index pool;
        # convexity keeps the result on the unit simplex and the mixing
        # weight t < radius/2 forces l1 distance below the radius
        u = random_simplex_point(rng, UNIVERSE, max_carrier=12)
        t = radius / rng.randint(3, 10)
        moved = linear_combination((1 - t, y), (t, u))
        assert linear_combination((1, moved), (-1, y)).norm1() < radius
        # brute-force evaluation of the shrinking threshold on the perturbed
        # vector, independent of mather_lambda
        sup = max(moved.entries.values())
        survivors = {a for a, v in moved.entries.items() if v > sup / 2}
        assert survivors <= bound
        assert mather_lambda(moved).carrier() <= bound
    report("2 mather-stability (1000 perturbed cases)")


def test_criterion_3_closure_cover_formulas():
    rng = make_rng(1003)
    for _ in range(500):
        space = random_space(rng, max_points=8)
        om = random_cover(rng, domain=space, max_indices=6)
        closed = closure_cover(om)  # raises if the two formulas disagree
        assert graph_closure(om) == closed  # discrete-codomain coincidence
    report("3 closure-cover formulas agree (500 spaces)")


def test_criterion_4_semicontinuity_diagram():
    rng = make_rng(1004)
    for _ in range(2_000):
        rep = classify(random_set_valued_map(rng, max_points=6))
        assert not rep.open_graph or rep.totally_lsc
        assert not rep.totally_lsc or rep.lsc
        assert rep.lower_locally_constant == rep.totally_lsc
    s = FiniteSpace.sierpinski()
    ident = classify(SetValuedMap(s, s, {p: {p} for p in s.points}))
    assert ident.lsc and not ident.totally_lsc
    d = FiniteSpace.discrete({"a", "b"})
    delta = classify(SetValuedMap(d, s, {p: {p} for p in d.points}))
    assert delta.lower_locally_constant and not delta.open_graph
    report("4 semicontinuity diagram (2000 maps + fixed instances)")


def _random_ball_cover(rng):
    dim = rng.choice([1, 2])
    grid = [
        (F(i, 10),) if dim == 1 else (F(i, 10), F(j, 10))
        for i in range(-20, 21)
        for j in range(-20, 21)
    ]
    candidates = rng.sample(sorted(set(grid)), 50 if dim == 2 else 35)
    k = rng.randint(1, 10)
    balls = {
        f"U{i}": Ball(rng.choice(candidates), F(rng.randint(8, 30), 10))
        for i in range(k)
    }
    # keep only the candidate samples the balls actually cover, so the ball
    # family is a cover of the sample space by construction
    rows = MetricSampleSpace(candidates).incidence(balls).rows
    covered = [x for x, row in zip(candidates, rows) if row]
    return MetricSampleSpace(covered), balls


def test_criterion_5_canonical_maps():
    rng = make_rng(1005)
    for _ in range(100):
        space, balls = _random_ball_cover(rng)
        incidence = space.incidence(balls)
        rep = canonical_map_check(pou_from_incidence(incidence), incidence_cover(incidence))
        assert rep.canonical
    report("5 canonical bump maps (100 random ball covers)")


def test_criterion_6_hull_fibers_open():
    rng = make_rng(1006)
    for _ in range(500):
        cover = random_open_cover(rng, max_indices=6, max_points=8)
        idx = sorted(cover.codomain.points)
        for _ in range(100):
            p = random_simplex_point(rng, idx)
            is_open, fiber, _ = conv_fiber_open(cover, p)
            assert is_open
            assert fiber == frozenset.intersection(*(cover.fiber(a) for a in p.carrier()))
            for x in cover.domain.points:
                assert conv_membership(cover, x, p) == (x in fiber)
    report("6 hull fibers open + membership/fiber consistency (500 covers)")


def _grid(step, lo, hi):
    n = int(round((hi - lo) / step))
    return [
        (lo + i * step, lo + j * step) for i in range(n + 1) for j in range(n + 1)
    ]


def test_criterion_7_epsilon_selection():
    rng = make_rng(1007)
    anchors = _grid(0.25, -0.5, 1.5)  # within 0.177 of anything in [-0.5,1.5]^2
    for _ in range(100):
        if rng.random() < 0.5:
            spec = {
                "kind": "segment",
                "a": (rng.uniform(0, 1), rng.uniform(0, 1)),
                "b": (rng.uniform(0, 1), rng.uniform(0, 1)),
            }
        else:
            x0, y0 = rng.uniform(0, 0.5), rng.uniform(0, 0.5)
            spec = {
                "kind": "box",
                "lo": (x0, y0),
                "hi": (x0 + rng.uniform(0.1, 0.5), y0 + rng.uniform(0.1, 0.5)),
            }
        target = ConvexTarget(2, {"x": spec})
        eps = rng.uniform(0.2, 0.5)
        _, certs = epsilon_selection(target, eps, anchors)
        assert certs["x"].distance_bound < eps + 1e-9
    fixed = ConvexTarget(2, {"x": {"kind": "segment", "a": (0, 0), "b": (1, 0)}})
    fixed_anchors = [(i / 4, j / 4) for i in range(5) for j in (-1, 0, 1)]
    values, _ = epsilon_selection(fixed, 0.3, fixed_anchors)
    assert abs(values["x"][0] - 0.5) < 1e-12 and abs(values["x"][1]) < 1e-12
    report("7 epsilon-selection certificates (100 random + fixed symmetric)")


def _solve_barycentric(anchor_set, p, universe):
    """Exhaustive exact solve of sum_{a in S} w_a * e_a = p with w >= 0 and
    sum w = 1, by Gaussian elimination over the rationals."""
    cols = sorted(anchor_set)
    rows = [[F(1) if b == a else F(0) for a in cols] + [p[b]] for b in universe]
    rows.append([F(1)] * len(cols) + [F(1)])
    # forward elimination
    pivot_cols = []
    r = 0
    for c in range(len(cols)):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    # inconsistent system -> not in the hull
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return False
    w = {cols[c]: rows[i][-1] for i, c in enumerate(pivot_cols)}
    return all(v >= 0 for v in w.values()) and sum(w.values()) == 1


def test_criterion_8_hull_membership_oracle():
    rng = make_rng(1008)
    idx = list("abcdef")
    g = FiniteSpace.discrete({"x"})
    for _ in range(1_000):
        s = set(rng.sample(idx, rng.randint(1, 6)))
        om = indexed_cover(g, idx, {"x": s})
        p = random_simplex_point(rng, idx)
        fast = conv_membership(om, "x", p)
        slow = _solve_barycentric(s, p, idx)
        assert fast == slow
    report("8 hull membership matches exhaustive barycentric solve (1000 cases)")


def test_criterion_9_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = [
        sys.executable, "-m", "poukit.cli", "verify-all",
        str(DATA / "example_bundle.json"), "--seed", "7",
    ]
    for out in (out1, out2):
        proc = subprocess.run(args + ["--out", str(out)], capture_output=True)
        assert proc.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["overall"] == "pass"
    report("9 byte-identical verify-all reports")
