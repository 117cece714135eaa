import os
import pathlib
import subprocess
import sys

import pytest

from poukit import (
    FiniteSpace,
    SetValuedMap,
    classify,
    closure_cover,
    finite_interval_model,
    indexed_cover,
)
from poukit import spaces
from poukit.errors import InputError

from generators import (
    graph_closure,
    make_rng,
    product_space,
    random_cover,
    random_set_valued_map,
    random_space,
)


def sierpinski_identity():
    s = FiniteSpace.sierpinski()
    return SetValuedMap(s, s, {p: {p} for p in s.points})


class TestClassify:
    def test_sierpinski_identity(self):
        rep = classify(sierpinski_identity())
        assert rep.lsc and not rep.totally_lsc

    def test_discrete_delta_into_sierpinski(self):
        d = FiniteSpace.discrete({"a", "b"})
        s = FiniteSpace.sierpinski()
        rep = classify(SetValuedMap(d, s, {p: {p} for p in d.points}))
        assert rep.lower_locally_constant and not rep.open_graph

    def test_constant_full_map(self):
        s = FiniteSpace.sierpinski()
        rep = classify(SetValuedMap(s, s, {p: set(s.points) for p in s.points}))
        assert rep.lsc and rep.totally_lsc and rep.open_graph
        assert rep.lower_locally_constant and rep.usc and rep.usco

    def test_empty_value_rejected(self):
        s = FiniteSpace.sierpinski()
        with pytest.raises(InputError):
            SetValuedMap(s, s, {"a": set(), "b": {"b"}})

    def test_values_for_unknown_points_rejected(self):
        with pytest.raises(InputError, match=r"values for unknown points \['zz'\]"):
            SetValuedMap(FiniteSpace.discrete({"a"}), {"0"}, {"a": {"0"}, "zz": {"1"}})

    def test_witness_on_failure(self):
        rep = classify(sierpinski_identity())
        assert "totally_lsc" in rep.witnesses


class TestHierarchy:
    def test_implication_diagram_random(self):
        rng = make_rng(23)
        for _ in range(200):
            rep = classify(random_set_valued_map(rng))
            if rep.open_graph:
                assert rep.totally_lsc
            if rep.totally_lsc:
                assert rep.lsc

    def test_finite_codomain_collapse(self):
        # on finite codomains lower local constancy = total lower semicontinuity
        rng = make_rng(29)
        for _ in range(200):
            rep = classify(random_set_valued_map(rng))
            assert rep.lower_locally_constant == rep.totally_lsc

    def test_usco_equals_usc(self):
        rng = make_rng(31)
        for _ in range(50):
            rep = classify(random_set_valued_map(rng))
            assert rep.usco == rep.usc


def llc_oracle(phi):
    """First K, over all subsets of the codomain in binary-counting order of
    the repr-sorted points, whose set {x : K <= values(x)} is not open; None
    when every such set is open."""
    subsets = [frozenset()]
    for q in sorted(phi.codomain.points, key=repr):
        subsets += [k | {q} for k in subsets]
    for k in subsets:
        holds = {p for p in phi.domain.points if k <= phi.values[p]}
        if not phi.domain.is_open(holds):
            return k
    return None


def open_graph_oracle(phi):
    """First graph point, in repr order, whose minimal open in the product
    space leaves the graph; None when the graph is open."""
    prod = product_space(phi.domain, phi.codomain)
    graph = {(p, q) for p in phi.domain.points for q in phi.values[p]}
    for pq in sorted(graph, key=repr):
        if not prod.min_open[pq] <= graph:
            return pq
    return None


def totally_lsc_map(rng, codomain, max_points=6):
    """Random map into ``codomain`` whose every fiber is a union of minimal
    opens of a random domain."""
    domain = random_space(rng, max_points)
    pts = sorted(domain.points)
    cod = sorted(codomain.points, key=repr)
    fibers = {
        q: set().union(*(domain.min_open[p] for p in pts if rng.random() < 0.4))
        for q in cod
    }
    for p in pts:
        if not any(p in f for f in fibers.values()):
            fibers[rng.choice(cod)] |= domain.min_open[p]
    values = {p: {q for q in cod if p in fibers[q]} for p in pts}
    return SetValuedMap(domain, codomain, values)


def assert_agrees_with_oracles(phi):
    rep = classify(phi)
    k = llc_oracle(phi)
    assert rep.lower_locally_constant == (k is None)
    assert rep.witnesses.get("lower_locally_constant") == (
        None if k is None else ("set not open for", k)
    )
    pq = open_graph_oracle(phi)
    assert rep.open_graph == (pq is None)
    assert rep.witnesses.get("open_graph") == (
        None if pq is None else ("no open box inside the graph at", pq)
    )
    return rep


class TestOracles:
    def test_random_maps(self):
        rng = make_rng(53)
        for _ in range(200):
            assert_agrees_with_oracles(random_set_valued_map(rng, max_points=7))

    def test_totally_lsc_maps(self):
        rng = make_rng(59)
        for _ in range(200):
            phi = totally_lsc_map(rng, random_space(rng, 7))
            rep = assert_agrees_with_oracles(phi)
            assert rep.totally_lsc and rep.lower_locally_constant

    def test_discrete_delta_into_sierpinski(self):
        d = FiniteSpace.discrete({"a", "b"})
        s = FiniteSpace.sierpinski()
        rep = assert_agrees_with_oracles(SetValuedMap(d, s, {p: {p} for p in d.points}))
        assert rep.witnesses["open_graph"] == ("no open box inside the graph at", ("a", "a"))


class TestScaling:
    def test_openness_tests_linear_in_codomain(self, monkeypatch):
        """classify decides every open or closed set through the index's
        mask tests, at most 3|Y| of them."""
        calls = []

        def counted(test):
            def wrapper(self, m):
                calls.append(m)
                return test(self, m)
            return wrapper

        for name in ("is_open", "is_closed"):
            monkeypatch.setattr(spaces._Index, name, counted(getattr(spaces._Index, name)))
        codomain = finite_interval_model(8)
        assert len(codomain.points) == 17
        phi = totally_lsc_map(make_rng(61), codomain)
        rep = classify(phi)
        assert rep.totally_lsc and rep.lower_locally_constant
        assert 0 < len(calls) <= 2 * len(codomain.points)


class TestClosureCover:
    def test_sierpinski_example(self):
        s = FiniteSpace.sierpinski()
        om = indexed_cover(s, {"0", "1"}, {"a": {"0"}, "b": {"0", "1"}})
        closed = closure_cover(om)
        assert closed.values["a"] == {"0", "1"}
        assert closed.values["b"] == {"0", "1"}

    def test_discrete_domain_fixed_point(self):
        d = FiniteSpace.discrete({"x", "y"})
        om = indexed_cover(d, {"0", "1"}, {"x": {"0"}, "y": {"1"}})
        assert closure_cover(om).values == om.values

    def test_single_index_fixed_point(self):
        s = FiniteSpace.sierpinski()
        om = indexed_cover(s, {"0"}, {p: {"0"} for p in s.points})
        assert closure_cover(om).values == om.values

    def test_agrees_with_graph_closure_on_random_covers(self):
        rng = make_rng(41)
        for _ in range(25):
            om = random_cover(rng)
            assert graph_closure(om) == closure_cover(om)

    def test_one_image_per_point_on_a_chain(self, monkeypatch):
        """The pointwise value at p is image(U_p), not an intersection over
        every open that contains p: |X| images, not |X|**2."""
        n, rng = 40, make_rng(43)
        points = [f"c{i:02}" for i in range(n)]
        chain = FiniteSpace(points, {p: points[i:] for i, p in enumerate(points)})
        om = random_cover(rng, domain=chain, max_indices=5)
        calls = []
        image = SetValuedMap._image_mask

        def counted(self, m):
            calls.append(m)
            return image(self, m)

        monkeypatch.setattr(SetValuedMap, "_image_mask", counted)
        closed = closure_cover(om)
        assert len(calls) == n
        monkeypatch.undo()
        assert closed == graph_closure(om)


class TestGraphClosure:
    def test_constant_closed_valued_fixed_point(self):
        s = FiniteSpace.sierpinski()
        phi = SetValuedMap(s, s, {p: {"a"} for p in s.points})  # {a} closed
        assert graph_closure(phi) == phi

    def test_sierpinski_identity(self):
        bar = graph_closure(sierpinski_identity())
        assert bar.values["a"] == {"a", "b"}

    def test_contains_original(self):
        rng = make_rng(43)
        for _ in range(25):
            phi = random_set_valued_map(rng)
            bar = graph_closure(phi)
            for p in phi.domain.points:
                assert phi.values[p] <= bar.values[p]


class TestImage:
    def setup_method(self):
        s = FiniteSpace.sierpinski()
        self.om = indexed_cover(s, {"0", "1"}, {"a": {"0"}, "b": {"0", "1"}})

    def test_singleton(self):
        assert self.om.image({"b"}) == {"0", "1"}

    def test_empty(self):
        assert self.om.image(set()) == frozenset()

    def test_whole_domain(self):
        assert self.om.image({"a", "b"}) == {"0", "1"}


DRAWS = """
from generators import make_rng, random_cover, random_set_valued_map
rng = make_rng(7)
for draw in (random_set_valued_map, random_cover) * 40:
    phi = draw(rng)
    print(sorted((p, sorted(v)) for p, v in phi.values.items()))
"""


class TestGenerators:
    def test_seeded_draws_do_not_depend_on_the_string_hash(self):
        tests = pathlib.Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests), str(tests.parent / "src")])
        outs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
            proc = subprocess.run(
                [sys.executable, "-c", DRAWS], env=env, capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
