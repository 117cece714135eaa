"""The finite-space queries and checks, which run on int masks, against the
frozenset definitions and code they replaced; the up and down masks of an
index against the pairs y in U_x; the witnesses of hostile inputs under two
string-hash seeds; and count guards on a chain."""

import json
import os
import pathlib
import subprocess
import sys
from functools import reduce

from hypothesis import given, settings, strategies as st

from poukit import (
    FiniteSpace,
    PropertyReport,
    classify,
    closure_cover,
    conv_fiber_open,
    finite_interval_model,
    jsonio,
    spaces,
)
from poukit.cli import main

from generators import (
    make_rng,
    random_cover,
    random_set_valued_map,
    random_simplex_point,
    random_space,
)

TESTS = pathlib.Path(__file__).resolve().parent
DATA = TESTS.parent / "data"


def derandomized(cases):
    return settings(derandomize=True, database=None, deadline=None, max_examples=cases)


SEEDS = st.integers(0, 2**32 - 1)


def ref_is_open(space, s):
    return all(space.min_open[x] <= s for x in s)


def ref_closure(space, s):
    return frozenset(x for x in space.points if space.min_open[x] & s)


def ref_interior(space, s):
    return frozenset(x for x in s if space.min_open[x] <= s)


def ref_classify(phi):
    """``classify`` as it was written on frozensets: a test per point of the
    codomain, in ``repr`` order, and the graph points sorted by ``repr``."""
    x, y, values = phi.domain, phi.codomain, phi.values
    rep = PropertyReport()
    rep.is_cover = all(values[p] for p in x.points)

    def preimage(ys):
        return frozenset(p for p in x.points if values[p] & ys)

    for q in sorted(y.points, key=repr):
        if not ref_is_open(x, preimage(y.min_open[q])):
            rep.lsc = False
            rep.witnesses["lsc"] = ("basic open at", q)
            break
    for q in sorted(y.points, key=repr):
        if not ref_is_open(x, preimage({q})):
            rep.totally_lsc = rep.lower_locally_constant = False
            rep.witnesses["totally_lsc"] = ("fiber not open", q)
            rep.witnesses["lower_locally_constant"] = ("set not open for", frozenset({q}))
            break
    graph = {(p, q) for p in x.points for q in values[p]}
    for p, q in sorted(graph, key=repr):
        if not all(y.min_open[q] <= values[a] for a in x.min_open[p]):
            rep.open_graph = False
            rep.witnesses["open_graph"] = ("no open box inside the graph at", (p, q))
            break
    for q in sorted(y.points, key=repr):
        if not ref_is_open(x, x.points - preimage(ref_closure(y, {q}))):
            rep.usc = False
            rep.witnesses["usc"] = ("preimage of point closure not closed", q)
            break
    rep.usco = rep.usc
    return rep


def ref_closure_cover_values(omega):
    """The values of ``closure_cover(omega)`` as it was written on
    frozensets: each fiber closed, then read back pointwise."""
    x = omega.domain
    closed = {
        a: ref_closure(x, frozenset(p for p in x.points if a in omega.values[p]))
        for a in omega.codomain.points
    }
    return {p: frozenset(a for a, cl in closed.items() if p in cl) for p in x.points}


class TestAgainstFrozensets:
    @derandomized(250)
    @given(SEEDS)
    def test_queries_equal_their_definitions(self, seed):
        rng = make_rng(seed)
        space = random_space(rng)
        points = sorted(space.points)
        s = frozenset(p for p in points if rng.random() < 0.5)
        assert space.closure(s) == ref_closure(space, s)
        assert space.interior(s) == ref_interior(space, s)
        assert space.is_open(s) == ref_is_open(space, s)
        assert space.is_closed(s) == ref_is_open(space, space.points - s)
        assert type(space.closure(s)) is type(space.interior(s)) is frozenset

    @derandomized(250)
    @given(SEEDS)
    def test_classify_equals_the_frozenset_code(self, seed):
        phi = random_set_valued_map(make_rng(seed), max_points=7)
        assert classify(phi) == ref_classify(phi)

    @derandomized(200)
    @given(SEEDS)
    def test_closure_cover_equals_the_frozenset_code(self, seed):
        rng = make_rng(seed)
        omega = random_cover(rng)
        assert closure_cover(omega).values == ref_closure_cover_values(omega)
        p = random_simplex_point(rng, sorted(omega.codomain.points))
        is_open, fiber, witness = conv_fiber_open(omega, p)
        members = omega.domain.points
        assert fiber == frozenset(x for x in members if p.carrier() <= omega.values[x])
        assert is_open == ref_is_open(omega.domain, fiber)
        missing = sorted(fiber - ref_interior(omega.domain, fiber), key=repr)
        assert witness == (missing[0] if missing else None)


def _space(min_open):
    return {"points": sorted(min_open), "min_open": min_open}


def _chain(n):
    """The chain c000 < c001 < ...: U_{c_i} = {c_j : j >= i}, as a document."""
    points = [f"c{i:03}" for i in range(n)]
    return _space({p: points[i:] for i, p in enumerate(points)})


INDEXED_SPACES = st.one_of(
    SEEDS.map(lambda seed: random_space(make_rng(seed))),
    st.lists(st.one_of(st.integers(-9, 9), st.text("ab", max_size=2)), max_size=8).map(
        FiniteSpace.discrete),
    st.integers(1, 6).map(finite_interval_model),
    st.integers(1, 12).map(lambda n: jsonio.load_finite_space(_chain(n))),
)


class TestIndexPairs:
    @derandomized(200)
    @given(INDEXED_SPACES)
    def test_up_and_down_are_transposes(self, space):
        """Bit y of ``up[x]`` and bit x of ``down[y]`` are each set iff
        y in U_x, with bit i standing for the i-th point by repr."""
        ix = space._index()
        assert ix.order == sorted(space.points, key=repr)
        for i, x in enumerate(ix.order):
            for j, y in enumerate(ix.order):
                inside = y in space.min_open[x]
                assert (ix.up[i] >> j & 1, ix.down[j] >> i & 1) == (inside, inside)


_ABCD = _space({p: [p] for p in "abcd"})

# each names its offenders twice or more; the first in repr order is 'a' or 'b'
HOSTILE = [
    ({"spaces": [_space({"a": ["a", "b"], "b": ["b", "c"], "c": ["c"],
                         "d": ["d", "e"], "e": ["e", "f"], "f": ["f"]})]},
     "'c' in min_open('b') and 'b' in min_open('a') but 'c' not in min_open('a')"),
    ({"spaces": [_space({"a": ["a"], "b": ["a"], "c": ["c"], "d": ["a"]})]},
     "minimal open set of 'b' does not contain it"),
    ({"spaces": [_space({"a": ["a"], "b": ["b", "z"], "c": ["c"], "d": ["d", "y"]})]},
     "min_open('b') leaves the point set"),
    ({"maps": [{"domain": _ABCD, "codomain": ["0"], "values": {"a": ["0"]}}]},
     "no value at point 'b'"),
    ({"maps": [{"domain": _ABCD, "codomain": ["0"],
                "values": {"a": ["0"], "b": [], "c": ["0"], "d": []}}]},
     "empty value at point 'b'"),
    ({"maps": [{"domain": _ABCD, "codomain": ["0"],
                "values": {"a": ["0"], "b": ["1"], "c": ["0"], "d": ["2"]}}]},
     "value at 'b' leaves the codomain"),
]

RUN_ALL = """
import sys
from poukit.cli import main
for path in sys.argv[1:]:
    main(["verify-all", path])
"""


class TestHostileWitnesses:
    def test_stderr_does_not_depend_on_the_string_hash(self, tmp_path):
        """Each exit-2 run names the first offender in repr order, under any
        PYTHONHASHSEED."""
        paths = []
        for i, (bundle, _) in enumerate(HOSTILE):
            paths.append(tmp_path / f"{i}.json")
            paths[-1].write_text(json.dumps(bundle))
        env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
        errs = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", RUN_ALL, *map(str, paths)],
                env={**env, "PYTHONHASHSEED": hash_seed}, capture_output=True,
            )
            assert proc.returncode == 0 and proc.stdout == b""
            errs.append(proc.stderr)
        assert errs[0] == errs[1]
        lines = [json.loads(line)["error"] for line in errs[0].decode().splitlines()]
        assert lines == [message for _, message in HOSTILE]


class TestChainCounts:
    def test_verify_all_decides_transitivity_once_per_pair(
        self, tmp_path, capsys, monkeypatch
    ):
        """A bundle that names a 400-point chain three times validates it once,
        with one OR of up masks per pair y in U_x: |X|(|X| + 1)/2 in all.
        Counted as the items each fold in ``spaces`` takes during validation."""
        n = 400
        chain = _chain(n)
        points = chain["points"]
        bundle = {
            "spaces": [chain],
            "maps": [{"domain": chain, "codomain": chain, "values": {p: [p] for p in points}}],
        }
        folded, validating = [], []
        post_init, fold = FiniteSpace.__post_init__, spaces.reduce

        def counted_post_init(self):
            validating.append(self)
            try:
                post_init(self)
            finally:
                validating.pop()

        def counted_fold(fn, items, *initial):
            items = list(items)
            if validating:
                folded.append(len(items))
            return fold(fn, items, *initial)

        monkeypatch.setattr(FiniteSpace, "__post_init__", counted_post_init)
        monkeypatch.setattr(spaces, "reduce", counted_fold)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(bundle))
        assert main(["verify-all", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "pass"
        assert len(folded) == n and sum(folded) == n * (n + 1) // 2

    def test_verify_all_closes_at_most_once_per_point(self, tmp_path, capsys, monkeypatch):
        """A bundle with the 400-point chain and one indexed cover of it
        builds the chain's index once and closes at most |X| masks in all:
        the Kuratowski check reads cl{p} as ``down[p]`` and closes only
        cl(cl{p}), and the closure formulas close nothing."""
        n = 400
        chain = _chain(n)
        values = {p: ["odd"] if i % 2 else ["even", "odd"] for i, p in enumerate(chain["points"])}
        bundle = {
            "spaces": [chain],
            "covers": [{"domain": chain, "codomain": ["even", "odd"], "values": values}],
        }
        built, closed = [], []
        build, close = spaces._Index.__init__, spaces._Index.closure

        def counted_build(self, order, min_open):
            built.append(order)
            build(self, order, min_open)

        def counted_close(self, m):
            closed.append(m)
            return close(self, m)

        monkeypatch.setattr(spaces._Index, "__init__", counted_build)
        monkeypatch.setattr(spaces._Index, "closure", counted_close)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(bundle))
        assert main(["verify-all", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "pass"
        assert built.count(chain["points"]) == 1
        assert len(closed) <= n


class TestLazyIndex:
    def test_runs_without_a_topological_query_build_no_index(
        self, tmp_path, capsys, monkeypatch
    ):
        """A discrete space, such as a metric cover's ground and index set
        or a selection's ground, sorts nothing and builds no masks unless a
        query asks for them."""
        built = []
        build = spaces._Index.__init__

        def counted(self, order, min_open):
            built.append(order)
            build(self, order, min_open)

        monkeypatch.setattr(spaces._Index, "__init__", counted)
        example = json.loads((DATA / "example_bundle.json").read_text())
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps({k: example[k] for k in ("metric_covers", "targets")}))
        runs = [
            ("verify-all", bundle),
            ("nerve-build", DATA / "line_ball_cover.json"),
            ("pou-build", DATA / "deep_ball_cover.json"),
            ("canonical-check", DATA / "canonical_line.json"),
            ("select-eps", DATA / "segment_selection.json"),
        ]
        for command, path in runs:
            assert main([command, str(path)]) == 0
            capsys.readouterr()
        assert built == []


class TestSpaceMemo:
    def test_equal_documents_share_one_space(self):
        """An equal document, a copy or one with its keys in another order,
        gets the space loaded first; another document gets its own."""
        loaded = {}
        first = jsonio.load_finite_space(json.loads(json.dumps(_ABCD)), loaded)
        min_open = dict(reversed(_ABCD["min_open"].items()))
        reordered = {"min_open": min_open, "points": _ABCD["points"]}
        assert jsonio.load_finite_space(reordered, loaded) is first
        assert jsonio.load_finite_space(json.loads(json.dumps(_ABCD)), loaded) is first
        other = jsonio.load_finite_space(_space({"a": ["a", "b"], "b": ["b"]}), loaded)
        same_points = jsonio.load_finite_space(
            _space({p: [p] if p != "a" else ["a", "b"] for p in "abcd"}), loaded)
        assert len({id(first), id(other), id(same_points)}) == 3
        assert same_points != first and jsonio.load_finite_space(_ABCD, loaded) is first

    def test_a_space_is_validated_once(self, monkeypatch):
        built = []
        build = spaces._Index.__init__

        def counted(self, order, min_open):
            built.append(order)
            build(self, order, min_open)

        monkeypatch.setattr(spaces._Index, "__init__", counted)
        loaded = {}
        for _ in range(3):
            jsonio.load_finite_space(json.loads(json.dumps(_ABCD)), loaded)
        assert len(built) == 1

    def test_a_space_nested_too_deep_to_compare_still_loads(self):
        """Two equal documents, each with its own copy of a list nested
        deeper than the recursion limit: comparing them raises
        RecursionError, and the second is loaded without the memo."""
        loaded = {}
        spaces_loaded = []
        for _ in range(2):
            deep = reduce(lambda inner, _: [inner], range(sys.getrecursionlimit()), [])
            doc = {**_space({"a": ["a"]}), "extra": deep}
            spaces_loaded.append(jsonio.load_finite_space(doc, loaded))
        assert spaces_loaded == [FiniteSpace({"a"}, {"a": {"a"}})] * 2
        assert spaces_loaded[0] is not spaces_loaded[1]
