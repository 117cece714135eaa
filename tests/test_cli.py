import json
import pathlib
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from poukit import (
    ConvexTarget,
    FiniteSpace,
    MetricSampleSpace,
    PartitionOfUnity,
    PropertyReport,
    SetValuedMap,
    SparseVec,
    finite_interval_model,
)
from poukit.cli import COMMANDS, main
from poukit.jsonio import dump_finite_space, load_set_valued_map, report_text
from poukit.nerve import CanonicalReport
from poukit.sparse import uniform

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "poukit.cli", *args],
        capture_output=True,
        text=True,
    )


def report_of(proc):
    return json.loads(proc.stdout)


class TestCommands:
    def test_space_validate(self):
        proc = run_cli("space-validate", str(DATA / "sierpinski_space.json"))
        assert proc.returncode == 0
        assert report_of(proc)["overall"] == "pass"

    def test_map_classify(self):
        proc = run_cli("map-classify", str(DATA / "sierpinski_identity_map.json"))
        assert proc.returncode == 0
        cls = report_of(proc)["payload"]["classification"]
        assert cls["lsc"] and not cls["totally_lsc"]

    def test_pou_build(self):
        proc = run_cli("pou-build", str(DATA / "line_ball_cover.json"))
        assert proc.returncode == 0
        rows = report_of(proc)["payload"]["pou"]["rows"]
        assert rows["1"] == {"U0": "1/2", "U1": "1/2"}

    def test_pou_roundtrip_verify(self, tmp_path):
        built = report_of(run_cli("pou-build", str(DATA / "line_ball_cover.json")))
        pou_file = tmp_path / "pou.json"
        pou_file.write_text(json.dumps(built["payload"]["pou"]))
        proc = run_cli("pou-verify", str(pou_file))
        assert proc.returncode == 0

    def test_mather(self):
        proc = run_cli("mather", str(DATA / "unit_vector.json"))
        assert proc.returncode == 0
        assert report_of(proc)["payload"]["eta"]["entries"] == {"a": "1"}

    def test_nerve_build(self):
        proc = run_cli("nerve-build", str(DATA / "line_ball_cover.json"))
        assert proc.returncode == 0
        simplices = report_of(proc)["payload"]["complex"]["simplices"]
        assert ["U0", "U1"] in simplices

    def test_canonical_check(self):
        proc = run_cli("canonical-check", str(DATA / "canonical_line.json"))
        assert proc.returncode == 0
        assert report_of(proc)["overall"] == "pass"

    def test_select_eps(self):
        proc = run_cli("select-eps", str(DATA / "segment_selection.json"))
        assert proc.returncode == 0
        sel = report_of(proc)["payload"]["selection"]["x"]
        assert abs(float(sel["value"][0]) - 0.5) < 1e-12

    def test_verify_all(self):
        proc = run_cli("verify-all", str(DATA / "example_bundle.json"))
        assert proc.returncode == 0
        rep = report_of(proc)
        assert rep["overall"] == "pass"
        assert rep["checks"]


class TestContract:
    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("space-validate", str(bad))
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_invalid_space_exit_code(self, tmp_path):
        bad = tmp_path / "bad_space.json"
        bad.write_text(json.dumps({"points": ["a"], "min_open": {"a": []}}))
        proc = run_cli("space-validate", str(bad))
        assert proc.returncode == 2

    def test_reports_embed_digest_and_config(self):
        rep = report_of(run_cli("mather", str(DATA / "unit_vector.json"), "--seed", "5"))
        assert rep["config"]["seed"] == 5
        assert len(next(iter(rep["inputs"].values()))) == 64

    def test_byte_identical_reports(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ("verify-all", str(DATA / "example_bundle.json"), "--seed", "42")
        assert run_cli(*args, "--out", str(out1)).returncode == 0
        assert run_cli(*args, "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_classification_never_fails_run(self):
        # a map failing totally_lsc still classifies with exit 0
        proc = run_cli("map-classify", str(DATA / "sierpinski_identity_map.json"))
        assert proc.returncode == 0

    def test_duplicate_samples_exit_2(self, tmp_path, capsys):
        cover = json.loads((DATA / "line_ball_cover.json").read_text())
        cover["space"]["samples"].append(["1/2"])
        code, out = run_main(tmp_path, capsys, "pou-build", cover)
        assert code == 2
        assert "duplicate sample" in json.loads(out.err)["error"]

    def test_cli_imports_no_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import poukit.cli, sys; assert 'numpy' not in sys.modules"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_cli_imports_no_generators(self):
        # every verify-all check is exact; nothing in the CLI draws at random
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import poukit.cli, sys; assert 'poukit.generators' not in sys.modules",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


def selection_problem():
    return {
        "target": {
            "ambient_dim": 2,
            "sets": {
                "x": {"kind": "segment", "a": ["0", "0"], "b": ["1", "0"]},
                "y": {"kind": "polytope", "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
                "z": {"kind": "box", "lo": ["0", "0"], "hi": ["1", "1"]},
                "w": {"kind": "point", "p": ["1/2", "1/2"]},
            },
        },
        "epsilon": "0.3",
        "anchors": [["0", "0"], ["1/2", "0"], ["1", "0"], ["1/2", "1/2"]],
    }


class RawJSON(str):
    """JSON text that ``run_main`` writes to the input file as is."""


def run_main(tmp_path, capsys, command, obj, *flags):
    path = tmp_path / "input.json"
    path.write_text(obj if isinstance(obj, RawJSON) else json.dumps(obj))
    code = main([command, str(path), *flags])
    return code, capsys.readouterr()


def _sets(obj):
    return obj["target"]["sets"]


MALFORMED_SELECTIONS = {
    "empty-polytope": lambda obj: _sets(obj)["y"].update(vertices=[]),
    "short-point": lambda obj: _sets(obj)["w"].update(p=["1"]),
    "long-endpoint": lambda obj: _sets(obj)["x"].update(b=["1", "0", "0"]),
    "long-box-corner": lambda obj: _sets(obj)["z"].update(hi=["1", "1", "1"]),
    "short-vertex": lambda obj: _sets(obj)["y"]["vertices"].append(["1"]),
    "long-anchor": lambda obj: obj["anchors"].append(["0", "0", "0"]),
    "missing-p": lambda obj: _sets(obj)["w"].pop("p"),
    "missing-a": lambda obj: _sets(obj)["x"].pop("a"),
    "missing-b": lambda obj: _sets(obj)["x"].pop("b"),
    "missing-lo": lambda obj: _sets(obj)["z"].pop("lo"),
    "missing-hi": lambda obj: _sets(obj)["z"].pop("hi"),
    "missing-vertices": lambda obj: _sets(obj)["y"].pop("vertices"),
    "missing-target": lambda obj: obj.pop("target"),
    "missing-epsilon": lambda obj: obj.pop("epsilon"),
    "missing-anchors": lambda obj: obj.pop("anchors"),
    "zero-epsilon": lambda obj: obj.update(epsilon="0"),
    "cover-gap": lambda obj: obj.update(anchors=[["10", "10"]]),
    "epsilon-abc": lambda obj: obj.update(epsilon="abc"),
    "epsilon-1/0": lambda obj: obj.update(epsilon="1/0"),
    "anchor-abc": lambda obj: obj["anchors"].append(["abc", "0"]),
    "vertex-1/0": lambda obj: _sets(obj)["y"]["vertices"].append(["1/0", "0"]),
    "vertices-not-a-list": lambda obj: _sets(obj)["y"].update(vertices=3),
    "anchors-not-a-list": lambda obj: obj.update(anchors=3),
    "point-not-a-list": lambda obj: _sets(obj)["w"].update(p="1"),
}


class TestSelectionInput:
    def test_well_formed_problem_passes(self, tmp_path, capsys):
        code, out = run_main(tmp_path, capsys, "select-eps", selection_problem())
        assert code == 0 and json.loads(out.out)["overall"] == "pass"

    @pytest.mark.parametrize("case", sorted(MALFORMED_SELECTIONS))
    @pytest.mark.parametrize("command", ["select-eps", "verify-all"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, command, case):
        obj = selection_problem()
        MALFORMED_SELECTIONS[case](obj)
        if command == "verify-all":
            obj = {"targets": [obj]}
        code, out = run_main(tmp_path, capsys, command, obj)
        assert code == 2
        assert "error" in json.loads(out.err)


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


MALFORMED_SPACES = {
    "not-an-object": lambda s: [s],
    "missing-points": lambda s: _without(s, "points"),
    "missing-min_open": lambda s: _without(s, "min_open"),
    "min_open-not-an-object": lambda s: {**s, "min_open": [["a"]]},
    "unhashable-point": lambda s: {**s, "points": [["a"], "b"]},
    "unhashable-neighbour": lambda s: {**s, "min_open": {**s["min_open"], "b": [["b"]]}},
    "point-without-min_open": lambda s: {**s, "points": [*s["points"], "c"]},
}

MALFORMED_MAPS = {
    "not-an-object": lambda m: [m],
    "bundle": lambda m: json.loads((DATA / "example_bundle.json").read_text()),
    "missing-domain": lambda m: _without(m, "domain"),
    "missing-codomain": lambda m: _without(m, "codomain"),
    "missing-values": lambda m: _without(m, "values"),
    "values-not-an-object": lambda m: {**m, "values": [["a"]]},
    "unhashable-value": lambda m: {**m, "values": {"a": [["a"]], "b": ["b"]}},
    "unhashable-index": lambda m: {**m, "codomain": [["a"]]},
    **{
        f"domain-{case}": lambda m, f=f: {**m, "domain": f(m["domain"])}
        for case, f in MALFORMED_SPACES.items()
    },
    **{
        f"codomain-{case}": lambda m, f=f: {**m, "codomain": f(m["codomain"])}
        for case, f in MALFORMED_SPACES.items()
    },
}


class TestFiniteInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SPACES))
    @pytest.mark.parametrize("command", ["space-validate", "verify-all"])
    def test_malformed_space_exits_2(self, tmp_path, capsys, command, case):
        obj = MALFORMED_SPACES[case](json.loads((DATA / "sierpinski_space.json").read_text()))
        if command == "verify-all":
            obj = {"spaces": [obj]}
        code, out = run_main(tmp_path, capsys, command, obj)
        assert code == 2
        assert "error" in json.loads(out.err)

    @pytest.mark.parametrize("case", sorted(MALFORMED_MAPS))
    @pytest.mark.parametrize("command", ["map-classify", "verify-all"])
    def test_malformed_map_exits_2(self, tmp_path, capsys, command, case):
        obj = MALFORMED_MAPS[case](
            json.loads((DATA / "sierpinski_identity_map.json").read_text())
        )
        if command == "verify-all":
            obj = {"maps": [obj]}
        code, out = run_main(tmp_path, capsys, command, obj)
        assert code == 2
        assert "error" in json.loads(out.err)

    def test_bundle_not_an_object_exits_2(self, tmp_path, capsys):
        code, out = run_main(tmp_path, capsys, "verify-all", [{"maps": []}])
        assert code == 2
        assert "error" in json.loads(out.err)


class TestTolSum:
    POU = {
        "ground": {"points": ["x"], "min_open": {"x": ["x"]}},
        "indices": ["u", "v"],
        "rows": {"x": {"u": "0.5", "v": "0.4999"}},
    }

    def test_flag_sets_the_float_row_tolerance_of_its_run(
        self, tmp_path, capsys, monkeypatch
    ):
        codes = [
            run_main(tmp_path, capsys, "pou-verify", self.POU, "--mode", "float", *flags)[0]
            for flags in ([], ["--tol-sum", "0.01"], [])
        ]
        assert codes == [2, 0, 2]

    VECTOR = {"entries": {"a": "0.5", "b": "0.4999"}}

    @pytest.mark.parametrize(
        "command, obj", [("mather", VECTOR), ("verify-all", {"unit_vectors": [VECTOR]})]
    )
    def test_flag_sets_the_float_mass_tolerance_of_its_run(
        self, tmp_path, capsys, command, obj
    ):
        codes = [
            run_main(tmp_path, capsys, command, obj, "--mode", "float", *flags)[0]
            for flags in ([], ["--tol-sum", "0.01"], [])
        ]
        assert codes == [2, 0, 2]


class TestSelfChecks:
    def break_certificate(self, monkeypatch):
        anchors = {(0.0, 0.0), (1.0, 0.0)}

        def distance(self, x, q):
            return 0.0 if tuple(q) in anchors else 1.0

        monkeypatch.setattr(ConvexTarget, "distance", distance)
        return {
            "target": {
                "ambient_dim": 2,
                "sets": {"x": {"kind": "segment", "a": ["0", "0"], "b": ["1", "0"]}},
            },
            "epsilon": "0.3",
            "anchors": [["0", "0"], ["1", "0"]],
        }

    def test_violated_certificate_is_a_failed_check(self, tmp_path, capsys, monkeypatch):
        bundle = {"targets": [self.break_certificate(monkeypatch)]}
        code, out = run_main(tmp_path, capsys, "verify-all", bundle)
        assert code == 1
        (check,) = json.loads(out.out)["checks"]
        assert check["name"] == "target[0]:epsilon-bound"
        assert check["status"] == "fail"
        assert "certificate violated" in check["witness"]

    def test_violated_certificate_exits_1_with_json_error(
        self, tmp_path, capsys, monkeypatch
    ):
        problem = self.break_certificate(monkeypatch)
        code, out = run_main(tmp_path, capsys, "select-eps", problem)
        assert code == 1
        assert "certificate violated" in json.loads(out.err)["error"]

    def test_violated_certificate_witness_names_point_distance_and_anchors(
        self, tmp_path, capsys, monkeypatch
    ):
        bundle = {"targets": [self.break_certificate(monkeypatch)]}
        _, out = run_main(tmp_path, capsys, "verify-all", bundle)
        (check,) = json.loads(out.out)["checks"]
        assert check["witness"] == ["certificate violated", "x", "1.0", "0.3", ["a0", "a1"]]

    def test_disagreeing_closure_formulas_are_a_failed_check(
        self, tmp_path, capsys, monkeypatch
    ):
        bundle = json.loads((DATA / "example_bundle.json").read_text())
        monkeypatch.setattr(SetValuedMap, "image", lambda self, u: frozenset())
        code, out = run_main(tmp_path, capsys, "verify-all", {"covers": bundle["covers"]})
        assert code == 1
        check = json.loads(out.out)["checks"][0]
        assert check["name"] == "cover[0]:closure-formulas"
        assert check["status"] == "fail"
        assert "disagree" in check["witness"]

    def test_inconsistent_classification_is_a_failed_check_with_witnesses(
        self, tmp_path, capsys, monkeypatch
    ):
        def inconsistent(phi):
            return PropertyReport(
                totally_lsc=False,
                witnesses={"totally_lsc": ("fiber not open", "a")},
            )

        monkeypatch.setattr("poukit.cli.classify", inconsistent)
        bundle = {"maps": [json.loads((DATA / "sierpinski_identity_map.json").read_text())]}
        code, out = run_main(tmp_path, capsys, "verify-all", bundle)
        assert code == 1
        diagram, collapse = json.loads(out.out)["checks"]
        assert [diagram["name"], collapse["name"]] == ["map[0]:diagram", "map[0]:llc-collapse"]
        for check in (diagram, collapse):
            assert check["status"] == "fail"
            assert check["witness"] == {"totally_lsc": "('fiber not open', 'a')"}

    def test_passing_map_checks_have_no_witness(self, tmp_path, capsys):
        bundle = json.loads((DATA / "example_bundle.json").read_text())
        code, out = run_main(tmp_path, capsys, "verify-all", {"maps": bundle["maps"]})
        assert code == 0
        checks = json.loads(out.out)["checks"]
        assert checks and all(c["witness"] is None for c in checks)


def ten_ball_cover():
    """Ten balls share the sample 0, one more than --max-dim 8 dumps."""
    return {
        "space": {"dim": 1, "samples": [["0"], ["1/2"]]},
        "balls": {
            f"U{i}": {"center": [f"{i}/100"], "radius": "1/2"} for i in range(10)
        },
    }


class TestMetricCover:
    def test_verify_all_passes(self, tmp_path, capsys):
        bundle = {"metric_covers": [ten_ball_cover()]}
        code, out = run_main(tmp_path, capsys, "verify-all", bundle)
        assert code == 0
        assert json.loads(out.out)["overall"] == "pass"

    def test_canonical_check_passes_with_a_truncated_payload(self, tmp_path, capsys):
        code, out = run_main(tmp_path, capsys, "canonical-check", {"cover": ten_ball_cover()})
        assert code == 0
        rep = json.loads(out.out)
        assert rep["checks"][0]["status"] == "pass"
        assert max(map(len, rep["payload"]["nerve"]["simplices"])) == 9

    def test_one_incidence_per_metric_cover(self, tmp_path, capsys, monkeypatch):
        built, decided = [], []
        incidence = MetricSampleSpace.incidence

        def counted(self, balls):
            built.append(balls)
            return incidence(self, balls)

        monkeypatch.setattr(MetricSampleSpace, "incidence", counted)
        monkeypatch.setattr(
            MetricSampleSpace, "ball_membership", lambda self, ball, x: decided.append(x))
        cover = json.loads((DATA / "line_ball_cover.json").read_text())
        for command, doc, covers in [
            ("verify-all", {"metric_covers": [cover, cover]}, 2),
            ("canonical-check", {"cover": cover}, 1),
        ]:
            built.clear()
            code, _ = run_main(tmp_path, capsys, command, doc)
            assert code == 0
            assert len(built) == covers
            assert decided == []

    @pytest.mark.parametrize("dim", [1, 2])
    def test_each_sample_coordinate_is_hashed_once(self, tmp_path, capsys, monkeypatch, dim):
        """Samples key rows and cover values; a Fraction coordinate is hashed
        when its sample is built, never again."""
        rng = random.Random(dim)
        samples = {tuple(F(rng.randrange(-40, 41), 40) for _ in range(dim)) for _ in range(30)}
        grid = [(F(i, 2),) for i in range(-2, 3)]
        centers = grid if dim == 1 else [p + q for p in grid for q in grid]
        cover = {
            "space": {"dim": dim, "samples": [[str(c) for c in p] for p in samples]},
            "balls": {f"U{i}": {"center": [str(c) for c in p], "radius": "2/5"}
                      for i, p in enumerate(centers)},
        }
        calls = []
        fraction_hash = F.__hash__

        def counted(self):
            calls.append(self)
            return fraction_hash(self)

        monkeypatch.setattr(F, "__hash__", counted)
        code, out = run_main(tmp_path, capsys, "verify-all", {"metric_covers": [cover]})
        assert code == 0, out.err
        assert 0 < len(calls) <= len(samples) * dim


def line_cover():
    return json.loads((DATA / "line_ball_cover.json").read_text())


def _ball(obj):
    return obj["balls"]["U0"]


def _with_u0(cover, **fields):
    """The cover with ball U0 changed; a field set to None is dropped."""
    ball = {k: v for k, v in {**_ball(cover), **fields}.items() if v is not None}
    return {**cover, "balls": {**cover["balls"], "U0": ball}}


MALFORMED_COVERS = {
    "not-an-object": lambda c: [c],
    "missing-space": lambda c: _without(c, "space"),
    "missing-balls": lambda c: _without(c, "balls"),
    "balls-not-an-object": lambda c: {**c, "balls": list(c["balls"].values())},
    "space-not-an-object": lambda c: {**c, "space": [["0"]]},
    "missing-samples": lambda c: {**c, "space": {"dim": 1}},
    "samples-not-a-list": lambda c: {**c, "space": {"dim": 1, "samples": 3}},
    "sample-not-a-list": lambda c: {**c, "space": {"dim": 1, "samples": ["0", "1"]}},
    "sample-abc": lambda c: {**c, "space": {"dim": 1, "samples": [["abc"], ["1"]]}},
    "missing-center": lambda c: _with_u0(c, center=None),
    "missing-radius": lambda c: _with_u0(c, radius=None),
    "center-not-a-list": lambda c: _with_u0(c, center="0"),
    "center-too-long": lambda c: _with_u0(c, center=["0", "1"]),
    "center-too-short": lambda c: _with_u0(c, center=[]),
    "radius-1/0": lambda c: _with_u0(c, radius="1/0"),
    "radius-abc": lambda c: _with_u0(c, radius="abc"),
    "radius-list": lambda c: _with_u0(c, radius=["1"]),
    "radius-nan": lambda c: _with_u0(c, radius=float("nan")),
}

METRIC_COVER_COMMANDS = {
    "pou-build": lambda c: c,
    "nerve-build": lambda c: c,
    "canonical-check": lambda c: {"cover": c},
    "verify-all": lambda c: {"metric_covers": [c]},
}

_POU = {
    "ground": {"dim": 1, "samples": [["0"], ["1"]]},
    "indices": ["U0", "U1"],
    "rows": {"0": {"U0": "1"}, "1": {"U0": "1/2", "U1": "1/2"}},
}

MALFORMED_POUS = {
    "missing-ground": lambda p: _without(p, "ground"),
    "missing-indices": lambda p: _without(p, "indices"),
    "missing-rows": lambda p: _without(p, "rows"),
    "ground-not-an-object": lambda p: {**p, "ground": 3},
    "unhashable-index": lambda p: {**p, "indices": [["U0"], "U1"]},
    "rows-not-an-object": lambda p: {**p, "rows": [{"U0": "1"}]},
    "row-not-an-object": lambda p: {**p, "rows": {**p["rows"], "0": ["U0"]}},
    "unknown-sample": lambda p: {**p, "rows": {**p["rows"], "2": {"U0": "1"}}},
    "sample-key-not-a-position": lambda p: {**p, "rows": {**p["rows"], "x": {"U0": "1"}}},
    "entry-1/0": lambda p: {**p, "rows": {**p["rows"], "0": {"U0": "1/0"}}},
    "entry-abc": lambda p: {**p, "rows": {**p["rows"], "0": {"U0": "abc"}}},
}

MALFORMED_VECTORS = {
    "not-an-object": lambda v: [v],
    "entries-not-an-object": lambda v: {"entries": [["a", "1"]]},
    "entry-1/0": lambda v: {"entries": {"a": "1/0"}},
    "entry-abc": lambda v: {"entries": {"a": "abc"}},
    "tail-abc": lambda v: {**v, "tail_mass": "abc"},
    "mass-below-one": lambda v: {"entries": {"a": "1/2"}},
    "mass-above-one-with-tail": lambda v: {**v, "tail_mass": "1/4", "tail_sup": "1/8"},
    "tail-sup-above-tail-mass": lambda v: {"entries": {"a": "1/2"}, "tail_mass": "1/2", "tail_sup": "1"},
    "negative-entry": lambda v: {"entries": {"a": "3/2", "b": "-1/2"}},
}


class TestMetricInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED_COVERS))
    @pytest.mark.parametrize("command", sorted(METRIC_COVER_COMMANDS))
    def test_malformed_cover_exits_2(self, tmp_path, capsys, command, case):
        obj = METRIC_COVER_COMMANDS[command](MALFORMED_COVERS[case](line_cover()))
        code, out = run_main(tmp_path, capsys, command, obj)
        assert code == 2
        assert "error" in json.loads(out.err)

    @pytest.mark.parametrize("command", sorted(METRIC_COVER_COMMANDS))
    def test_centre_dimension_mismatch_exits_2(self, tmp_path, capsys, command):
        cover = line_cover()
        _ball(cover)["center"] = ["0", "1"]
        code, out = run_main(tmp_path, capsys, command, METRIC_COVER_COMMANDS[command](cover))
        assert code == 2
        assert "has 2 coordinates" in json.loads(out.err)["error"]

    @pytest.mark.parametrize("case", sorted(MALFORMED_POUS))
    def test_malformed_pou_exits_2(self, tmp_path, capsys, case):
        assert run_main(tmp_path, capsys, "pou-verify", _POU)[0] == 0
        code, out = run_main(tmp_path, capsys, "pou-verify", MALFORMED_POUS[case](_POU))
        assert code == 2
        assert "error" in json.loads(out.err)

    @pytest.mark.parametrize("case", sorted(MALFORMED_VECTORS))
    @pytest.mark.parametrize("command", ["mather", "verify-all"])
    def test_malformed_unit_vector_exits_2(self, tmp_path, capsys, command, case):
        obj = MALFORMED_VECTORS[case](json.loads((DATA / "unit_vector.json").read_text()))
        if command == "verify-all":
            obj = {"unit_vectors": [obj]}
        code, out = run_main(tmp_path, capsys, command, obj)
        assert code == 2
        assert "error" in json.loads(out.err)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_top_level_list_exits_2(self, tmp_path, capsys, command):
        code, out = run_main(tmp_path, capsys, command, [line_cover()])
        assert code == 2
        assert "error" in json.loads(out.err)


class TestMetricCoverWitnesses:
    def run(self, tmp_path, capsys):
        code, out = run_main(tmp_path, capsys, "verify-all", {"metric_covers": [line_cover()]})
        return code, {c["name"].split(":")[1]: c for c in json.loads(out.out)["checks"]}

    def test_passing_checks_have_no_witness(self, tmp_path, capsys):
        code, checks = self.run(tmp_path, capsys)
        assert code == 0
        assert len(checks) == 3
        assert all(c["status"] == "pass" and c["witness"] is None for c in checks.values())

    def test_failed_checks_carry_witnesses(self, tmp_path, capsys, monkeypatch):
        def unsubordinated(pou, omega):
            x = pou.ground_points()[1]
            return {"index_subordinated": False, "strongly_subordinated": False,
                    "approximate_closure": True, "witness": ("carrier", x)}

        def not_canonical(pou, cover):
            x = pou.ground_points()[2]
            return CanonicalReport([x], [("U0", x)])

        def growing(pou):
            x = pou.ground_points()[0]
            rows = {**pou.rows, x: uniform(sorted(pou.index_set))}
            return PartitionOfUnity(pou.ground, pou.index_set, rows, pou.mode), None

        monkeypatch.setattr("poukit.cli.subordination_check", unsubordinated)
        monkeypatch.setattr("poukit.cli.canonical_map_check", not_canonical)
        monkeypatch.setattr("poukit.cli.mather_compose", growing)
        code, checks = self.run(tmp_path, capsys)
        assert code == 1
        assert all(c["status"] == "fail" for c in checks.values())
        assert checks["index-subordinated"]["witness"] == ["carrier", "1"]
        assert checks["canonical"]["witness"] == {
            "canonical": False,
            "membership_violations": ["(Fraction(1, 1),)"],
            "star_violations": ["('U0', (Fraction(1, 1),))"],
        }
        assert checks["carrier-shrinks"]["witness"] == ["carrier escapes", "0"]


def _space(**fields):
    return {**json.loads((DATA / "sierpinski_space.json").read_text()), **fields}


def _map_values(**values):
    m = json.loads((DATA / "sierpinski_identity_map.json").read_text())
    return {**m, "values": {**m["values"], **values}}


def _kind(kind):
    obj = selection_problem()
    _sets(obj)["x"]["kind"] = kind
    return obj


def _ambient_dim(dim):
    """A one-point target whose coordinates number ``dim``; ``True == 1``."""
    p = ["0"] * int(dim)
    return {
        "target": {"ambient_dim": dim, "sets": {"x": {"kind": "point", "p": p}}},
        "epsilon": "1",
        "anchors": [p],
    }


def _cover(samples, centre, radius):
    """A one-ball cover ``U`` of the samples."""
    return {"space": {"samples": samples}, "balls": {"U": {"center": centre, "radius": radius}}}


def _target(anchor, **spec):
    """A one-set 2-d target ``x`` with epsilon 1 and one anchor."""
    return {"target": {"ambient_dim": 2, "sets": {"x": spec}}, "epsilon": "1", "anchors": [anchor]}


VERIFY_ALL_SECTIONS = ["spaces", "unit_vectors", "maps", "covers", "metric_covers", "targets"]

# (command, input, flags, a fragment of the error message)
HOSTILE_INPUTS = {
    "nerve-build-max-dim-negative": (
        "nerve-build", line_cover(), ["--max-dim=-1"], "max_dimension"),
    "canonical-check-max-dim-negative": (
        "canonical-check", {"cover": line_cover()}, ["--max-dim=-1"], "max_dimension"),
    **{
        f"section-{name}-{bad!r}": ("verify-all", {name: bad}, [], f"section {name!r}")
        for name in VERIFY_ALL_SECTIONS
        for bad in (3, "ab")
    },
    "points-a-string": ("space-validate", _space(points="ab"), [], "not the string"),
    "min_open-a-string": (
        "space-validate", _space(min_open={"a": "ab", "b": ["b"]}), [], "not the string"),
    "map-values-a-string": ("map-classify", _map_values(a="a"), [], "not the string"),
    "pou-indices-a-string": ("pou-verify", {**_POU, "indices": "U0"}, [], "not the string"),
    "radius-true": ("pou-build", _with_u0(line_cover(), radius=True), [], "True"),
    "sample-false": (
        "nerve-build", {**line_cover(), "space": {"dim": 1, "samples": [[False]]}}, [], "False"),
    "convex-kind-a-list": ("select-eps", _kind(["segment"]), [], "unknown convex set kind"),
    "min_open-an-object": (
        "space-validate",
        _space(min_open={"a": {"a": 1, "b": 2}, "b": ["b"]}),
        [],
        "must be a list of points",
    ),
    "ambient-dim-true": ("select-eps", _ambient_dim(True), [], "ambient_dim"),
    "ambient-dim-a-float": ("select-eps", _ambient_dim(2.0), [], "ambient_dim"),
    "cover-codomain-not-discrete": (
        "verify-all",
        {"covers": [json.loads((DATA / "sierpinski_identity_map.json").read_text())]},
        [],
        "not discrete",
    ),
    "float-squares-overflow": (
        "pou-build", _cover([[0], [1e200]], [0], 1e300), ["--mode", "float"], "float range"),
    "exact-distance-overflow": (
        "pou-build", _cover([["0", "0"], ["1e200", "0"]], ["0", "0"], "1e300"), [], "float range"),
    "exact-radius-overflow": (
        "pou-build", _cover([["0", "0"], ["1", "0"]], ["0", "0"], "1e400"), [], "float range"),
    "bump-total-overflow": (
        "canonical-check", {"cover": _cover([["0"], ["1"]], ["0"], str(10**400))}, [], "float range"),
    # the anchor lies on or inside the set; an overflowing projection said it was far
    "polytope-overflow": (
        "select-eps",
        _target(["0", "0"], kind="polytope", vertices=[["1e200", "0"], ["0", "1e200"], ["-1e200", "-1e200"]]),
        [],
        "float range",
    ),
    "segment-overflow": (
        "select-eps",
        _target(["0", "1e-300"], kind="segment", a=["1e200", "0"], b=["-1e200", "0"]),
        [],
        "float range",
    ),
    "dim-a-float": ("nerve-build", {**line_cover(), "space": {"dim": 1.0, "samples": [["0"]]}},
                    [], "dim must be an integer"),
    "dim-true": ("nerve-build", {**line_cover(), "space": {"dim": True, "samples": [["0"]]}},
                 [], "dim must be an integer"),
    **{
        f"exponent-literal-{literal}-{mode}": (
            "mather", RawJSON('{"entries": {"a": %s}}' % literal), ["--mode", mode], "exponent")
        for literal in ("1e999999999", "1e-999999999")
        for mode in ("exact", "float")
    },
    "integer-literal-5000-digits": (
        "mather", RawJSON('{"entries": {"a": 1%s}}' % ("0" * 5000)), [], "cannot read"),
}


class TestHostileInput:
    @pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
    def test_exits_2_with_the_reason(self, tmp_path, capsys, case):
        command, obj, flags, reason = HOSTILE_INPUTS[case]
        code, out = run_main(tmp_path, capsys, command, obj, *flags)
        assert code == 2
        assert reason in json.loads(out.err)["error"]


def _count_closures(monkeypatch):
    calls = []
    close = FiniteSpace.closure

    def counted(self, s):
        calls.append(s)
        return close(self, s)

    monkeypatch.setattr(FiniteSpace, "closure", counted)
    return calls


_NEXT = {"a": "b", "b": "c", "c": "c"}


def _bundle_sections(*names):
    bundle = json.loads((DATA / "example_bundle.json").read_text())
    return {name: bundle[name] for name in names}


class TestExactFiniteChecks:
    """The spaces and covers sections decide every verdict exactly, once."""

    def test_kuratowski_closes_at_most_twice_per_point(self, tmp_path, capsys, monkeypatch):
        space = finite_interval_model(8)
        calls = _count_closures(monkeypatch)
        code, out = run_main(
            tmp_path, capsys, "verify-all", {"spaces": [dump_finite_space(space)]}
        )
        assert code == 0
        assert json.loads(out.out)["checks"][0]["status"] == "pass"
        assert 0 < len(calls) <= 2 * len(space.points)

    def test_closure_formulas_close_each_fiber_once(self, tmp_path, capsys, monkeypatch):
        bundle = _bundle_sections("covers")
        indices = sum(len(load_set_valued_map(c).codomain.points) for c in bundle["covers"])
        calls = _count_closures(monkeypatch)
        code, out = run_main(tmp_path, capsys, "verify-all", bundle)
        assert code == 0
        assert 0 < len(calls) <= indices

    @pytest.mark.parametrize(
        "closure, witness",
        [
            (lambda self, s: frozenset(), "'a'"),
            # cl{a} = {a, b} but cl{a, b} = {a, b, c}
            (lambda self, s: frozenset(s) | {_NEXT[x] for x in s}, "'a'"),
            (lambda self, s: frozenset(s) - {"b"}, "'b'"),
        ],
        ids=["not-extensive", "not-idempotent", "not-extensive-at-b"],
    )
    def test_broken_closure_fails_with_the_first_point(
        self, tmp_path, capsys, monkeypatch, closure, witness
    ):
        monkeypatch.setattr(FiniteSpace, "closure", closure)
        space = {"points": ["a", "b", "c"], "min_open": {p: [p] for p in "abc"}}
        code, out = run_main(tmp_path, capsys, "verify-all", {"spaces": [space]})
        assert code == 1
        (check,) = json.loads(out.out)["checks"]
        assert check == {"name": "space[0]:kuratowski", "status": "fail", "witness": witness}


def _float_simplex_points(n, seed):
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        w = [rng.random() for _ in range(rng.randint(1, 6))]
        points.append({"entries": {f"i{j}": x / sum(w) for j, x in enumerate(w)}})
    return points


class TestMatherInvariants:
    def test_example_bundle_passes_in_float_mode(self, tmp_path, capsys):
        bundle = json.loads((DATA / "example_bundle.json").read_text())
        code, out = run_main(tmp_path, capsys, "verify-all", bundle, "--mode", "float")
        assert code == 0
        assert json.loads(out.out)["overall"] == "pass"

    @pytest.mark.parametrize(
        "vectors",
        [
            [{"entries": {"a": "0.3", "b": "0.3", "c": "0.4"}}],
            _float_simplex_points(500, seed=3),
        ],
        ids=["decimal", "random-floats"],
    )
    def test_float_unit_vectors_pass(self, tmp_path, capsys, vectors):
        bundle = {"unit_vectors": vectors}
        code, out = run_main(tmp_path, capsys, "verify-all", bundle, "--mode", "float")
        assert code == 0
        checks = json.loads(out.out)["checks"]
        assert len(checks) == len(vectors)
        assert all(c["status"] == "pass" and c["witness"] is None for c in checks)

    def test_failed_check_names_each_broken_invariant(self, tmp_path, capsys, monkeypatch):
        # y = (a 3/5, b 3/10, c 1/10); the fake eta has mass 5/4, the foreign
        # index z, and 4 indices at sup 3/5
        fake = SparseVec({"a": F(1, 4), "b": F(1, 4), "c": F(1, 4), "z": F(1, 2)})
        monkeypatch.setattr("poukit.cli.mather_eta", lambda y, mode: fake)
        bundle = _bundle_sections("unit_vectors")
        code, out = run_main(tmp_path, capsys, "verify-all", bundle)
        assert code == 1
        check = json.loads(out.out)["checks"][0]
        assert check["name"] == "unit_vector[0]:mather-invariants"
        assert check["status"] == "fail"
        assert check["witness"] == {
            "eta_l1": "5/4",
            "eta_carrier_outside": ["'z'"],
            "carrier_size_times_sup": "12/5",
        }


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_report_docs = st.recursive(
    _json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(st.text(), max_size=4)
        | st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=40,
)


class TestInputEdges:
    MIXED = {
        "domain": {"points": ["a", "b"], "min_open": {"a": ["a"], "b": ["b"]}},
        "codomain": "discrete",
        "values": {"a": ["0"], "b": [5, "1"]},
    }

    def test_mixed_index_names_dump_strings_first(self, tmp_path, capsys):
        code, out = run_main(tmp_path, capsys, "nerve-build", self.MIXED)
        assert code == 0
        simplices = json.loads(out.out)["payload"]["complex"]["simplices"]
        assert simplices == [["0"], ["1"], [5], ["1", 5]]

    def test_mixed_index_names_canonical_check(self, tmp_path, capsys):
        pou = {
            "ground": self.MIXED["domain"],
            "indices": ["0", "1", 5],
            "rows": {"a": {"0": "1"}, "b": {"1": "1"}},
        }
        code, out = run_main(tmp_path, capsys, "canonical-check", {"cover": self.MIXED, "pou": pou})
        assert code == 0
        assert json.loads(out.out)["payload"]["nerve"]["simplices"] == [["0"], ["1"], [5], ["1", 5]]

    def test_decimal_literals_are_exact(self, tmp_path, capsys):
        vector = {"entries": {"a": 0.3, "b": 0.7}}
        for flags, half in (([], "7/20"), (["--mode", "float"], "0.35")):
            code, out = run_main(tmp_path, capsys, "mather", vector, *flags)
            assert code == 0
            assert json.loads(out.out)["payload"]["lambda"]["entries"] == {"b": half}

    TAIL = {"entries": {"a": "1/2"}, "tail_mass": "1/2", "tail_sup": "1/2"}

    def test_weak_tail_fails_its_check_and_keeps_the_report(self, tmp_path, capsys):
        bundle = {"unit_vectors": [self.TAIL], **_bundle_sections("spaces")}
        code, out = run_main(tmp_path, capsys, "verify-all", bundle)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out.out)["checks"]}
        assert checks["space[0]:kuratowski"]["status"] == "pass"
        assert checks["unit_vector[0]:mather-invariants"]["status"] == "fail"
        assert checks["unit_vector[0]:mather-invariants"]["witness"] == {
            "tail_sup": "1/2",
            "sup/2": "1/4",
        }

    def test_weak_tail_is_a_json_error_for_mather(self, tmp_path, capsys):
        code, out = run_main(tmp_path, capsys, "mather", self.TAIL)
        assert code == 1
        assert out.out == ""
        assert "tail_sup=1/2" in json.loads(out.err)["error"]


class TestReportText:
    @given(_report_docs)
    def test_equals_json_dumps_with_sorted_keys_and_indent_2(self, doc):
        assert report_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


class TestFiles:
    """A file that cannot be read or written is an input error, exit 2."""

    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, json.loads(out.err)["error"]

    def test_missing_input(self, tmp_path, capsys):
        code, out, error = self.run(capsys, "mather", str(tmp_path / "absent.json"))
        assert (code, out) == (2, "")
        assert "cannot read" in error and "absent.json" in error

    def test_directory_as_input(self, tmp_path, capsys):
        code, out, error = self.run(capsys, "verify-all", str(tmp_path))
        assert (code, out) == (2, "")
        assert "cannot read" in error

    def test_out_into_a_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "absent" / "report.json"
        code, out, error = self.run(
            capsys, "mather", str(DATA / "unit_vector.json"), "--out", str(target))
        assert (code, out) == (2, "")
        assert "cannot write" in error and not target.parent.exists()

    def test_input_is_read_once(self, monkeypatch):
        opened = []
        real_open = open

        def counted(path, *args, **kwargs):
            opened.append(str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counted)
        path = str(DATA / "example_bundle.json")
        assert main(["verify-all", path]) == 0
        assert opened.count(path) == 1
