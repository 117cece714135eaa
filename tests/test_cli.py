import argparse
import contextlib
import dataclasses
import io
import json
import pathlib
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

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
from poukit import cli, jsonio, sparse, spaces
from poukit.cli import COMMANDS, main, parse_argv
from poukit.jsonio import (
    complex_payload, dump_complex, dump_finite_space, load_set_valued_map, report_text)
from poukit.nerve import MAX_DIMENSION, CanonicalReport, SimplicialComplex

from generators import uniform

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

    def test_a_row_off_the_simplex_is_named_by_its_key(self, tmp_path, capsys):
        built = report_of(run_cli("pou-build", str(DATA / "line_ball_cover.json")))
        pou = built["payload"]["pou"]
        pou["rows"]["0"]["U0"] = "7/3"
        code, out = run_main(tmp_path, capsys, "pou-verify", pou)
        assert code == 2
        assert json.loads(out.err)["error"] == \
            'row "0" is not a unit-simplex point: {"U0": "7/3"}'
        pou = jsonio.dump_pou(PartitionOfUnity(
            FiniteSpace.discrete({"x", "y"}), {1, "b"}, {"x": SparseVec({1: F(1)}),
                                                         "y": SparseVec({"b": F(1)})}))
        pou["rows"]["y"] = {"b": "1/3", "1": "1/2"}
        code, out = run_main(tmp_path, capsys, "pou-verify", pou)
        assert code == 2
        assert json.loads(out.err)["error"] == \
            'row "y" is not a unit-simplex point: {"1": "1/2", "b": "1/3"}'

    def test_pou_round_trip_over_integer_indices(self):
        pou = PartitionOfUnity(FiniteSpace.discrete({"x", "y", "z"}), {1, 2, "b"}, {
            "x": SparseVec({1: F(1, 3), 2: F(2, 3)}), "y": SparseVec({"b": F(1)}),
            "z": SparseVec({2: F(1, 2), "b": F(1, 2)})})
        back = jsonio.load_pou(json.loads(json.dumps(jsonio.dump_pou(pou))))
        assert back.index_set == {1, 2, "b"} and back.rows == pou.rows

    @pytest.mark.parametrize("indices, error", [
        ([1, 2], None),
        (["1", "2"], "cover and partition use different index sets"),
        ([1, "1", 2], "indices '1' and 1 are both keyed '1'"),
    ])
    def test_canonical_check_over_integer_indices(self, tmp_path, capsys, indices, error):
        space = {"points": ["x", "y"], "min_open": {"x": ["x"], "y": ["y"]}}
        doc = {
            "cover": {"domain": space, "codomain": [1, 2], "values": {"x": [1], "y": [1, 2]}},
            "pou": {"ground": space, "indices": indices,
                    "rows": {"x": {"1": "1"}, "y": {"1": "1/2", "2": "1/2"}}},
        }
        code, out = run_main(tmp_path, capsys, "canonical-check", doc)
        assert (code, error and json.loads(out.err)["error"]) == (2 if error else 0, error)

    def test_canonical_witness_names_points_and_indices_by_their_keys(self, tmp_path, capsys):
        space = {"points": [1, "y"], "min_open": {"1": [1], "y": ["y"]}}
        doc = {
            "cover": {"domain": space, "codomain": [0, "b"], "values": {"1": [0], "y": ["b"]}},
            "pou": {"ground": space, "indices": [0, "b"],
                    "rows": {"1": {"0": "1"}, "y": {"0": "1/2", "b": "1/2"}}},
        }
        code, out = run_main(tmp_path, capsys, "canonical-check", doc)
        assert code == 1
        assert json.loads(out.out)["checks"][0]["witness"] == {
            "canonical": False, "membership_violations": ["y"], "star_violations": [["0", "y"]]}

    def test_space_validate_over_integer_points(self, tmp_path, capsys):
        """A ``min_open`` key is read as the point whose str it is."""
        doc = {"points": [1, 2], "min_open": {"1": [1], "2": [2]}}
        code, out = run_main(tmp_path, capsys, "space-validate", doc)
        assert code == 0 and json.loads(out.out)["payload"]["space"] == doc

    def test_finite_space_and_pou_round_trip_over_integer_points(self):
        space = FiniteSpace({1, 2, "c"}, {1: {1, 2}, 2: {2}, "c": {"c"}})
        back = jsonio.load_finite_space(json.loads(json.dumps(dump_finite_space(space))))
        assert back == space
        pou = PartitionOfUnity(space, {"a", 7}, {
            1: SparseVec({7: F(1)}), 2: SparseVec({7: F(1)}),
            "c": SparseVec({"a": F(1, 4), 7: F(3, 4)})})
        back = jsonio.load_pou(json.loads(json.dumps(jsonio.dump_pou(pou))))
        assert back.ground == space and back.index_set == {"a", 7} and back.rows == pou.rows

    def test_map_values_over_integer_points(self):
        domain = {"points": [1, 2], "min_open": {"1": [1, 2], "2": [2]}}
        phi = load_set_valued_map({"domain": domain, "codomain": "discrete",
                                   "values": {"1": ["a"], "2": ["a", "b"]}})
        assert phi.values == {1: {"a"}, 2: {"a", "b"}}

    def test_points_with_the_same_str_are_rejected(self, tmp_path, capsys):
        doc = {"points": [1, "1"], "min_open": {"1": [1, "1"]}}
        code, out = run_main(tmp_path, capsys, "space-validate", doc)
        assert (code, json.loads(out.err)["error"]) == (2, "points '1' and 1 are both keyed '1'")

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
        assert rep["config"]["tol_sum"] == 1e-9
        assert len(next(iter(rep["inputs"].values()))) == 64

    def test_tol_sum_is_no_flag(self):
        """The unit-mass tolerance is ``scalars.TOL`` in every run."""
        proc = run_cli("mather", str(DATA / "unit_vector.json"), "--tol-sum", "0.01")
        assert proc.returncode == 2
        assert "unrecognized arguments: --tol-sum 0.01" in proc.stderr

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

    def test_cli_imports_no_argparse(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import poukit.cli, sys; assert 'argparse' not in sys.modules"],
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

    MALFORMED = [(command, case) for command in ["select-eps", "verify-all"]
                 for case in sorted(MALFORMED_SELECTIONS)]

    @pytest.mark.parametrize("command, case", MALFORMED, ids=[f"{c}-{k}" for c, k in MALFORMED])
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
    "min_open-for-unknown-point": lambda s: {**s, "min_open": {**s["min_open"], "zz": ["a"]}},
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
    "values-for-unknown-point": lambda m: {**m, "values": {**m["values"], "zz": ["nowhere"]}},
    "value-outside-listed-codomain": lambda m: {**m, "codomain": ["a"]},
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


def test_one_parser_per_process(tmp_path, capsys):
    """No flag value of one call reaches the next: a default run after a
    ``--max-dim 0`` run reports as the one before it."""
    reports = []
    for flags in ([], ["--max-dim", "0"], []):
        code, out = run_main(tmp_path, capsys, "nerve-build", line_cover(), *flags)
        assert code == 0
        reports.append(json.loads(out.out))
    assert reports[0] == reports[2] != reports[1]
    assert reports[2]["config"]["max_dim"] == 8 and reports[1]["config"]["max_dim"] == 0


def _argparse_reference():
    """The argparse parser the command line used before its flag table."""
    parser = argparse.ArgumentParser(
        prog="poukit",
        description="verify partitions of unity, covers, nerves, and selections",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("input", help="JSON input file")
    parser.add_argument("--mode", choices=["exact", "float"], default="exact")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write the report here")
    parser.add_argument("--max-dim", type=int, default=MAX_DIMENSION)
    return parser


def _outcome(parse, argv):
    """The fields ``parse(argv)`` fills, or the code it exits with; what it
    writes is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


_INTS = ["0", "7", "-1", "-12", "-0", " 3", "\u0663"]
_GOOD = {"--mode": ["exact", "float"], "--seed": _INTS, "--max-dim": _INTS,
         "--out": ["out.json", "-x y", "", "-", "-5"]}
_VALUES = sorted({v for values in _GOOD.values() for v in values} | {"EXACT", "1.5", "-1.5", "x"})
_FLAG_PIECES = st.sampled_from(sorted(_GOOD)).flatmap(lambda flag: st.tuples(
    st.just(flag), st.sampled_from(_GOOD[flag]) | st.sampled_from(_VALUES),
    st.sampled_from([0, 0, 1, 1, 2]),
)).map(
    # as --flag value, as --flag=value, or without its value
    lambda f: [[f[0], f[1]], [f"{f[0]}={f[1]}"], [f[0]]][f[2]])
_ODD_WORDS = ["extra", "--tol-sum", "0.01", "-x", "--bogus", "--bogus=1", "--seeds",
              "-h", "--help", "-h=x", "--help="]
_POSITIONALS = st.tuples(st.sampled_from(["map-classify", "verify-all", "mather", "bogus"]),
                         st.sampled_from(["in.json", "-5", "-x y", "-", "", "mather"]))


def _argv(positionals, placed):
    """``positionals`` in order, each piece of ``placed`` put before the
    positional its slot names, or after the last."""
    argv = []
    for slot in range(len(positionals) + 1):
        argv += [token for at, piece in placed if at == slot for token in piece]
        argv += positionals[slot:slot + 1]
    return argv


# zero to three positionals, mostly a command and an input, with flags and
# now and then an odd word before, between or after them
_ARGVS = st.builds(
    _argv,
    _POSITIONALS | _POSITIONALS | st.lists(st.sampled_from(_ODD_WORDS + ["mather", "in.json"]), max_size=3),
    st.lists(st.tuples(st.integers(0, 3), _FLAG_PIECES), max_size=4)
    | st.lists(st.tuples(st.integers(0, 3), _FLAG_PIECES | st.sampled_from(_ODD_WORDS).map(
        lambda word: [word])), max_size=4),
)


class TestArgv:
    """``parse_argv`` against the argparse parser it replaced: the same
    fields where argparse accepts, the same exit code where it exits.  Only
    abbreviations and ``--``, which it no longer reads, exit 2 instead."""

    @settings(derandomize=True, database=None, max_examples=600, deadline=None)
    @given(_ARGVS)
    @example(["mather", "in", "--max-dim", "-1"])
    @example(["--seed=-3", "verify-all", "--out", "-x y", "in", "--mode", "float", "--seed", "2"])
    @example(["mather", "in", "--tol-sum", "0.01", "-h"])
    @example(["bogus", "-h"])
    @example(["-h", "bogus"])
    @example(["mather", "in", "--out"])
    @example(["mather", "--bogus", "0.01", "in"])
    def test_as_argparse(self, argv):
        assert _outcome(parse_argv, argv) == _outcome(_argparse_reference().parse_args, argv)

    @pytest.mark.parametrize("argv", [
        ["mather", "in", "--max", "3"],
        ["mather", "in", "--max=3"],
        ["mather", "in", "--se", "3"],
        ["mather", "in", "--he"],
        ["mather", "--", "in"],
        ["--", "mather", "in"],
    ])
    def test_abbreviations_and_the_separator_exit_2(self, argv):
        assert _outcome(_argparse_reference().parse_args, argv) != 2
        assert _outcome(parse_argv, argv) == 2

    @pytest.mark.parametrize("argv, message", [
        (["bogus", "in"], "unknown command 'bogus'; the commands are canonical-check, "
         "map-classify, mather, nerve-build, pou-build, pou-verify, select-eps, "
         "space-validate, verify-all"),
        (["mather", "in", "--seed", "x"], "--seed takes INT, not 'x'"),
        (["mather", "in", "--out"], "--out needs a value"),
    ])
    def test_messages(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        assert out.err == ("usage: poukit COMMAND INPUT [-h] [--mode exact|float] [--seed INT] "
                           f"[--out PATH] [--max-dim INT]\npoukit: error: {message}\n")

    def test_help_goes_to_stdout(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        out = capsys.readouterr()
        assert (exc.value.code, out.err) == (0, "")
        assert out.out.startswith("usage: poukit COMMAND INPUT")
        assert all(flag in out.out for flag in cli.FLAGS)

    def test_argv_defaults_to_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["poukit", "mather", str(DATA / "unit_vector.json"),
                                          "--seed=5"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 5


class TestComputedFloatsMissingOneByAnUlp:
    """Rows and vectors poukit computes itself whose floats miss 1 by an
    ulp are unit simplex points, as ``scalars.is_one`` decides it."""

    # the float rows at (1/10, 3/10) and (7/10, 6/10) do not sum to 1
    COVER = {
        "space": {"samples": [["0", "0"], ["1/10", "3/10"], ["7/10", "6/10"]]},
        "balls": {
            "A": {"center": ["0", "0"], "radius": "3/2"},
            "B": {"center": ["1", "1"], "radius": "3/2"},
            "C": {"center": ["1", "0"], "radius": "1"},
        },
    }
    # the float rows 9/24, 8/24, 7/24 sum to 1 - 2**-53
    TARGET = {
        "target": {"ambient_dim": 1, "sets": {"x": {"kind": "point", "p": ["0"]}}},
        "epsilon": "1",
        "anchors": [["0.1"], ["0.2"], ["0.3"]],
    }
    # sums to 1 in floats; its float eta does not
    VECTOR = {"entries": {"a": "0.3", "b": "0.3", "c": "0.4"}}
    EXACT, FLOAT = [], ["--mode", "float"]

    @pytest.mark.parametrize("command, obj, flags", [
        ("pou-build", COVER, EXACT),
        ("pou-build", COVER, FLOAT),
        ("canonical-check", {"cover": COVER}, EXACT),
        ("canonical-check", {"cover": COVER}, FLOAT),
        ("select-eps", TARGET, EXACT),
        ("mather", VECTOR, FLOAT),
        ("verify-all", {"metric_covers": [COVER]}, EXACT),
        ("verify-all", {"metric_covers": [COVER]}, FLOAT),
        ("verify-all", {"unit_vectors": [VECTOR]}, FLOAT),
        ("verify-all", {"targets": [TARGET]}, EXACT),
    ])
    def test_exits_0_with_empty_stderr(self, tmp_path, capsys, command, obj, flags):
        code, out = run_main(tmp_path, capsys, command, obj, *flags)
        assert (code, out.err) == (0, "")
        assert json.loads(out.out)["overall"] == "pass"


def test_mather_decides_the_mass_once(tmp_path, capsys, monkeypatch):
    """A plain vector becomes an extended one once, not in each of the
    three transforms, and a bad one is still rejected with exit 2."""
    calls = []
    check = sparse.is_unit_simplex_point
    monkeypatch.setattr(sparse, "is_unit_simplex_point",
                        lambda v: calls.append(v) or check(v))
    code, _ = run_main(tmp_path, capsys, "mather", {"entries": {"a": "1/2", "b": "1/2"}})
    assert code == 0 and len(calls) == 1
    code, out = run_main(tmp_path, capsys, "mather", {"entries": {"a": "1/2"}})
    assert code == 2 and "not a unit simplex point" in out.err


class TestFailingChecksCarryWitnesses:
    def test_hierarchy_consistent_names_the_classification_witnesses(
        self, tmp_path, capsys, monkeypatch
    ):
        """An open graph that is not totally lsc breaks the diagram."""
        classify = cli.classify
        monkeypatch.setattr(cli, "classify",
                            lambda phi: dataclasses.replace(classify(phi), open_graph=True))
        obj = json.loads((DATA / "sierpinski_identity_map.json").read_text())
        code, out = run_main(tmp_path, capsys, "map-classify", obj)
        report = json.loads(out.out)
        (check,) = report["checks"]
        witnesses = report["payload"]["classification"]["witnesses"]
        assert code == 1 and witnesses
        assert check == {"name": "hierarchy-consistent", "status": "fail", "witness": witnesses}

    def test_eta_on_simplex_names_the_mass_of_eta(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "mather_eta", lambda y: SparseVec({"a": F(1, 3)}))
        code, out = run_main(tmp_path, capsys, "mather", {"entries": {"a": "1"}})
        check = json.loads(out.out)["checks"][0]
        assert code == 1
        assert check == {"name": "eta-on-simplex", "status": "fail", "witness": {"eta_l1": "1/3"}}


class TestSelfChecks:
    def break_certificate(self, monkeypatch):
        anchors = {(0.0, 0.0), (1.0, 0.0)}

        def distances(self, x, qs):
            return [0.0 if tuple(q) in anchors else 1.0 for q in qs]

        monkeypatch.setattr(ConvexTarget, "distances", distances)
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

    def test_violated_certificate_is_a_failed_select_eps_check(
        self, tmp_path, capsys, monkeypatch
    ):
        problem = self.break_certificate(monkeypatch)
        code, out = run_main(tmp_path, capsys, "select-eps", problem)
        assert code == 1 and out.err == ""
        report = json.loads(out.out)
        assert report["overall"] == "fail" and report["payload"] == {}
        assert report["checks"] == [{
            "name": "epsilon-bound", "status": "fail",
            "witness": ["certificate violated", "x", "1.0", "0.3", ["a0", "a1"]]}]

    def test_target_with_no_anchor_within_epsilon_fails_select_eps(self, tmp_path, capsys):
        """The anchor (0, 0) lies on x, y and z but 0.71 from w: select-eps
        writes a report whose epsilon-bound check fails with w, and exits 1."""
        problem = selection_problem()
        problem["anchors"] = [["0", "0"]]
        code, out = run_main(tmp_path, capsys, "select-eps", problem)
        assert code == 1 and out.err == ""
        report = json.loads(out.out)
        assert report["overall"] == "fail" and report["payload"] == {}
        assert report["checks"] == [{
            "name": "epsilon-bound", "status": "fail",
            "witness": ["no anchor within epsilon", "w", "0.3"]}]

    def test_violated_certificate_witness_names_point_distance_and_anchors(
        self, tmp_path, capsys, monkeypatch
    ):
        bundle = {"targets": [self.break_certificate(monkeypatch)]}
        _, out = run_main(tmp_path, capsys, "verify-all", bundle)
        (check,) = json.loads(out.out)["checks"]
        assert check["witness"] == ["certificate violated", "x", "1.0", "0.3", ["a0", "a1"]]

    def test_target_with_no_anchor_within_epsilon_is_a_failed_check(self, tmp_path, capsys):
        """A target point farther than epsilon from every anchor fails its
        epsilon-bound check with exit 1, and every other check of the
        bundle keeps its verdict."""
        bundle = json.loads((DATA / "example_bundle.json").read_text())
        code, out = run_main(tmp_path, capsys, "verify-all", bundle)
        assert code == 0
        checks = json.loads(out.out)["checks"]
        far = {"ambient_dim": 2, "sets": {"far": {"kind": "point", "p": ["10", "10"]}}}
        bundle["targets"].append({**bundle["targets"][0], "target": far})
        code, out = run_main(tmp_path, capsys, "verify-all", bundle)
        assert code == 1
        report = json.loads(out.out)
        assert report["overall"] == "fail"
        assert report["checks"] == checks + [{
            "name": "target[1]:epsilon-bound", "status": "fail",
            "witness": ["no anchor within epsilon", "far", "0.3"]}]

    def test_disagreeing_closure_formulas_are_a_failed_check(
        self, tmp_path, capsys, monkeypatch
    ):
        bundle = json.loads((DATA / "example_bundle.json").read_text())
        # the pointwise formula reads the image of each minimal open as a mask
        monkeypatch.setattr(SetValuedMap, "_image_mask", lambda self, m: 0)
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
        built = []
        incidence = MetricSampleSpace.incidence

        def counted(self, balls):
            built.append(balls)
            return incidence(self, balls)

        monkeypatch.setattr(MetricSampleSpace, "incidence", counted)
        cover = json.loads((DATA / "line_ball_cover.json").read_text())
        for command, doc, covers in [
            ("verify-all", {"metric_covers": [cover, cover]}, 2),
            ("canonical-check", {"cover": cover}, 1),
            ("pou-build", cover, 1),
            ("nerve-build", cover, 1),
        ]:
            built.clear()
            code, _ = run_main(tmp_path, capsys, command, doc)
            assert code == 0
            assert len(built) == covers

    @pytest.mark.parametrize("dim", [1, 2])
    def test_each_sample_coordinate_is_hashed_once(self, tmp_path, capsys, monkeypatch, dim):
        """Samples key rows and cover values; a sample is hashed when it is
        built, each coordinate once, from its integer over the sample's
        common denominator, and never as a Fraction."""
        rng = random.Random(dim)
        samples = {tuple(F(rng.randrange(-40, 41), 40) for _ in range(dim)) for _ in range(30)}
        grid = [(F(i, 2),) for i in range(-2, 3)]
        centers = grid if dim == 1 else [p + q for p in grid for q in grid]
        cover = {
            "space": {"dim": dim, "samples": [[str(c) for c in p] for p in samples]},
            "balls": {f"U{i}": {"center": [str(c) for c in p], "radius": "2/5"}
                      for i, p in enumerate(centers)},
        }
        calls, coordinates = [], []
        fraction_hash, hash_over = F.__hash__, spaces._hash_over

        def counted(self):
            calls.append(self)
            return fraction_hash(self)

        monkeypatch.setattr(F, "__hash__", counted)
        monkeypatch.setattr(spaces, "_hash_over",
                            lambda nums, inv: coordinates.extend(nums) or hash_over(nums, inv))
        code, out = run_main(tmp_path, capsys, "verify-all", {"metric_covers": [cover]})
        assert code == 0, out.err
        assert calls == []
        assert 0 < len(coordinates) <= len(samples) * dim

    def test_float_rows_in_dimension_2(self, tmp_path, capsys):
        """The double -0.7 lies 0.99999999999999994... from the double 0.3,
        inside U although its float square rounds to 1.0; bumps are r -
        sqrt(d**2) for the correctly rounded d**2."""
        cover = {
            "space": {"samples": [["-0.7", "0.7"], ["0.3", "0.7"], ["-0.6", "0.4"]]},
            "balls": {"U": {"center": ["0.3", "0.7"], "radius": "1"},
                      "V": {"center": ["-0.7", "0.7"], "radius": "0.5"}},
        }
        code, out = run_main(tmp_path, capsys, "pou-build", cover, "--mode", "float")
        assert (code, out.err) == (0, "")
        assert json.loads(out.out)["payload"]["pou"]["rows"] == {
            "0": {"U": "2.2204460492503126e-16", "V": "0.9999999999999998"},
            "1": {"U": "1.0"},
            "2": {"U": "0.2182863338332016", "V": "0.7817136661667984"},
        }


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
    # each would replace a row of its own: "00" read as 0, the Arabic-Indic one as 1
    "sample-key-00": lambda p: {**p, "rows": {**p["rows"], "00": {"U1": "1"}}},
    "sample-key-arabic-indic-one": lambda p: {**p, "rows": {**p["rows"], "\u0661": {"U1": "1"}}},
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
            return PartitionOfUnity(pou.ground, pou.index_set, rows), None

        monkeypatch.setattr("poukit.cli.subordination_check", unsubordinated)
        monkeypatch.setattr("poukit.cli.canonical_map_check", not_canonical)
        monkeypatch.setattr("poukit.cli.mather_compose", growing)
        code, checks = self.run(tmp_path, capsys)
        assert code == 1
        assert all(c["status"] == "fail" for c in checks.values())
        assert checks["index-subordinated"]["witness"] == ["carrier", "1"]
        assert checks["canonical"]["witness"] == {
            "canonical": False,
            "membership_violations": ["2"],
            "star_violations": [["U0", "2"]],
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


_EMPTY_BOX = {
    "target": {"ambient_dim": 1, "sets": {"x": {"kind": "box", "lo": ["1"], "hi": ["0"]}}},
    "epsilon": "1",
    "anchors": [["1/2"]],
}


def _discrete_map(values, codomain):
    """A map on the discrete space {x, y}."""
    return {"domain": {"points": ["x", "y"], "min_open": {"x": ["x"], "y": ["y"]}},
            "codomain": codomain, "values": values}


_UNCOVERED = _cover([["0"], ["5"]], ["0"], "1")
# inside the ball exactly, d**2 < 1, but the float bump 1 - d rounds to 0.0
_BUMP_ROUNDS_TO_ZERO = _cover([["99999999999999999999/100000000000000000000", "0"]], ["0", "0"], "1")

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
    "exact-radius-overflow": (
        "pou-build", _cover([["0", "0"], ["1", "0"]], ["0", "0"], "1e400"), [], "float range"),
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
    # an int/int overflow inside Mode.parse is a parse error, not a traceback
    **{
        f"ratio-string-overflow-{text[-4:]}": (
            "mather", {"entries": {"a": text}}, ["--mode", "float"],
            f"cannot parse scalar from {text!r}: integer division result too large for a float")
        for text in ("1" + "0" * 400, "1" + "0" * 400 + "/3")
    },
    **{
        f"ratio-string-5000-digits-{mode}": (
            "mather", {"entries": {"a": "1" * 5000}}, ["--mode", mode],
            f"cannot parse scalar from {'1' * 5000!r}: Exceeds the limit (4300")
        for mode in ("exact", "float")
    },
    # nerve-build said "empty value at point (Fraction(5, 1),)"
    **{
        f"uncovered-sample-{command}": (command, obj, [], "point (Fraction(5, 1),) is not covered")
        for command, obj in [
            ("pou-build", _UNCOVERED),
            ("nerve-build", _UNCOVERED),
            ("canonical-check", {"cover": _UNCOVERED}),
            ("verify-all", {"metric_covers": [_UNCOVERED]}),
        ]
    },
    # a ZeroDivisionError traceback with exit 1
    **{
        f"bump-rounds-to-zero-{command}": (
            command, obj, [], "every bump at ['99999999999999999999/100000000000000000000', '0']")
        for command, obj in [
            ("pou-build", _BUMP_ROUNDS_TO_ZERO),
            ("canonical-check", {"cover": _BUMP_ROUNDS_TO_ZERO}),
            ("verify-all", {"metric_covers": [_BUMP_ROUNDS_TO_ZERO]}),
        ]
    },
    # a box with lo > hi passed with distance 0.5 to the empty set
    **{
        f"box-empty-{command}": (command, obj, [], "empty box at 'x': lo (1.0,), hi (0.0,)")
        for command, obj in [("select-eps", _EMPTY_BOX), ("verify-all", {"targets": [_EMPTY_BOX]})]
    },
    # JSON true == 1: the two indices below were one, and nerve-build dumped [true]
    "value-names-true": (
        "nerve-build", _discrete_map({"x": [1], "y": [True]}, "discrete"), [],
        "values['y'] names a JSON true or false"),
    "codomain-names-false": (
        "map-classify", _discrete_map({"x": [0], "y": [0]}, [0, False]), [],
        "codomain names a JSON true or false"),
}


# (command, input, flags) of inputs at the float limits that build; all
# exited 2 once, for a number no report prints
BUILDING_INPUTS = {
    # 1e300 squared leaves the float range; the pair's decision is on integers
    "float-squares-overflow": (
        "pou-build", _cover([[0], [1e200]], [0], 1e300), ["--mode", "float"]),
    # d = 1e200 inside a ball of radius 1e300: d**2 leaves the float range, d
    # does not, and the bump takes the root of d**2 / 2**1024
    "exact-distance-overflow": (
        "pou-build", _cover([["0", "0"], ["1e200", "0"]], ["0", "0"], "1e300"), []),
    # bump totals past the float range, above and below: only the unprinted
    # l1 Lipschitz constant reads them as a float
    "bump-total-overflow": (
        "canonical-check", {"cover": _cover([["0"], ["1"]], ["0"], str(10**400))}, []),
    **{
        f"bump-total-underflow-{command}": (command, obj, [])
        for command, obj in [
            ("pou-build", _cover([["0"]], ["0"], f"1/{10**400}")),
            ("verify-all", {"metric_covers": [_cover([["0"]], ["0"], f"1/{10**400}")]}),
        ]
    },
}


# unit balls at 0 and 1e200, whose first coordinates lie 1e200 apart, so no
# run decides the far pairs
_FAR_FLOAT_BALLS = {
    "space": {"samples": [[0], [1e200]]},
    "balls": {"U": {"center": [0], "radius": 1}, "V": {"center": [1e200], "radius": 1}},
}


# a unit triangle with a near anchor and one at 1e200: its squared vertex
# distances overflow, but its distance to the vertex box exceeds epsilon, so
# it is never measured
_TRIANGLE = {"kind": "polytope", "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
_NEAR_ANCHOR = _target(["1/4", "1/4"], **_TRIANGLE)
_FAR_ANCHOR = {**_NEAR_ANCHOR, "anchors": [["1/4", "1/4"], ["1e200", "0"]]}


class TestHostileInput:
    @pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
    def test_exits_2_with_the_reason(self, tmp_path, capsys, case):
        command, obj, flags, reason = HOSTILE_INPUTS[case]
        code, out = run_main(tmp_path, capsys, command, obj, *flags)
        assert code == 2
        assert reason in json.loads(out.err)["error"]

    @pytest.mark.parametrize("command, obj", [
        ("pou-build", _FAR_FLOAT_BALLS),
        ("nerve-build", _FAR_FLOAT_BALLS),
        ("canonical-check", {"cover": _FAR_FLOAT_BALLS}),
        ("verify-all", {"metric_covers": [_FAR_FLOAT_BALLS]}),
    ])
    def test_far_float_pairs_are_never_decided(self, tmp_path, capsys, command, obj):
        code, out = run_main(tmp_path, capsys, command, obj, "--mode", "float")
        assert (code, out.err) == (0, "")
        if command == "pou-build":
            rows = json.loads(out.out)["payload"]["pou"]["rows"]
            assert rows == {"0": {"U": "1.0"}, "1": {"V": "1.0"}}

    @pytest.mark.parametrize("case", sorted(BUILDING_INPUTS))
    def test_inputs_at_the_float_limits_build(self, tmp_path, capsys, case):
        command, obj, flags = BUILDING_INPUTS[case]
        code, out = run_main(tmp_path, capsys, command, obj, *flags)
        assert (code, out.err) == (0, "")
        if case in ("float-squares-overflow", "exact-distance-overflow"):
            rows = json.loads(out.out)["payload"]["pou"]["rows"]
            assert rows == {"0": {"U": "1.0"}, "1": {"U": "1.0"}}

    def test_a_far_anchor_whose_squares_overflow_builds(self, tmp_path, capsys):
        payloads = []
        for obj in (_FAR_ANCHOR, _NEAR_ANCHOR):
            code, out = run_main(tmp_path, capsys, "select-eps", obj)
            assert (code, out.err) == (0, "")
            payloads.append(json.loads(out.out)["payload"])
        assert payloads[0] == payloads[1]
        assert payloads[0]["selection"]["x"]["value"] == ["0.25", "0.25"]


# 200,000 brackets exceed the JSON decoder's recursion limit in any process;
# whether a 990-deep extra key does depends on the caller's stack depth
_DEEP_NESTING = "[" * 200_000 + "]" * 200_000
_DEEP_EXTRA_KEY = (json.dumps(_space())[:-1] + ', "extra": ' + "[" * 990 + "]" * 990 + "}")


@pytest.mark.parametrize("command", ["space-validate", "verify-all"])
class TestDeepNesting:
    def test_in_process(self, tmp_path, capsys, command):
        code, out = run_main(tmp_path, capsys, command, RawJSON(_DEEP_NESTING))
        assert code == 2 and "cannot read" in json.loads(out.err)["error"]
        code, out = run_main(tmp_path, capsys, command, RawJSON(_DEEP_EXTRA_KEY))
        assert code in (0, 2) and "Traceback" not in out.err

    def test_in_a_subprocess(self, tmp_path, command):
        path = tmp_path / "input.json"
        path.write_text(_DEEP_NESTING)
        proc = run_cli(command, str(path))
        assert proc.returncode == 2 and "cannot read" in json.loads(proc.stderr)["error"]
        path.write_text(_DEEP_EXTRA_KEY)
        proc = run_cli(command, str(path))
        assert proc.returncode in (0, 2) and "Traceback" not in proc.stderr


_POINT_COVER = {
    "space": {"samples": [[]]},
    "balls": {"U": {"center": [], "radius": 1}, "V": {"center": [], "radius": "1/2"}},
}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("command, obj", [
    ("pou-build", _POINT_COVER),
    ("nerve-build", _POINT_COVER),
    ("canonical-check", {"cover": _POINT_COVER}),
    ("verify-all", {"metric_covers": [_POINT_COVER]}),
])
def test_a_cover_of_dimension_0_builds(tmp_path, capsys, command, obj, mode):
    """The one point of a 0-dimensional space lies in every ball."""
    code, out = run_main(tmp_path, capsys, command, obj, "--mode", mode)
    assert (code, out.err) == (0, "")
    assert json.loads(out.out)["overall"] == "pass"
    if command == "pou-build":
        rows = json.loads(out.out)["payload"]["pou"]["rows"]
        assert list(rows) == ["0"] and list(rows["0"]) == ["U", "V"]


def _count_closures(monkeypatch):
    """The masks closed by the one closure every check and query reads."""
    calls = []
    close = spaces._Index.closure

    def counted(self, m):
        calls.append(m)
        return close(self, m)

    monkeypatch.setattr(spaces._Index, "closure", counted)
    return calls


def _bundle_sections(*names):
    bundle = json.loads((DATA / "example_bundle.json").read_text())
    return {name: bundle[name] for name in names}


class TestExactFiniteChecks:
    """The spaces and covers sections decide every verdict exactly, once."""

    def test_kuratowski_closes_once_per_point(self, tmp_path, capsys, monkeypatch):
        """cl{p} is read as ``down[p]``; only cl(cl{p}) is closed."""
        space = finite_interval_model(8)
        calls = _count_closures(monkeypatch)
        code, out = run_main(
            tmp_path, capsys, "verify-all", {"spaces": [dump_finite_space(space)]}
        )
        assert code == 0
        assert json.loads(out.out)["checks"][0]["status"] == "pass"
        assert len(calls) == len(space.points)

    def test_closure_formulas_close_no_mask(self, tmp_path, capsys, monkeypatch):
        """The fiberwise side scatters each value over a point closure read
        from ``down``, so the cross-check calls no closure."""
        calls = _count_closures(monkeypatch)
        code, out = run_main(tmp_path, capsys, "verify-all", _bundle_sections("covers"))
        assert code == 0
        assert json.loads(out.out)["overall"] == "pass"
        assert calls == []

    # the example cover's domain: U_a = {a, b}, U_b = {b}, so cl{b} = {a, b};
    # dropping p from cl{b} drops values(b) = {0, 1} from the scattered value
    # at p alone, while the image of U_p still holds it.  Both sides are
    # listed in repr order, so the witness does not follow the string hash
    @pytest.mark.parametrize("dropped, sides", [("a", "['0', '1'] vs ['0']"),
                                                ("b", "['0', '1'] vs []")], ids=["a", "b"])
    def test_closure_formulas_fail_at_a_flipped_down_bit(
        self, tmp_path, capsys, monkeypatch, dropped, sides
    ):
        build = spaces._Index.__init__

        def flipped(self, order, min_open):
            build(self, order, min_open)
            if order == ["a", "b"]:
                self.down[1] ^= self.bit[dropped]

        monkeypatch.setattr(spaces._Index, "__init__", flipped)
        code, out = run_main(tmp_path, capsys, "verify-all", _bundle_sections("covers"))
        assert code == 1
        (check,) = json.loads(out.out)["checks"]
        assert (check["name"], check["status"]) == ("cover[0]:closure-formulas", "fail")
        assert check["witness"] == f"closure-cover formulas disagree at {dropped!r}: {sides}"

    # closures of masks over the points a, b, c: bit 0 is a, bit 2 is c
    @pytest.mark.parametrize(
        "closure, witness",
        [
            (lambda self, m: 0, "'a'"),
            # cl{a} = {a, b} but cl{a, b} = {a, b, c}
            (lambda self, m: m | (m << 1) & 0b111, "'a'"),
            (lambda self, m: m & ~0b010, "'b'"),
        ],
        ids=["not-extensive", "not-idempotent", "not-extensive-at-b"],
    )
    def test_broken_closure_fails_with_the_first_point(
        self, tmp_path, capsys, monkeypatch, closure, witness
    ):
        monkeypatch.setattr(spaces._Index, "closure", closure)
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
        monkeypatch.setattr("poukit.cli.mather_eta", lambda y: fake)
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


def _faces(members, max_dimension=None):
    """The simplices ``complex_payload`` gives the complex that ``members``
    generate: a face block, or plain lists when a name is a tuple."""
    return complex_payload(SimplicialComplex(members), max_dimension)["simplices"]


def _plain(doc):
    """``doc`` with each face block replaced by ``dump_complex``'s lists."""
    if isinstance(doc, jsonio._FaceBlock):
        return dump_complex(doc.complex, doc.max_dimension)["simplices"]
    if isinstance(doc, dict):
        return {k: _plain(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(map(_plain, doc))
    return doc


_string_names = st.text(max_size=3)
_mixed_names = _string_names | st.integers(-3, 12)
_tuple_names = _mixed_names | st.tuples(st.text(max_size=2), st.integers(0, 3))
_members = st.one_of(*(st.lists(st.frozensets(names, min_size=1, max_size=5), max_size=4)
                       for names in (_string_names, _mixed_names, _tuple_names)))
class _Float(float):
    """A float subclass, which the writer leaves to ``json.dumps``."""

    def __repr__(self):
        return "not its JSON text"


_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.floats().map(_Float) | st.text())
_face_blocks = st.builds(_faces, _members, st.none() | st.integers(0, 5))
_report_docs = st.recursive(
    _json_scalars | _face_blocks,
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
    """The oracle is ``json.dumps`` of the same document with each face
    block replaced by ``dump_complex``'s plain lists."""

    FACES = [["U0"], ["U1"], ["U0", "U1"], [0, "\u00e9", 'a"']]

    @staticmethod
    def assert_written_as_json(doc):
        assert report_text(doc) == json.dumps(_plain(doc), sort_keys=True, indent=2) + "\n"

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_report_docs)
    @example([_faces(FACES)])
    @example([_faces(FACES), 1, "x"])
    @example([None, {}, _faces(FACES)])
    @example({"a": _faces(FACES), "b": [_faces([[1]])]})
    @example({"payload": {"complex": {"simplices": [[_faces(FACES)], ()]}}})
    @example([_faces([]), {"faces": _faces([])}, _faces([])])
    @example(_faces(FACES))
    @example({"tol_sum": 1e-9, "x": [0.1, -0.0, 1e300, 5e-324, 2.0 ** 60]})
    @example([float("inf"), float("-inf"), float("nan"), _Float(0.5), _Float("nan")])
    def test_equals_json_dumps_with_sorted_keys_and_indent_2(self, doc):
        self.assert_written_as_json(doc)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_members, st.integers(0, 3))
    @example([["U0", "U1"], [0, "\u00e9", 'a"']], 2)
    @example([[("a", 1), 2]], 1)
    @example([], 0)
    def test_every_dump_bound_at_several_depths(self, members, depth):
        """Each bound from 0 to one past the dimension, and none, with the
        payload nested ``depth`` levels down in objects and lists; names
        without a tuple among them get a face block."""
        cx = SimplicialComplex(members)
        for max_dimension in [None, *range(cx.dimension() + 2)]:
            doc = complex_payload(cx, max_dimension)
            block = isinstance(doc["simplices"], jsonio._FaceBlock)
            assert block != any(isinstance(v, tuple) for v in cx.vertices)
            for level in range(depth):
                doc = {"payload": doc} if level % 2 else [1, doc]
            self.assert_written_as_json(doc)


class TestNerveDumpFromFacets:
    """A ball cover whose one sample lies in 14 balls: its nerve is one
    facet with 16,383 faces, all of them dumped at ``--max-dim 13``."""

    COVER = {
        "space": {"dim": 1, "samples": [["0"]]},
        "balls": {f"U{i}": {"center": ["0"], "radius": "1"} for i in range(14)},
    }

    @pytest.mark.parametrize("command, doc, key", [
        ("nerve-build", COVER, "complex"),
        ("canonical-check", {"cover": COVER}, "nerve"),
    ], ids=["nerve-build", "canonical-check"])
    def test_faces_are_written_from_one_enumeration(
        self, tmp_path, capsys, monkeypatch, command, doc, key
    ):
        """The dump enumerates the faces once, never builds
        ``dump_complex``'s lists, and quotes each name twice: once in
        ``vertices`` and once for the 8,192 faces it is in."""
        enumerations, dumps, quoted = [], [], []
        faces_by_size, quote = SimplicialComplex.faces_by_size, jsonio._quote
        monkeypatch.setattr(SimplicialComplex, "faces_by_size",
                            lambda *a, **k: enumerations.append(a) or faces_by_size(*a, **k))
        monkeypatch.setattr(jsonio, "dump_complex", lambda *a: dumps.append(a))
        monkeypatch.setattr(jsonio, "_quote", lambda s: quoted.append(s) or quote(s))
        code, out = run_main(tmp_path, capsys, command, doc, "--max-dim", "13")
        assert code == 0
        assert len(enumerations) == 1 and dumps == []
        names = sorted(self.COVER["balls"])
        assert sorted(n for n in quoted if n in self.COVER["balls"]) == sorted(names * 2)
        nerve = json.loads(out.out)["payload"][key]
        assert nerve["vertices"] == names and len(nerve["simplices"]) == 2**14 - 1
        assert nerve["simplices"][-1] == names

    @pytest.mark.parametrize("command, doc", [
        ("nerve-build", COVER), ("canonical-check", {"cover": COVER}),
    ], ids=["nerve-build", "canonical-check"])
    def test_a_negative_bound_fails_before_the_report_is_written(
        self, tmp_path, capsys, monkeypatch, command, doc
    ):
        written = []
        monkeypatch.setattr(jsonio, "report_text", lambda doc: written.append(doc))
        out_file = tmp_path / "report.json"
        code, out = run_main(tmp_path, capsys, command, doc, "--max-dim=-1", "--out", str(out_file))
        assert (code, out.out, written) == (2, "", [])
        assert json.loads(out.err) == {"error": "max_dimension must be at least 0, got -1"}
        assert not out_file.exists()


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

    def test_byte_order_mark_as_json_loads_names_it(self, tmp_path, capsys):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + (DATA / "unit_vector.json").read_bytes())
        code, out, error = self.run(capsys, "mather", str(path))
        assert (code, out) == (2, "")
        assert error == f"cannot read {path}: Unexpected UTF-8 BOM (decode using utf-8-sig): " \
            "line 1 column 1 (char 0)"

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
