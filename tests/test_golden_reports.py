"""Byte identity of every report on the shipped inputs.

Each of the nine commands runs on each ``data/`` file in both modes with
``--seed 7``, in process, from the repository root with a relative input
path (reports embed it); ``nerve-build`` and ``canonical-check`` run again
at ``--max-dim`` 0, 1 and -1, which truncate the dump of
``deep_ball_cover.json`` or reject the bound.  ``strip_ball_cover.json``,
a ball cover of dimension 2 that is also a ``canonical-check`` input and a
``verify-all`` bundle, pins the square-root bumps.  ``golden_reports.json``
pins the SHA-256 of ``[stdout, stderr, exit code]`` as JSON for each of the
300 runs.  Run as a
script, it compares the digests, names each run that differs and exits 1
if any does; it does not import pytest, so any supported Python can run it::

    PYTHONPATH=src python tests/test_golden_reports.py

Only ``--write`` rewrites the file, for a change that alters a report on
purpose and names that change.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

from poukit.cli import COMMANDS, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_reports.json"
DATA = [f"data/{path.name}" for path in sorted((ROOT / "data").glob("*.json"))]
RUNS = [
    (command, path, mode)
    for command in sorted(COMMANDS)
    for path in DATA
    for mode in ("exact", "float")
] + [
    (command, path, mode, "--max-dim", dim)
    for command in ("canonical-check", "nerve-build")
    for path in DATA
    for mode in ("exact", "float")
    for dim in ("0", "1", "-1")
]


def digest(command, path, mode, *flags):
    """SHA-256 of ``[stdout, stderr, exit code]`` of one run; the working
    directory must be the repository root."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, path, "--mode", mode, "--seed", "7", *flags])
    text = json.dumps([out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(text.encode()).hexdigest()


def pytest_generate_tests(metafunc):
    """One ``test_report_bytes`` per run, named by the run."""
    if "run" in metafunc.fixturenames:
        metafunc.parametrize("run", RUNS, ids=" ".join)


def test_every_run_is_pinned():
    assert len(RUNS) == 300
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(" ".join(r) for r in RUNS)


def test_report_bytes(run, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert digest(*run) == json.loads(GOLDEN.read_text())[" ".join(run)]


if __name__ == "__main__":
    os.chdir(ROOT)
    golden = {" ".join(run): digest(*run) for run in RUNS}
    if "--write" in sys.argv[1:]:
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        sys.exit(0)
    pinned = json.loads(GOLDEN.read_text())
    differ = sorted(r for r in golden.keys() | pinned.keys() if golden.get(r) != pinned.get(r))
    for run in differ:
        print(f"differs: {run}")
    print(f"{len(golden) - len(differ)} of {len(golden)} runs match")
    sys.exit(1 if differ else 0)
