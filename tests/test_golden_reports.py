"""Byte identity of every report on the shipped inputs.

Each of the nine commands runs on each ``data/`` file in both modes with
``--seed 7``, in process, from the repository root with a relative input
path (reports embed it).  ``golden_reports.json`` pins the SHA-256 of
``[stdout, stderr, exit code]`` as JSON for each of the 144 runs.  A change
that alters a report on purpose rewrites the file and names the change::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib

import pytest

from poukit.cli import COMMANDS, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_reports.json"
RUNS = [
    (command, f"data/{path.name}", mode)
    for command in sorted(COMMANDS)
    for path in sorted((ROOT / "data").glob("*.json"))
    for mode in ("exact", "float")
]


def digest(command, path, mode):
    """SHA-256 of ``[stdout, stderr, exit code]`` of one run; the working
    directory must be the repository root."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, path, "--mode", mode, "--seed", "7"])
    text = json.dumps([out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_run_is_pinned():
    assert len(RUNS) == 144
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(" ".join(r) for r in RUNS)


@pytest.mark.parametrize("run", RUNS, ids=" ".join)
def test_report_bytes(run, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert digest(*run) == json.loads(GOLDEN.read_text())[" ".join(run)]


if __name__ == "__main__":
    os.chdir(ROOT)
    golden = {" ".join(run): digest(*run) for run in RUNS}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
