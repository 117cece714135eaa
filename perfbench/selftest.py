"""Quick self-test of the benchmark (about a minute).  Run from the root of a
source checkout::

    python3 perfbench/selftest.py

It checks that

* every metric of ``BENCHMARK.json`` is emitted with its unit, untraced
  and traced, on a few operations of every workload;
* the oracle accepts the real reports and classifies the truncation false
  negative of deep covers as the documented defect;
* planted wrong verdicts (a flipped check, a dropped simplex, a changed
  repeat, an escaped exception) are failed operations that lower
  ``pass_frac``.
"""

import contextlib
import copy
import hashlib
import io
import json
import sys
from pathlib import Path

import oracle
import run

# a few operations per workload: shallow and deep covers, |Y| = 13, m = 9
PICK = {
    "cover-check": [0, 19],
    "cover-dump": [0, 1, 2, 27, 28, 29],
    "setmap-classify": [0, 7],
    "select-eps": [0, 13],
}


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def spec(root):
    with open(root / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return e2e, layer


def emitted(line):
    return {name: m["unit"] for name, m in line["metrics"].items()}


def plant(op, record, text):
    """Wrong reports and records derived from a correct one."""
    rep = json.loads(text)
    flipped = copy.deepcopy(rep)
    flipped["checks"][0]["status"] = "fail"
    flipped["overall"] = "fail"
    bad_rc = dict(record, rc=[1] * len(record["rc"]))
    yield "flipped check", json.dumps(flipped), bad_rc
    if "complex" in rep["payload"]:
        dropped = copy.deepcopy(rep)
        dropped["payload"]["complex"]["simplices"].pop()
        yield "dropped simplex", json.dumps(dropped), record
    yield "changed repeat", text, dict(record, digests=record["digests"][:1] + ["0"])
    yield "escaped exception", text, dict(record, exc=["AssertionError: planted"])


def main():
    root = Path.cwd()
    e2e, layer = spec(root)
    for workload, pick in PICK.items():
        records, verdicts, metrics = run.measure(workload, 1, 0, 0, root, pick)
        line = run.result_line(records, verdicts, metrics)
        expect(emitted(line) == e2e, f"{workload}: end-to-end metrics and units")
        expect(line["failed"] == 0, f"{workload}: the oracle accepts every report")
        if workload == "cover-check":
            expect([s for s, _ in verdicts] == ["pass", "defect"],
                   "cover-check: depth 12 is the truncation defect, depth 3 passes")
            expect(abs(line["metrics"]["pass_frac"]["value"] - 0.5) < 1e-12,
                   "cover-check: the defect lowers pass_frac")
    records, verdicts, metrics = run.measure("cover-dump", 1, 0, 1, root, PICK["cover-dump"])
    line = run.result_line(records, verdicts, metrics)
    expect(emitted(line) == layer, "cover-dump traced: per-layer metrics and units")
    m = line["metrics"]
    expect(m["nerve.truncated_witnesses"]["value"] > 0, "truncated witnesses are counted")
    expect(0 < m["nerve.dedup_ratio"]["value"] <= 1, "dedup ratio is a share")

    # planted wrong verdicts on a nerve-build report
    op = run.gen.generate("cover-dump", 2)[0]
    text, record = _call(root, op)
    expect(oracle.judge(op, text, record)[0] == "pass", "the genuine report passes")
    for what, bad_text, bad_record in plant(op, record, text):
        verdict = oracle.judge(op, bad_text, bad_record)
        expect(verdict[0] == "fail", f"planted {what} is a failed operation ({verdict[1]})")
        metrics = run.end_to_end([bad_record], [verdict], {"peak_rss_kb": 1}, 1.0)
        line = run.result_line([bad_record], [verdict], metrics)
        expect(line["failed"] == 2 and line["metrics"]["pass_frac"]["value"] == 0,
               f"planted {what} lowers pass_frac and counts as failed")
    print("selftest passed")


def _call(root, op):
    """One report of ``op`` straight from ``cli.main``, and a record of two
    identical calls as the worker would write it."""
    sys.path.insert(0, str(root / "src"))
    from poukit import cli

    path = root / ".perfbench_work" / "selftest-op.json"
    path.write_text(json.dumps(op["input"]))
    op["path"] = path.relative_to(root).as_posix()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([op["command"], op["path"]])
    text = buf.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest()
    return text, {"times": [0.01, 0.01], "calib": [0.002, 0.002], "digests": [digest] * 2,
                  "rc": [rc] * 2, "exc": []}


if __name__ == "__main__":
    main()
