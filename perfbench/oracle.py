"""Correctness oracle, independent of poukit's implementation.

Every check ``verify-all`` emits is a theorem when its inputs meet the
preconditions, which the generators guarantee, so any ``fail`` is a wrong
verdict.  Payloads are recomputed from the input file alone: ball
incidence by exact ``d^2 < r^2`` on rationals, nerves by plain subset
enumeration, and bump rows in closed form.

``judge`` returns ``(status, reason)`` with status

* ``"pass"``: every check passes and the payload is right;
* ``"defect"``: the documented truncation false negative, exactly as
  predicted (only ``canonical`` fails, and only because some witness
  carries more than ``max_dim + 1`` balls);
* ``"fail"``: anything else, including exceptions, exit codes that
  disagree with the report and repeats that are not byte-identical.
"""

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations


def incidence(cover):
    """(samples, balls, witness sets) of a JSON ball cover, exactly."""
    samples = [tuple(Fraction(c) for c in p) for p in cover["space"]["samples"]]
    balls = {
        a: (tuple(Fraction(c) for c in b["center"]), Fraction(b["radius"]))
        for a, b in cover["balls"].items()
    }
    witness = [
        sorted(a for a, (c, r) in balls.items() if _dist_sq(p, c) < r * r)
        for p in samples
    ]
    return samples, balls, witness


def _dist_sq(p, q):
    return sum((a - b) ** 2 for a, b in zip(p, q))


def nerve(witness, max_dim):
    """The witnessed nerve as ``dump_complex`` writes it."""
    simplices = set()
    for s in witness:
        for r in range(1, min(len(s), max_dim + 1) + 1):
            simplices.update(combinations(s, r))
    return {
        "vertices": sorted({a for s in witness for a in s}),
        "simplices": sorted((list(s) for s in simplices), key=lambda s: (len(s), s)),
        "witnessed": True,
    }


def faces_enumerated(witness, max_dim):
    """Sum over witnesses of sum_{1 <= i <= max_dim + 1} C(|S_w|, i)."""
    return sum(
        math.comb(len(s), i) for s in witness for i in range(1, min(len(s), max_dim + 1) + 1)
    )


def truncated(witness, max_dim):
    """Witnesses whose ball set is larger than max_dim + 1."""
    return sum(len(s) > max_dim + 1 for s in witness)


def expected_checks(bundle):
    names = [f"space[{i}]:kuratowski" for i in range(len(bundle.get("spaces", [])))]
    names += [f"unit_vector[{i}]:mather-invariants"
              for i in range(len(bundle.get("unit_vectors", [])))]
    for i in range(len(bundle.get("maps", []))):
        names += [f"map[{i}]:diagram", f"map[{i}]:llc-collapse"]
    names += [f"cover[{i}]:closure-formulas" for i in range(len(bundle.get("covers", [])))]
    for i in range(len(bundle.get("metric_covers", []))):
        names += [f"metric_cover[{i}]:{c}"
                  for c in ("index-subordinated", "canonical", "carrier-shrinks")]
    names += [f"target[{i}]:epsilon-bound" for i in range(len(bundle.get("targets", [])))]
    return sorted(names)


def judge(op, text, record):
    """Verdict on one operation from its first report and all its calls."""
    if record["exc"]:
        return "fail", "exception: " + record["exc"][0]
    if len(set(record["digests"])) != 1:
        return "fail", "repeated reports are not byte-identical"
    if len(set(record["rc"])) != 1:
        return "fail", "exit code changed between repeats"
    try:
        rep = json.loads(text)
    except ValueError:
        return "fail", f"report is not JSON (exit {record['rc'][0]}): {record.get('stderr', '')}"
    with open(op["path"], "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    failed = [c for c in rep["checks"] if c["status"] == "fail"]
    if (
        rep["command"] != op["command"]
        or rep["inputs"] != {op["path"]: digest}
        or rep["config"]["mode"] != "exact"
        or rep["overall"] != ("fail" if failed else "pass")
        or record["rc"][0] != (1 if failed else 0)
    ):
        return "fail", "report envelope or exit code is wrong"
    return COMMANDS[op["command"]](op["input"], rep, rep["config"]["max_dim"])


def judge_verify_all(bundle, rep, max_dim):
    if sorted(c["name"] for c in rep["checks"]) != expected_checks(bundle):
        return "fail", "wrong set of checks"
    if rep["payload"] != {}:
        return "fail", "unexpected payload"
    failed = [c["name"] for c in rep["checks"] if c["status"] != "pass"]
    if not failed:
        return "pass", ""
    covers = bundle.get("metric_covers", [])
    for name in failed:
        head, _, check = name.partition(":")
        if check != "canonical":
            return "fail", f"{name} failed"
        _, _, witness = incidence(covers[int(head[len("metric_cover["):-1])])
        if truncated(witness, max_dim) == 0:
            return "fail", f"{name} failed without truncated witnesses"
    return "defect", "canonical fails from --max-dim truncation"


def judge_nerve_build(cover, rep, max_dim):
    _, _, witness = incidence(cover)
    if [c["name"] for c in rep["checks"]] != ["nerve-built"] or rep["checks"][0]["status"] != "pass":
        return "fail", "wrong checks"
    if rep["payload"] != {"complex": nerve(witness, max_dim)}:
        return "fail", "nerve differs from subset enumeration"
    return "pass", ""


def judge_pou_build(cover, rep, max_dim):
    samples, balls, witness = incidence(cover)
    pou = rep["payload"].get("pou", {})
    if [c["name"] for c in rep["checks"]] != ["pou-built"]:
        return "fail", "wrong checks"
    if pou.get("ground") != cover["space"] or pou.get("indices") != sorted(balls):
        return "fail", "wrong ground or indices"
    rows = pou.get("rows", {})
    if set(rows) != {str(i) for i in range(len(samples))}:
        return "fail", "rows do not match the samples"
    exact = cover["space"]["dim"] == 1
    for i, (p, carrier) in enumerate(zip(samples, witness)):
        row = rows[str(i)]
        if sorted(row) != carrier:
            return "fail", f"row {i} carrier is not the set of balls with d^2 < r^2"
        if exact:
            bumps = {a: balls[a][1] - abs(p[0] - balls[a][0][0]) for a in carrier}
            total = sum(bumps.values())
            if any(Fraction(row[a]) != g / total for a, g in bumps.items()):
                return "fail", f"row {i} is not the exact bump row"
        else:
            bumps = {a: float(balls[a][1]) - math.sqrt(float(_dist_sq(p, balls[a][0])))
                     for a in carrier}
            total = sum(bumps.values())
            vals = {a: float(v) for a, v in row.items()}
            if abs(sum(vals.values()) - 1) > 1e-9 or any(
                not v > 0 or abs(v - bumps[a] / total) > 1e-9 for a, v in vals.items()
            ):
                return "fail", f"row {i} is not the bump row"
    return "pass", ""


def judge_canonical_check(obj, rep, max_dim):
    _, _, witness = incidence(obj["cover"])
    checks = rep["checks"]
    if [c["name"] for c in checks] != ["canonical"]:
        return "fail", "wrong checks"
    if rep["payload"] != {"nerve": nerve(witness, max_dim)}:
        return "fail", "nerve differs from subset enumeration"
    if checks[0]["status"] == "pass":
        return "pass", ""
    # the truncation false negative: exactly the samples whose ball set has
    # more than max_dim + 1 members miss the truncated nerve
    w = checks[0]["witness"]
    n = truncated(witness, max_dim)
    if n and not w["star_violations"] and len(w["membership_violations"]) == n:
        return "defect", "canonical fails from --max-dim truncation"
    return "fail", "canonical failed"


COMMANDS = {
    "verify-all": judge_verify_all,
    "nerve-build": judge_nerve_build,
    "pou-build": judge_pou_build,
    "canonical-check": judge_canonical_check,
}
