"""The poukit benchmark.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cover-check --seed 1 --seconds 20 --trace 0

It generates a seeded operation pool (``gen.py``), measures the set-up cost
of a fresh ``import poukit.cli``, drives ``poukit.cli.main`` in a fresh
worker process (``worker.py``: closed loop, one client, no threads of its
own), judges every report with an oracle that does not use poukit
(``oracle.py``), and prints one JSON object as the last line of standard
output.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``; the
timed loop runs whole passes over the pool until ``--seconds`` have passed,
and at least two, so every operation is repeated.  ``--trace 1`` runs one
untraced and one traced pass over the same pool and reports the per-layer
metrics; spans and counters go to a sidecar file under ``.perfbench_work/``.

Times are calibrated (``calib.py``): the worker times a fixed kernel that
calls no poukit code after every call, and each call's wall time is scaled
by ``CAL_REF_S`` over the median kernel time of the 7 calls around it; each
set-up spawn is scaled by the kernel timed just before it.  On a shared
two-core virtual machine the CPU speed drifts by 20-40% within a minute,
and the drift hits the kernel and poukit alike, so scaled times read as
times on a machine where the kernel takes 2 ms and vary far less between
runs.  Raw wall times stay in the per-operation log.

Per-operation sizes, times and verdicts are written to
``.perfbench_work/<workload>-s<seed>-t<trace>.ops.json``.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
from calib import CAL_REF_S, calibrate  # noqa: E402

SETUP_REPS = 9
DEADLINE_S = 170
CAL_WINDOW = 3

# size buckets for the scaling curves: axis -> [(lo, hi), ...]
CURVES = {
    "depth": [(3, 5), (6, 9), (10, 12)],
    "n": [(20, 29), (30, 40)],
    "k": [(5, 9), (10, 13), (14, 18)],
    "X": [(6, 10), (11, 16)],
    "Y": [(6, 8), (9, 10), (11, 13)],
    "m": [(3, 4), (5, 6), (7, 9)],
}


def measure_setup(src):
    """Median calibrated wall time of a fresh interpreter running
    ``import poukit.cli``.  One unmeasured run first fills the bytecode
    cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import poukit.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=60)
    times = []
    for _ in range(SETUP_REPS):
        kernel = statistics.median(calibrate() for _ in range(3))
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        times.append((time.perf_counter() - t0) * CAL_REF_S / kernel)
    return statistics.median(times)


def write_pool(ops, rundir, root):
    plan_ops = []
    for i, op in enumerate(ops):
        path = (rundir / f"op{i:04d}.json").relative_to(root).as_posix()
        with open(path, "w") as fh:
            json.dump(op["input"], fh)
        op["path"], op["report"] = path, str(rundir / f"rep{i:04d}.json")
        plan_ops.append({"argv": [op["command"], path, *op["args"]], "report": op["report"]})
    return plan_ops


def run_worker(plan, rundir, deadline):
    plan_path, result_path = rundir / "plan.json", rundir / "result.json"
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
        check=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    with open(result_path) as fh:
        return json.load(fh)


def judge_all(ops, records):
    verdicts = []
    for op, rec in zip(ops, records):
        with open(op["report"]) as fh:
            text = fh.read()
        try:
            verdicts.append(oracle.judge(op, text, rec))
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            verdicts.append(("fail", f"malformed report: {exc!r}"))
    return verdicts


def curves(ops, times):
    out = {}
    for axis, buckets in CURVES.items():
        for lo, hi in buckets:
            sel = [t for op, t in zip(ops, times) if lo <= op["sizes"].get(axis, -1) <= hi]
            out[f"curve.{axis}.{lo}-{hi}"] = 1000 * statistics.median(sel) if sel else 0.0
    return out


def calibrated(records):
    """Per record, its call times scaled to the calibration kernel's
    reference speed, using the kernel times of neighbouring calls."""
    passes = len(records[0]["times"])
    order = [(r, p) for p in range(passes) for r in range(len(records))]
    cal = [records[r]["calib"][p] for r, p in order]
    out = [[0.0] * passes for _ in records]
    for k, (r, p) in enumerate(order):
        local = statistics.median(cal[max(0, k - CAL_WINDOW): k + CAL_WINDOW + 1])
        out[r][p] = records[r]["times"][p] * CAL_REF_S / local
    return out


def end_to_end(records, verdicts, result, setup_s):
    times = [t for ts in calibrated(records) for t in ts]
    passed = sum(len(r["times"]) for r, (s, _) in zip(records, verdicts) if s == "pass")
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (1000 * statistics.median(times), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(times, n=10, method="inclusive")[8], "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "pass_frac": (passed / len(times), "frac"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(ops, records, result):
    layers = dict(result["layers"])
    witness = {}
    faces = truncated = 0
    for i, max_dim, _, all_witnesses in result["nerve_calls"]:
        if not all_witnesses:
            continue
        if i not in witness:
            witness[i] = oracle.incidence(_cover_of(ops[i]))[2]
        faces += oracle.faces_enumerated(witness[i], max_dim)
        truncated += oracle.truncated(witness[i], max_dim)
    simplices = sum(c[2] for c in result["nerve_calls"])
    pairs = sum(op["sizes"]["n"] * op["sizes"]["k"] for op in ops if "depth" in op["sizes"])
    times = calibrated(records)
    untraced = sum(t[0] for t in times)
    traced = sum(t[1] for t in times)
    layers.update({
        "nerve.simplices": simplices,
        "nerve.faces_enumerated": faces,
        "nerve.dedup_ratio": simplices / faces if faces else 0.0,
        "nerve.truncated_witnesses": truncated,
        "spaces.ball_membership.per_pair":
            layers["spaces.ball_membership.calls"] / pairs if pairs else 0.0,
        "cli.report_bytes": sum(r["report_bytes"] for r in records),
        "trace.overhead_frac": traced / untraced - 1,
    })
    layers.update(curves(ops, [t[0] for t in times]))
    return {name: (value, unit_of(name)) for name, value in layers.items()}


def _cover_of(op):
    obj = op["input"]
    if "metric_covers" in obj:
        return obj["metric_covers"][0]
    return obj.get("cover", obj)


def unit_of(name):
    if name.startswith("curve."):
        return "ms"
    if name.startswith("share.") or name.endswith(("_frac", "_ratio", ".per_pair")):
        return "frac"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def measure(workload, seed, seconds, trace, root, pick=None):
    """One run: set-up timing, generation, the worker, the oracle and the
    metrics.  ``pick`` restricts the pool to the given operation indices."""
    deadline = time.monotonic() + DEADLINE_S
    src = root / "src"
    work = root / ".perfbench_work"
    tag = f"{workload}-s{seed}-t{trace}"
    rundir = work / f"{tag}-{os.getpid()}"
    rundir.mkdir(parents=True)
    try:
        setup_s = None if trace else measure_setup(src)
        ops = gen.generate(workload, seed)
        if pick is not None:
            ops = [ops[i] for i in pick]
        plan = {
            "src": str(src), "ops": write_pool(ops, rundir, root),
            "seconds": seconds, "trace": trace,
            "sidecar": str(work / f"{tag}.trace.json"),
        }
        result = run_worker(plan, rundir, deadline)
        records = result["records"]
        verdicts = judge_all(ops, records)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if trace:
        metrics = per_layer(ops, records, result)
    else:
        metrics = end_to_end(records, verdicts, result, setup_s)
    with open(work / f"{tag}.ops.json", "w") as fh:
        json.dump([
            {"command": op["command"], "sizes": op["sizes"], "status": s, "reason": why,
             "times_ms": [1000 * t for t in rec["times"]],
             "calib_ms": [1000 * t for t in rec["calib"]]}
            for op, rec, (s, why) in zip(ops, records, verdicts)
        ], fh)
    statuses = [s for s, _ in verdicts]
    raw = [t for rec in records for t in rec["times"]]
    kernel = statistics.median(t for rec in records for t in rec["calib"])
    print(f"{tag}: {len(ops)} operations x {result['cycles']} passes in "
          f"{result['elapsed_s']:.1f} s; pass {statuses.count('pass')}, "
          f"truncation defect {statuses.count('defect')}, fail {statuses.count('fail')}; "
          f"raw p50 {1000 * statistics.median(raw):.2f} ms, kernel {1000 * kernel:.3f} ms")
    for (s, why), op in zip(verdicts, ops):
        if s == "fail":
            print(f"  FAIL {op['command']} {op['sizes']}: {why}")
    return records, verdicts, metrics


def result_line(records, verdicts, metrics):
    failed = sum(len(r["times"]) for r, (s, _) in zip(records, verdicts) if s == "fail")
    return {
        "correct": failed == 0,
        "attempted": sum(len(r["times"]) for r in records),
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "poukit" / "cli.py").is_file():
        print(f"no poukit source tree under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    out = measure(args.workload, args.seed, args.seconds, args.trace, root)
    print(json.dumps(result_line(*out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
