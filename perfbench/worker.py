"""Closed-loop client of ``poukit.cli.main``, run as a fresh process.

One client, no threads: each operation calls ``cli.main([...])`` in-process
and waits for its report before the next starts.  Usage::

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan names the source tree, the operations (argv lists), the mode and
the run length.  Untraced mode runs whole cycles over the operations until
``seconds`` have passed, at least two, timing every call.  Traced mode runs
one untraced cycle and then one traced cycle over the same operations.
Every call's report is hashed so repeats can be compared; the first report
of each operation is written next to its input for the oracle.

After every call, outside its timing, the worker times the calibration
kernel (``calib.py``); the runner scales operation times by it.
"""

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time

from calib import calibrate


def call(cli, argv):
    """One timed ``cli.main`` call; every exception is caught and recorded."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    rc = None
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejects its arguments this way
        exc = f"SystemExit: {e.code}"
    except Exception as e:  # noqa: BLE001 - every escape is a failed operation
        exc = f"{type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    return dt, rc, exc, out.getvalue(), err.getvalue()


def run_cycle(cli, ops, rec, tracer=None):
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        dt, rc, exc, text, err = call(cli, op["argv"])
        r = rec[i]
        r["times"].append(dt)
        r["calib"].append(calibrate())
        r["digests"].append(hashlib.sha256(text.encode()).hexdigest())
        r["rc"].append(rc)
        if exc and exc not in r["exc"]:
            r["exc"].append(exc)
        if "report_bytes" not in r:
            r["report_bytes"] = len(text.encode())
            r["stderr"] = err[:2000]
            with open(op["report"], "w") as fh:
                fh.write(text)


def main(plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from poukit import cli

    ops = plan["ops"]
    rec = [{"times": [], "calib": [], "digests": [], "rc": [], "exc": []} for _ in ops]
    result = {"records": rec}
    t_start = time.perf_counter()
    if not plan["trace"]:
        cycles = 0
        while cycles < 2 or time.perf_counter() - t_start < plan["seconds"]:
            run_cycle(cli, ops, rec)
            cycles += 1
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from tracing import Tracer

        run_cycle(cli, ops, rec)
        tracer = Tracer()
        tracer.install()
        run_cycle(cli, ops, rec, tracer)
        cycles = 2
        result["layers"] = tracer.layer_metrics()
        result["nerve_calls"] = tracer.nerve_calls
        with open(plan["sidecar"], "w") as fh:
            json.dump(tracer.sidecar(), fh, separators=(",", ":"))
    result["cycles"] = cycles
    result["elapsed_s"] = time.perf_counter() - t_start
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
