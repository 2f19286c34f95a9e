"""Workload process: one pass of a workload's CLI calls in a closed loop.

Usage: python3 bench/worker.py PLAN RESULT TRACE
       python3 bench/worker.py setup

The second form times a fresh interpreter's set-up and prints it.

With TRACE 0 it times one pass: the plan's items in order, each call
waiting for the previous one. With TRACE 1 it makes one untraced pass,
then one pass with spans recorded. The plan's edge probes run after the
pass, untimed (traced with TRACE 1). Calls go through
``freeplate.cli.main(argv)`` with stderr captured; outputs are read back
outside the timed region.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedSampler  # noqa: E402


def setup_probe():
    """Fresh-interpreter set-up: import plus the first call's lazy caches."""
    import freeplate
    from freeplate import ball, specfun

    specfun.first_zero_j1prime(2)
    ball.membrane_C(2)
    return freeplate


def call(cli, argv, speed):
    """One CLI call: (elapsed seconds less speed sampling, record)."""
    err = io.StringIO()
    rc, exc = None, None
    with contextlib.redirect_stderr(err):
        h = speed.handler_s
        t = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # the benchmark must see every failure
            exc = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t - (speed.handler_s - h)
    return elapsed, {"rc": rc, "exc": exc, "stderr": err.getvalue()}


def read_out(argv):
    path = Path(argv[argv.index("--out") + 1])
    return path.read_text(encoding="utf-8") if path.exists() else None


def run_pass(cli, items, speed=None):
    """One pass over the items: (per-call seconds, records)."""
    speed = speed or SpeedSampler()     # an inactive sampler adds nothing
    times, records = [], []
    for item in items:
        argv = item["argv"]
        Path(argv[argv.index("--out") + 1]).unlink(missing_ok=True)
        elapsed, rec = call(cli, argv, speed)
        rec["out"] = read_out(argv)
        times.append(elapsed)
        records.append(rec)
    return times, records


def dims_of(items):
    return sorted({d for it in items for d in it.get("dims", [it.get("d")])
                   if d is not None})


def main(plan_path, result_path, trace):
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    freeplate = setup_probe()
    from freeplate import cli, specfun

    if not Path(freeplate.__file__).resolve().is_relative_to(
            Path(plan["src"]).resolve()):
        print(f"freeplate imported from {freeplate.__file__}, not from "
              f"{plan['src']}", file=sys.stderr)
        return 2
    for d in dims_of(plan["items"]):     # lazy caches fill before timing
        specfun.first_zero_j1prime(d)

    items = plan["items"]
    result = {}
    if not trace:
        with SpeedSampler() as speed:
            t = time.perf_counter()
            result["times"], result["records"] = run_pass(cli, items, speed)
            result["wall_s"] = time.perf_counter() - t
        result["slowdown"] = speed.slowdown()
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import tracer

        t = time.perf_counter()
        run_pass(cli, items)
        result["untraced_wall_s"] = time.perf_counter() - t
        spans = tracer.Tracer()
        tracer.install(spans)
        t = time.perf_counter()
        result["times"], result["records"] = run_pass(cli, items)
        result["traced_wall_s"] = time.perf_counter() - t
        result["pass_span_s"] = spans.root_seconds()
    result["probes"] = run_pass(cli, plan["probes"])[1]
    if trace:
        result["layers"] = tracer.layer_metrics(spans)
        spans.dump(plan["spans_path"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["setup"]:
        with SpeedSampler() as speed:
            setup_probe()
        print(json.dumps({"raw_s": time.perf_counter() - T0 - speed.handler_s,
                          "slowdown": speed.slowdown()}))
        sys.exit(0)
    sys.exit(main(sys.argv[1], sys.argv[2], int(sys.argv[3])))
