"""Freeplate benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

W is verify-suite, tone-single, quotient-domains, or all. Run from the
root of a checkout; the program is imported from its src/ directory.

With --trace 0 it times set-up (fresh interpreters, median of three) and
passes of CLI calls in fresh workload processes (worker.py) with tracing
off, and reports the end-to-end metrics listed in BENCHMARK.json at the
reference speed of speed.py. With --trace 1 it makes one
untraced and one traced pass and reports the per-layer metrics, the
accuracy and failure rates, and the tracing overhead. Every call's output
is checked (checks.py) outside the timed region and outside set-up. The
last line of stdout is one JSON object: correct, attempted, failed
(timed calls that raised or exited nonzero) and metrics.
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
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 3
MIN_PROCESSES = 3     # every call is timed in at least three processes
WORKER_TIMEOUT = 150.0
SETUP_TIMEOUT = 20.0


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args, timeout):
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")]
                              + args, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past {timeout:g} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_seconds():
    """Set-up of fresh interpreters: median raw seconds and median seconds
    at the reference speed (see speed.py)."""
    probes = [json.loads(run_child(["setup"], SETUP_TIMEOUT))
              for _ in range(SETUP_RUNS)]
    return (statistics.median(p["raw_s"] for p in probes),
            statistics.median(p["raw_s"] / p["slowdown"] for p in probes))


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def rates(outcomes, probe_outcomes, passes):
    """fail_rate and wrong_rate over every call attempted, probes included.

    Later passes repeat the first pass's calls and byte-identical results,
    so each item's outcome counts once per pass.
    """
    attempted = passes * len(outcomes) + len(probe_outcomes)

    def count(status):
        return passes * sum(o.status == status for o in outcomes) \
            + sum(o.status == status for o in probe_outcomes)

    return count("fail") / attempted, count("wrong") / attempted


def defect_lines(workload, outcomes, probe_outcomes):
    from checks import KNOWN_DEFECTS

    lines = []
    for label, group in (("item", outcomes), ("probe", probe_outcomes)):
        for o in group:
            if o.status == "ok":
                continue
            tag = o.defect or "UNEXPLAINED"
            lines.append(f"{workload}: {label} {o.status} [{tag}] "
                         f"{'; '.join(o.reasons)[:300]}")
    for key, text in KNOWN_DEFECTS.items():
        lines.append(f"{workload}: known seed defect {key}: {text}")
    return lines


def run_workload(workload, seed, seconds, trace, spec_):
    import workloads

    work = ROOT / ".bench_run" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.make(workload, seed, work)
        plan["src"] = str(SRC)
        if trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            plan["spans_path"] = str(out_dir / f"spans-{workload}-{seed}.json")
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        bare_path = work / "plan-no-probes.json"
        bare_path.write_text(json.dumps(dict(plan, probes=[])),
                             encoding="utf-8")
        setup = (None, None) if trace else setup_seconds()
        runs = []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            result_path = work / f"result-{len(runs)}.json"
            run_child([str(bare_path if runs else plan_path),
                       str(result_path), str(int(trace))], WORKER_TIMEOUT)
            runs.append(json.loads(result_path.read_text(encoding="utf-8")))
            last = time.perf_counter() - t
            if trace or (len(runs) >= MIN_PROCESSES and
                         time.perf_counter() - start + last > seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return evaluate(workload, plan, runs, setup, trace, spec_)


def evaluate(workload, plan, runs, setup, trace, spec_):
    from checks import CHECKS, check_tone

    items, probes = plan["items"], plan["probes"]
    res = runs[0]
    outcomes = [CHECKS[workload](it, rec)
                for it, rec in zip(items, res["records"])]
    probe_outcomes = [check_tone(it, rec, False)
                      for it, rec in zip(probes, res["probes"])]
    passes = len(runs)
    nondeterministic = any(r["records"] != res["records"] for r in runs)
    fail_rate, wrong_rate = rates(outcomes, probe_outcomes, passes)
    digits = {"omega": [], "q": []}
    for o in outcomes:
        for kind, value in o.digits:
            digits[kind].append(value)
    correct = all(o.explained for o in outcomes + probe_outcomes) \
        and not nondeterministic
    # each call's least-disturbed repeat: the program is deterministic, so
    # every pass repeats the same work, and the fastest one is the one the
    # shared machine slowed least (see README.md)
    best = [min(ts) for ts in zip(*(r["times"] for r in runs))]
    scaled = [min(ts) for ts in zip(*([t / r["slowdown"] for t in r["times"]]
                                      for r in runs))] if not trace else best
    attempted = passes * len(items)
    failed = passes * sum(o.status == "fail" for o in outcomes)
    values = {
        "fail_rate": fail_rate,
        "wrong_rate": wrong_rate,
        "omega_digits": min(digits["omega"], default=0.0),
        "q_digits": min(digits["q"], default=0.0),
    }
    notes = [f"{workload}: {attempted} timed calls in {passes} pass(es) of "
             f"{len(items)}; {len(probes)} untimed probes; seed "
             f"{plan['seed']}"]
    if nondeterministic:
        notes.append(f"{workload}: outputs differ between passes")
    if trace:
        lay = dict(res["layers"])
        info = [o.info for o in outcomes]
        lay["verify.rows"] = sum(i.get("rows", 0) for i in info)
        lay["verify.rows_failed"] = sum(i.get("rows_failed", 0) for i in info)
        lay["geom.rel_err_bar"] = max(
            (i["rel_err_bar"] for i in info if "rel_err_bar" in i),
            default=0.0)
        lay["trace.wall_s"] = res["traced_wall_s"]
        lay["trace.untraced_wall_s"] = res["untraced_wall_s"]
        lay["trace.overhead_s"] = res["traced_wall_s"] - res["untraced_wall_s"]
        lay["trace.coverage"] = res["pass_span_s"] / res["traced_wall_s"]
        values.update(lay)
        listed = spec_["per_layer"]
    else:
        raw = {"setup_s": setup[0], "wall_s": sum(best),
               "item_p50_s": statistics.median(best),
               "item_p90_s": quantile(best, 0.9)}
        values.update({"setup_s": setup[1], "wall_s": sum(scaled),
                       "item_p50_s": statistics.median(scaled),
                       "item_p90_s": quantile(scaled, 0.9),
                       "peak_rss_mb": max(r["peak_rss_mb"] for r in runs)})
        listed = spec_["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    lines = notes + [f"{workload}: {name} = {v['value']:.6g} {v['unit']}"
                     for name, v in metrics.items()]
    if not trace:
        lines += [f"{workload}: {k} = {values[k]:.6g}"
                  for k in ("fail_rate", "wrong_rate", "omega_digits",
                            "q_digits")]
        lines.append(f"{workload}: raw "
                     + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
                     + "; per pass: raw wall, slowdown "
                     + ", ".join(f"{r['wall_s']:.4g} {r['slowdown']:.3f}"
                                 for r in runs))
    lines += defect_lines(workload, outcomes, probe_outcomes)
    return lines, {"correct": bool(correct), "attempted": attempted,
                   "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        spec_ = spec()
        names = [w["name"] for w in spec_["workloads"]]
        chosen = names if args.workload == "all" else [args.workload]
        if not set(chosen) <= set(names):
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {names} or all")
        if not (SRC / "freeplate" / "__init__.py").is_file():
            raise BenchError(f"no freeplate sources under {SRC}")
        sys.path.insert(0, str(SRC))
        seconds = args.seconds if args.seconds is not None \
            else spec_["run_seconds"]
        results = []
        for w in chosen:
            lines, result = run_workload(w, args.seed, seconds, args.trace,
                                         spec_)
            print("\n".join(lines), flush=True)
            results.append((w, result))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[0][1]
    else:
        for w, r in results:
            print(json.dumps({"workload": w, **r}))
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{w}/{k}": v for w, r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
