"""Run-to-run spread of the end-to-end metrics, and a baseline record.

    python3 bench/spread.py [--seeds 1-10] [--workload W ...]
                            [--out FILE] [--compare FILE]

Runs the benchmark once per seed and workload with tracing off and, per
end-to-end metric, prints the median and the spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median. A spread above the metric's bound in BENCHMARK.json
fails (except setup_s, whose bound only limits drift of the median).
--out writes the per-run values, medians and spreads with the git
commit, core count and library versions; --compare checks that no median
is worse than the one in an earlier such file by more than the bound.
Exits 1 when a check fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment():
    def version(mod):
        try:
            return __import__(mod).__version__
        except ImportError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {"git_sha": sha or None, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "mpmath": version("mpmath"),
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def one_run(workload, seed):
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=400)
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-1000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = elapsed
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workload", action="append")
    p.add_argument("--out")
    p.add_argument("--compare")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    earlier = json.loads(Path(args.compare).read_text(encoding="utf-8")) \
        if args.compare else None
    record = {"environment": environment(), "seeds": args.seeds,
              "workloads": {}}
    ok = True
    for w in workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            r = one_run(w, seed)
            runs.append(r)
            print(f"{w} seed {seed}: {r['run_s']:.1f} s, correct "
                  f"{r['correct']}, " + ", ".join(
                      f"{k} {v['value']:.5g}" for k, v in
                      r["metrics"].items()), flush=True)
            ok &= r["correct"]
        entry = {"runs": [{"seed": s, "run_s": r["run_s"],
                           "correct": r["correct"],
                           "attempted": r["attempted"],
                           "failed": r["failed"],
                           "metrics": {k: v["value"]
                                       for k, v in r["metrics"].items()}}
                          for s, r in zip(seeds_of(args.seeds), runs)],
                 "metrics": {}}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            entry["metrics"][name] = s
            verdict = "ok"
            if name != "setup_s" and s["spread"] > bound:
                verdict, ok = "SPREAD ABOVE BOUND", False
            elif s["spread"] > bound / 3:
                verdict = "above a third of the bound"
            if earlier is not None:
                before = earlier["workloads"][w]["metrics"][name]["median"]
                drift = s["median"] / before - 1.0
                s["drift"] = drift
                if drift > bound:
                    verdict, ok = f"MEDIAN WORSE BY {drift:.3f}", False
            print(f"{w}: {name} median {s['median']:.5g}, spread "
                  f"{s['spread']:.4f} (bound {bound}) "
                  + (f"drift {s['drift']:+.4f} " if "drift" in s else "")
                  + verdict, flush=True)
        record["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
