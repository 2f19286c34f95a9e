"""Steadiness check of the traced run.

    python3 bench/steady.py [--seed N] [--workload W ...]

Runs the traced benchmark twice per workload with one seed and checks
that the work counts repeat exactly and that the spans cover the traced
wall time: the summed self times of all spans (which equal the summed
root spans) must lie within COVERAGE_TOL of the traced pass's wall time,
the rest being the benchmark's own loop between calls. Exits 1 when a
check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT = ("specfun.calls", "ball.solves", "geom.contains_points",
         "verify.rows", "trial.evals", "specfun.points", "trace.spans")
COVERAGE_TOL = 0.02
WORKLOADS = ("verify-suite", "tone-single", "quotient-domains")


def traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=400)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-1000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = p.parse_args(argv)
    ok = True
    for w in args.workload or WORKLOADS:
        first, second = traced(w, args.seed), traced(w, args.seed)
        for name in EXACT:
            same = first[name] == second[name]
            ok &= same
            print(f"{w}: {name} {first[name]} / {second[name]} "
                  f"{'repeats' if same else 'DIFFERS'}")
        for run in (first, second):
            cov = run["trace.coverage"]
            good = abs(1.0 - cov) <= COVERAGE_TOL
            ok &= good
            print(f"{w}: span coverage of traced wall {cov:.4f} "
                  f"({'within' if good else 'OUTSIDE'} {COVERAGE_TOL:g}); "
                  f"tracing overhead {run['trace.overhead_s']:+.3f} s of "
                  f"{run['trace.untraced_wall_s']:.3f} s")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
