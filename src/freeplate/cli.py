"""Command line front end.

Four subcommands: tone solves the fundamental mode of the ball, sweep
tabulates the tone against its linear bounds over a tension range, verify
runs the lemma suite, quotient evaluates the trial-quotient upper bound on
a configured domain. Exit codes: 0 success or all checks passed, 1 a
verification check failed, 2 bad input or solver failure.
"""

import argparse
import sys
from functools import lru_cache

import numpy as np

from . import ball, geom, verify
from .report import format_float, reports_to_csv


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_tone(args):
    # the one-tension solve's own path, with the residuals of its check
    mode, mres, vres = ball._solve(args.tau, args.dim, args.radius)
    lines = [f"d = {mode.d}",
             f"tau = {format_float(mode.tau)}",
             f"radius = {format_float(mode.radius)}",
             f"a = {format_float(mode.a)}",
             f"b = {format_float(mode.b)}",
             f"gamma = {format_float(mode.gamma)}",
             f"omega = {format_float(mode.omega)}",
             f"moment_residual = {format_float(mres)}",
             f"shear_residual = {format_float(vres)}"]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sweep(args):
    if args.tau_steps < 2:
        raise ValueError("sweep needs at least 2 steps")
    if not np.isfinite((args.tau_min, args.tau_max)).all():
        raise ValueError("tau-min and tau-max must be finite")
    if args.tau_min <= 0.0:
        raise ValueError("tau must be positive")
    if args.tau_max <= args.tau_min:
        raise ValueError("tau-max must exceed tau-min")
    if args.log:
        taus = np.logspace(np.log10(args.tau_min), np.log10(args.tau_max),
                           args.tau_steps)
    else:
        taus = np.linspace(args.tau_min, args.tau_max, args.tau_steps)
    rows = ["tau,omega,lower,upper_coord,upper_membrane,ratio"]
    failed = False
    for tau in taus:
        tau = float(tau)
        lower, up_c, up_m = ball.tone_bounds(tau, args.dim)
        try:
            omega = ball.fundamental_tone(tau, args.dim).omega
            w, ratio = format_float(omega), format_float(omega / tau)
        except (RuntimeError, ValueError, OverflowError) as exc:
            print(f"solver failed at tau = {tau:g}: {exc}", file=sys.stderr)
            w, ratio = "", ""
            failed = True
        rows.append(",".join([format_float(tau), w, format_float(lower),
                              format_float(up_c), format_float(up_m), ratio]))
    _emit("\n".join(rows) + "\n", args.out)
    return 2 if failed else 0


def cmd_verify(args):
    try:
        dims = sorted({int(t) for t in args.dims.split(",")})
    except ValueError:
        raise ValueError("dims must be a comma-separated list of integers") \
            from None
    if not dims or dims[0] < 2 or dims[-1] > 30:
        raise ValueError("dims must lie in [2, 30]")
    reports = []
    for k, d in enumerate(dims):
        reports.extend(verify.full_suite(d, include_global=(k == 0)))
    reports.sort(key=lambda r: r.lemma_id)
    _emit(reports_to_csv(reports), args.out)
    failing = [r.lemma_id for r in reports if not r.passed]
    if failing:
        print("failing lemmas: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


def cmd_quotient(args):
    domain = geom.load_domain(args.domain)
    if args.dim is not None and args.dim != domain.d:
        raise ValueError("dim disagrees with the domain config")
    d = domain.d
    dom = geom.normalize_volume(domain)
    # --samples and --seed where given, else the kind's own defaults
    quad = geom.QuadratureSpec(args.quad, **{
        k: v for k, v in (("samples", args.samples), ("seed", args.seed))
        if v is not None})
    mode = ball.fundamental_tone(args.tau, d)
    # quotient_bound's own path past its normalization, at s = 1
    Q, err = geom._quotient(dom, mode, quad, tol=args.tol)
    omega = mode.omega
    margin = omega - Q
    sigmas = margin / err if err > 0.0 else float("inf")
    beyond = margin > 5.0 * err
    lines = [f"domain = {dom.shape} (d = {d}, volume normalized)",
             f"tau = {format_float(args.tau)}",
             f"Q = {format_float(Q)}",
             f"omega = {format_float(omega)}",
             f"margin = {format_float(margin)}",
             f"error_bar = {format_float(err)}",
             f"separation_sigmas = {format_float(sigmas)}",
             f"Q_below_omega_beyond_bars = {'yes' if beyond else 'no'}"]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


@lru_cache(maxsize=None)
def build_parser():
    p = argparse.ArgumentParser(
        prog="freeplate",
        description="Fundamental tone of the free plate under tension: "
                    "ball solver, bound sweeps, lemma verification, and "
                    "trial-quotient bounds on general domains.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tone", help="solve the fundamental mode of a ball")
    t.add_argument("--dim", type=int, default=2)
    t.add_argument("--tau", type=float, required=True)
    t.add_argument("--radius", type=float, default=1.0)
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_tone)

    s = sub.add_parser("sweep", help="CSV of tone and bounds over a "
                                     "tension range")
    s.add_argument("--dim", type=int, default=2)
    s.add_argument("--tau-min", type=float, required=True)
    s.add_argument("--tau-max", type=float, required=True)
    s.add_argument("--tau-steps", type=int, default=50)
    s.add_argument("--log", action="store_true")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run the lemma suite, CSV report")
    v.add_argument("--dims", default="2,3,4,5")
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    q = sub.add_parser("quotient", help="trial-quotient upper bound on a "
                                        "configured domain")
    q.add_argument("--domain", required=True,
                   help="path to a key=value domain config")
    q.add_argument("--dim", type=int, default=None)
    q.add_argument("--tau", type=float, required=True)
    q.add_argument("--quad", choices=tuple(geom._SAMPLES), default="radial")
    q.add_argument("--samples", type=int, default=None,
                   help="directions (radial), cells per axis (grid) or "
                        "sample count (mc); by default " + ", ".join(
                            f"{n} ({k})" for k, n in geom._SAMPLES.items()))
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--tol", type=float, default=None,
                   help="centering tolerance of two-balls and implicit "
                        "shapes; must be positive for every shape")
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_quotient)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
