"""Seeded inputs of the three benchmark workloads.

Each workload is a list of CLI calls (``items``) that makes one pass, plus
a fixed list of untimed edge probes. The seed fixes every argument and
every domain config; the program sees only the generated argv and files.
"""

import math
from pathlib import Path

import numpy as np

WORKLOADS = ("verify-suite", "tone-single", "quotient-domains")

TONE_ITEMS = 100            # calls per tone-single pass; a run makes at
                            # least three passes, so 300 or more calls
TONE_REFERENCE_ITEMS = 12   # of them checked against the mpmath reference
VERIFY_DIMS = (2, 10)   # range of the one seeded dimension per call

# (d, tau, radius) of the untimed tone probes; see KNOWN_DEFECTS in checks.py
TONE_PROBES = (
    (2, 6.0e5, 1.0),      # effective tension >= 6e5
    (7, 1.0e6, 1.0),
    (2, 1.0e-12, 1.0),    # effective tension <= 1e-12
    (5, 1.0e-13, 1.0),
    (2, 1.0, 1.0e-8),     # radius <= 1e-7
    (3, 2.0, 1.0e-7),
)


def _rng(workload, seed):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _tone_item(d, tau, radius, out):
    argv = ["tone", "--dim", str(d), "--tau", repr(tau), "--radius",
            repr(radius), "--out", str(out)]
    return {"argv": argv, "d": d, "tau": tau, "radius": radius}


def _stratified_log(rng, n, lo, hi):
    """n log-uniform draws, one in each of n equal slices of the log range,
    shuffled: every seed covers the range evenly, so the latency quantiles
    vary little from seed to seed."""
    u = (np.arange(n) + rng.uniform(size=n)) / n
    rng.shuffle(u)
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


def _tone_single(rng, workdir):
    dims = np.resize(np.arange(2, 31), TONE_ITEMS)   # each d about as often
    rng.shuffle(dims)
    tau_effs = _stratified_log(rng, TONE_ITEMS, 1e-8, 1e5)
    radii = _stratified_log(rng, TONE_ITEMS, 1e-2, 1e2)
    items = [_tone_item(int(d), float(t / r**2), float(r),
                        workdir / f"tone-{k}.txt")
             for k, (d, t, r) in enumerate(zip(dims, tau_effs, radii))]
    for k in rng.choice(TONE_ITEMS, TONE_REFERENCE_ITEMS, replace=False):
        items[int(k)]["reference"] = True
    probes = [_tone_item(d, tau, radius, workdir / f"probe-{k}.txt")
              for k, (d, tau, radius) in enumerate(TONE_PROBES)]
    return items, probes


def _verify_suite(rng, workdir):
    dims = [int(rng.integers(VERIFY_DIMS[0], VERIFY_DIMS[1] + 1))]
    out = workdir / "verify.csv"
    argv = ["verify", "--dims", ",".join(map(str, dims)), "--out", str(out)]
    return [{"argv": argv, "dims": dims}], []


def _config_text(shape, d, **keys):
    lines = [f"shape={shape}", f"dim={d}"]
    lines += [f"{k}={v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def _join(values):
    return ",".join(repr(float(v)) for v in values)


def _domains(rng):
    """(name, config text, closed-form geometry or None) per config."""
    u = rng.uniform
    out = []
    ax = (u(1.5, 3.0), 1.0)
    out.append(("ellipse", _config_text("ellipsoid", 2, semiaxes=_join(ax)),
                {"shape": "ellipsoid", "semiaxes": ax}))
    sides = (u(1.3, 3.0), 1.0)
    out.append(("box", _config_text("box", 2, sides=_join(sides)),
                {"shape": "box", "sides": sides}))
    inner = u(0.2, 0.6)
    out.append(("annulus", _config_text("annulus", 2, inner=repr(inner),
                                        outer="1.0"),
                {"shape": "annulus", "inner": inner, "outer": 1.0}))
    # the two centered shapes sit at the median of the pass's latencies,
    # so their parameters vary little: centering time follows the shape
    r1, r2, gap, lift = u(0.5, 0.6), u(0.5, 0.6), u(0.3, 0.4), u(-0.1, 0.1)
    out.append(("two-balls-disjoint", _config_text(
        "two-balls", 2, radii=_join((r1, r2)),
        centers=f"{_join((-r1 - gap / 2, 0.0))};{_join((r2 + gap / 2, lift))}"),
        None))
    c = u(0.0, 0.1)
    expr = f"(abs(x) <= 1) & (abs(y) <= 1) & ~((x > {c!r}) & (y > {c!r}))"
    out.append(("l-shape", _config_text(
        "implicit", 2, expr=expr, bounds="-1,1,-1,1",
        volume=repr(4.0 - (1.0 - c) ** 2)), None))
    r2, sep = u(0.85, 1.0), u(0.4, 0.9)
    out.append(("two-balls-overlap", _config_text(
        "two-balls", 2, radii=_join((1.0, r2)),
        centers=f"{_join((-sep / 2, 0.0))};{_join((sep / 2, 0.0))}"), None))
    s = u(1.3, 2.0)
    ax3 = (s, s, 1.0)   # a spheroid keeps the radial reference one-dimensional
    out.append(("ellipsoid-3d", _config_text("ellipsoid", 3,
                                             semiaxes=_join(ax3)),
                {"shape": "ellipsoid", "semiaxes": ax3}))
    return out


def _quotient_domains(rng, workdir):
    items = []
    for name, text, geometry in _domains(rng):
        cfg = workdir / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        tau = _log_uniform(rng, 0.1, 10.0)
        d = int(text.split("dim=", 1)[1].split("\n", 1)[0])
        argv = ["quotient", "--domain", str(cfg), "--tau", repr(tau),
                "--out", str(workdir / f"{name}.txt")]
        items.append({"argv": argv, "name": name, "d": d, "tau": tau,
                      "geometry": geometry})
    return items, []


def make(workload, seed, workdir):
    """Items of one pass and the untimed probes; writes configs to workdir."""
    workdir = Path(workdir)
    build = {"verify-suite": _verify_suite, "tone-single": _tone_single,
             "quotient-domains": _quotient_domains}[workload]
    items, probes = build(_rng(workload, seed), workdir)
    return {"workload": workload, "seed": int(seed), "items": items,
            "probes": probes}
