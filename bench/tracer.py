"""In-memory spans around the public functions of freeplate's modules.

`install` replaces every public function of the traced modules with a
wrapper that records one span per call: name, start, end, parent span,
a work count (points for the kernels and the profile evaluations, rows
for ``Domain.contains``), an extra count (scalar flag for the kernels,
inside rows for ``Domain.contains``) and whether the call raised. The
wrapper is bound wherever the original was: in its own module and in
every module that imported it by name (``from .specfun import ultra_j``),
so no call path escapes. Spans are opened only here, never inside the
program.

`layer_metrics` turns the spans into the per-layer metrics.
"""

import functools
import importlib
import json
import sys
import time

import numpy as np

MODULES = ("specfun", "ball", "trial", "verify", "geom", "cli", "report")
LAYERS = ("specfun", "ball", "trial", "verify", "geom", "cli")
# private functions that mark a verify phase of their own
PRIVATE = {"verify": ("_small_tau_checks", "_large_tau_checks")}

KERNELS = ("specfun.ultra_j", "specfun.ultra_i")
TRIAL_EVALS = ("trial.rho", "trial.numerator_integrand",
               "trial.h_decrease_quantity")
TRIAL_SCANS = ("trial.concavity_scan", "trial.partial_monotonicity_scan")
SOLVE = "ball.fundamental_tone"
CONTAINS = "geom.Domain.contains"
POLY = ("verify.verify_P_nonneg", "verify.verify_Q_positive",
        "verify.poly_P", "verify.poly_Q", "verify.poly_P_critical_points",
        "verify.poly_Q_critical_points", "verify.p_lower_bound",
        "verify.p_lower_bound_prime", "verify.spot_values")


def layer_of(name):
    module = name.split(".", 1)[0]
    return "cli" if module == "report" else module


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _kernel_count(args, kwargs):
    z = _arg(args, kwargs, 2, "z")
    return int(np.size(z)), int(np.ndim(z) == 0)


def _eval_count(args, kwargs):
    return int(np.size(_arg(args, kwargs, 1, "r"))), 0


def _rows(args, kwargs):
    pts = np.asarray(_arg(args, kwargs, 1, "points"))
    return (1 if pts.ndim == 1 else int(pts.shape[0])), 0


def _inside(out):
    return int(np.count_nonzero(out))


class Tracer:
    """Span store; one instance per traced run."""

    def __init__(self):
        self.names, self.start, self.end, self.parent = [], [], [], []
        self.work, self.extra, self.raised = [], [], []
        self._stack = [-1]

    def __len__(self):
        return len(self.names)

    def wrap(self, name, fn, count=None, after=None):
        names, start, end, parent = self.names, self.start, self.end, \
            self.parent
        work, extra, raised, stack = self.work, self.extra, self.raised, \
            self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            n, x = count(args, kwargs) if count is not None else (0, 0)
            names.append(name)
            parent.append(stack[-1])
            work.append(n)
            extra.append(x)
            raised.append(False)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[i] = True
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                extra[i] = after(out)
            return out

        return traced

    def root_seconds(self):
        """Summed duration of the spans recorded so far that have no parent."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent)
                   if p < 0)

    def dump(self, path):
        """Write the spans as one JSON object of parallel lists."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"name": self.names, "start": self.start,
                       "end": self.end, "parent": self.parent,
                       "work": self.work, "extra": self.extra,
                       "raised": self.raised}, fh)


def install(tracer, package="freeplate"):
    """Wrap every public function of MODULES and ``Domain.contains``."""
    wrapped = {}
    for short in MODULES:
        mod = importlib.import_module(f"{package}.{short}")
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE.get(short, ()):
                continue
            name = f"{short}.{attr}"
            count = _kernel_count if name in KERNELS else \
                _eval_count if name in TRIAL_EVALS else None
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj, count))
    # rebind in every module of the package, which covers names imported
    # with ``from .module import name`` as well as the defining module
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package
                               or modname.startswith(package + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    geom = importlib.import_module(f"{package}.geom")
    geom.Domain.contains = tracer.wrap(CONTAINS, geom.Domain.contains,
                                       _rows, _inside)


def layer_metrics(tracer):
    """Per-layer counts and times from the recorded spans."""
    n = len(tracer)
    names = tracer.names
    parent = tracer.parent
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    own = [dur[i] - child[i] for i in range(n)]
    in_solve = [False] * n
    for i in range(n):
        p = parent[i]
        in_solve[i] = names[i] == SOLVE or (p >= 0 and in_solve[p])

    self_s = dict.fromkeys(LAYERS, 0.0)
    for i in range(n):
        self_s[layer_of(names[i])] += own[i]

    def inclusive(group):
        # outermost spans of the group only, so nesting is not counted twice
        return sum(dur[i] for i in range(n) if names[i] in group
                   and not (parent[i] >= 0 and names[parent[i]] in group))

    kernel = [i for i in range(n) if names[i] in KERNELS]
    points = sum(tracer.work[i] for i in kernel)
    solves = [i for i in range(n) if names[i] == SOLVE]
    evals = [i for i in range(n) if names[i] in TRIAL_EVALS]
    contains = [i for i in range(n) if names[i] == CONTAINS]
    rows = sum(tracer.work[i] for i in contains)
    quotient = [i for i in range(n) if names[i] == "geom.quotient_bound"]
    integrate = sum(dur[i] for i in quotient) - sum(
        dur[j] for j in range(n) if parent[j] >= 0
        and names[parent[j]] == "geom.quotient_bound"
        and names[j] in (SOLVE, "geom.center_trial"))
    # the profile-scan loop of full_suite: its direct calls into trial and
    # ball (the eight profile solves and the scans)
    profile_scan = sum(dur[j] for j in range(n) if parent[j] >= 0
                       and names[parent[j]] == "verify.full_suite"
                       and layer_of(names[j]) in ("trial", "ball"))

    m = {
        "specfun.calls": len(kernel),
        "specfun.points": points,
        "specfun.scalar_call_share":
            sum(tracer.extra[i] for i in kernel) / max(1, len(kernel)),
        "specfun.self_s": self_s["specfun"],
        "specfun.ns_per_point": 1e9 * self_s["specfun"] / max(1, points),
        "ball.solves": len(solves),
        "ball.solve_s": inclusive((SOLVE,)),
        "ball.self_s": self_s["ball"],
        "ball.kernel_calls_per_solve":
            sum(1 for i in kernel if in_solve[i]) / max(1, len(solves)),
        "ball.failures": sum(1 for i in solves if tracer.raised[i]),
        "trial.evals": len(evals),
        "trial.points": sum(tracer.work[i] for i in evals),
        "trial.self_s": self_s["trial"],
        "trial.scan_s": inclusive(TRIAL_SCANS),
        "verify.self_s": self_s["verify"],
        "verify.tension_grid_s": inclusive(
            ("verify._small_tau_checks", "verify._large_tau_checks")),
        "verify.profile_scan_s": profile_scan,
        "verify.bessel_signs_s": inclusive(("verify.verify_bessel_signs",)),
        "verify.ij_bounds_s": inclusive(("verify.verify_ij_bounds",)),
        "verify.poly_s": inclusive(POLY),
        "geom.self_s": self_s["geom"],
        "geom.domain_s": inclusive(("geom.load_domain",
                                    "geom.normalize_volume")),
        "geom.center_s": inclusive(("geom.center_trial",)),
        "geom.integrate_s": integrate,
        "geom.quotient_self_s": sum(own[i] for i in quotient),
        "geom.contains_points": rows,
        "geom.acceptance":
            sum(tracer.extra[i] for i in contains) / max(1, rows),
        "cli.self_s": self_s["cli"],
        "trace.spans": n,
    }
    return m
