"""Domains of prescribed volume, the centering translation for the trial
function, and quadrature driving the quotient bound: normalize a domain to
unit-ball volume, locate the vanishing point of the centering field X(v),
integrate the numerator and denominator with radial, tensor-grid, or
Monte Carlo rules, and compare against the ball.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad as _adaptive_quad
from scipy.interpolate import CubicSpline
from scipy.special import betainc

from . import trial
from .ball import fundamental_tone
from .report import VerificationReport

_SHAPES = ("ball", "ellipsoid", "box", "annulus", "two-balls", "implicit")
_MC_CHUNK = 2**20
_VOLUME_SAMPLES = 4 * 10**7
_VOLUME_SEED = 11
_RADIAL_TOL = 1e-10


def unit_ball_volume(d):
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class Domain:
    """Implicit domain with membership test, bounding box, and volume.

    Fields
    ------
    d : int
        Ambient dimension.
    shape : str
        One of ball, ellipsoid, box, annulus, two-balls, implicit.
    params : dict
        Shape parameters in base (unscaled, untranslated) coordinates.
    offset : tuple
        Translation applied to the base shape.
    scale : float
        Cumulative dilation applied to the base shape; normalize_volume
        records its factor here.
    volume : float
        Exact for the library shapes; a Monte Carlo estimate for implicit
        domains given without their volume.
    volume_error : float
        Standard error of the volume estimate; 0 when exact.
    bbox : tuple
        (lower corner, upper corner), both tuples of floats.
    """

    d: int
    shape: str
    params: dict
    offset: tuple
    scale: float
    volume: float
    volume_error: float
    bbox: tuple

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.d < 1 or self.scale <= 0.0 or self.volume <= 0.0:
            raise ValueError("domain requires d >= 1, scale > 0, volume > 0")

    def contains(self, points):
        """Vectorized membership: points (n, d) or (d,) -> bool mask."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.d:
            raise ValueError("points must have d columns")
        y = (pts - np.asarray(self.offset)) / self.scale
        p = self.params
        if self.shape == "ball":
            mask = np.einsum("ij,ij->i", y, y) <= p["radius"] ** 2
        elif self.shape == "ellipsoid":
            z = y / np.asarray(p["semiaxes"])
            mask = np.einsum("ij,ij->i", z, z) <= 1.0
        elif self.shape == "box":
            half = 0.5 * np.asarray(p["sides"])
            mask = np.all(np.abs(y) <= half, axis=1)
        elif self.shape == "annulus":
            r2 = np.einsum("ij,ij->i", y, y)
            mask = (p["inner"] ** 2 <= r2) & (r2 <= p["outer"] ** 2)
        elif self.shape == "two-balls":
            (c1, c2), (r1, r2) = p["centers"], p["radii"]
            d1 = y - np.asarray(c1)
            d2 = y - np.asarray(c2)
            mask = ((np.einsum("ij,ij->i", d1, d1) <= r1**2)
                    | (np.einsum("ij,ij->i", d2, d2) <= r2**2))
        else:
            mask = _eval_implicit(p["expr"], y)
        return bool(mask[0]) if single else mask

    def diameter(self):
        lo, hi = np.asarray(self.bbox[0]), np.asarray(self.bbox[1])
        return float(np.linalg.norm(hi - lo))


def _names(d):
    if d <= 3:
        return ("x", "y", "z")[:d]
    return tuple(f"x{k}" for k in range(1, d + 1))


def _eval_implicit(expr, y):
    ns = {name: y[:, k] for k, name in enumerate(_names(y.shape[1]))}
    ns.update(abs=np.abs, sqrt=np.sqrt, exp=np.exp, minimum=np.minimum,
              maximum=np.maximum, hypot=np.hypot, pi=np.pi, cos=np.cos,
              sin=np.sin)
    try:
        out = eval(expr, {"__builtins__": {}}, ns)  # noqa: S307 - names above
    except Exception as exc:
        raise ValueError(f"implicit expr failed: {exc}") from None
    mask = np.asarray(out)
    if mask.shape != (y.shape[0],) or mask.dtype != bool:
        raise ValueError("implicit expr must produce a boolean mask")
    return mask


def _center_arg(d, center):
    c = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    if c.shape != (d,):
        raise ValueError("center must have length d")
    return c


def _tup(a):
    return tuple(float(v) for v in np.asarray(a).ravel())


def ball(d, radius=1.0, center=None):
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    c = _center_arg(d, center)
    return Domain(d, "ball", {"radius": float(radius)}, _tup(c), 1.0,
                  unit_ball_volume(d) * radius**d, 0.0,
                  (_tup(c - radius), _tup(c + radius)))


def ellipsoid(d, semiaxes, center=None):
    ax = np.asarray(semiaxes, dtype=float)
    if ax.shape != (d,) or np.any(ax <= 0.0):
        raise ValueError("semiaxes must be d positive numbers")
    c = _center_arg(d, center)
    return Domain(d, "ellipsoid", {"semiaxes": _tup(ax)}, _tup(c), 1.0,
                  unit_ball_volume(d) * float(np.prod(ax)), 0.0,
                  (_tup(c - ax), _tup(c + ax)))


def box(d, sides, center=None):
    s = np.asarray(sides, dtype=float)
    if s.shape != (d,) or np.any(s <= 0.0):
        raise ValueError("sides must be d positive numbers")
    c = _center_arg(d, center)
    return Domain(d, "box", {"sides": _tup(s)}, _tup(c), 1.0,
                  float(np.prod(s)), 0.0,
                  (_tup(c - 0.5 * s), _tup(c + 0.5 * s)))


def annulus(d, inner, outer, center=None):
    if not 0.0 < inner < outer:
        raise ValueError("need 0 < inner < outer")
    c = _center_arg(d, center)
    vol = unit_ball_volume(d) * (outer**d - inner**d)
    return Domain(d, "annulus", {"inner": float(inner),
                                 "outer": float(outer)}, _tup(c), 1.0,
                  vol, 0.0, (_tup(c - outer), _tup(c + outer)))


def _ball_below(d, r, x):
    # volume of the d-ball of radius r on the side {y_1 <= x} of a plane,
    # |x| <= r, from the regularized incomplete beta form of the cap
    t = x / r
    cap = 0.5 * unit_ball_volume(d) * r**d * betainc(
        0.5 * (d + 1), 0.5, (1.0 - t) * (1.0 + t))
    return unit_ball_volume(d) * r**d - cap if t >= 0.0 else cap


def two_balls(d, radii, centers):
    r1, r2 = float(radii[0]), float(radii[1])
    c1 = np.asarray(centers[0], dtype=float)
    c2 = np.asarray(centers[1], dtype=float)
    if r1 <= 0.0 or r2 <= 0.0 or c1.shape != (d,) or c2.shape != (d,):
        raise ValueError("two balls need positive radii and d-vectors")
    lo = _tup(np.minimum(c1 - r1, c2 - r2))
    hi = _tup(np.maximum(c1 + r1, c2 + r2))
    params = {"radii": (r1, r2), "centers": (_tup(c1), _tup(c2))}
    dist = float(np.linalg.norm(c2 - c1))
    if dist >= r1 + r2:
        vol = unit_ball_volume(d) * (r1**d + r2**d)
    elif dist <= abs(r1 - r2):
        vol = unit_ball_volume(d) * max(r1, r2) ** d
    else:
        # the radical plane, at x1 from c1 towards c2, splits the union
        # into the part of each ball on its own center's side
        x1 = (dist**2 + r1**2 - r2**2) / (2.0 * dist)
        vol = _ball_below(d, r1, x1) + _ball_below(d, r2, dist - x1)
    return Domain(d, "two-balls", params, _tup(np.zeros(d)), 1.0, vol, 0.0,
                  (lo, hi))


def implicit_domain(d, expr, bounds, volume=None,
                    samples=_VOLUME_SAMPLES, seed=_VOLUME_SEED):
    """Domain from a boolean numpy expression in x, y, z (or x1..xd).

    bounds is the bounding box (lo_1, hi_1, ..., lo_d, hi_d). The volume
    is Monte Carlo estimated unless given exactly.
    """
    if "__" in expr:
        raise ValueError("implicit expr must not contain '__'")
    b = np.asarray(bounds, dtype=float)
    if b.shape != (2 * d,) or np.any(b[1::2] <= b[0::2]):
        raise ValueError("bounds must be d ordered (lo, hi) pairs")
    try:
        compile(expr, "<domain-config>", "eval")
    except SyntaxError as exc:
        raise ValueError(f"implicit expr does not parse: {exc}") from None
    dom = Domain(d, "implicit", {"expr": expr}, _tup(np.zeros(d)), 1.0,
                 1.0, 0.0, (_tup(b[0::2]), _tup(b[1::2])))
    # evaluate once up front so a bad expression fails here, not mid-quadrature
    _eval_implicit(expr, 0.5 * (b[0::2] + b[1::2])[None, :])
    if volume is not None:
        if volume <= 0.0:
            raise ValueError("volume must be positive")
        return replace(dom, volume=float(volume))
    vols, errs, _ = _integrate(dom, [np.ones_like],
                               QuadratureSpec("mc", samples=samples,
                                              seed=seed), np.zeros(d))
    if vols[0] <= 0.0:
        raise ValueError("implicit domain appears empty")
    return replace(dom, volume=float(vols[0]), volume_error=float(errs[0]))


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature selection: radial (centered balls only), grid, or mc.

    cells is the grid resolution per axis; samples and seed fix the mc
    stream. The integrators return their error bars explicitly.
    """

    kind: str
    cells: int = 1024
    samples: int = 10**7
    seed: int = 7

    def __post_init__(self):
        if self.kind not in ("radial", "grid", "mc"):
            raise ValueError("quadrature kind must be radial, grid, or mc")
        if self.cells < 2 or self.samples < 2:
            raise ValueError("cells and samples must be at least 2")


def default_quadrature(d):
    # bounded piecewise-smooth integrands: tensor grid in the plane,
    # Monte Carlo with a fixed seed beyond it
    if d == 2:
        return QuadratureSpec("grid", cells=1024)
    return QuadratureSpec("mc", samples=10**7, seed=7)


def normalize_volume(domain, target=None):
    """Dilate the domain so its volume matches the unit ball's.

    The applied factor accumulates in the scale field. Raises when the
    stored volume estimate is too noisy to fix the scale (relative error
    at least 1e-4).
    """
    if target is None:
        target = unit_ball_volume(domain.d)
    if target <= 0.0:
        raise ValueError("target volume must be positive")
    if domain.volume_error > 0.0 and \
            domain.volume_error / domain.volume >= 1e-4:
        raise ValueError("domain volume estimate too noisy to normalize")
    s = (target / domain.volume) ** (1.0 / domain.d)
    lo, hi = np.asarray(domain.bbox[0]), np.asarray(domain.bbox[1])
    return replace(domain, scale=domain.scale * s,
                   offset=_tup(s * np.asarray(domain.offset)),
                   volume=target,
                   volume_error=domain.volume_error * s**domain.d,
                   bbox=(_tup(s * lo), _tup(s * hi)))


def _grid_points(domain, cells):
    if cells**domain.d > 2**24:
        raise ValueError("tensor grid too large; use mc quadrature")
    lo, hi = np.asarray(domain.bbox[0]), np.asarray(domain.bbox[1])
    steps = (hi - lo) / cells
    axes = [lo[k] + (np.arange(cells) + 0.5) * steps[k]
            for k in range(domain.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    inside = domain.contains(pts)
    return pts[inside], float(np.prod(steps))


def _nodes(domain, quad, coarse=False):
    """The quadrature node set: (points inside the domain, weight) chunks.

    grid: the midpoints of the bbox cells (quad.cells per axis, half as
    many when coarse) that lie inside, in one chunk weighted by the cell
    volume. mc: the uniform stream over the bbox seeded by quad.seed, in
    _MC_CHUNK draws so memory stays bounded, each point weighted
    |bbox| / quad.samples; the fixed chunking keeps the stream and the
    reduction order independent of the caller.
    """
    if quad.kind == "radial":
        raise ValueError("radial quadrature has no node set; use grid or mc")
    if quad.kind == "grid":
        yield _grid_points(domain, quad.cells // 2 if coarse else quad.cells)
        return
    lo, hi = np.asarray(domain.bbox[0]), np.asarray(domain.bbox[1])
    w = float(np.prod(hi - lo)) / int(quad.samples)
    rng = np.random.default_rng(quad.seed)
    left = int(quad.samples)
    while left > 0:
        n = min(left, _MC_CHUNK)
        pts = rng.uniform(lo, hi, size=(n, domain.d))
        pts = pts[domain.contains(pts)]
        yield pts, w
        left -= n


def _integrate(domain, fs, quad, center):
    """Integrals of the radial functions fs(|x - center|) over the domain
    from one pass over the node set.

    Returns (values, error bars, covariance). grid: midpoint-rule values,
    bars |full - half| from a second pass at half the cells per axis, and
    no covariance. mc: the hit-or-miss means, their standard errors and
    the covariance matrix of the values.
    """
    c = np.asarray(center, dtype=float)
    mc = quad.kind == "mc"

    def sweep(coarse):
        w, s, ss = 0.0, 0.0, 0.0
        for pts, w in _nodes(domain, quad, coarse):
            r = np.linalg.norm(pts - c, axis=1)
            g = [f(r) for f in fs]
            s = s + np.array([np.sum(gi) for gi in g])
            if mc:
                ss = ss + np.array([[gi @ gj for gj in g] for gi in g])
        return w, s, ss

    w, s, ss = sweep(False)
    if not mc:
        w2, s2, _ = sweep(True)
        return w * s, np.abs(w * s - w2 * s2), None
    n = int(quad.samples)
    cov = w * w * (ss - np.outer(s, s) / n) * (n / (n - 1))
    return w * s, np.sqrt(np.maximum(np.diag(cov), 0.0)), cov


class _RadialTable:
    """Cubic-spline table of a radial profile, split at the extension
    knot u = 1 where the third derivative jumps. Interpolation error is
    O(step^4), orders of magnitude below the quadrature error bars this
    feeds; the radial-1D path never uses tables.
    """

    def __init__(self, g, umax, n=4096, value_at_zero=None):
        u1 = np.linspace(0.0, 1.0, n + 1)
        v1 = np.empty(n + 1)
        if value_at_zero is None:
            v1[:] = g(u1)
        else:
            v1[0] = value_at_zero
            v1[1:] = g(u1[1:])
        self.lo = CubicSpline(u1, v1)
        u2 = np.linspace(1.0, max(umax, 1.0 + 1e-9), n + 1)
        self.hi = CubicSpline(u2, g(u2))

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        out = np.empty(u.shape)
        m = u <= 1.0
        out[m] = self.lo(u[m])
        out[~m] = self.hi(u[~m])
        return out


def _require_centered_ball(domain, center):
    if domain.shape != "ball":
        raise ValueError("radial quadrature requires a ball domain")
    if not np.allclose(center, domain.offset,
                       atol=1e-12 * (1.0 + np.abs(domain.offset).max())):
        raise ValueError("radial quadrature requires the trial center")


def integrate_radial(domain, f, quad, center=None):
    """Integrate the radial function f(|x - center|) over the domain.

    Parameters
    ----------
    domain : Domain
    f : callable
        Radial profile; must accept numpy arrays of radii.
    quad : QuadratureSpec
        radial: surface_area * adaptive 1D integral (centered balls only);
        grid: midpoint rule on bbox cells, error bar from a half-resolution
        pass; mc: hit-or-miss mean with sample standard error.
    center : array_like, optional
        Trial center; defaults to the domain offset.

    Returns
    -------
    (value, error_estimate)
    """
    c = np.asarray(domain.offset) if center is None \
        else np.asarray(center, dtype=float)
    if quad.kind == "radial":
        _require_centered_ball(domain, c)
        R = domain.params["radius"] * domain.scale
        surface = domain.d * unit_ball_volume(domain.d)
        val, err = _adaptive_quad(
            lambda r: f(r) * r ** (domain.d - 1), 0.0, R,
            epsabs=1e-300, epsrel=_RADIAL_TOL, limit=200)
        return surface * val, surface * err
    vals, errs, _ = _integrate(domain, [f], quad, c)
    return float(vals[0]), float(errs[0])


def center_trial(domain, profile, quad=None, damping=0.5, max_iter=200,
                 tol=None):
    """Translation v at which the centering field X(v) vanishes.

    X(v) = integral over the domain of rho(|x - v|)/|x - v| (x - v) dx,
    evaluated on a fixed node set, so the iteration targets the zero of
    the discretized field. Damped fixed-point steps
    v <- v + damping * X(v) / (rho'(0) |Omega|) run from the bbox center;
    on non-convergence a coordinate bisection sweep is tried before
    raising with the residual trace.

    Returns
    -------
    numpy.ndarray
        The offset v with |X(v)| <= tol (default 1e-6 |Omega| rho(diam)).
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must be in (0, 1]")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if quad is None:
        quad = default_quadrature(domain.d)
    # the iteration revisits the nodes, so they are kept in memory, in one
    # array and not also in chunks
    chunks = list(_nodes(domain, quad))
    w = chunks[0][1]
    pts = np.concatenate([p for p, _ in chunks], axis=0)
    del chunks
    if pts.shape[0] == 0:
        raise ValueError("no quadrature nodes fall inside the domain")
    if tol is None:
        tol = 1e-6 * domain.volume * trial.rho(profile, domain.diameter())
    slope0 = trial.rho(profile, 0.0, 1)
    step_scale = slope0 * domain.volume
    ptable = _RadialTable(lambda u: trial.rho(profile, u) / u,
                          1.5 * domain.diameter() + 1.0,
                          value_at_zero=slope0)

    def field(v):
        dx = pts - v
        r = np.linalg.norm(dx, axis=1)
        return w * np.sum(ptable(r)[:, None] * dx, axis=0)

    lo, hi = np.asarray(domain.bbox[0]), np.asarray(domain.bbox[1])
    v = 0.5 * (lo + hi)
    trace = []
    for _ in range(max_iter):
        X = field(v)
        res = float(np.linalg.norm(X))
        trace.append(res)
        if res <= tol:
            return v
        v = v + damping * X / step_scale

    # coordinate bisection fallback; the field component is decreasing
    # along its own axis for symmetric domains
    for k in range(domain.d):
        a, b = lo[k], hi[k]
        va, vb = v.copy(), v.copy()
        va[k], vb[k] = a, b
        fa = field(va)[k]
        fb = field(vb)[k]
        if fa * fb > 0.0:
            continue
        for _ in range(80):
            vm = v.copy()
            vm[k] = 0.5 * (a + b)
            fm = field(vm)[k]
            if fa * fm <= 0.0:
                b = vm[k]
                fb = fm
            else:
                a = vm[k]
                fa = fm
        v[k] = 0.5 * (a + b)
    X = field(v)
    res = float(np.linalg.norm(X))
    trace.append(res)
    if res <= tol:
        return v
    shown = ", ".join(f"{t:.3e}" for t in trace[-6:])
    raise RuntimeError(
        f"centering did not converge: |X| = {res:.3e} > tol = {tol:.3e}; "
        f"residual trace tail [{shown}]")


def _trial_center(domain, profile, quad):
    # symmetric library shapes are centered at their offset by
    # construction, and radial quadrature takes only centered balls;
    # everything else gets the fixed-point search
    if quad.kind == "radial" or \
            domain.shape in ("ball", "ellipsoid", "box", "annulus"):
        return np.asarray(domain.offset, dtype=float)
    return center_trial(domain, profile, quad)


def _num_den(domain, profile, s, quad, center):
    """Quotient numerator and denominator for the profile dilated by s.

    Returns (num, den, num error, den error, relative error of num/den).
    radial and grid: the ratio's relative bar is the sum of the relative
    bars. mc: both integrands share one sample stream and the delta
    method keeps their covariance. Grid and mc evaluate the profile
    through spline tables.
    """
    def fN(u):
        return trial.numerator_integrand(profile, u) / s**4

    def fD(u):
        return trial.rho(profile, u) ** 2

    if quad.kind == "radial":
        (num, en), (den, ed) = [
            integrate_radial(domain, lambda r, f=f: f(r / s), quad, center)
            for f in (fN, fD)]
        return num, den, en, ed, en / abs(num) + ed / abs(den)
    umax = 1.5 * domain.diameter() / s + 1.0
    tables = [_RadialTable(f, umax) for f in (fN, fD)]
    (num, den), (en, ed), cov = _integrate(
        domain, [lambda r, t=t: t(r / s) for t in tables], quad, center)
    if cov is None:
        rel = en / abs(num) + ed / abs(den)
    else:
        rel = math.sqrt(max(0.0, cov[0, 0] / num**2 + cov[1, 1] / den**2
                            - 2.0 * cov[0, 1] / (num * den)))
    return float(num), float(den), float(en), float(ed), float(rel)


def quotient_bound(domain, tau, d=None, quad=None, center=None):
    """Upper bound for the fundamental tone from the trial quotient.

    The trial profile is built for the ball of the same volume: with
    s = (|Omega| / |B_1|)^(1/d) the mode is solved at tension tau s^2 on
    the unit ball and evaluated at r/s, so a volume-normalized domain uses
    the unit-ball profile directly and dilated domains inherit the scaling
    law s^-4 Q.

    Parameters
    ----------
    domain : Domain
    tau : float
        Tension, > 0.
    d : int, optional
        Must match domain.d when given.
    quad : QuadratureSpec, optional
        Defaults to the dimension default (grid in 2d, mc beyond).
    center : array_like, optional
        Trial center; default is the domain offset for symmetric shapes
        and the fixed-point center otherwise.

    Returns
    -------
    (Q, error_estimate)
        The quotient and its propagated quadrature error bar.
    """
    if d is not None and d != domain.d:
        raise ValueError("d disagrees with domain.d")
    d = domain.d
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if quad is None:
        quad = default_quadrature(d)
    s = (domain.volume / unit_ball_volume(d)) ** (1.0 / d)
    prof = trial.TrialProfile(fundamental_tone(tau * s * s, d, 1.0))
    c = _trial_center(domain, prof, quad) if center is None \
        else np.asarray(center, dtype=float)
    num, den, _, _, rel = _num_den(domain, prof, s, quad, c)
    Q = num / den
    return Q, abs(Q) * rel


def monotone_domain_comparison(domain, profile, quad=None):
    """Compare the quotient integrals against the unit ball's.

    Checks that the numerator integral does not exceed the ball's and the
    denominator integral is at least the ball's, each padded by the
    combined error bars; worst_point records the four integrals
    (numerator on the domain, on the ball, denominator likewise).
    """
    d = domain.d
    if abs(domain.volume - unit_ball_volume(d)) > \
            1e-8 * unit_ball_volume(d):
        raise ValueError("domain must be normalized to unit-ball volume")
    if quad is None:
        quad = default_quadrature(d)
    c = _trial_center(domain, profile, quad)
    num, den, en, ed, _ = _num_den(domain, profile, 1.0, quad, c)
    bn, bd, ebn, ebd, _ = _num_den(ball(d), profile, 1.0,
                                   QuadratureSpec("radial"), np.zeros(d))
    margin_num = (bn - num) + (en + ebn)
    margin_den = (den - bd) + (ed + ebd)
    margin = min(margin_num, margin_den)
    tau = profile.mode.tau
    return VerificationReport.one_sided(
        f"domain-comparison[{domain.shape};d={d};tau={tau:g}]",
        margin, (num, bn, den, bd),
        f"{quad.kind} quadrature; margins padded by combined error bars",
        0.0)


def parse_domain_config(text):
    """Domain from key=value lines (see docs/domains.md for the grammar).

    Raises ValueError with a diagnostic on any malformed input.
    """
    entries = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected key=value")
        key, val = line.split("=", 1)
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ValueError(f"config line {ln}: empty key or value")
        if key in entries:
            raise ValueError(f"config line {ln}: duplicate key {key!r}")
        entries[key] = val

    def floats(key):
        try:
            return [float(t) for t in entries[key].split(",")]
        except ValueError:
            raise ValueError(f"config: {key} must be comma-separated "
                             f"numbers, got {entries[key]!r}") from None

    for req in ("shape", "dim"):
        if req not in entries:
            raise ValueError(f"config: missing required key {req!r}")
    shape = entries.pop("shape")
    try:
        d = int(entries.pop("dim"))
    except ValueError:
        raise ValueError("config: dim must be an integer") from None
    if d < 2:
        raise ValueError("config: dim must be at least 2")
    center = None
    if "center" in entries:
        if shape in ("two-balls", "implicit"):
            raise ValueError(f"config: shape {shape!r} does not take "
                             "center (positions come from its own keys)")
        center = floats("center")
        entries.pop("center")
        if len(center) != d:
            raise ValueError("config: center must have dim entries")

    def take(keys):
        missing = [k for k in keys if k not in entries]
        if missing:
            raise ValueError(f"config: shape {shape!r} needs keys "
                             f"{', '.join(missing)}")

    if shape == "ball":
        take(["radius"])
        dom = ball(d, floats("radius")[0], center)
        entries.pop("radius")
    elif shape == "ellipsoid":
        take(["semiaxes"])
        dom = ellipsoid(d, floats("semiaxes"), center)
        entries.pop("semiaxes")
    elif shape == "box":
        take(["sides"])
        dom = box(d, floats("sides"), center)
        entries.pop("sides")
    elif shape == "annulus":
        take(["inner", "outer"])
        dom = annulus(d, floats("inner")[0], floats("outer")[0], center)
        entries.pop("inner")
        entries.pop("outer")
    elif shape == "two-balls":
        take(["radii", "centers"])
        radii = floats("radii")
        groups = entries["centers"].split(";")
        if len(radii) != 2 or len(groups) != 2:
            raise ValueError("config: two-balls needs radii=r1,r2 and "
                             "centers=c1;c2")
        try:
            centers = [[float(t) for t in g.split(",")] for g in groups]
        except ValueError:
            raise ValueError("config: centers must be numeric") from None
        if any(len(cc) != d for cc in centers):
            raise ValueError("config: each center must have dim entries")
        dom = two_balls(d, radii, centers)
        entries.pop("radii")
        entries.pop("centers")
    elif shape == "implicit":
        take(["expr", "bounds"])
        kw = {}
        if "volume" in entries:
            kw["volume"] = floats("volume")[0]
            entries.pop("volume")
        if "samples" in entries:
            kw["samples"] = int(floats("samples")[0])
            entries.pop("samples")
        if "seed" in entries:
            kw["seed"] = int(floats("seed")[0])
            entries.pop("seed")
        dom = implicit_domain(d, entries["expr"], floats("bounds"), **kw)
        entries.pop("expr")
        entries.pop("bounds")
    else:
        raise ValueError(f"config: unknown shape {shape!r}")
    if entries:
        raise ValueError("config: unrecognized keys "
                         f"{', '.join(sorted(entries))}")
    return dom


def load_domain(path):
    with open(path, encoding="utf-8") as fh:
        return parse_domain_config(fh.read())
