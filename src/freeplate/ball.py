"""Fundamental mode of the free plate under tension on a d-dimensional ball.

The first nonzero eigenvalue omega of Delta^2 u - tau Delta u = omega u with
natural boundary conditions has an l = 1 mode u = R(r) Y_1 with radial part

    R(r) = j_1(a r) + gamma i_1(b r),    b^2 - a^2 = tau,  omega = a^2 b^2.

gamma enforces the second-derivative boundary condition R''(radius) = 0; the
wavenumber a is the root of the scalar residual of the remaining natural
condition (secular_V below) inside the bracket that the linear bounds
tau mu < omega < tau (d+2) put on it. This module solves for the mode at
many tensions at once and exposes those bounds and the membrane comparison
constant.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import (_ARRAYS, _FLOATS, _ROOT_STATUS, _bracketed_root,
                      _gauss_gegenbauer, _ultra_table, first_zero_j1prime)

RESIDUAL_TOL = 1e-9
_WIDEN = 1e-6    # relative widening of the bracket from the linear bounds
_C_NODES = 80    # Gauss-Legendre nodes of the membrane_C integrals


@dataclass(frozen=True)
class BallMode:
    """Solved fundamental mode: dimension, tension, radius, wavenumbers,
    coupling constant, and eigenvalue."""

    d: int
    tau: float
    radius: float
    a: float
    b: float
    gamma: float
    omega: float

    def __post_init__(self):
        if not (isinstance(self.d, int) and self.d >= 2):
            raise ValueError("dimension d must be an integer >= 2")
        if not all(map(math.isfinite, (self.tau, self.radius, self.a,
                                       self.b, self.gamma, self.omega))):
            raise ValueError("tau, radius, a, b, gamma and omega must be "
                             "finite doubles")
        if not (self.tau > 0 and self.radius > 0):
            raise ValueError("tau and radius must be positive")
        if abs(self.b**2 - self.a**2 - self.tau) > 1e-9 * self.b**2:
            raise ValueError("wavenumbers do not satisfy b^2 - a^2 = tau")
        if abs(self.omega - self.a**2 * self.b**2) > 1e-9 * self.omega:
            raise ValueError("omega does not equal a^2 b^2")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not 0 < self.a * self.radius < first_zero_j1prime(self.d):
            raise ValueError("a radius must lie in (0, first zero of j_1')")


def _unit_tension(tau, radius):
    # validate tau (a float, or an array) and radius; tau R^2 on the unit
    # ball, a float for a float tau
    ops = _FLOATS if isinstance(tau, float) else _ARRAYS

    def bad(x):     # not a positive finite double, elementwise
        return ops.any_(ops.not_((x > 0) & (x < math.inf)))

    if bad(tau):
        raise ValueError("tau must be positive")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be positive")
    with ops.quiet():
        t = tau * (float(radius) * float(radius))
    if bad(t):
        raise ValueError(f"tau R^2 is no positive finite double at radius={radius:g}")
    return t


def _unit_args(a, tau, d, radius):
    # validate (a, tau) and map them to the unit ball: (a R, tau R^2)
    t = _unit_tension(tau, radius)
    z = np.asarray(a, dtype=float) * radius
    ainf = first_zero_j1prime(d)
    if np.any(z <= 0) or np.any(z >= ainf):
        raise ValueError(f"wavenumber a must lie in (0, {ainf / radius:.6g})")
    return z, t


def _coupling(a, b, j2, j3, i2, i3):
    # gamma on the unit ball from j_2, j_3 at a and i_2, i_3 at b: R''(1) = 0
    # with the order recurrences j_1'' = j_3 - 3 j_2/z, i_1'' = i_3 + 3 i_2/z
    return -a * (a * j3 - 3.0 * j2) / (b * (b * i3 + 3.0 * i2))


def _secular_parts(a, tau, d):
    # gamma and V on the unit ball from j_1..j_3 at a and i_1..i_3 at b.
    # The order recurrences give z j_1' - j_1 = -z j_2, z i_1' - i_1 = z i_2;
    # with R''(1) = 0 the radial equations turn (d-1)(R'(1) - R(1)) into
    # gamma b^2 i_1 - a^2 j_1, so V = tau R'(1) - a^3 j_2 - gamma b^3 i_2,
    # three terms of V's own order z^5: nothing cancels at small tension
    b = (math.sqrt if isinstance(a, float) else np.sqrt)(a * a + tau)
    J, I = _ultra_table("j", 1, d, a, 2), _ultra_table("i", 1, d, b, 2)
    j1, j2, j3 = (J(l, 0) for l in (1, 2, 3))
    i1, i2, i3 = (I(l, 0) for l in (1, 2, 3))
    gamma = _coupling(a, b, j2, j3, i2, i3)
    slope = j1 - a * j2 + gamma * (i1 + b * i2)
    return gamma, tau * slope - a**3 * j2 - gamma * b**3 * i2


def _secular_vec(a, tau, d):
    return _secular_parts(a, tau, d)[1]


def gamma_of(a, tau, d, radius=1.0):
    """Coupling constant gamma = -a^2 j_1''(aR) / (b^2 i_1''(bR)), b^2 = a^2 + tau.

    Strictly positive on 0 < aR < first zero of j_1', because j_1'' < 0 there
    and i_1'' > 0 everywhere; makes R''(radius) vanish identically.
    """
    return float(_secular_parts(*_unit_args(a, tau, d, radius), d)[0])


def secular_V(a, tau, d, radius=1.0):
    """Residual of the remaining natural boundary condition at r = radius
    for the l = 1 mode with gamma chosen by gamma_of.

    Closed form (validated in the tests against a finite-difference
    application of the boundary operator on the sphere):
        (tau + (d-1)/R^2) R'(R) - ((d-1)/R^3) R(R)
        + a^3 j_1'(aR) - gamma b^3 i_1'(bR),
    evaluated in the cancellation-free form of _secular_parts through
    V_R(a, tau) = R^-3 V_1(aR, tau R^2). Raises ValueError where V_R
    overflows; where it underflows, the underflowed value is returned.
    """
    v = _secular_vec(*_unit_args(a, tau, d, radius), d)
    with np.errstate(all="ignore"):
        v = v / np.float64(radius) ** 3
    if not np.isfinite(v):
        raise ValueError(f"V_R is no finite double at radius={radius:g}")
    return float(v)


def _residual_scales(d, a, b, gamma, tau, tables=None):
    """Natural scales and residuals of the two boundary conditions on the
    unit ball, in the closed form of secular_V; a, b, gamma and tau may be
    arrays, and tables the _ultra_table pair at a and b if built already."""
    J, I = tables or (_ultra_table("j", 1, d, a, 2),
                      _ultra_table("i", 1, d, b, 2))
    t1 = a * a * J(1, 2)
    t2 = gamma * b * b * I(1, 2)
    m_res, m_scale = abs(t1 + t2), abs(t1) + abs(t2)
    j1, i1, j1p, i1p = J(1, 0), I(1, 0), J(1, 1), I(1, 1)
    terms = [(tau + (d - 1)) * (a * j1p + gamma * b * i1p),
             -(d - 1) * (j1 + gamma * i1),
             a**3 * j1p, -gamma * b**3 * i1p]
    v_res, v_scale = abs(sum(terms)), sum(abs(t) for t in terms)
    return m_res, m_scale, v_res, v_scale


def boundary_residuals(mode):
    """Relative residuals of the moment and shear boundary conditions,
    each scaled by the sum of magnitudes of its terms, taken on the unit
    ball (aR, bR, tau R^2), which the scaling law makes equal."""
    R = mode.radius
    m_res, m_scale, v_res, v_scale = _residual_scales(
        mode.d, mode.a * R, mode.b * R, mode.gamma, _unit_tension(mode.tau, R))
    return m_res / m_scale, v_res / v_scale


def _solve(tau, d, radius):
    # the modes at tau, one body on a float tension (a BallMode, solved on
    # floats) or on an array of them (a list); see fundamental_tones
    if not (isinstance(d, int) and d >= 2):
        raise ValueError("dimension d must be an integer >= 2")
    t, radius = _unit_tension(tau, radius), float(radius)
    ops = _FLOATS if isinstance(t, float) else _ARRAYS
    ainf = first_zero_j1prime(d)
    # a^2 (a^2 + t) = w at the two bounds w, solved free of cancellation;
    # nan or 0 where t t overflows, which the kernels then reject
    with ops.quiet():
        lo, hi = (ops.sqrt(2.0 * w / (t + ops.sqrt(t * t + 4.0 * w)))
                  for w in (ainf**2 * t, (d + 2) * t))
    lo, hi = lo * (1.0 - _WIDEN), ops.minimum(hi * (1.0 + _WIDEN),
                                              ainf * (1.0 - 1e-12))
    x, status, (xl, xr), (vl, vr) = _bracketed_root(
        lambda a, tt: _secular_vec(a, tt, d), lo, hi, t)
    ok = status == 0
    # a from the secant through the final bracket, 1e-13 wide, unless V
    # underflows at an end (tau R^2 = 1e-300, say); lo where the solve failed
    with ops.quiet():
        sec = xl - ops.div(vl * (xr - xl), vr - vl)
    zero = ops.minimum(abs(vl), abs(vr)) <= sys.float_info.min
    a = ops.where(ok, ops.where(zero, x, sec), lo)
    b = ops.sqrt(a * a + t)
    J, I = _ultra_table("j", 1, d, a, 2), _ultra_table("i", 1, d, b, 2)
    gamma = _coupling(a, b, J(2, 0), J(3, 0), I(2, 0), I(3, 0))
    m_res, m_scale, v_res, v_scale = _residual_scales(d, a, b, gamma, t, (J, I))
    bad = ops.not_(ok) | (m_res > RESIDUAL_TOL * m_scale) \
        | (v_res > RESIDUAL_TOL * v_scale)
    if ops.any_(bad):
        i = int(np.argmax(bad))
        tau, ok, status, xl, xr, vl, vr, m_res, m_scale, v_res, v_scale = (
            np.atleast_1d(v)[i] for v in (tau, ok, status, xl, xr, vl, vr,
                                          m_res, m_scale, v_res, v_scale))
        if not ok:
            raise RuntimeError(
                "the secular root find failed in the bracket from the "
                f"linear bounds: tau={tau:g}, d={d}, radius={radius:g}, "
                f"a*radius in [{xl:.17g}, {xr:.17g}], V={vl:.6g} "
                f"and V={vr:.6g} there, {_ROOT_STATUS[status]}")
        raise RuntimeError(
            f"boundary residuals exceed tolerance at tau={tau:g}: M "
            f"{m_res:.3g}/{m_scale:.3g}, V {v_res:.3g}/{v_scale:.3g}")
    with ops.quiet():    # BallMode rejects what overflows
        ar = a / radius
        br = ops.sqrt(ar * ar + tau)
        omega = ar * ar * br * br
    if ops is _FLOATS:
        return BallMode(d, tau, radius, ar, br, gamma, omega)
    return [BallMode(d, float(tau), radius, float(x), float(y), float(g),
                     float(w))
            for tau, x, y, g, w in zip(tau, ar, br, gamma, omega)]


def fundamental_tones(taus, d, radius=1.0):
    """Solve for the fundamental mode of the ball at every tension of taus
    at once, as a list of BallMode.

    The solve runs on the unit ball at tau R^2 (a positive finite double,
    or ValueError); omega_R(tau) = R^-4 omega_1(tau R^2), and a/R, b/R and
    omega_R must be finite doubles (or ValueError). The linear bounds
    tau mu < omega < tau (d+2), omega = a^2 (a^2 + tau), bracket the
    wavenumber in closed form; widened by a relative _WIDEN and clipped
    below ainf, they go to one root find over the array (Chandrupatla's,
    in specfun._bracketed_root) at a relative tolerance of 1e-13, and the
    secant through each final bracket gives a. gamma comes from the
    tables of the residual check at the roots. The first tension that
    fails raises a RuntimeError with its bracket, V at both ends and the
    status. fundamental_tone runs the same body on Python floats.
    """
    return _solve(np.asarray(taus, dtype=float).ravel(), d, radius)


def fundamental_tone(tau, d, radius=1.0):
    """Solve for the fundamental mode of the ball at one tension, as
    fundamental_tones does, but on Python floats from the bracket to the
    BallMode: the one array is the joint first evaluation of V at both
    bracket ends."""
    return _solve(float(tau), d, radius)


@lru_cache(maxsize=None)
def membrane_C(d):
    """Hessian-to-mass ratio of the free-membrane fundamental mode of the
    unit ball, C(B) = int |D^2 v|^2 / int v^2 for v = j_1(ainf r) Y_1.

    Reduces to 1D integrals with weight r^(d-1):
        numerator integrand  (rho'')^2 + 3(d-1) ((rho - r rho')/r^2)^2,
        rho(r) = j_1(ainf r), (rho - r rho')/r^2 = ainf^2 j_2(ainf r)/(ainf r),
    both by one _C_NODES-node Gauss-Legendre rule on [0, 1] (the interval's
    Jacobian cancels in the ratio), specfun's Golub-Welsch rule at weight
    1. The integrands are entire in r, so the rule converges faster than
    any power of 1/n.
    """
    ainf = first_zero_j1prime(d)
    t, w = _gauss_gegenbauer(_C_NODES, 0.5)
    r = 0.5 * (t + 1.0)
    z = ainf * r
    J = _ultra_table("j", 1, d, z, 2)
    w = w * r ** (d - 1)
    hess = (ainf**2 * J(1, 2)) ** 2 \
        + 3 * (d - 1) * (ainf**2 * J(2, 0) / z) ** 2
    return float(w @ hess) / float(w @ J(1, 0) ** 2)


def tone_bounds(tau, d):
    """Linear-in-tension bounds for the unit ball: (lower, upper_coord,
    upper_membrane) = (tau mu, tau (d+2), C(B) + tau mu) with mu = ainf^2.

    The coordinate upper bound uses int_B |x|^2 dx = |B| d/(d+2).
    """
    mu = first_zero_j1prime(d) ** 2
    return tau * mu, tau * (d + 2), membrane_C(d) + tau * mu


def infinite_tension_ratio(d, tau_list):
    """omega_1(tau)/tau along an increasing list of positive tensions; the
    ratio approaches mu = ainf^2 from above, squeezed by mu + C(B)/tau."""
    taus = [float(t) for t in tau_list]
    if any(t2 <= t1 for t1, t2 in zip(taus, taus[1:])):
        raise ValueError("tensions must be increasing")
    return [m.omega / t for t, m in zip(taus, fundamental_tones(taus, d))]
