"""Fundamental mode of the free plate under tension on a d-dimensional ball.

The first nonzero eigenvalue omega of Delta^2 u - tau Delta u = omega u with
natural boundary conditions has an l = 1 mode u = R(r) Y_1 with radial part

    R(r) = j_1(a r) + gamma i_1(b r),    b^2 - a^2 = tau,  omega = a^2 b^2.

On the unit ball, at tau R^2, gamma enforces R''(1) = 0 and the wavenumber
a is the root of the residual V of the remaining natural condition
(_secular_parts below) in the bracket from the linear bounds
tau mu < omega < tau (d+2), found by Newton steps with dV/da from V's
tables. The solve checks both conditions at the root and hands back their
residuals with the mode. This module solves for the mode at many tensions
at once and exposes those bounds and the membrane comparison constant.
"""

import math
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


def _coupling(a, b, j2, j3, i2, i3):
    # gamma on the unit ball from j_2, j_3 at a and i_2, i_3 at b: R''(1) = 0
    # with the order recurrences j_1'' = j_3 - 3 j_2/z, i_1'' = i_3 + 3 i_2/z
    return -a * (a * j3 - 3.0 * j2) / (b * (b * i3 + 3.0 * i2))


def _secular_parts(a, tau, d):
    # gamma, V and dV/da on the unit ball from j_1..j_3 at a, i_1..i_3 at b
    # and their first derivatives, one table of each to the third
    # derivative (whose entries through the second are the second-
    # derivative table's). The order recurrences give z j_1' - j_1 =
    # -z j_2, z i_1' - i_1 = z i_2; with R''(1) = 0 the radial equations
    # turn (d-1)(R'(1) - R(1)) into gamma b^2 i_1 - a^2 j_1, so
    # V = tau R'(1) - a^3 j_2 - gamma b^3 i_2, three terms of V's own
    # order z^5: nothing cancels at small tension. dV/da follows by the
    # chain rule, with db/da = a/b. V and dV/da come scaled by 2^(-5e),
    # b = m 2^e, a factor spread over the products so that none of them
    # underflows where V, of order b^5 at small tension, would (tau below
    # about 1e-246); elsewhere the scaling is exact, so V/V' keeps its bits
    ops = _FLOATS if isinstance(a, float) else _ARRAYS
    b = ops.sqrt(a * a + tau)
    J, I = _ultra_table("j", 1, d, a, 3), _ultra_table("i", 1, d, b, 3)
    j1, j2, j3, dj1, dj2, dj3 = J(1, 0), J(2, 0), J(3, 0), J(1, 1), \
        J(2, 1), J(3, 1)
    i1, i2, i3, di1, di2, di3 = I(1, 0), I(2, 0), I(3, 0), I(1, 1), \
        I(2, 1), I(3, 1)
    gamma = _coupling(a, b, j2, j3, i2, i3)
    # gamma = -n / m with n = a (a j_3 - 3 j_2) and m = b (b i_3 + 3 i_2)
    r = a / b
    dn = a * (a * dj3 + 2.0 * j3 - 3.0 * dj2) - 3.0 * j2
    dm = (b * (b * di3 + 2.0 * i3 + 3.0 * di2) + 3.0 * i2) * r
    dgamma = -(dn + gamma * dm) / (b * (b * i3 + 3.0 * i2))
    ib = i1 + b * i2
    slope = j1 - a * j2 + gamma * ib
    dslope = dj1 - j2 - a * dj2 + dgamma * ib \
        + gamma * (di1 + i2 + b * di2) * r
    e, ld = ops.frexp(b)[1], ops.ldexp
    sa, sb, st = ld(a, -e), ld(b, -e), ld(tau, -4 * e)
    sb2 = sb * sb
    sj2, si2 = ld(j2, -2 * e), ld(i2, -2 * e)
    v = st * ld(slope, -e) - sa * sa * sa * sj2 - gamma * (sb2 * sb) * si2
    dv = st * ld(dslope, -e) - sa * sa * ld(3.0 * j2 + a * dj2, -3 * e) \
        - dgamma * (sb2 * sb) * si2 \
        - gamma * sb2 * ld(3.0 * i2 + b * di2, -3 * e) * r
    return gamma, v, dv, e


def _secular_vec(a, tau, d):
    # V itself, unscaled; it underflows where tau is below about 1e-246
    _, v, _, e = _secular_parts(a, tau, d)
    return (_FLOATS if isinstance(a, float) else _ARRAYS).ldexp(v, 5 * e)


def _residual_scales(d, a, b, gamma, tau, J, I):
    """Residuals and natural scales (sums of the terms' magnitudes) of the
    natural conditions on the unit ball, from the tables J at a and I at b:
    a^2 j_1''(a) + gamma b^2 i_1''(b) and, in closed form,
        (tau + d - 1) R'(1) - (d - 1) R(1) + a^3 j_1'(a) - gamma b^3 i_1'(b);
    a, b, gamma and tau may be arrays."""
    t1 = a * a * J(1, 2)
    t2 = gamma * b * b * I(1, 2)
    m_res, m_scale = abs(t1 + t2), abs(t1) + abs(t2)
    j1, i1, j1p, i1p = J(1, 0), I(1, 0), J(1, 1), I(1, 1)
    terms = [(tau + (d - 1)) * (a * j1p + gamma * b * i1p),
             -(d - 1) * (j1 + gamma * i1),
             a * a * a * j1p, -gamma * (b * b * b) * i1p]
    v_res, v_scale = abs(sum(terms)), sum(abs(t) for t in terms)
    return m_res, m_scale, v_res, v_scale


def _solve(tau, d, radius):
    # the modes at tau, one body on a float tension (a BallMode, solved on
    # floats) or on an array of them (a list), and the relative moment and
    # shear residuals that the check took; see fundamental_tones
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
    x, status, (xl, xr), _ = _bracketed_root(
        lambda a, tt: _secular_parts(a, tt, d)[1:3], lo, hi, t)
    ok = status == 0
    a = ops.where(ok, x, lo)      # lo where the solve failed
    b = ops.sqrt(a * a + t)
    J, I = _ultra_table("j", 1, d, a, 2), _ultra_table("i", 1, d, b, 2)
    gamma = _coupling(a, b, J(2, 0), J(3, 0), I(2, 0), I(3, 0))
    m_res, m_scale, v_res, v_scale = _residual_scales(d, a, b, gamma, t, J, I)
    bad = ops.not_(ok) | (m_res > RESIDUAL_TOL * m_scale) \
        | (v_res > RESIDUAL_TOL * v_scale)
    if ops.any_(bad):
        i = int(np.argmax(bad))
        tau, t, ok, status, xl, xr, m_res, m_scale, v_res, v_scale = (
            np.atleast_1d(v)[i] for v in (tau, t, ok, status, xl, xr, m_res,
                                          m_scale, v_res, v_scale))
        if not ok:
            # V itself at both ends: the root find's values are scaled, and
            # an end it never reached has none
            vl, vr = (_secular_vec(float(x), float(t), d) for x in (xl, xr))
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
    res = m_res / m_scale, v_res / v_scale
    if ops is _FLOATS:
        return (BallMode(d, tau, radius, ar, br, gamma, omega), *res)
    return ([BallMode(d, float(tau), radius, float(x), float(y), float(g),
                      float(w))
             for tau, x, y, g, w in zip(tau, ar, br, gamma, omega)], *res)


def fundamental_tones(taus, d, radius=1.0):
    """Solve for the fundamental mode of the ball at every tension of taus
    at once, as a list of BallMode.

    The solve runs on the unit ball at tau R^2 (a positive finite double,
    or ValueError); omega_R(tau) = R^-4 omega_1(tau R^2), and a/R, b/R and
    omega_R must be finite doubles (or ValueError). The linear bounds
    tau mu < omega < tau (d+2), omega = a^2 (a^2 + tau), bracket the
    wavenumber in closed form; widened by a relative _WIDEN and clipped
    below ainf, they go to one root find over the array, the safeguarded
    Newton method of specfun._bracketed_root on V and dV/da (from
    _secular_parts, one J and one I table per evaluation), which starts
    at each bracket's midpoint and takes about 3 evaluations; a is its
    last Newton point. One table pair at the roots gives gamma and both
    residuals, each relative to its terms' magnitudes; the first tension
    with a failed root find (final bracket, V at both ends and the status)
    or a residual over RESIDUAL_TOL raises a RuntimeError. No tension, no
    evaluation. fundamental_tone runs the same body on Python floats.
    """
    return _solve(np.asarray(taus, dtype=float).ravel(), d, radius)[0]


def fundamental_tone(tau, d, radius=1.0):
    """Solve for the fundamental mode of the ball at one tension, as
    fundamental_tones does, but on Python floats from the bracket to the
    BallMode, with no array between, and with the same bits."""
    return _solve(float(tau), d, radius)[0]


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

    The coordinate upper bound uses int_B |x|^2 dx = |B| d/(d+2). A tau
    that is no positive finite double raises ValueError.
    """
    tau = _unit_tension(float(tau), 1.0)
    mu = first_zero_j1prime(d) ** 2
    return tau * mu, tau * (d + 2), membrane_C(d) + tau * mu


def infinite_tension_ratio(d, tau_list):
    """omega_1(tau)/tau along an increasing list of positive tensions; the
    ratio approaches mu = ainf^2 from above, squeezed by mu + C(B)/tau."""
    taus = [float(t) for t in tau_list]
    if any(t2 <= t1 for t1, t2 in zip(taus, taus[1:])):
        raise ValueError("tensions must be increasing")
    return [m.omega / t for t, m in zip(taus, fundamental_tones(taus, d))]
