"""Independent references for the accuracy metrics.

`omega_reference` solves the ball's secular equation in mpmath, with its
own Bessel functions, inside the bracket that the sandwich
tau*mu < omega < tau*(d+2) puts on the wavenumber. `q_reference` is the
trial quotient on the closed-form shapes by radial reduction,
int_{S^{d-1}} G(R(theta)) dtheta with G(R) = int_0^R f(r) r^(d-1) dr,
from the program's own profile (`trial.rho`, `trial.numerator_integrand`),
so it measures the quadrature alone.
"""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np

DPS = 50
Q_REF_RTOL = 1e-9    # a radial reference must agree with its doubled rule


def _ultra(kind, s):
    bessel = mp.besselj if kind == "j" else mp.besseli
    return lambda l, z: z ** (-s) * bessel(s + l, z)


def _secular(a, tau, d):
    # j_l' = (l/z) j_l - j_(l+1) and i_l' = (l/z) i_l + i_(l+1)
    s = mp.mpf(d - 2) / 2
    j, i = _ultra("j", s), _ultra("i", s)
    b = mp.sqrt(a * a + tau)
    j1, j2, j3 = j(1, a), j(2, a), j(3, a)
    i1, i2, i3 = i(1, b), i(2, b), i(3, b)
    j1p, i1p = j1 / a - j2, i1 / b + i2
    j1pp = j1p / a - j1 / a**2 - (2 * j2 / a - j3)
    i1pp = i1p / b - i1 / b**2 + (2 * i2 / b + i3)
    gamma = -(a * a) * j1pp / (b * b * i1pp)
    val, slope = j1 + gamma * i1, a * j1p + gamma * b * i1p
    return (tau + (d - 1)) * slope - (d - 1) * val + a**3 * j1p \
        - gamma * b**3 * i1p


@lru_cache(maxsize=None)
def ainf(d):
    """First zero of j_1' in mpmath, refined from a coarse scan."""
    with mp.workdps(DPS):
        s = mp.mpf(d - 2) / 2
        j = _ultra("j", s)

        def f(z):
            return j(1, z) / z - j(2, z)

        z = mp.mpf("0.25")
        while f(z + mp.mpf("0.25")) > 0:
            z += mp.mpf("0.25")
        return mp.findroot(f, (z, z + mp.mpf("0.25")), solver="anderson")


@lru_cache(maxsize=None)
def omega_reference(tau, d):
    """Fundamental tone of the unit ball at tension tau, as an mpf."""
    with mp.workdps(DPS):
        tau = mp.mpf(tau)
        top = ainf(d)
        mu = top**2
        # omega = a^2 (a^2 + tau) > tau mu bounds a from below
        lo = mp.sqrt((-tau + mp.sqrt(tau * tau + 4 * tau * mu)) / 2)
        lo *= 1 - mp.mpf("1e-6")
        hi = top * (1 - mp.mpf("1e-30"))
        a = mp.findroot(lambda t: _secular(t, tau, d), (lo, hi),
                        solver="anderson")
        return a * a * (a * a + tau)


def digits(value, ref):
    """Correct significant digits of value against ref, capped at 17."""
    ref = mp.mpf(ref)
    err = abs(mp.mpf(value) - ref) / abs(ref)
    return 17.0 if err == 0 else min(17.0, float(-mp.log10(err)))


def _gauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _radial_G(fn, R, d, n):
    """G(R) = int_0^R f(r) r^(d-1) dr per radius, split at the r = 1
    knot of the profile, Gauss-Legendre with n nodes per piece."""
    x, w = _gauss(n)
    R = np.asarray(R, dtype=float)
    total = np.zeros(R.shape)
    for lo, hi in ((np.zeros(R.shape), np.minimum(R, 1.0)),
                   (np.ones(R.shape), np.maximum(R, 1.0))):
        span = hi - lo
        r = lo[..., None] + span[..., None] * x
        vals = fn(r.ravel()).reshape(r.shape) * r ** (d - 1)
        total += span * (vals @ w)
    return total


def _pieces(fn, radius, breaks, d, n):
    """int over [breaks[0], breaks[-1]] of G(radius(t)) dt, Gauss-Legendre
    on each piece; the breaks sit where radius(t) crosses the profile's
    r = 1 knot or has a corner, so every piece is smooth."""
    x, w = _gauss(n)
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        t = lo + (hi - lo) * x
        total += (hi - lo) * float(_radial_G(fn, radius(t), d, n) @ w)
    return total


def _crossing(lo, hi, radius):
    """Parameter in (lo, hi) where the monotone radius(t) equals 1, if any."""
    r_lo, r_hi = radius(np.array([lo, hi]))
    if (r_lo - 1.0) * (r_hi - 1.0) >= 0.0:
        return []
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if (radius(np.array([mid]))[0] - 1.0) * (r_lo - 1.0) > 0.0:
            a = mid
        else:
            b = mid
    return [0.5 * (a + b)]


def _smooth_pieces(fn, radius, corners, d, n):
    breaks = [corners[0]]
    for lo, hi in zip(corners[:-1], corners[1:]):
        breaks += _crossing(lo, hi, radius) + [hi]
    return _pieces(fn, radius, breaks, d, n)


def _sphere_integral(fn, geometry, d, n):
    """int_{S^{d-1}} G(R(theta)) dtheta over a normalized closed-form shape:
    an annulus, a box in the plane, an ellipse, or a spheroid (semiaxes
    s, s, c) in space, each reduced to one quadrant by symmetry."""
    shape = geometry["shape"]
    if shape == "annulus":
        area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        G = _radial_G(fn, [geometry["inner"], geometry["outer"]], d, n)
        return area * (G[1] - G[0])
    if shape == "box":
        hx, hy = 0.5 * np.asarray(geometry["sides"])
        corner = math.atan2(hy, hx)
        with np.errstate(divide="ignore"):
            return 4.0 * _smooth_pieces(
                fn, lambda t: np.minimum(hx / np.cos(t), hy / np.sin(t)),
                [0.0, corner, 0.5 * math.pi], d, n)
    ax = np.asarray(geometry["semiaxes"])
    if d == 2:
        return 4.0 * _smooth_pieces(
            fn, lambda t: 1.0 / np.hypot(np.cos(t) / ax[0],
                                         np.sin(t) / ax[1]),
            [0.0, 0.5 * math.pi], d, n)
    if d == 3 and ax[0] == ax[1]:
        # t = cos(polar angle); dsigma = dt dphi
        return 4.0 * math.pi * _smooth_pieces(
            fn, lambda t: 1.0 / np.sqrt((1.0 - t * t) / ax[0] ** 2
                                        + (t / ax[2]) ** 2),
            [0.0, 1.0], d, n)
    raise ValueError(f"no radial reference for {geometry}")


def normalized(geometry, d):
    """The closed-form shape dilated to unit-ball volume."""
    shape = geometry["shape"]
    if shape == "annulus":
        vol = geometry["outer"] ** d - geometry["inner"] ** d
        k = vol ** (-1.0 / d)
        return {"shape": shape, "inner": k * geometry["inner"],
                "outer": k * geometry["outer"]}
    if shape == "box":
        sides = np.asarray(geometry["sides"])
        ball = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
        k = (ball / float(np.prod(sides))) ** (1.0 / d)
        return {"shape": shape, "sides": tuple(k * sides)}
    ax = np.asarray(geometry["semiaxes"])
    k = float(np.prod(ax)) ** (-1.0 / d)
    return {"shape": shape, "semiaxes": tuple(k * ax)}


def q_reference(geometry, d, tau, n=20):
    """Trial quotient of a closed-form shape and its convergence gap.

    Returns (Q, relative change of Q when the node counts double).
    """
    from freeplate import ball, trial

    prof = trial.TrialProfile(ball.fundamental_tone(float(tau), d))
    shape = normalized(geometry, d)

    def quotient(m):
        num = _sphere_integral(
            lambda r: trial.numerator_integrand(prof, r), shape, d, m)
        den = _sphere_integral(lambda r: trial.rho(prof, r) ** 2, shape,
                               d, m)
        return num / den

    q, q2 = quotient(n), quotient(2 * n)
    return q2, abs(q2 - q) / abs(q2)
