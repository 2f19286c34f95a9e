"""Radial trial profile for the quotient bound.

The profile rho equals the solved ball mode's radial part on [0, 1] and
continues linearly beyond r = 1. This module evaluates rho, its
derivatives, the quotient-numerator integrand N[rho], and the pointwise
sub-checks (concavity of rho, partial monotonicity of N) that the
isoperimetric argument relies on; `verify` reduces them to lemma rows.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .ball import BallMode
from .specfun import _ultra_table

ENDPOINT_TOL = 1e-10
_EQ_SLACK = 1e-12
# the names of _profile_checks' sub-checks of the concavity row
_CONCAVITY = ("concave", "flat-at-0", "flat-at-1", "fourth-positive")


@dataclass(frozen=True)
class TrialProfile:
    """Radial trial function built from a unit-ball mode.

    Parameters
    ----------
    mode : BallMode
        Solved fundamental mode of the unit ball (radius must be 1).
    small_r_threshold : float, optional
        Below this radius the profile and its derived ratios are evaluated
        by explicit power series, avoiding 0/0 in (rho - r rho')/r^2.
    """

    mode: BallMode
    small_r_threshold: float = 1e-3

    def __post_init__(self):
        if self.mode.radius != 1.0:
            raise ValueError("trial profile requires a unit-ball mode (radius 1)")
        if not 0.0 < self.small_r_threshold <= 0.1:
            raise ValueError("small_r_threshold must lie in (0, 0.1]")


@lru_cache(maxsize=32)
def _series_coeffs(profile):
    # rho(r) = sum_k A_k r^(1+2k) with
    # A_k = c_k ((-1)^k a^(1+2k) + gamma b^(1+2k)),
    # c_k = 1 / (2^(s+1+2k) k! Gamma(s+k+2)), s = (d-2)/2
    m = profile.mode
    s = (m.d - 2) / 2.0
    zb = m.b * profile.small_r_threshold
    nterms = min(80, max(10, int(2.0 * zb) + 10))
    c0 = math.exp(-(s + 1.0) * math.log(2.0) - math.lgamma(s + 2.0))
    ca = c0 * m.a
    cb = c0 * m.b
    A = np.empty(nterms)
    for k in range(nterms):
        A[k] = ca + m.gamma * cb
        ca *= -m.a * m.a / (4.0 * (k + 1) * (s + k + 2.0))
        cb *= m.b * m.b / (4.0 * (k + 1) * (s + k + 2.0))
    k = np.arange(nterms, dtype=float)
    return {
        "rho": A,                              # rho = r * P(r^2; .)
        "d1": (1.0 + 2.0 * k) * A,             # rho' = P(r^2; .)
        "d2": (2.0 * k * (1.0 + 2.0 * k) * A)[1:],   # rho'' = r * P(r^2; .)
        "q": (-2.0 * k * A)[1:],               # (rho - r rho')/r^2 = r * P(r^2; .)
        # rho'''' = r * P(r^2; .)
        "d4": ((1.0 + 2.0 * k) * 2.0 * k * (2.0 * k - 1.0) * (2.0 * k - 2.0)
               * A)[2:],
    }


@lru_cache(maxsize=32)
def _edge_values(profile):
    # rho(1), rho'(1), rho''(1-) and rho''''(1-) of the mode, from one table
    # pair at (a, b); the linear extension is rho(r) = c0 + slope * r with
    # c0 = rho(1) - rho'(1)
    m = profile.mode
    J = _ultra_table("j", 1, m.d, m.a, 4)
    I = _ultra_table("i", 1, m.d, m.b, 4)
    r1 = J(1, 0) + m.gamma * I(1, 0)
    rp1 = m.a * J(1, 1) + m.gamma * m.b * I(1, 1)
    r2 = m.a**2 * J(1, 2) + m.gamma * m.b**2 * I(1, 2)
    r4 = m.a**4 * J(1, 4) + m.gamma * m.b**4 * I(1, 4)
    return r1, rp1, r2, r4


def _validate_r(r):
    arr = np.asarray(r, dtype=float)
    if arr.size and (np.any(np.isnan(arr)) or np.any(arr < 0)):
        raise ValueError("r must be nonnegative and finite")
    return arr


def _eval_pieces(profile, r, deriv=2):
    # returns rho, rho', rho'', q = (rho - r rho')/r^2, p = rho/r, all
    # finite at r = 0 through the series branch (q -> 0, p -> rho'(0));
    # deriv=4 adds rho'''' as "d4", from the same tables
    m = profile.mode
    thr = profile.small_r_threshold
    r1, rp1 = _edge_values(profile)[:2]
    c0 = r1 - rp1
    names = ("rho", "d1", "d2", "q", "p") + (("d4",) if deriv == 4 else ())
    out = {name: np.empty_like(r) for name in names}

    tiny = r < thr
    mid = (~tiny) & (r < 1.0)
    far = r >= 1.0

    if np.any(tiny):
        cs = _series_coeffs(profile)
        t = r[tiny]
        t2 = t * t
        out["rho"][tiny] = t * npoly.polyval(t2, cs["rho"])
        out["d1"][tiny] = npoly.polyval(t2, cs["d1"])
        out["d2"][tiny] = t * npoly.polyval(t2, cs["d2"])
        out["q"][tiny] = t * npoly.polyval(t2, cs["q"])
        out["p"][tiny] = npoly.polyval(t2, cs["rho"])
        if deriv == 4:
            out["d4"][tiny] = t * npoly.polyval(t2, cs["d4"])
    if np.any(mid):
        t = r[mid]
        za = m.a * t
        zb = m.b * t
        J = _ultra_table("j", 1, m.d, za, deriv)
        I = _ultra_table("i", 1, m.d, zb, deriv)
        j1, i1 = J(1, 0), I(1, 0)
        out["rho"][mid] = j1 + m.gamma * i1
        out["d1"][mid] = m.a * J(1, 1) + m.gamma * m.b * I(1, 1)
        out["d2"][mid] = m.a**2 * J(1, 2) + m.gamma * m.b**2 * I(1, 2)
        # j_1 - z j_1' = z j_2 and i_1 - z i_1' = -z i_2 turn the defect
        # (rho - r rho')/r^2 into a cancellation-free combination
        out["q"][mid] = m.a**2 * J(2, 0) / za - m.gamma * m.b**2 * I(2, 0) / zb
        out["p"][mid] = m.a * j1 / za + m.gamma * m.b * i1 / zb
        if deriv == 4:
            out["d4"][mid] = m.a**4 * J(1, 4) + m.gamma * m.b**4 * I(1, 4)
    if np.any(far):
        t = r[far]
        out["rho"][far] = c0 + rp1 * t
        out["d1"][far] = rp1
        out["d2"][far] = 0.0
        out["q"][far] = c0 / (t * t)
        out["p"][far] = c0 / t + rp1
        if deriv == 4:
            out["d4"][far] = 0.0
    return out


def rho(profile, r, deriv=0):
    """Evaluate the trial profile or one of its first two derivatives.

    Parameters
    ----------
    profile : TrialProfile
    r : float or array_like
        Radii, >= 0.
    deriv : int, optional
        Derivative order, 0, 1 or 2.

    Returns
    -------
    float or ndarray
        rho^(deriv)(r); beyond r = 1 the profile is linear, so the second
        derivative is 0 there.
    """
    if deriv not in (0, 1, 2):
        raise ValueError("deriv must be 0, 1 or 2")
    arr = _validate_r(r)
    pieces = _eval_pieces(profile, np.atleast_1d(arr))
    vals = pieces[("rho", "d1", "d2")[deriv]]
    return float(vals[0]) if arr.ndim == 0 else vals


def numerator_integrand(profile, r):
    """Radial integrand N[rho] of the quotient-bound numerator.

    N = (rho'')^2 + 3(d-1)(rho - r rho')^2 / r^4 + tau (rho')^2
        + tau (d-1) rho^2 / r^2,
    with the analytic limit tau * d * rho'(0)^2 at r = 0.

    Parameters
    ----------
    profile : TrialProfile
    r : float or array_like
        Radii, >= 0.

    Returns
    -------
    float or ndarray
    """
    arr = _validate_r(r)
    vals = _numerator(profile.mode, _eval_pieces(profile, np.atleast_1d(arr)))
    return float(vals[0]) if arr.ndim == 0 else vals


def _numerator(m, pc):
    return (pc["d2"] ** 2 + 3.0 * (m.d - 1) * pc["q"] ** 2
            + m.tau * pc["d1"] ** 2 + m.tau * (m.d - 1) * pc["p"] ** 2)


def h_decrease_quantity(profile, r):
    """Quantity (6/r^2)(rho - r rho') + 3 rho'' + tau rho.

    Its positivity on (0, 1] makes h(r) = 3(rho - r rho')^2/r^4
    + tau rho^2/r^2 decreasing, the step that needs the gamma chain.
    """
    arr = _validate_r(r)
    vals = _h_quantity(profile.mode, _eval_pieces(profile, np.atleast_1d(arr)))
    return float(vals[0]) if arr.ndim == 0 else vals


def _h_quantity(m, pc):
    return 6.0 * pc["q"] + 3.0 * pc["d2"] + m.tau * pc["rho"]


def _profile_checks(profile, inner, outer):
    """Named sub-checks, each (margin, point), from one evaluation of the
    profile, rho'''' included, on the inner grid in (0, 1), the outer grid
    in [1, inf) and r = 1. First the four of concavity, named in
    _CONCAVITY: -rho'' inside; rho'' = 0 at both ends, as equalities at
    ENDPOINT_TOL; and rho'''' > 0 on the inner grid and r = 1, so that
    rho'' can vanish only at the ends. Then those of the partial
    monotonicity of N[rho] (N inside above N outside, and its three
    ingredients), among them "denominator-rise" (rho^2 increasing over both
    grids) and "h-quantity" (h_decrease_quantity on the inner grid and
    r = 1)."""
    m = profile.mode
    ni = inner.size
    pc = _eval_pieces(profile, np.concatenate([inner, outer, [1.0]]), deriv=4)
    combined = np.concatenate([inner, outer])
    closed = np.append(inner, 1.0)
    checks = {}

    d2 = pc["d2"]
    i = int(np.argmin(-d2[:ni]))
    checks["concave"] = (float(-d2[i]), (inner[i],))
    # rho''(0) = 0 by the odd series, rho''(1-) = 0 by the construction of
    # gamma
    _, _, d2_end, d4_end = _edge_values(profile)
    checks["flat-at-0"] = (ENDPOINT_TOL - abs(rho(profile, 0.0, deriv=2)),
                           (0.0,))
    checks["flat-at-1"] = (ENDPOINT_TOL - abs(d2_end), (1.0,))
    d4 = np.append(pc["d4"][:ni], d4_end)
    i = int(np.argmin(d4))
    checks["fourth-positive"] = (float(d4[i]), (closed[i],))

    n = _numerator(m, pc)
    n_in, n_out = n[:ni], n[ni:-1]
    i, j = int(np.argmin(n_in)), int(np.argmax(n_out))
    checks["numerator-gap"] = (float(n_in[i] - n_out[j]), (inner[i], outer[j]))

    i = int(np.argmin(d2[:ni] ** 2))
    checks["curvature-inside"] = (float(d2[i] ** 2), (inner[i],))
    d2_out_max = float(np.max(d2[ni:-1] ** 2))
    checks["curvature-outside"] = (_EQ_SLACK - d2_out_max, (outer[0],))

    grad = m.tau * pc["d1"][:-1] ** 2
    drops = grad[:-1] - grad[1:]
    i = int(np.argmin(drops))
    checks["gradient-drop"] = (
        float(drops[i]) + _EQ_SLACK * float(np.max(grad)), (combined[i],))

    h = 3.0 * pc["q"][:-1] ** 2 + m.tau * pc["p"][:-1] ** 2
    drops = h[:-1] - h[1:]
    i = int(np.argmin(drops))
    checks["h-drop"] = (float(drops[i]), (combined[i],))

    den = pc["rho"][:-1] ** 2
    rises = den[1:] - den[:-1]
    i = int(np.argmin(rises))
    checks["denominator-rise"] = (float(rises[i]), (combined[i],))
    checks["denominator-gap"] = (float(np.min(den[ni:]) - np.max(den[:ni])),
                                 (inner[-1], outer[0]))

    quant = _h_quantity(m, pc)
    quant = np.append(quant[:ni], quant[-1])
    i = int(np.argmin(quant))
    checks["h-quantity"] = (float(quant[i]), (closed[i],))
    return checks
